import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from droughtcast import autodiff as ad
from droughtcast.autodiff import RngState, Tensor, grad_check


def test_sigmoid_at_zero():
    assert ad._sigmoid(np.array([0.0]))[0] == 0.5


def _masked_sigmoid(x):
    """The sign-split formula the kernel replaced, kept as its reference."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_matches_masked_formula_bit_for_bit():
    edges = np.array([0.0, -0.0, 700.0, -700.0, 800.0, -800.0, 1e-300, -1e-300, np.nan])
    x = np.concatenate([edges, np.random.default_rng(0).normal(0.0, 3.0, 10_000)])
    with np.errstate(over="ignore"):
        expected = _masked_sigmoid(x)
    got = ad._sigmoid(x)
    nan = np.isnan(x)
    np.testing.assert_array_equal(got[~nan].view(np.int64), expected[~nan].view(np.int64))
    assert np.isnan(got[nan]).all()  # NaN stays NaN; its sign bit carries nothing


def _lstm_inputs(steps, batch, hidden, n_in, seed):
    rng = RngState(seed)
    return (rng.uniform(-2, 2, (steps, batch, n_in)),
            rng.uniform(-1, 1, (n_in + hidden, 4 * hidden)),
            rng.uniform(-1, 1, 4 * hidden))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=80), st.integers(min_value=1, max_value=64),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_eval_forward_matches_the_training_forward_bit_for_bit(steps, batch, hidden, n_in, seed):
    x, w, b = _lstm_inputs(steps, batch, hidden, n_in, seed)
    eval_h, cache = ad.lstm_forward(x, w, b, training=False)
    train_h, _ = ad.lstm_forward(x, w, b, training=True)
    assert cache is None
    np.testing.assert_array_equal(eval_h.view(np.int64), train_h.view(np.int64))


def test_eval_forward_never_holds_the_whole_input_projection():
    steps, batch, hidden = 180, 64, 64
    x, w, b = _lstm_inputs(steps, batch, hidden, hidden, seed=0)
    tracemalloc.start()
    try:
        ad.lstm_forward(x, w, b, training=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    projection = steps * batch * 4 * hidden * 8  # the (T, B, 4H) float64 buffer, 23.6 MB
    assert peak < projection / 2, f"eval forward peaked at {peak / 1e6:.1f} MB"


def _square_sum(a, wrong=1.0):
    """``sum(a * a)`` with the gradient ``2a``, scaled by ``wrong``."""
    def fn():
        a.grad = 2.0 * a.data * wrong
        return float((a.data * a.data).sum())

    return fn


def test_grad_check_accepts_the_true_gradient_and_flags_a_wrong_one():
    a = Tensor(RngState(21).uniform(-1, 1, (3, 3)))
    good = grad_check(_square_sum(a), {"a": a}, step=1e-5, tolerance=1e-6)
    assert good.ok, good.per_input
    bad = grad_check(_square_sum(a, wrong=1.01), {"a": a}, step=1e-5, tolerance=1e-6)
    assert bad.failures == ["a"]
    assert 0.005 < bad.max_error < 0.02


def test_grad_check_restores_every_perturbed_entry():
    a = Tensor(RngState(22).uniform(-1, 1, (2, 4)))
    before = a.data.copy()
    grad_check(_square_sum(a), {"a": a})
    np.testing.assert_array_equal(a.data, before)


def test_rng_bit_identical_streams():
    a = RngState(42)
    b = RngState(42)
    np.testing.assert_array_equal(a.random(1000), b.random(1000))
    np.testing.assert_array_equal(a.permutation(50), b.permutation(50))


def test_rng_split_is_stable_and_independent():
    root = RngState(42)
    c1 = root.split("init")
    c2 = root.split("init")
    assert c1.seed == c2.seed
    assert root.split("init").seed != root.split("shuffle").seed
