import tracemalloc
import warnings

import numpy as np
from conftest import drain_layer
from hypothesis import given, settings
from hypothesis import strategies as st

from droughtcast.autodiff import RngState, Tensor, grad_check
from droughtcast.layers import PROJECT_STEPS, LstmForward


def _gates_of(z):
    """The i, f, g and o activations of a one-step, one-unit layer whose
    pre-activation is ``z`` in all four gates: one input channel holding
    ``z``, input weights of 1 and zero recurrent weights and bias, so each
    batch row's z is its input exactly.  Fails on any warning."""
    x = np.asarray(z, dtype=np.float64).reshape(1, -1, 1)
    w = np.zeros((2, 4))
    w[0] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, cache = drain_layer(x, w, np.zeros(4), training=True)
    return cache[2][0]  # (B, 4): i, f, g, o


def test_gate_activations_match_a_long_double_sigmoid_and_tanh():
    rng = np.random.default_rng(0)
    z = np.concatenate([rng.normal(0.0, 3.0, 20_000), rng.uniform(-40.0, 40.0, 20_000)])
    gates = _gates_of(z)
    sigmoid = 1.0 / (1.0 + np.exp(-z.astype(np.longdouble)))
    error = np.abs(gates[:, [0, 1, 3]].astype(np.longdouble) - sigmoid[:, None])
    assert error.max() <= 1.2e-16, error.max()
    np.testing.assert_array_equal(gates[:, 2].view(np.int64), np.tanh(z).view(np.int64))


def test_gate_activations_at_zero_the_extremes_and_nan():
    z = np.array([0.0, -0.0, 1e308, np.inf, -1e308, -np.inf, np.nan])
    sigmoids = _gates_of(z)[:, [0, 1, 3]]
    assert (sigmoids[:2] == 0.5).all()
    assert (sigmoids[2:4] == 1.0).all()
    assert (sigmoids[4:6] == 0.0).all()
    assert np.isnan(sigmoids[6]).all()


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
    eval_h, cache = drain_layer(x, w, b, training=False)
    train_h, _ = drain_layer(x, w, b, training=True)
    assert cache is None
    np.testing.assert_array_equal(eval_h.view(np.int64), train_h.view(np.int64))


def test_eval_forward_never_holds_the_whole_input_projection():
    steps, batch, hidden = 180, 64, 64
    x, w, b = _lstm_inputs(steps, batch, hidden, hidden, seed=0)
    tracemalloc.start()
    try:
        run = LstmForward(x, w, b, training=False)
        for start in range(0, steps, PROJECT_STEPS):
            run.project(start)
            run.step(start)
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
