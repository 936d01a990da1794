import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droughtcast import autodiff as ad
from droughtcast.autodiff import (
    RngState,
    Tensor,
    add,
    backward,
    concat,
    dropout,
    grad_check,
    gather_rows,
    matmul,
    mean_all,
    mul,
    no_grad,
    relu,
    reshape,
    slice_tensor,
    softmax,
    sum_all,
    transpose,
)
from droughtcast.errors import ConfigError, NumericError, ShapeError


def test_add_direct():
    out = add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
    np.testing.assert_array_equal(out.data, [4.0, 6.0])


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


def test_no_grad_records_nothing_and_restores_state():
    a = Tensor([1.0, 2.0], requires_grad=True)
    with no_grad():
        inside = mul(a, a)
        with no_grad():
            pass
        still_inside = mul(a, a)
    assert inside._parents == () and not inside.requires_grad
    assert still_inside._parents == ()
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("boom")
    after = mul(a, a)
    assert after._parents == (a, a) and after.requires_grad


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(matmul(a, b).data, b.data)


def test_matmul_row_times_column():
    out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.shape == (1, 1)
    assert out.item() == 11.0


def test_matmul_inner_dim_mismatch():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_matmul_gradient_matches_finite_differences():
    rng = RngState(7)
    a = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, (4, 2)), requires_grad=True)

    backward(sum_all(matmul(a, b)))
    np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b.data.T)

    report = grad_check(lambda: sum_all(matmul(a, b)), {"a": a, "b": b}, step=1e-6, tolerance=1e-6)
    assert report.ok, report.per_input


def test_softmax_symmetry_and_known_values():
    np.testing.assert_allclose(softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])
    np.testing.assert_allclose(softmax(Tensor([0.0, np.log(2.0)])).data, [1 / 3, 2 / 3], atol=1e-15)
    np.testing.assert_allclose(softmax(Tensor([1000.0, 1000.0])).data, [0.5, 0.5])


def test_softmax_rejects_nan():
    with pytest.raises(NumericError):
        softmax(Tensor([np.nan, 0.0]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=12), st.floats(min_value=-30, max_value=30))
def test_softmax_simplex_and_shift_invariance(values, offset):
    x = np.asarray(values)
    base = softmax(Tensor(x)).data
    assert abs(base.sum() - 1.0) <= 1e-12
    assert (base > 0).all()
    shifted = softmax(Tensor(x + offset)).data
    np.testing.assert_allclose(shifted, base, atol=1e-12)


def test_concat_and_slice_round_trip():
    out = concat([Tensor([1.0]), Tensor([2.0, 3.0])], axis=0)
    np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(slice_tensor(out, [(0, 2)]).data, [1.0, 2.0])


def test_concat_dim_mismatch():
    with pytest.raises(ShapeError):
        concat([Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4)))], axis=0)


def test_concat_gradient_routing():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0], requires_grad=True)
    backward(sum_all(concat([a, b], axis=0)))
    np.testing.assert_array_equal(a.grad, [1.0, 1.0])
    np.testing.assert_array_equal(b.grad, [1.0])


def test_slice_routes_gradient_to_region_only():
    a = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    backward(sum_all(slice_tensor(a, [(1, 3), (0, 2)])))
    expected = np.zeros((3, 4))
    expected[1:3, 0:2] = 1.0
    np.testing.assert_array_equal(a.grad, expected)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_concat_slice_gradient_mass_conserved(n, m):
    rng = RngState(n * 100 + m)
    a = Tensor(rng.uniform(-1, 1, (n, 3)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, (m, 3)), requires_grad=True)
    out = concat([a, b], axis=0)
    backward(sum_all(out))
    routed = a.grad.sum() + b.grad.sum()
    assert routed == float(n + m) * 3


def test_dropout_identity_cases():
    rng = RngState(3)
    a = Tensor(np.ones(8), requires_grad=True)
    assert dropout(a, 0.0, True, rng) is a
    assert dropout(a, 0.7, False, rng) is a


def test_dropout_rejects_p_of_one():
    with pytest.raises(ConfigError):
        dropout(Tensor(np.ones(4)), 1.0, True, RngState(0))


def test_dropout_preserves_mean_and_is_reproducible():
    n = 100_000
    a = Tensor(np.ones(n))
    out = dropout(a, 0.5, True, RngState(11))
    assert abs(out.data.mean() - 1.0) < 0.02
    again = dropout(a, 0.5, True, RngState(11))
    np.testing.assert_array_equal(out.data, again.data)


def test_dropout_gradient_uses_same_mask():
    rng = RngState(5)
    a = Tensor(np.ones(1000), requires_grad=True)
    out = dropout(a, 0.25, True, rng)
    mask = out.data.copy()
    backward(sum_all(out))
    np.testing.assert_array_equal(a.grad, mask)


def test_backward_of_sum_gives_ones():
    a = Tensor(np.zeros((2, 3, 4)), requires_grad=True)
    backward(sum_all(a))
    np.testing.assert_array_equal(a.grad, np.ones((2, 3, 4)))


def test_backward_of_square_sum_gives_two_a():
    a = Tensor(np.array([1.0, -2.0, 3.5]), requires_grad=True)
    backward(sum_all(mul(a, a)))
    np.testing.assert_array_equal(a.grad, 2 * a.data)


def test_backward_rejects_nonscalar_root():
    a = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        backward(add(a, a))


def test_backward_accumulates_at_fan_in():
    a = Tensor([2.0], requires_grad=True)
    backward(sum_all(add(a, a)))
    np.testing.assert_array_equal(a.grad, [2.0])


def test_broadcast_bias_over_rows():
    a = Tensor(np.ones((3, 2)), requires_grad=True)
    b = Tensor([1.0, 2.0], requires_grad=True)
    out = add(a, b)
    np.testing.assert_array_equal(out.data, [[2.0, 3.0]] * 3)
    backward(sum_all(out))
    np.testing.assert_array_equal(b.grad, [3.0, 3.0])


def test_broadcast_rejected_outside_rule():
    with pytest.raises(ShapeError):
        add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))
    with pytest.raises(ShapeError):
        add(Tensor(np.ones((4, 3))), Tensor(np.ones(4)))
    with pytest.raises(ShapeError):  # a column does not broadcast over columns
        mul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 1))))
    with pytest.raises(ShapeError):  # the vector comes second
        add(Tensor(np.ones(3)), Tensor(np.ones((2, 3))))


def test_gather_rows_lookup_and_gradient():
    table = Tensor(np.eye(3), requires_grad=True)
    out = gather_rows(table, [2])
    np.testing.assert_array_equal(out.data, [[0.0, 0.0, 1.0]])

    table.zero_grad()
    backward(sum_all(gather_rows(table, [1, 1])))
    expected = np.zeros((3, 3))
    expected[1] = 2.0
    np.testing.assert_array_equal(table.grad, expected)


def test_gather_rows_out_of_range():
    with pytest.raises(IndexError):
        gather_rows(Tensor(np.eye(3)), [3])
    with pytest.raises(IndexError):
        gather_rows(Tensor(np.eye(3)), [-1])


def test_grad_check_relu_matmul():
    rng = RngState(21)
    a = Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)
    report = grad_check(lambda: sum_all(relu(matmul(a, b))), {"a": a, "b": b}, step=1e-5, tolerance=1e-6)
    assert report.ok, report.per_input


def test_grad_check_with_frozen_dropout_mask():
    rng = RngState(9)
    a = Tensor(rng.uniform(-1, 1, (4, 4)), requires_grad=True)
    # recreating the stream each call freezes the mask across evaluations
    fn = lambda: sum_all(dropout(softmax(a, axis=1), 0.3, True, RngState(123)))
    report = grad_check(fn, {"a": a}, step=1e-5, tolerance=1e-6)
    assert report.ok, report.per_input


def test_grad_check_softmax_weighted_sum():
    rng = RngState(13)
    scores = Tensor(rng.uniform(-1, 1, (1, 5)), requires_grad=True)
    h = Tensor(rng.uniform(-1, 1, (5, 3)), requires_grad=True)

    def fn():
        alpha = softmax(scores, axis=1)
        return sum_all(matmul(alpha, h))

    report = grad_check(fn, {"scores": scores, "h": h}, step=1e-5, tolerance=1e-6)
    assert report.ok, report.per_input


def test_transpose_and_reshape_gradients():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    report = grad_check(lambda: sum_all(mul(transpose(a), transpose(a))), {"a": a}, tolerance=1e-6)
    assert report.ok
    a.zero_grad()
    backward(sum_all(mul(reshape(a, (6,)), reshape(a, (6,)))))
    np.testing.assert_allclose(a.grad, 2 * a.data)


def test_mean_all():
    assert mean_all(Tensor([1.0, 2.0, 3.0])).item() == 2.0


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


def test_graph_freed_after_backward():
    a = Tensor([1.0, 2.0], requires_grad=True)
    out = sum_all(mul(a, a))
    backward(out)
    assert out._parents == ()
    assert out._backward is None
