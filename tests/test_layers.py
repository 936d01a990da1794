import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droughtcast.autodiff import RngState, Tensor, backward, grad_check, lstm, reshape, sum_all
from droughtcast.errors import EmptySequenceError, ShapeError
from droughtcast.layers import (
    AffineLayer,
    AttentionHead,
    EmbeddingTable,
    LstmStack,
    Mlp,
    attend,
    attend_batched,
    embed,
    lstm_states,
)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def lstm_sequence(stack, x):
    """Top-layer hidden states ``(T, h)`` of one ``(T, in)`` sequence: the
    production batched path at B=1."""
    x = x.data if isinstance(x, Tensor) else np.asarray(x)
    return reshape(lstm_states(stack, x[None], None, training=False), (x.shape[0], -1))


def test_embed_lookup_identity():
    table = EmbeddingTable(3, 3, Tensor(np.eye(3), requires_grad=True))
    np.testing.assert_array_equal(embed(table, [2]).data, [[0.0, 0.0, 1.0]])


def test_embed_repeated_code_gradient():
    table = EmbeddingTable(3, 2, Tensor(np.zeros((3, 2)), requires_grad=True))
    backward(sum_all(embed(table, [1, 1])))
    expected = np.zeros((3, 2))
    expected[1] = 2.0
    np.testing.assert_array_equal(table.weights.grad, expected)


def test_embed_rejects_out_of_vocab():
    table = EmbeddingTable.init(4, 2, RngState(0))
    with pytest.raises(IndexError):
        embed(table, [4])
    with pytest.raises(IndexError):
        embed(table, [-1])


def test_concatenated_feature_embeddings_have_expected_width():
    rng = RngState(1)
    z = 5
    tables = [EmbeddingTable.init(4, z, rng.split(i)) for i in range(3)]
    rows = [embed(t, [1]) for t in tables]
    total = np.concatenate([r.data for r in rows], axis=1)
    assert total.shape == (1, 3 * z)


def test_ffnn_reduce_zero_weights():
    layer = AffineLayer(Tensor(np.zeros((2, 6)), requires_grad=True),
                        Tensor(np.zeros(2), requires_grad=True), activation="relu")
    out = layer(Tensor(np.ones((1, 6))))
    np.testing.assert_array_equal(out.data, [[0.0, 0.0]])


def test_ffnn_reduce_hand_case():
    layer = AffineLayer(Tensor([[1.0, 1.0]]), Tensor([0.0]), activation="relu")
    out = layer(Tensor([[-1.0, 3.0]]))
    np.testing.assert_array_equal(out.data, [[2.0]])


def test_ffnn_reduce_gradient():
    f_d, z, z_red = 3, 4, 2
    layer = AffineLayer.init(f_d * z, z_red, RngState(3), activation="relu")
    x = Tensor(RngState(4).uniform(-1, 1, (1, f_d * z)))
    report = grad_check(lambda: sum_all(layer(x)), layer.parameters(), tolerance=1e-6)
    assert report.ok, report.per_input


def test_affine_bias_shape_guard():
    with pytest.raises(ShapeError):
        AffineLayer(Tensor(np.zeros((3, 2))), Tensor(np.zeros(2)))


def test_affine_rejects_inputs_that_are_not_rows():
    layer = AffineLayer(Tensor(np.zeros((3, 2))), Tensor(np.zeros(3)))
    for shape in ((2,), (1, 3), (1, 1, 2)):
        with pytest.raises(ShapeError):
            layer(Tensor(np.zeros(shape)))


def test_lstm_all_zero_parameters_is_fixed_point():
    stack = LstmStack.init(2, 3, 4, RngState(0))
    for t in stack.parameters().values():
        t.data[...] = 0.0
    out = lstm_sequence(stack, np.random.default_rng(0).normal(size=(5, 3)))
    np.testing.assert_array_equal(out.data, np.zeros((5, 4)))


def test_lstm_single_step_matches_hand_evaluation():
    stack = LstmStack.init(1, 1, 1, RngState(0))
    vals = {"w_i": 0.5, "u_i": 0.3, "b_i": 0.1,
            "w_f": -0.2, "u_f": 0.4, "b_f": 0.2,
            "w_g": 0.7, "u_g": -0.5, "b_g": -0.1,
            "w_o": 0.6, "u_o": 0.2, "b_o": 0.3}
    layer = stack.layers[0]
    for k, gate in enumerate("ifgo"):  # packed columns; row 0 input, row 1 recurrent
        layer.w.data[:, k] = [vals[f"w_{gate}"], vals[f"u_{gate}"]]
        layer.b.data[k] = vals[f"b_{gate}"]
    x = 0.8
    out = lstm_sequence(stack, Tensor([[x]]))

    i = _sigmoid(vals["w_i"] * x + vals["b_i"])
    f = _sigmoid(vals["w_f"] * x + vals["b_f"])
    g = np.tanh(vals["w_g"] * x + vals["b_g"])
    o = _sigmoid(vals["w_o"] * x + vals["b_o"])
    c = f * 0.0 + i * g
    h = o * np.tanh(c)
    np.testing.assert_allclose(out.data, [[h]], atol=1e-15)


def test_lstm_hidden_states_bounded():
    stack = LstmStack.init(2, 4, 6, RngState(5))
    x = Tensor(RngState(6).uniform(-10, 10, (20, 4)))
    out = lstm_sequence(stack, x)
    assert np.abs(out.data).max() < 1.0


def test_lstm_rejects_empty_sequence():
    stack = LstmStack.init(1, 2, 3, RngState(0))
    with pytest.raises(EmptySequenceError):
        lstm_states(stack, np.zeros((1, 0, 2)), None, training=False)


def test_lstm_batched_matches_per_sample():
    stack = LstmStack.init(2, 3, 5, RngState(8))
    rng = RngState(9)
    x_batch = rng.uniform(-1, 1, (4, 6, 3))
    batched = lstm_states(stack, x_batch, None, training=False)
    for b in range(4):
        single = lstm_sequence(stack, x_batch[b])
        np.testing.assert_allclose(batched.data[b], single.data, atol=1e-12)


def test_attend_identical_states_gives_uniform_weights():
    head = AttentionHead.init(3, RngState(2))
    row = np.array([0.3, -0.2, 0.9])
    context, alpha = attend(head, Tensor(np.tile(row, (5, 1))))
    np.testing.assert_allclose(alpha.data, np.full(5, 0.2), atol=1e-12)
    np.testing.assert_allclose(context.data, row, atol=1e-12)


def test_attend_single_step():
    head = AttentionHead.init(2, RngState(3))
    context, alpha = attend(head, Tensor([[1.5, -0.5]]))
    np.testing.assert_array_equal(alpha.data, [1.0])
    np.testing.assert_array_equal(context.data, [1.5, -0.5])


def test_attend_matches_exact_reference():
    head = AttentionHead(AffineLayer(Tensor([[1.0]]), Tensor([0.0])))
    h = np.array([[0.1], [0.2], [0.3]])
    context, alpha = attend(head, Tensor(h))
    scores = h[:, 0]
    expected_alpha = np.exp(scores - scores.max())
    expected_alpha /= expected_alpha.sum()
    np.testing.assert_allclose(alpha.data, expected_alpha, atol=1e-15)
    np.testing.assert_allclose(context.data, [(expected_alpha * scores).sum()], atol=1e-15)


def test_attend_score_offset_invariance():
    rng = RngState(12)
    h = Tensor(rng.uniform(-1, 1, (7, 4)))
    head = AttentionHead.init(4, RngState(13))
    _, alpha = attend(head, h)
    head.score_layer.bias.data[...] += 100.0
    _, alpha_shifted = attend(head, h)
    np.testing.assert_allclose(alpha_shifted.data, alpha.data, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
def test_attend_is_convex_combination(steps, seed):
    rng = RngState(seed)
    h = rng.uniform(-3, 3, (steps, 4))
    head = AttentionHead.init(4, rng.split("head"))
    context, alpha = attend(head, Tensor(h))
    assert abs(alpha.data.sum() - 1.0) <= 1e-12
    assert (context.data >= h.min(axis=0) - 1e-12).all()
    assert (context.data <= h.max(axis=0) + 1e-12).all()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
def test_attend_permutation_equivariance(steps, seed):
    rng = RngState(seed)
    h = rng.uniform(-2, 2, (steps, 3))
    head = AttentionHead.init(3, rng.split("head"))
    _, alpha = attend(head, Tensor(h))
    perm = rng.permutation(steps)
    _, alpha_perm = attend(head, Tensor(h[perm]))
    np.testing.assert_allclose(alpha_perm.data, alpha.data[perm], atol=1e-12)
    assert abs(alpha_perm.data.sum() - 1.0) <= 1e-12


def test_attend_batched_matches_per_sample():
    head = AttentionHead.init(4, RngState(20))
    rng = RngState(21)
    h = rng.uniform(-1, 1, (3, 5, 4))
    context_b, alpha_b = attend_batched(head, Tensor(h))
    for b in range(3):
        context, alpha = attend(head, Tensor(h[b]))
        np.testing.assert_allclose(context_b.data[b], context.data, atol=1e-12)
        np.testing.assert_allclose(alpha_b.data[b], alpha.data, atol=1e-12)


def test_attention_gradients_pass_check():
    head = AttentionHead.init(3, RngState(30))
    h = Tensor(RngState(31).uniform(-1, 1, (4, 3)))

    def fn():
        context, _ = attend(head, h)
        return sum_all(context)

    report = grad_check(fn, head.parameters(), tolerance=1e-4)
    assert report.ok, report.per_input


def test_mlp_zero_final_weights_returns_bias():
    mlp = Mlp.init(5, 8, 6, 2, RngState(7))
    mlp.layers[-1].weight.data[...] = 0.0
    mlp.layers[-1].bias.data[...] = np.arange(6.0)
    out = mlp(Tensor(np.ones((1, 5))))
    np.testing.assert_array_equal(out.data, [np.arange(6.0)])


def test_mlp_output_width_is_six():
    for in_size in (3, 12, 40):
        mlp = Mlp.init(in_size, 16, 6, 2, RngState(1))
        assert mlp(Tensor(np.zeros((1, in_size)))).shape == (1, 6)


def test_mlp_gradient():
    mlp = Mlp.init(12, 6, 6, 2, RngState(40))
    x = Tensor(RngState(41).uniform(-1, 1, (1, 12)))
    report = grad_check(lambda: sum_all(mlp(x)), mlp.parameters(), tolerance=1e-6)
    assert report.ok, report.per_input


def test_lstm_gradients_pass_check_at_small_dims():
    stack = LstmStack.init(2, 2, 3, RngState(50))
    x = RngState(51).uniform(-1, 1, (4, 2))
    report = grad_check(lambda: sum_all(lstm_sequence(stack, x)), stack.parameters(),
                        tolerance=1e-4)
    assert report.ok, report.per_input


def test_lstm_init_packs_per_gate_draws_in_order():
    in_size, hidden = 3, 2
    layer = LstmStack.init(1, in_size, hidden, RngState(4)).layers[0]
    rng = RngState(4).split("lstm0")
    for k in range(4):
        cols = slice(k * hidden, (k + 1) * hidden)
        bound_in, bound_h = np.sqrt(1.0 / in_size), np.sqrt(1.0 / hidden)
        np.testing.assert_array_equal(layer.w.data[:in_size, cols],
                                      rng.uniform(-bound_in, bound_in, (hidden, in_size)).T)
        np.testing.assert_array_equal(layer.w.data[in_size:, cols],
                                      rng.uniform(-bound_h, bound_h, (hidden, hidden)).T)
        np.testing.assert_array_equal(layer.b.data[cols], rng.uniform(-bound_h, bound_h, hidden))


def test_lstm_dropout_mask_is_successive_per_step_draws():
    steps, batch, hidden, p = 4, 3, 5, 0.5
    stack = LstmStack.init(2, 2, hidden, RngState(60), dropout_p=p)
    x = RngState(61).uniform(-1, 1, (batch, steps, 2))
    out = lstm_states(stack, x, RngState(62), training=True)

    stream = RngState(62).split("lstm_dropout0")
    mask = np.stack([(stream.random((batch, hidden)) >= p) / (1.0 - p) for _ in range(steps)])
    lower = lstm(Tensor(x.transpose(1, 0, 2)), stack.layers[0].w, stack.layers[0].b)
    upper = lstm(Tensor(lower.data * mask), stack.layers[1].w, stack.layers[1].b)
    np.testing.assert_array_equal(out.data, upper.data.transpose(1, 0, 2))
