import os
import sys
import threading
import time
from functools import partial

import numpy as np
import pytest
from conftest import (
    attend_reference,
    drain_layer,
    drain_layer_backward,
    is_worker,
    live_workers,
    new_affine,
    new_head,
    new_lstm,
    new_mlp,
    new_table,
    record_task_threads,
    tensors,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import LSTM_STACK_GOLDEN, lstm_stack_digests

from droughtcast.autodiff import LstmBackward, LstmForward, RngState, Tensor, grad_check
from droughtcast.errors import NumericError
from droughtcast.layers import (
    AffineLayer,
    AttentionHead,
    EmbeddingTable,
    attend_batched,
    dropout,
    embed,
    lstm_states,
    _Graph,
)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def lstm_sequence(stack, x):
    """Top-layer hidden states ``(T, h)`` of one ``(T, in)`` sequence: the
    production batched path at B=1."""
    return lstm_states(stack, np.asarray(x)[None], RngState(0), training=False)[0][0]


def attend(head, hidden):
    """``(context (h,), weights (T,))`` of one ``(T, h)`` sequence from
    ``attend_batched`` at B=1, checked against the per-sample reference."""
    context, alpha, _ = attend_batched(head, np.asarray(hidden, dtype=float)[None])
    ref_context, ref_alpha = attend_reference(head, hidden)
    np.testing.assert_allclose(context[0], ref_context, atol=1e-12)
    np.testing.assert_allclose(alpha[0], ref_alpha, atol=1e-12)
    return context[0], alpha[0]


def sum_with_backward(forward, backward):
    """A scalar loss for ``grad_check``: the sum of ``forward()``'s output,
    whose gradient of ones goes through ``backward(grad, cache)``."""
    def fn():
        out, cache = forward()
        backward(np.ones_like(out), cache)
        return out.sum()

    return fn


def test_embed_lookup_identity():
    table = EmbeddingTable(3, Tensor(np.eye(3)))
    np.testing.assert_array_equal(embed(table, np.array([2])), [[0.0, 0.0, 1.0]])


def test_embed_repeated_code_gradient():
    table = EmbeddingTable(3, Tensor(np.zeros((3, 2))))
    table.backward(np.ones((2, 2)), np.array([1, 1]))
    expected = np.zeros((3, 2))
    expected[1] = 2.0
    np.testing.assert_array_equal(table.weights.grad, expected)


def test_concatenated_feature_embeddings_have_expected_width():
    rng = RngState(1)
    z = 5
    tables = [new_table(4, z, rng.split(i)) for i in range(3)]
    rows = [embed(t, np.array([1])) for t in tables]
    total = np.concatenate(rows, axis=1)
    assert total.shape == (1, 3 * z)


def test_ffnn_reduce_zero_weights():
    layer = AffineLayer(Tensor(np.zeros((2, 6))), Tensor(np.zeros(2)), relu=True)
    out, _ = layer(np.ones((1, 6)))
    np.testing.assert_array_equal(out, [[0.0, 0.0]])


def test_ffnn_reduce_hand_case():
    layer = AffineLayer(Tensor([[1.0, 1.0]]), Tensor([0.0]), relu=True)
    out, _ = layer(np.array([[-1.0, 3.0]]))
    np.testing.assert_array_equal(out, [[2.0]])


def test_ffnn_reduce_gradient():
    f_d, z, z_red = 3, 4, 2
    layer = new_affine(f_d * z, z_red, RngState(3), relu=True)
    x = RngState(4).uniform(-1, 1, (1, f_d * z))
    report = grad_check(sum_with_backward(lambda: layer(x), layer.backward), tensors(layer),
                        tolerance=1e-6)
    assert report.ok, report.per_input


def test_affine_input_gradient_matches_finite_differences():
    layer = new_affine(4, 3, RngState(5), relu=True)
    x = Tensor(RngState(6).uniform(-1, 1, (2, 4)))

    def fn():
        out, cache = layer(x.data)
        x.grad = layer.backward(np.ones_like(out), cache)
        return out.sum()

    report = grad_check(fn, {"x": x}, tolerance=1e-6)
    assert report.ok, report.per_input


def test_dropout_identity_cases():
    x = np.ones(8)
    for p, training in ((0.0, True), (0.7, False)):
        out, mask = dropout(x, p, training, RngState(3))
        assert out is x and mask is None


def test_dropout_preserves_mean_and_is_reproducible():
    x = np.ones(100_000)
    out, mask = dropout(x, 0.5, True, RngState(11))
    assert abs(out.mean() - 1.0) < 0.02
    np.testing.assert_array_equal(out, dropout(x, 0.5, True, RngState(11))[0])
    np.testing.assert_array_equal(mask, out)  # the mask that scales the gradient back


def test_lstm_all_zero_parameters_is_fixed_point():
    stack = new_lstm(2, 3, 4, RngState(0))
    for t in tensors(stack).values():
        t.data[...] = 0.0
    out = lstm_sequence(stack, np.random.default_rng(0).normal(size=(5, 3)))
    np.testing.assert_array_equal(out, np.zeros((5, 4)))


def test_lstm_single_step_matches_hand_evaluation():
    stack = new_lstm(1, 1, 1, RngState(0))
    vals = {"w_i": 0.5, "u_i": 0.3, "b_i": 0.1,
            "w_f": -0.2, "u_f": 0.4, "b_f": 0.2,
            "w_g": 0.7, "u_g": -0.5, "b_g": -0.1,
            "w_o": 0.6, "u_o": 0.2, "b_o": 0.3}
    layer = stack.layers[0]
    for k, gate in enumerate("ifgo"):  # packed columns; row 0 input, row 1 recurrent
        layer.w.data[:, k] = [vals[f"w_{gate}"], vals[f"u_{gate}"]]
        layer.b.data[k] = vals[f"b_{gate}"]
    x = 0.8
    out = lstm_sequence(stack, [[x]])

    i = _sigmoid(vals["w_i"] * x + vals["b_i"])
    f = _sigmoid(vals["w_f"] * x + vals["b_f"])
    g = np.tanh(vals["w_g"] * x + vals["b_g"])
    o = _sigmoid(vals["w_o"] * x + vals["b_o"])
    c = f * 0.0 + i * g
    h = o * np.tanh(c)
    np.testing.assert_allclose(out, [[h]], atol=1e-15)


def test_lstm_hidden_states_bounded():
    stack = new_lstm(2, 4, 6, RngState(5))
    out = lstm_sequence(stack, RngState(6).uniform(-10, 10, (20, 4)))
    assert np.abs(out).max() < 1.0


def test_lstm_batched_matches_per_sample():
    stack = new_lstm(2, 3, 5, RngState(8))
    rng = RngState(9)
    x_batch = rng.uniform(-1, 1, (4, 6, 3))
    batched, _ = lstm_states(stack, x_batch, RngState(0), training=False)
    for b in range(4):
        single = lstm_sequence(stack, x_batch[b])
        np.testing.assert_allclose(batched[b], single, atol=1e-12)


def test_attend_identical_states_gives_uniform_weights():
    head = new_head(3, RngState(2))
    row = np.array([0.3, -0.2, 0.9])
    context, alpha = attend(head, np.tile(row, (5, 1)))
    np.testing.assert_allclose(alpha, np.full(5, 0.2), atol=1e-12)
    np.testing.assert_allclose(context, row, atol=1e-12)


def test_attend_single_step():
    head = new_head(2, RngState(3))
    context, alpha = attend(head, [[1.5, -0.5]])
    np.testing.assert_array_equal(alpha, [1.0])
    np.testing.assert_array_equal(context, [1.5, -0.5])


def test_attend_matches_exact_reference():
    head = AttentionHead(AffineLayer(Tensor([[1.0]]), Tensor([0.0])))
    h = np.array([[0.1], [0.2], [0.3]])
    context, alpha = attend(head, h)
    scores = h[:, 0]
    expected_alpha = np.exp(scores - scores.max())
    expected_alpha /= expected_alpha.sum()
    np.testing.assert_allclose(alpha, expected_alpha, atol=1e-15)
    np.testing.assert_allclose(context, [(expected_alpha * scores).sum()], atol=1e-15)


def test_attend_score_offset_invariance():
    rng = RngState(12)
    h = rng.uniform(-1, 1, (7, 4))
    head = new_head(4, RngState(13))
    _, alpha = attend(head, h)
    head.score_layer.bias.data[...] += 100.0
    _, alpha_shifted = attend(head, h)
    np.testing.assert_allclose(alpha_shifted, alpha, atol=1e-12)


def test_attention_rejects_nan_scores():
    head = new_head(2, RngState(14))
    with pytest.raises(NumericError):
        attend(head, [[np.nan, 0.0], [0.0, 1.0]])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
def test_attend_is_convex_combination(steps, seed):
    rng = RngState(seed)
    h = rng.uniform(-3, 3, (steps, 4))
    head = new_head(4, rng.split("head"))
    context, alpha = attend(head, h)
    assert abs(alpha.sum() - 1.0) <= 1e-12
    assert (context >= h.min(axis=0) - 1e-12).all()
    assert (context <= h.max(axis=0) + 1e-12).all()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
def test_attend_permutation_equivariance(steps, seed):
    rng = RngState(seed)
    h = rng.uniform(-2, 2, (steps, 3))
    head = new_head(3, rng.split("head"))
    _, alpha = attend(head, h)
    perm = rng.permutation(steps)
    _, alpha_perm = attend(head, h[perm])
    np.testing.assert_allclose(alpha_perm, alpha[perm], atol=1e-12)
    assert abs(alpha_perm.sum() - 1.0) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=12),
       st.floats(min_value=-30, max_value=30))
def test_attention_softmax_simplex_and_shift_invariance(values, offset):
    # a one-feature head with unit weight and zero bias: the scores are the values
    head = AttentionHead(AffineLayer(Tensor([[1.0]]), Tensor([0.0])))
    x = np.asarray(values)[:, None]
    _, base = attend(head, x)
    assert abs(base.sum() - 1.0) <= 1e-12
    assert (base > 0).all()
    _, shifted = attend(head, x + offset)
    np.testing.assert_allclose(shifted, base, atol=1e-12)


def test_attend_batched_matches_per_sample():
    head = new_head(4, RngState(20))
    rng = RngState(21)
    h = rng.uniform(-1, 1, (3, 5, 4))
    context_b, alpha_b, _ = attend_batched(head, h)
    for b in range(3):
        context, alpha = attend_reference(head, h[b])
        np.testing.assert_allclose(context_b[b], context, atol=1e-12)
        np.testing.assert_allclose(alpha_b[b], alpha, atol=1e-12)


def test_attention_gradients_pass_check():
    head = new_head(3, RngState(30))
    h = RngState(31).uniform(-1, 1, (2, 4, 3))

    def forward():
        context, _, cache = attend_batched(head, h)
        return context, cache

    report = grad_check(sum_with_backward(forward, head.backward), tensors(head),
                        tolerance=1e-4)
    assert report.ok, report.per_input


def test_attention_hidden_gradient_matches_finite_differences():
    head = new_head(3, RngState(32))
    h = Tensor(RngState(33).uniform(-1, 1, (2, 4, 3)))

    def fn():
        context, _, cache = attend_batched(head, h.data)
        through_sum, through_scores = head.backward(np.ones_like(context), cache)
        h.grad = through_sum + through_scores
        return context.sum()

    report = grad_check(fn, {"hidden": h}, tolerance=1e-6)
    assert report.ok, report.per_input


def test_mlp_zero_final_weights_returns_bias():
    mlp = new_mlp(5, 8, 6, 2, RngState(7))
    mlp.layers[-1].weight.data[...] = 0.0
    mlp.layers[-1].bias.data[...] = np.arange(6.0)
    out, _ = mlp(np.ones((1, 5)))
    np.testing.assert_array_equal(out, [np.arange(6.0)])


def test_mlp_output_width_is_six():
    for in_size in (3, 12, 40):
        mlp = new_mlp(in_size, 16, 6, 2, RngState(1))
        assert mlp(np.zeros((1, in_size)))[0].shape == (1, 6)


def test_mlp_gradient():
    mlp = new_mlp(12, 6, 6, 2, RngState(40))
    x = RngState(41).uniform(-1, 1, (1, 12))
    report = grad_check(sum_with_backward(lambda: mlp(x), mlp.backward), tensors(mlp),
                        tolerance=1e-6)
    assert report.ok, report.per_input


def test_mlp_input_gradient_matches_finite_differences():
    mlp = new_mlp(5, 6, 3, 2, RngState(42))
    x = Tensor(RngState(43).uniform(-1, 1, (2, 5)))

    def fn():
        out, cache = mlp(x.data)
        x.grad = mlp.backward(np.ones_like(out), cache)
        return out.sum()

    report = grad_check(fn, {"x": x}, tolerance=1e-6)
    assert report.ok, report.per_input


def test_embedding_gradient_passes_check_with_repeated_codes():
    table = new_table(4, 3, RngState(44))
    codes = np.array([2, 0, 2, 3])
    weights = RngState(45).uniform(-1, 1, (4, 3))

    def fn():
        table.backward(weights, codes)
        return float((embed(table, codes) * weights).sum())

    report = grad_check(fn, {"weights": table.weights}, tolerance=1e-6)
    assert report.ok, report.per_input
    assert not table.weights.grad[1].any()  # a code never taken gets no gradient


@pytest.mark.parametrize("layers, steps", [(2, 4), (3, 17), (3, 33)])
def test_lstm_gradients_pass_check_at_small_dims(layers, steps):
    # a frozen inter-layer dropout mask: the stream is recreated on every call;
    # 17 and 33 steps cross one and two block boundaries of the backward's tasks
    stack = new_lstm(layers, 2, 3, RngState(50), dropout_p=0.3)
    x = RngState(51).uniform(-1, 1, (2, steps, 2))
    forward = lambda: lstm_states(stack, x, RngState(52), training=True)
    report = grad_check(sum_with_backward(forward, stack.backward), tensors(stack),
                        tolerance=1e-4)
    assert report.ok, report.per_input


@pytest.mark.parametrize("steps", [4, 17])
def test_lstm_input_gradient_matches_finite_differences(steps):
    stack = new_lstm(1, 2, 3, RngState(53))
    layer = stack.layers[0]
    x = Tensor(RngState(54).uniform(-1, 1, (steps, 2, 2)))

    def fn():
        out, cache = drain_layer(x.data, layer.w.data, layer.b.data, training=True)
        x.grad = drain_layer_backward(np.ones_like(out), None, cache, layer.w.grad,
                                      layer.b.grad, input_grad=True)
        return out.sum()

    report = grad_check(fn, {"x": x}, tolerance=1e-4)
    assert report.ok, report.per_input


def test_lstm_dropout_mask_is_successive_per_step_draws():
    steps, batch, hidden, p = 4, 3, 5, 0.5
    stack = new_lstm(2, 2, hidden, RngState(60), dropout_p=p)
    x = RngState(61).uniform(-1, 1, (batch, steps, 2))
    out, _ = lstm_states(stack, x, RngState(62), training=True)

    stream = RngState(62).split("lstm_dropout0")
    mask = np.stack([(stream.random((batch, hidden)) >= p) / (1.0 - p) for _ in range(steps)])
    (w0, b0), (w1, b1) = ((layer.w.data, layer.b.data) for layer in stack.layers)
    lower, _ = drain_layer(x.transpose(1, 0, 2).copy(), w0, b0, training=False)
    upper, _ = drain_layer(lower * mask, w1, b1, training=False)
    np.testing.assert_array_equal(out, upper.transpose(1, 0, 2))


def layer_by_layer(stack, x, rng, training):
    """:func:`lstm_states` without the task graph: each layer's tasks run
    in order on this thread, then the dropout of its whole output, before
    the layer above starts."""
    seq, cache = x.transpose(1, 0, 2).copy(), []
    for li, layer in enumerate(stack.layers):
        seq, layer_cache = drain_layer(seq, layer.w.data, layer.b.data, training)
        p = stack.dropout_p if li < stack.num_layers - 1 else 0.0
        seq, mask = dropout(seq, p, training, rng.split(f"lstm_dropout{li}"))
        cache.append((layer_cache, mask))
    return seq.transpose(1, 0, 2).copy(), (cache if training else None)


def backward_layer_by_layer(stack, grad, cache):
    """:meth:`LstmStack.backward` without the task graph: each layer's
    gradient multiplied by its whole dropout mask, then its backward tasks
    run in order on this thread, weight GEMMs included, before the layer
    below starts."""
    grad = grad.transpose(1, 0, 2)
    for li, layer in reversed(list(enumerate(stack.layers))):
        layer_cache, mask = cache.pop()
        if mask is not None:
            grad = grad * mask
        grad = drain_layer_backward(grad, None, layer_cache, layer.w.grad, layer.b.grad, li > 0)


def assert_same_bits(a, b):
    assert (a is None) == (b is None)
    if a is not None:
        assert a.shape == b.shape
        np.testing.assert_array_equal(np.ascontiguousarray(a).view(np.int64),
                                      np.ascontiguousarray(b).view(np.int64))


@pytest.fixture
def short_switch_interval():
    """Threads switch every microsecond, so the task graph's tasks
    interleave at many more points than at the default 5 ms."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("steps", [1, 15, 16, 17, 33, 40])
@pytest.mark.parametrize("batch", [1, 5])
def test_task_graph_matches_the_layers_one_after_another_bit_for_bit(layers, steps, batch,
                                                                     short_switch_interval):
    stack = new_lstm(layers, 3, 4, RngState(70 + layers), dropout_p=0.4)
    x = RngState(71).uniform(-2, 2, (batch, steps, 3))
    out, cache = lstm_states(stack, x, RngState(72), training=False)
    reference, _ = layer_by_layer(stack, x, RngState(72), training=False)
    assert cache is None
    assert_same_bits(out, reference)

    out, cache = lstm_states(stack, x, RngState(73), training=True)
    reference, reference_cache = layer_by_layer(stack, x, RngState(73), training=True)
    assert_same_bits(out, reference)
    for (layer_cache, mask), (want_cache, want_mask) in zip(cache, reference_cache):
        assert_same_bits(mask, want_mask)
        for got, want in zip(layer_cache, want_cache):
            assert_same_bits(got, want)
    grad = RngState(74).uniform(-1, 1, out.shape)
    grads = []
    for backward, run_cache in ((stack.backward, cache),
                                (partial(backward_layer_by_layer, stack), reference_cache)):
        for t in tensors(stack).values():
            t.grad[...] = np.nan  # every gradient must be written
        backward(grad, run_cache)
        grads.append([t.grad.copy() for t in tensors(stack).values()])
    assert len(grads[0]) == 2 * layers
    for got, want in zip(*grads):
        assert_same_bits(got, want)


def forward_and_backward(stack, x):
    """A training forward of ``stack`` over ``x`` and its backward from a
    seeded output gradient; returns the output and every gradient."""
    out, cache = lstm_states(stack, x, RngState(0), training=True)
    stack.backward(RngState(1).uniform(-1, 1, out.shape), cache)
    return [out] + [t.grad.copy() for t in tensors(stack).values()]


def test_task_graph_starts_at_most_one_thread_per_spare_cpu(monkeypatch):
    cpus = len(os.sched_getaffinity(0))
    x = RngState(75).uniform(-1, 1, (2, 40, 3))
    helpers, work = record_task_threads(monkeypatch), _Graph._work

    def returns_late(graph):
        """The task loop, which on a helper returns 10 ms late, so a helper
        that is not joined is still alive when the call returns."""
        work(graph)
        if is_worker(threading.current_thread()):
            time.sleep(0.01)

    monkeypatch.setattr(_Graph, "_work", returns_late)
    before = threading.active_count()
    for stack in (new_lstm(1, 3, 4, RngState(76), dropout_p=0.4),
                  new_lstm(3, 3, 4, RngState(77), dropout_p=0.4)):
        lstm_states(stack, x, RngState(0), training=False)
        assert not live_workers()
        out, cache = lstm_states(stack, x, RngState(0), training=True)
        assert not live_workers()
        stack.backward(RngState(1).uniform(-1, 1, out.shape), cache)
        assert not live_workers()
    assert threading.active_count() == before
    assert helpers[:3] == [0, 0, 0]  # one layer: this thread runs every task
    assert max(helpers[3:]) <= cpus - 1
    if cpus > 1:
        assert max(helpers[3:]) >= 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_runs_the_task_graph_without_the_parents_threads():
    stack = new_lstm(2, 3, 4, RngState(78), dropout_p=0.4)
    x = RngState(79).uniform(-1, 1, (2, 40, 3))
    want, _ = lstm_states(stack, x, RngState(0), training=False)  # helper threads ran here
    want_trained = forward_and_backward(stack, x)
    pid = os.fork()
    if pid == 0:
        got, _ = lstm_states(stack, x, RngState(0), training=False)
        got_trained = forward_and_backward(stack, x)
        same = np.array_equal(got, want) and all(
            np.array_equal(a, b) for a, b in zip(got_trained, want_trained))
        os._exit(0 if same else 1)
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
    assert done[0] == pid, "the forked child hung"
    assert os.waitstatus_to_exitcode(done[1]) == 0


needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="the host allows only one CPU: every task runs on the calling thread")


@needs_two_cpus
@pytest.mark.parametrize("pass_", ["forward", "backward"])
@pytest.mark.parametrize("raiser", ["worker", "caller"])
def test_a_task_failing_on_a_worker_reaches_the_caller_and_leaves_the_pool_working(
        raiser, pass_, monkeypatch):
    stack = new_lstm(2, 3, 4, RngState(80), dropout_p=0.4)
    x = RngState(81).uniform(-1, 1, (2, 40, 3))
    runner = LstmForward if pass_ == "forward" else LstmBackward
    step, raised_on = runner.step, []

    def fails_on_a_worker(w):
        """A step that raises on a worker when it belongs to ``w``'s layer;
        on the calling thread every step first sleeps, which leaves the
        worker the ready tasks."""
        def patched(self, start):
            if threading.current_thread() is threading.main_thread():
                time.sleep(0.002)
            elif (self.cache[1] is w.data) if pass_ == "forward" else (self.dw is w.grad):
                raised_on.append(threading.current_thread().name)
                raise RuntimeError("injected")
            return step(self, start)
        return patched

    mid_step, helper_in_step, raising = threading.Condition(), False, False

    def fails_on_the_caller(self, start):
        """A step that raises on the calling thread while a worker is in a
        step, which waits there until the raise (or for at most a second)."""
        nonlocal helper_in_step, raising
        with mid_step:
            if threading.current_thread() is threading.main_thread():
                if mid_step.wait_for(lambda: helper_in_step, timeout=0.05):
                    raising = True
                    mid_step.notify_all()
                    raised_on.append(threading.current_thread().name)
                    raise RuntimeError("injected")
            else:
                helper_in_step = True
                mid_step.notify_all()
                mid_step.wait_for(lambda: raising, timeout=1.0)
                helper_in_step = False
        return step(self, start)

    before = threading.active_count()
    for attempt in range(50):  # until a step raises on the chosen thread
        out, cache = lstm_states(stack, x, RngState(0), training=True)
        monkeypatch.setattr(runner, "step", fails_on_a_worker(stack.layers[attempt % 2].w)
                            if raiser == "worker" else fails_on_the_caller)
        try:
            if pass_ == "forward":
                lstm_states(stack, x, RngState(0), training=True)
            else:
                stack.backward(RngState(1).uniform(-1, 1, out.shape), cache)
        except RuntimeError as exc:
            assert not live_workers()
            assert str(exc) == "injected"
            break
        finally:
            monkeypatch.undo()
    assert raised_on
    assert raised_on[0].startswith("lstm-worker") if raiser == "worker" else (
        raised_on[0] == threading.main_thread().name)
    assert threading.active_count() == before
    assert lstm_stack_digests(2, 40) == LSTM_STACK_GOLDEN[2, 40]


def test_two_callers_at_once_get_the_bits_of_their_solo_runs(short_switch_interval):
    stacks = [new_lstm(3, 3, 6, RngState(82 + i), dropout_p=0.4) for i in range(2)]
    x = RngState(84).uniform(-1, 1, (3, 40, 3))
    solo = [forward_and_backward(stack, x) for stack in stacks]
    results = [[], []]

    def caller(i):
        for _ in range(10):
            results[i].append(forward_and_backward(stacks[i], x))

    threads = [threading.Thread(target=caller, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads), "a caller hung"
    for want, got in zip(solo, results):
        assert len(got) == 10  # a caller that raised stops short
        for run in got:
            for a, b in zip(run, want):
                assert_same_bits(a, b)
