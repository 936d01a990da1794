"""Parameterized layers: embedding tables, affine/FFNN blocks, a stacked
LSTM run as a task graph, and scalar-score attention pooling over hidden
states.

A layer's parameters are views of the model's parameter vector, cut as
:func:`~droughtcast.model.parameter_layout` says and initialised by
:meth:`~droughtcast.model.HybridModel.draw_init`; a layer has a forward
and a backward only.  The forward returns its output together with a
cache, and the ``backward`` takes the gradient of that output plus the
cache, fills the ``grad`` of the layer's parameters in place and returns
the gradient of its input.  Seeded training is reproducible bit for bit,
and BLAS rounds the same product differently for different operand
layouts, so the layouts here are fixed: a contiguous copy of ``W.T`` in
the affine forward, ``(x.T @ g).T`` for its weight gradient, and
``np.add.at`` for embedding rows.  Sizes and inputs arrive checked:
``ModelConfig`` checks the sizes, and ``HybridModel.check`` the sample set
(``T >= 1``).
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .autodiff import RngState, Tensor
from .errors import NumericError
from .pool import cpu_count


def lstm_threads(layers: int) -> int:
    """The threads that one fit's LSTM of ``layers`` layers runs on: the
    calling thread plus the helpers that :meth:`_Graph.run` starts."""
    return min(layers, cpu_count())


def dropout(x: np.ndarray, p: float, rng: RngState | None,
            key: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverted dropout: each entry zeroed with probability ``p``, the rest
    scaled by 1/(1-p), the mask drawn from ``rng.split(key)``.  Returns the
    output and the mask that scales the gradient on the way back, or ``x``
    itself and ``None`` when nothing is dropped: in eval (no ``rng``) or
    at ``p`` 0."""
    if rng is None or p == 0.0:
        return x, None
    mask = (rng.split(key).random(x.shape) >= p).astype(np.float64) / (1.0 - p)
    return x * mask, mask


@dataclass
class EmbeddingTable:
    """Dense vectors for one categorical feature, one row per code; row 0
    is the reserved unknown/unseen code."""

    weights: Tensor

    def backward(self, grad: np.ndarray, codes: np.ndarray) -> None:
        """Gradient of the rows :func:`embed` took for ``codes``: a code
        taken twice receives both rows' gradients."""
        self.weights.grad[...] = 0.0
        np.add.at(self.weights.grad, codes, grad)


def embed(table: EmbeddingTable, codes: np.ndarray) -> np.ndarray:
    """Rows of the table for integer codes, which the caller has checked
    lie within its rows."""
    return table.weights.data[codes]


@dataclass
class AffineLayer:
    weight: Tensor  # (out, in)
    bias: Tensor  # (out,)
    relu: bool = False

    def __call__(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        """``(B, in)`` rows to ``(B, out)``, plus the cache for :meth:`backward`."""
        w_t = self.weight.data.T.copy()  # contiguous: see the module docstring
        out = x @ w_t + self.bias.data
        if self.relu:
            out = np.maximum(out, 0.0)
        return out, (x, w_t, out)

    def backward(self, grad: np.ndarray, cache: tuple) -> np.ndarray:
        x, w_t, out = cache
        if self.relu:
            grad = grad * (out > 0.0)
        self.bias.grad[...] = grad.sum(axis=0)
        self.weight.grad[...] = (x.T @ grad).T
        return grad @ w_t.T


@dataclass
class LstmLayer:
    """One layer's packed parameters: ``w (in + H, 4H)`` acts on the layer
    input stacked over the previous hidden state, and the columns of ``w``
    and ``b (4H,)`` hold the input (i), forget (f), candidate (g) and
    output (o) gates in that order."""

    w: Tensor
    b: Tensor


PROJECT_STEPS = 16  # steps per input-projection GEMM: one block of a layer's tasks


class Ring:
    """The hidden states of an eval-mode layer: two slots of
    ``PROJECT_STEPS + 1`` rows, used by alternate blocks, so the layer holds
    two blocks of states instead of all ``T``.  Row 0 of a slot holds the
    last state of the block before it, and ``ring[start:stop]`` reads the
    block that starts at ``start`` as one contiguous ``(stop - start, B,
    H)`` view, as the layer above reads its input."""

    def __init__(self, steps: int, batch: int, hidden: int):
        self.shape = (steps, batch, hidden)
        self.slots = np.zeros((2, PROJECT_STEPS + 1, batch, hidden))

    def __getitem__(self, block: slice) -> np.ndarray:
        return self.slots[block.start // PROJECT_STEPS % 2, 1:block.stop - block.start + 1]

    def rows(self, start: int, stop: int) -> np.ndarray:
        """The slot of the block that starts at ``start``, from the state
        before it to its last state."""
        k = start // PROJECT_STEPS
        rows = self.slots[k % 2, :stop - start + 1]
        if k:
            rows[0] = self.slots[(k - 1) % 2, -1]
        return rows


class LstmForward:
    """One LSTM layer's forward over a time-major ``(T, B, in)`` sequence
    ``x``, from zero hidden and cell states, as tasks for a task graph:
    per block of ``PROJECT_STEPS`` steps :meth:`project` (the block's input
    projection, one GEMM; Appleyard et al. 2016, arXiv:1604.01946) and
    :meth:`step` (the recurrence).

    The constructor makes the halved copies of ``w`` and ``b`` (below),
    allocates every other buffer (uninitialised where the tasks write
    every element) and sets ``states``, where the hidden states go (every
    step's in training mode, a :class:`Ring` in eval mode), ``output``,
    what the layer above reads, and ``cache``, what :class:`LstmBackward`
    reads (``None`` in eval mode); all fill as the blocks run.  Each step
    copies its states into ``out`` if given; with a dropout ``p`` it
    multiplies them into a new ``output`` by its rows of ``mask``, drawn
    from ``stream`` (the same doubles as one :func:`dropout` draw, and
    elementwise, the same bits as one product); else ``output`` is ``states``.

    Block k's projection must run before its step, and the steps in order.
    A projection reads its rows of ``x`` when it runs, so ``x`` may be the
    ``output`` of a running layer below once its step k is done.  Training
    keeps every step's gate activations and cell state for the backward,
    so its projections may run ahead of the steps.  Eval mode reuses one
    block of gate rows, two cell states and the two slots of its ``Ring``,
    so there block k's projection waits for step k - 1, and step k, which
    overwrites the slot that block k - 2 of the layer above projects from,
    waits for that projection.

    ``w (in + H, 4H)`` stacks the input rows over the recurrent rows, and
    its columns (like those of ``b (4H,)``) hold the input, forget,
    candidate and output gates in that order.  Both modes run the same
    GEMMs, so their outputs agree bit for bit (a BLAS may round a row
    differently with the height of the GEMM it is in, so training does not
    project all ``T`` steps at once).

    All four activations of a step are one in-place ``tanh``: σ(z) = ½ +
    ½·tanh(z/2) for the i, f and o gates, whose columns of ``w`` and ``b``
    are halved once per forward, by the constructor; the ``tanh`` is then
    scaled and shifted by ½ (by 1 and 0 for g).  Halving is exact (short of
    subnormals), so the ``tanh`` sees exactly z/2; ±inf gives exactly 1 and
    0, and nothing overflows.
    """

    def __init__(self, x, w: np.ndarray, b: np.ndarray, training: bool,
                 out: np.ndarray | None = None, p: float = 0.0, stream: RngState | None = None):
        steps, batch, n_in = x.shape
        hidden = b.shape[0] // 4
        self.x, self.steps, self.n_in, self.training = x, steps, n_in, training
        self.scale = np.repeat([0.5, 0.5, 1.0, 0.5], hidden)
        self.shift = 1.0 - self.scale
        # a step's row holds its input projection, then its gate activations;
        # indexed modulo its length, like cs, so eval reuses one block of rows
        self.gates = np.empty((steps if training else min(steps, PROJECT_STEPS), batch,
                               4 * hidden))
        # in training hs[t + 1] is step t's hidden state and hs[0] the zero start;
        # cs is indexed the same way modulo its length, so eval cycles through two
        if training:
            self.hs, self.cs = np.empty((2, steps + 1, batch, hidden))
            self.hs[0] = self.cs[0] = 0.0
        else:
            self.hs, self.cs = Ring(steps, batch, hidden), np.zeros((2, batch, hidden))
        self.candidate = np.empty((batch, hidden))  # i * g
        self.w_scaled, self.b_scaled = w * self.scale, b * self.scale
        self.states = self.hs[1:] if training else self.hs
        self.p, self.stream = p, stream
        self.mask = np.empty(self.states.shape) if p else None
        self.output = np.empty(self.states.shape) if p else self.states if out is None else out
        self.cache = (x, w, self.gates, self.hs, self.cs) if training else None

    def _block(self, start: int) -> tuple[slice, np.ndarray]:
        rows = slice(start, min(start + PROJECT_STEPS, self.steps))
        first = start % len(self.gates)
        return rows, self.gates[first:first + rows.stop - start]

    def project(self, start: int) -> None:
        """The input projection of the block that starts at step ``start``."""
        rows, block = self._block(start)
        np.matmul(self.x[rows].reshape(-1, self.n_in), self.w_scaled[:self.n_in],
                  out=block.reshape(-1, block.shape[2]))

    def step(self, start: int) -> np.ndarray:
        """The recurrence over the block that starts at step ``start``, then
        its rows of ``output``; returns its ``(steps, B, H)`` hidden states."""
        rows, block = self._block(start)
        hidden = self.candidate.shape[1]
        i_, f_, g_, o_ = (slice(k * hidden, (k + 1) * hidden) for k in range(4))
        scale, shift, b, cs = self.scale, self.shift, self.b_scaled, self.cs
        w_h = self.w_scaled[self.n_in:]
        # h[0]: the state before the block
        h = self.hs[start:rows.stop + 1] if self.training else self.hs.rows(start, rows.stop)
        for j, z in enumerate(block):
            t = start + j
            z += h[j] @ w_h
            z += b
            np.tanh(z, out=z)
            z *= scale
            z += shift
            c = np.multiply(z[:, f_], cs[t % len(cs)], out=cs[(t + 1) % len(cs)])
            c += np.multiply(z[:, i_], z[:, g_], out=self.candidate)
            np.multiply(z[:, o_], np.tanh(c, out=h[j + 1]), out=h[j + 1])
        if self.mask is not None:
            drawn = self.stream.random(out=self.mask[rows])  # then as dropout's mask, in place
            np.greater_equal(drawn, self.p, out=drawn)
            drawn /= 1.0 - self.p
            np.multiply(h[1:], drawn, out=self.output[rows])
        elif self.output is not self.states:
            self.output[rows] = h[1:]
        return h[1:]


class LstmBackward:
    """Backpropagation through time over the saved gate activations and
    cell states of :class:`LstmForward`'s ``cache``, as tasks for a task
    graph: per block of ``PROJECT_STEPS`` steps, last block first,
    :meth:`step` (the recurrence back) and :meth:`input_rows` (the block's
    rows of the input gradient, one GEMM), then the three
    :meth:`weight_tasks`.

    ``grad (T, B, H)`` is the gradient of every step's hidden state or,
    given the layer's dropout ``mask``, of its dropped output, which each
    step multiplies by its rows of ``mask``.  A step reads its rows of
    ``grad`` only when it runs, so ``grad`` may be the ``dx`` of the layer
    above while that layer is running.

    The constructor allocates the layer's buffers and ``dx (T, B, in)``,
    the input gradient, which fills as the blocks run (``None`` unless
    ``input_grad``).  The steps run in order, block k's step before its
    ``input_rows``, and the last step (block 0's) before the weight tasks.
    A step takes ``tanh(c)``, the output gate's ``dc`` factor and the
    activation derivatives for its block only and writes the block's ``dz``
    over its gate activations, spent from then on (the cache is used up);
    ``input_rows`` reads those rows of ``dz``, and the weight tasks all of
    them.

    Every task runs the same GEMMs on the same operands whatever the order
    or thread, so ``dx``, ``dw`` and ``db`` have the same bits in any
    schedule the order above allows.
    """

    def __init__(self, grad: np.ndarray, mask: np.ndarray | None, cache, dw: np.ndarray,
                 db: np.ndarray, input_grad: bool):
        self.grad, self.mask, self.dw, self.db = grad, mask, dw, db
        self.x, w, self.gates, self.hs, self.cs = cache
        self.steps, batch, self.n_in = self.x.shape
        hidden = self.hs.shape[2]
        self.w_x, self.w_h = w[:self.n_in], w[self.n_in:]
        self.dx = np.empty(self.x.shape) if input_grad else None
        # one block's dz, tanh(c), dc_from_h and masked grad
        self.dz = np.empty((min(self.steps, PROJECT_STEPS), batch, 4 * hidden))
        self.tanh_c, self.dc_from_h, self.masked = np.empty((3,) + self.dz.shape[:2] + (hidden,))
        self.dh, self.dc = np.zeros((2, batch, hidden))

    def step(self, start: int) -> None:
        """The recurrence back over the block that starts at step ``start``."""
        stop = min(start + PROJECT_STEPS, self.steps)
        rows = stop - start
        hidden = self.dh.shape[1]
        i_, f_, g_, o_ = (slice(k * hidden, (k + 1) * hidden) for k in range(4))
        block, dz_block, cs, w_h = self.gates[start:stop], self.dz[:rows], self.cs, self.w_h
        g = self.grad[start:stop]
        if self.mask is not None:
            g = np.multiply(g, self.mask[start:stop], out=self.masked[:rows])
        tc = np.tanh(cs[start + 1:stop + 1], out=self.tanh_c[:rows])
        from_h = np.multiply(tc, tc, out=self.dc_from_h[:rows])
        np.subtract(1.0, from_h, out=from_h)
        from_h *= block[:, :, o_]
        # local derivatives of the activations, scaled in place into dz
        np.subtract(1.0, block, out=dz_block)
        dz_block *= block
        np.multiply(block[:, :, g_], block[:, :, g_], out=dz_block[:, :, g_])
        np.subtract(1.0, dz_block[:, :, g_], out=dz_block[:, :, g_])
        dh, dc = self.dh, self.dc
        for j in range(rows - 1, -1, -1):
            a, d = block[j], dz_block[j]
            dh += g[j]
            dc += dh * from_h[j]
            d[:, i_] *= dc * a[:, g_]
            d[:, f_] *= dc * cs[start + j]
            d[:, g_] *= dc * a[:, i_]
            d[:, o_] *= dh * tc[j]
            dc *= a[:, f_]
            dh = d @ w_h.T
        self.dh = dh
        block[...] = dz_block  # the block's gates are spent: dz takes their place

    def input_rows(self, start: int) -> None:
        """The rows of ``dx`` of the block that starts at step ``start``."""
        rows = slice(start, min(start + PROJECT_STEPS, self.steps))
        dz = self.gates[rows]
        np.matmul(dz.reshape(-1, dz.shape[2]), self.w_x.T,
                  out=self.dx[rows].reshape(-1, self.n_in))

    def weight_tasks(self) -> tuple:
        """The three weight-gradient tasks: ``dw``'s recurrent rows, then
        its input rows (one GEMM each over all ``T*B`` rows of ``dz``; the
        input rows are the smaller one in the first layer), then ``db``."""
        dz = self.gates.reshape(-1, self.gates.shape[2])
        hs, x = self.hs[:-1].reshape(len(dz), -1), self.x.reshape(len(dz), -1)
        return (partial(np.matmul, hs.T, dz, out=self.dw[self.n_in:]),
                partial(np.matmul, x.T, dz, out=self.dw[:self.n_in]),
                partial(dz.sum, axis=0, out=self.db))


@dataclass
class LstmStack:
    num_layers: int
    input_size: int
    hidden_size: int
    layers: list[LstmLayer]
    dropout_p: float = 0.0

    def backward(self, grad: np.ndarray, cache: list) -> None:
        """Parameter gradients from the gradient of :func:`lstm_states`'
        output ``(B, T, h)``: each layer's :class:`LstmBackward` tasks, run
        as one :class:`_Graph`.  A layer's step of a 16-step block needs its
        step of the block after and the layer above's input-gradient rows of
        the block; the block's own rows need the step, and the layer's weight
        tasks its last step.  Consumes ``cache`` top layer first, and each
        layer's activations are freed once its last task is done."""
        grad = grad.transpose(1, 0, 2)
        graph, above = _Graph(), None  # above[back]: the layer above's input-gradient rows
        for stage, (li, layer) in enumerate(reversed(list(enumerate(self.layers)))):
            layer_cache, mask = cache.pop()
            run = LstmBackward(grad, mask, layer_cache, layer.w.grad, layer.b.grad, li > 0)
            # the keys put the steps first, the upper layer's first, so the top layer
            # runs ahead and its weight GEMMs overlap the steps below; then the
            # input-gradient rows; then the weight tasks
            step, rows = None, []
            for back, start in enumerate(reversed(range(0, run.steps, PROJECT_STEPS))):
                step = graph.add((1, stage, back), partial(run.step, start), step,
                                 above and above[back])
                if run.dx is not None:
                    rows.append(graph.add((2, stage, back), partial(run.input_rows, start), step))
            for j, task in enumerate(run.weight_tasks()):
                graph.add((3, stage, j), task, step)
            above, grad = rows, run.dx
        del run, layer_cache, mask  # the graph holds each layer until its last task
        graph.run(self.num_layers)


def lstm_states(stack: LstmStack, x: np.ndarray,
                rng: RngState | None) -> tuple[np.ndarray, list | None]:
    """Run the stack over a ``(B, T, in)`` window, in training mode when
    given the stream ``rng`` (eval mode when ``None``).  Returns the top
    layer's hidden state at every step, ``(B, T, h)``, and in training mode
    the cache for :meth:`LstmStack.backward` (``None`` otherwise).

    Initial hidden/cell states are zero.  The sequence travels time-major
    between layers: each layer's :class:`LstmForward` reads the ``output``
    of the layer below, which in training mode is its states times the
    inter-layer dropout mask, drawn from ``rng.split(f"lstm_dropout{li}")``;
    the top layer's writes the stack's output.  Their tasks run as one
    :class:`_Graph`, added block by block with the edges that
    :class:`LstmForward` names, the eval-only ones included.  The keys
    order the blocks as a wavefront (Appleyard et al. 2016,
    arXiv:1604.01946): by block plus layer, the upper layer first, a
    projection before its step.
    """
    training = rng is not None
    seq = x.transpose(1, 0, 2).copy()
    top = stack.num_layers - 1
    out = np.empty((len(x), len(seq), stack.hidden_size))
    runs = []
    for li, layer in enumerate(stack.layers):
        p = stack.dropout_p if training and li < top else 0.0
        runs.append(LstmForward(seq, layer.w.data, layer.b.data, training,
                                out.transpose(1, 0, 2) if li == top else None, p,
                                rng.split(f"lstm_dropout{li}") if p else None))
        seq = runs[-1].output
    cache = [(run.cache, run.mask) for run in runs] if training else None
    graph, tasks = _Graph(), []  # tasks[k][layer]: the block's (projection, step)
    for k, start in enumerate(range(0, x.shape[1], PROJECT_STEPS)):
        tasks.append([])
        for li, run in enumerate(runs):
            prev = tasks[k - 1][li][1] if k else None
            project = graph.add((li + k, -li, 0), partial(run.project, start),
                                tasks[k][li - 1][1] if li else None, None if training else prev)
            reader = tasks[k - 2][li + 1][0] if not training and k > 1 and li < top else None
            tasks[k].append((project, graph.add((li + k, -li, 1), partial(run.step, start),
                                                project, prev, reader)))
    del runs, run  # the graph holds each layer until its last task
    graph.run(stack.num_layers)
    return out, cache


class _Graph:
    """Tasks, each a callable with a key, and the edges between them, run
    once by :meth:`run`: a task runs once every task it needs is done, and
    of the ready tasks the one with the smallest key runs first.  A task
    runs the same numpy calls on the same operands whichever thread runs
    it and whenever, so the results do not depend on the schedule."""

    def __init__(self):
        self.tasks = []  # [key, callable (None once run), needs not yet done, dependents]

    def add(self, key: tuple, fn, *needs) -> int:
        """Add a task that needs each of ``needs`` but ``None``; returns its id."""
        needs = [need for need in needs if need is not None]
        for need in needs:
            self.tasks[need][3].append(len(self.tasks))
        self.tasks.append([key, fn, len(needs), []])
        return len(self.tasks) - 1

    def run(self, layers: int) -> None:
        """Run every task: this thread and ``lstm_threads(layers) - 1`` helper
        threads, started for this run and joined before it returns, each
        run :meth:`_work`.  A helper waits only for this graph's tasks,
        which this thread keeps running, so graphs running at once cannot
        deadlock.  Once a task raises, no task starts, and the first
        exception is raised here once the helpers are joined."""
        self.ready = [(task[0], i) for i, task in enumerate(self.tasks) if not task[2]]
        heapq.heapify(self.ready)
        self.lock = threading.Condition()
        self.running, self.error = 0, None
        helpers = [threading.Thread(target=self._work, daemon=True, name=f"lstm-worker-{i}")
                   for i in range(lstm_threads(layers) - 1)]
        for helper in helpers:
            helper.start()
        try:
            self._work()
        except BaseException as exc:  # interrupted while waiting: start no more tasks
            with self.lock:
                self.error = exc
                self.lock.notify_all()
            raise
        finally:
            for helper in helpers:
                helper.join()
        if self.error is not None:
            raise self.error

    def _work(self) -> None:
        """Run the ready task with the smallest key, holding the lock
        between tasks and waiting while none is ready, until no task is
        left to start or one has raised."""
        with self.lock:
            while self.error is None and (self.ready or self.running):
                if not self.ready:
                    self.lock.wait()
                    continue
                task = self.tasks[heapq.heappop(self.ready)[1]]
                self.running += 1
                failed = None
                self.lock.release()
                try:
                    task[1]()
                except BaseException as exc:
                    failed = exc
                self.lock.acquire()
                self.running -= 1
                task[1] = None  # drops what it held
                if self.error is None:
                    self.error = failed
                for i in task[3]:
                    after = self.tasks[i]
                    after[2] -= 1
                    if not after[2]:
                        heapq.heappush(self.ready, (after[0], i))
                self.lock.notify_all()


@dataclass
class AttentionHead:
    """Scalar score per time step followed by softmax pooling."""

    score_layer: AffineLayer

    def backward(self, grad: np.ndarray, cache: tuple) -> tuple[np.ndarray, np.ndarray]:
        """From the context gradient ``(B, h)``: the hidden-state gradient
        through the weighted sum, and through the scores, each ``(B, T, h)``."""
        hidden, alpha, score_cache = cache
        g_alpha = np.matmul(hidden, grad[:, :, None])[:, :, 0]
        through_sum = alpha[:, :, None] * grad[:, None, :]
        g_scores = alpha * (g_alpha - (g_alpha * alpha).sum(axis=1, keepdims=True))
        through_scores = self.score_layer.backward(g_scores.reshape(-1, 1), score_cache)
        return through_sum, through_scores.reshape(hidden.shape)


def attend_batched(head: AttentionHead,
                   hidden: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Batched attention over ``(B, T, h)`` hidden states: one score GEMM
    over all ``B*T`` states, a softmax per row and one weighted sum.

    Returns ``(context (B, h), weights (B, T), cache)``; the weights are a
    convex combination, so each context lies in its rows' hull.
    """
    batch, steps, width = hidden.shape
    scores, score_cache = head.score_layer(hidden.reshape(batch * steps, width))
    scores = scores.reshape(batch, steps)
    if np.isnan(scores).any():
        raise NumericError("softmax received NaN input")
    ex = np.exp(scores - scores.max(axis=1, keepdims=True))
    alpha = ex / ex.sum(axis=1, keepdims=True)
    context = np.matmul(alpha[:, None, :], hidden)[:, 0]
    return context, alpha, (hidden, alpha, score_cache)


@dataclass
class Mlp:
    """Affine stack with relu between layers and a linear head."""

    layers: list[AffineLayer] = field(default_factory=list)

    def __call__(self, x: np.ndarray) -> tuple[np.ndarray, list]:
        cache = []
        for layer in self.layers:
            x, layer_cache = layer(x)
            cache.append(layer_cache)
        return x, cache

    def backward(self, grad: np.ndarray, cache: list) -> np.ndarray:
        for layer, layer_cache in zip(reversed(self.layers), reversed(cache)):
            grad = layer.backward(grad, layer_cache)
        return grad
