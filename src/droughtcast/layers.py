"""Parameterized layers: embedding tables, affine/FFNN blocks, a stacked
LSTM, and scalar-score attention pooling over hidden states.

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
import os
import threading
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .autodiff import PROJECT_STEPS, LstmBackward, LstmForward, RngState, Tensor
from .errors import NumericError


def cpu_count() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def dropout(x: np.ndarray, p: float, training: bool,
            rng: RngState) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverted dropout: each entry zeroed with probability ``p``, the rest
    scaled by 1/(1-p).  Returns the output and the mask that scales the
    gradient on the way back, or ``x`` itself and ``None`` when nothing is
    dropped."""
    if not training or p == 0.0:
        return x, None
    mask = (rng.random(x.shape) >= p).astype(np.float64) / (1.0 - p)
    return x * mask, mask


@dataclass
class EmbeddingTable:
    """Dense vectors for one categorical feature; row 0 is the reserved
    unknown/unseen code."""

    vocab_size: int
    weights: Tensor

    def backward(self, grad: np.ndarray, codes: np.ndarray) -> None:
        """Gradient of the rows :func:`embed` took for ``codes``: a code
        taken twice receives both rows' gradients."""
        self.weights.grad[...] = 0.0
        np.add.at(self.weights.grad, codes, grad)


def embed(table: EmbeddingTable, codes: np.ndarray) -> np.ndarray:
    """Rows of the table for integer codes, which the caller has checked
    lie in ``[0, vocab_size)``."""
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


@dataclass
class LstmStack:
    num_layers: int
    input_size: int
    hidden_size: int
    layers: list[LstmLayer]
    dropout_p: float = 0.0

    def backward(self, grad: np.ndarray, cache: list) -> None:
        """Parameter gradients from the gradient of :func:`lstm_states`'
        output ``(B, T, h)``: each layer's
        :class:`~droughtcast.autodiff.LstmBackward` tasks, run as one
        :class:`_Graph`.  A layer's step of a 16-step block needs its step
        of the block after and the layer above's input-gradient rows of the
        block; the block's own rows need the step, and the layer's weight
        tasks its last step.  Consumes ``cache`` top layer first, and each
        layer's activations are freed once its last task is done."""
        grad = grad.transpose(1, 0, 2)
        graph, above = _Graph(), None
        for li, layer in reversed(list(enumerate(self.layers))):
            layer_cache, mask = cache.pop()
            run = LstmBackward(grad, mask, layer_cache, layer.w.grad, layer.b.grad, li > 0)
            above = _backward_tasks(graph, run, self.num_layers - 1 - li, above)
            grad = run.dx
        del run, layer_cache, mask  # the graph holds each layer until its last task
        graph.run(self.num_layers)


def _backward_tasks(graph: "_Graph", run: LstmBackward, stage: int, above: list | None) -> list:
    """Add one layer's backward tasks, ``stage`` layers below the top, to
    ``graph``; ``above`` and the result are the input-gradient tasks of the
    layer above and of this one, by block.  The keys put the steps first,
    the upper layer's first, so the top layer runs ahead and its weight
    GEMMs overlap the steps below; then the input-gradient rows; then the
    weight tasks."""
    starts = range(0, run.steps, PROJECT_STEPS)
    step, rows = None, []
    for back, k in enumerate(reversed(range(len(starts)))):
        step = graph.add((1, stage, back), partial(run.step, starts[k]), step, above and above[k])
        if run.dx is not None:
            rows.append(graph.add((2, stage, back), partial(run.input_rows, starts[k]), step))
    for j, task in enumerate(run.weight_tasks()):
        graph.add((3, stage, j), task, step)
    return rows[::-1]


def lstm_states(stack: LstmStack, x: np.ndarray, rng: RngState,
                training: bool) -> tuple[np.ndarray, list | None]:
    """Run the stack over a ``(B, T, in)`` window.  Returns the top layer's
    hidden state at every step, ``(B, T, h)``, and in training mode the
    cache for :meth:`LstmStack.backward` (``None`` otherwise).

    Initial hidden/cell states are zero.  The sequence travels time-major
    between layers, and the layers'
    :class:`~droughtcast.autodiff.LstmForward` tasks run as one
    :class:`_Graph`, added block by block: a block's projection needs the
    same block's step of the layer below, and its step the projection and
    the layer's step before.  The keys order the blocks as a wavefront
    (Appleyard et al. 2016, arXiv:1604.01946): by block plus layer, the
    upper layer first, a projection before its step.  In training mode
    each step then draws its rows of the inter-layer dropout mask from the
    layer's stream (the same doubles as one ``(T, B, h)`` draw) and writes
    its states times those rows into the layer above's input.  In eval
    mode a layer's gates and states fill one block of rows and a two-block
    :class:`~droughtcast.autodiff.Ring`, so a projection also needs the
    layer's step before, and step k of a layer, which overwrites the ring
    slot that projection k - 2 of the layer above reads, needs that
    projection.  The top layer's steps copy their states into the output.
    """
    seq = x.transpose(1, 0, 2).copy()
    top = stack.num_layers - 1
    out = np.empty((len(x), len(seq), stack.hidden_size))
    runs, cache = [], []
    for li, layer in enumerate(stack.layers):
        run = LstmForward(seq, layer.w.data, layer.b.data, training)
        p = stack.dropout_p if training and li < top else 0.0
        mask = np.empty(run.states.shape) if p else None
        if li == top:
            seq = out.transpose(1, 0, 2)
        else:
            seq = run.states if mask is None else np.empty(run.states.shape)
        runs.append((run, partial(_emit, run, seq, mask, p,
                                  rng.split(f"lstm_dropout{li}") if p else None)))
        cache.append((run.cache, mask))
    graph, tasks = _Graph(), []  # tasks[k][layer]: the block's (projection, step)
    for k, start in enumerate(range(0, x.shape[1], PROJECT_STEPS)):
        tasks.append([])
        for li, (run, emit) in enumerate(runs):
            prev = tasks[k - 1][li][1] if k else None
            project = graph.add((li + k, -li, 0), partial(run.project, start),
                                tasks[k][li - 1][1] if li else None, None if training else prev)
            reader = tasks[k - 2][li + 1][0] if not training and k > 1 and li < top else None
            tasks[k].append((project, graph.add((li + k, -li, 1), partial(emit, start),
                                                project, prev, reader)))
    del runs, run, emit  # the graph holds each layer until its last task
    graph.run(stack.num_layers)
    return out, (cache if training else None)


def _emit(run: LstmForward, target, mask: np.ndarray | None, p: float,
          stream: RngState | None, start: int) -> None:
    """Step ``run``'s block that starts at ``start``; then, unless
    ``target`` is ``run.states``, write its states into the same rows of
    ``target``, times fresh rows of ``mask`` drawn from ``stream`` if
    ``mask`` is given (elementwise, so the same bits as one product)."""
    block = run.step(start)
    rows = slice(start, start + len(block))
    if mask is not None:
        drawn = stream.random(out=mask[rows])  # then as dropout's mask, in place
        np.greater_equal(drawn, p, out=drawn)
        drawn /= 1.0 - p
        np.multiply(block, drawn, out=target[rows])
    elif target is not run.states:
        target[rows] = block


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
        """Run every task: this thread and ``min(layers, CPUs) - 1`` helper
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
                   for i in range(min(layers, cpu_count()) - 1)]
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
