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

import os
from dataclasses import dataclass, field

import numpy as np

from .autodiff import PROJECT_STEPS, RngState, Tensor, lstm_backward, lstm_forward
from .errors import NumericError


def dropout_mask(shape: tuple, p: float, rng: RngState) -> np.ndarray | None:
    """Inverted dropout's mask: zero with probability ``p``, 1/(1-p)
    otherwise; ``None`` when ``p`` is 0."""
    return None if p == 0.0 else (rng.random(shape) >= p).astype(np.float64) / (1.0 - p)


def dropout(x: np.ndarray, p: float, training: bool,
            rng: RngState) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverted dropout.  Returns the output and the mask that scales the
    gradient on the way back, or ``x`` itself and ``None`` when nothing is
    dropped."""
    mask = dropout_mask(x.shape, p, rng) if training else None
    return (x, None) if mask is None else (x * mask, mask)


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
        output ``(B, T, h)``.  The layers' reverse passes run as a wavefront
        of 16-step blocks, top layer first (see :func:`_wavefront`), each
        layer one block behind the layer above, whose input gradient it
        reads; :func:`~droughtcast.autodiff.lstm_backward` says which bits
        that changes.  Consumes ``cache`` top layer first, and each layer's
        activations are freed once its backward is done."""
        grad = grad.transpose(1, 0, 2)
        steps, runs = len(grad), []
        for li, layer in reversed(list(enumerate(self.layers))):
            layer_cache, mask = cache.pop()
            run = lstm_backward(grad, mask, layer_cache, layer.w.grad, layer.b.grad, li > 0)
            grad = next(run)
            runs.append(run)
        _wavefront(runs, -(-steps // PROJECT_STEPS))


def lstm_states(stack: LstmStack, x: np.ndarray, rng: RngState,
                training: bool) -> tuple[np.ndarray, list | None]:
    """Run the stack over a ``(B, T, in)`` window.  Returns the top layer's
    hidden state at every step, ``(B, T, h)``, and in training mode the
    cache for :meth:`LstmStack.backward` (``None`` otherwise).

    Initial hidden/cell states are zero.  The sequence travels time-major
    between layers, and the layers run as a wavefront of 16-step blocks
    (see :func:`_wavefront`).  In training mode the inter-layer dropout mask
    is T successive ``(B, h)`` draws from the layer's stream, drawn before
    the first block and applied block by block.  In eval mode every layer
    holds its states in a two-block :class:`~droughtcast.autodiff.Ring`,
    and the top layer's blocks are copied into the output as they finish.
    """
    seq = x.transpose(1, 0, 2).copy()
    steps = len(seq)
    top = stack.num_layers - 1
    runs, cache = [], []
    for li, layer in enumerate(stack.layers):
        run = lstm_forward(seq, layer.w.data, layer.b.data, training)
        seq, layer_cache = next(run)
        p = stack.dropout_p if li < top else 0.0
        mask = dropout_mask(seq.shape, p, rng.split(f"lstm_dropout{li}")) if training else None
        if mask is not None:
            dropped = np.empty(seq.shape)
            run, seq = _each_block(run, dropped, mask), dropped
        runs.append(run)
        cache.append((layer_cache, mask))
    out = np.empty((len(x), steps, stack.hidden_size))
    runs[-1] = _each_block(runs[-1], out.transpose(1, 0, 2))
    _wavefront(runs, -(-steps // PROJECT_STEPS))
    return out, (cache if training else None)


def _each_block(run, out: np.ndarray, mask: np.ndarray | None = None):
    """Run a layer's blocks, each followed by a copy of its hidden states
    into the same rows of the time-major ``out``, times those rows of
    ``mask`` if given (elementwise, so the same bits as one product)."""
    start = 0
    for block in run:
        rows = slice(start, start + len(block))
        if mask is None:
            out[rows] = block
        else:
            np.multiply(block, mask[rows], out=out[rows])
        start = rows.stop
        yield


_pool = (0, None)  # (workers, executor): the wavefront's threads, built on first use


def _forget_pool() -> None:
    """In a forked child: the parent's workers do not exist here."""
    global _pool
    _pool = (0, None)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _wavefront(runs: list, blocks: int) -> None:
    """Run every run's ``blocks`` blocks, block k of ``runs[l]`` in diagonal
    l + k, then each run's tail: what its generator does after its last
    block (the backward's weight GEMMs; nothing in the forward).  Block k
    of ``runs[l]`` needs block k of ``runs[l - 1]`` and block k - 1 of its
    own run, both from the diagonal before, so the blocks of one diagonal
    are independent: this thread runs one of them (and any the workers
    cannot take), ``min(layers, CPUs) - 1`` pool threads the rest, and all
    are done before the next diagonal starts.  A tail waits for no
    diagonal: it goes to a worker that the next diagonal leaves free, and
    the tails left when the last diagonal is done run on this thread.  A
    block or tail runs the same GEMMs whichever thread runs it, so the bits
    do not depend on the worker count; one layer, or one CPU, starts no
    thread."""
    global _pool
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(len(runs), cpus or 1) - 1
    if workers > _pool[0]:
        from concurrent.futures import ThreadPoolExecutor  # lazily: not on the CLI's import path

        if _pool[1] is not None:
            _pool[1].shutdown()  # its threads end before the new pool's start
        _pool = (workers, ThreadPoolExecutor(workers, thread_name_prefix="lstm-wavefront"))
    pool = _pool[1]
    finished, tails = [], []  # runs past their last block; futures of the tails on the pool
    try:
        for diagonal in range(len(runs) + blocks - 1):
            ready = runs[max(0, diagonal - blocks + 1):diagonal + 1]
            free = workers - sum(not tail.done() for tail in tails)
            futures = [pool.submit(next, run) for run in ready[1:free + 1]]
            spare = max(0, free + 1 - len(ready))
            tails += [pool.submit(next, run, None) for run in finished[:spare]]
            del finished[:spare]
            try:
                for run in ready[:1] + ready[free + 1:]:
                    next(run)
            finally:
                for future in futures:
                    future.result()
            if diagonal >= blocks - 1:
                finished.append(ready[0])  # its last block is done
        for run in finished:
            next(run, None)
    finally:
        for tail in tails:
            tail.result()


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
