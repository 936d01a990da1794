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

from dataclasses import dataclass, field

import numpy as np

from .autodiff import RngState, Tensor, lstm_backward, lstm_forward
from .errors import NumericError


def dropout(x: np.ndarray, p: float, training: bool,
            rng: RngState) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverted dropout: zero with probability ``p``, scale survivors by
    1/(1-p).  Returns the output and the mask that scales the gradient on
    the way back, or ``x`` itself and ``None`` when nothing is dropped."""
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
        output ``(B, T, h)``.  Consumes ``cache`` top layer first, so each
        layer's activations are freed once its backward is done."""
        grad = grad.transpose(1, 0, 2)
        for li, layer in reversed(list(enumerate(self.layers))):
            layer_cache, mask = cache.pop()
            if mask is not None:
                grad = grad * mask
            grad = lstm_backward(grad, layer_cache, layer.w.grad, layer.b.grad, li > 0)


def lstm_states(stack: LstmStack, x: np.ndarray, rng: RngState,
                training: bool) -> tuple[np.ndarray, list | None]:
    """Run the stack over a ``(B, T, in)`` window.  Returns the top layer's
    hidden state at every step, ``(B, T, h)``, and in training mode the
    cache for :meth:`LstmStack.backward` (``None`` otherwise).

    Initial hidden/cell states are zero.  The sequence travels time-major
    between layers, so in training mode the inter-layer dropout mask is T
    successive ``(B, h)`` draws from the layer's stream.
    """
    seq = x.transpose(1, 0, 2).copy()
    cache = []
    for li, layer in enumerate(stack.layers):
        seq, layer_cache = lstm_forward(seq, layer.w.data, layer.b.data, training)
        p = stack.dropout_p if li < stack.num_layers - 1 else 0.0
        seq, mask = dropout(seq, p, training, rng.split(f"lstm_dropout{li}"))
        cache.append((layer_cache, mask))
    return seq.transpose(1, 0, 2).copy(), (cache if training else None)


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
