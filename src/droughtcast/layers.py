"""Parameterized layers: embedding tables, affine/FFNN blocks, a stacked
LSTM, and scalar-score attention pooling over hidden states.

Each layer's forward returns its output together with a cache, and its
``backward`` takes the gradient of that output plus the cache, sets the
``grad`` of the layer's parameters and returns the gradient of its input.
Seeded training is reproducible bit for bit, and BLAS rounds the same
product differently for different operand layouts, so the layouts here are
fixed: a contiguous copy of ``W.T`` in the affine forward, ``(x.T @ g).T``
for its weight gradient, and ``np.add.at`` for embedding rows.

All parameters are initialized uniformly in ``±sqrt(1/fan_in)`` from the
run seed, which keeps initial activations bounded without any assumptions
about input scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import RngState, Tensor, lstm_backward, lstm_forward
from .errors import ConfigError, EmptySequenceError, NumericError


def _uniform_param(rng: RngState, shape: tuple[int, ...], fan_in: int) -> Tensor:
    bound = float(np.sqrt(1.0 / max(fan_in, 1)))
    return Tensor(rng.uniform(-bound, bound, shape))


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
    dim: int
    weights: Tensor

    @classmethod
    def init(cls, vocab_size: int, dim: int, rng: RngState) -> "EmbeddingTable":
        if vocab_size < 1 or dim < 1:
            raise ConfigError(f"bad embedding table size {vocab_size}x{dim}")
        return cls(vocab_size, dim, _uniform_param(rng, (vocab_size, dim), dim))

    def backward(self, grad: np.ndarray, codes: np.ndarray) -> None:
        """Gradient of the rows :func:`embed` took for ``codes``: a code
        taken twice receives both rows' gradients."""
        self.weights.grad = np.zeros_like(self.weights.data)
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

    @classmethod
    def init(cls, in_size: int, out_size: int, rng: RngState, relu: bool = False) -> "AffineLayer":
        return cls(
            weight=_uniform_param(rng, (out_size, in_size), in_size),
            bias=_uniform_param(rng, (out_size,), in_size),
            relu=relu,
        )

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
        self.bias.grad = grad.sum(axis=0)
        self.weight.grad = (x.T @ grad).T
        return grad @ w_t.T

    def parameters(self) -> dict[str, Tensor]:
        return {"weight": self.weight, "bias": self.bias}


@dataclass
class LstmLayer:
    """One layer's packed parameters: ``w (in + H, 4H)`` acts on the layer
    input stacked over the previous hidden state, and the columns of ``w``
    and ``b (4H,)`` hold the input (i), forget (f), candidate (g) and
    output (o) gates in that order."""

    w: Tensor
    b: Tensor

    @classmethod
    def init(cls, in_size: int, hidden: int, rng: RngState) -> "LstmLayer":
        w = np.empty((in_size + hidden, 4 * hidden))
        b = np.empty(4 * hidden)
        for k in range(4):  # per gate: input weights, recurrent weights, bias
            cols = slice(k * hidden, (k + 1) * hidden)
            w[:in_size, cols] = _uniform_param(rng, (hidden, in_size), in_size).data.T
            w[in_size:, cols] = _uniform_param(rng, (hidden, hidden), hidden).data.T
            b[cols] = _uniform_param(rng, (hidden,), hidden).data
        return cls(Tensor(w), Tensor(b))

    def parameters(self) -> dict[str, Tensor]:
        return {"w": self.w, "b": self.b}


@dataclass
class LstmStack:
    num_layers: int
    input_size: int
    hidden_size: int
    layers: list[LstmLayer]
    dropout_p: float = 0.0

    @classmethod
    def init(cls, num_layers: int, input_size: int, hidden_size: int,
             rng: RngState, dropout_p: float = 0.0) -> "LstmStack":
        if num_layers < 1:
            raise ConfigError("LSTM needs at least one layer")
        layers = [
            LstmLayer.init(input_size if i == 0 else hidden_size, hidden_size, rng.split(f"lstm{i}"))
            for i in range(num_layers)
        ]
        return cls(num_layers, input_size, hidden_size, layers, dropout_p)

    def parameters(self) -> dict[str, Tensor]:
        out = {}
        for i, layer in enumerate(self.layers):
            for name, t in layer.parameters().items():
                out[f"layer{i}.{name}"] = t
        return out

    def backward(self, grad: np.ndarray, cache: list) -> None:
        """Parameter gradients from the gradient of :func:`lstm_states`'
        output ``(B, T, h)``.  Consumes ``cache`` top layer first, so each
        layer's activations are freed once its backward is done."""
        grad = grad.transpose(1, 0, 2)
        for li in range(self.num_layers - 1, -1, -1):
            layer_cache, mask = cache.pop()
            if mask is not None:
                grad = grad * mask
            layer = self.layers[li]
            layer.w.grad, layer.b.grad, grad = lstm_backward(grad, layer_cache, li > 0)


def lstm_states(stack: LstmStack, x: np.ndarray, rng: RngState,
                training: bool) -> tuple[np.ndarray, list | None]:
    """Run the stack over a ``(B, T, in)`` window.  Returns the top layer's
    hidden state at every step, ``(B, T, h)``, and in training mode the
    cache for :meth:`LstmStack.backward` (``None`` otherwise).

    Initial hidden/cell states are zero.  The sequence travels time-major
    between layers, so in training mode the inter-layer dropout mask is T
    successive ``(B, h)`` draws from the layer's stream.
    """
    if x.shape[1] == 0:
        raise EmptySequenceError("LSTM received an empty sequence")
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

    @classmethod
    def init(cls, hidden_size: int, rng: RngState) -> "AttentionHead":
        return cls(AffineLayer.init(hidden_size, 1, rng))

    def parameters(self) -> dict[str, Tensor]:
        return {f"score.{k}": v for k, v in self.score_layer.parameters().items()}

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
    if steps == 0:
        raise EmptySequenceError("attention over an empty sequence")
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

    @classmethod
    def init(cls, in_size: int, hidden_size: int, out_size: int, num_layers: int,
             rng: RngState) -> "Mlp":
        if num_layers < 1:
            raise ConfigError("MLP needs at least one layer")
        sizes = [in_size] + [hidden_size] * (num_layers - 1) + [out_size]
        layers = [
            AffineLayer.init(sizes[i], sizes[i + 1], rng.split(f"mlp{i}"), relu=i < num_layers - 1)
            for i in range(num_layers)
        ]
        return cls(layers)

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

    def parameters(self) -> dict[str, Tensor]:
        out = {}
        for i, layer in enumerate(self.layers):
            for name, t in layer.parameters().items():
                out[f"layer{i}.{name}"] = t
        return out
