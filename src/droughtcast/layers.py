"""Parameterized layers: embedding tables, affine/FFNN blocks, a stacked
LSTM, and scalar-score attention pooling over hidden states.

All parameters are initialized uniformly in ``±sqrt(1/fan_in)`` from the
run seed, which keeps initial activations bounded without any assumptions
about input scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import (
    RngState,
    Tensor,
    add,
    dropout,
    gather_rows,
    lstm,
    matmul,
    relu,
    reshape,
    softmax,
    tanh,
    transpose,
    weighted_sum,
)
from .errors import ConfigError, EmptySequenceError, ShapeError

_ACTIVATIONS = {"none": None, "relu": relu, "tanh": tanh}


def _uniform_param(rng: RngState, shape: tuple[int, ...], fan_in: int) -> Tensor:
    bound = float(np.sqrt(1.0 / max(fan_in, 1)))
    return Tensor(rng.uniform(-bound, bound, shape), requires_grad=True)


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


def embed(table: EmbeddingTable, codes) -> Tensor:
    """Look up rows for integer codes; gradient flows only into taken rows."""
    codes = np.asarray(codes, dtype=np.int64)
    if codes.size and codes.max() >= table.vocab_size:
        raise IndexError(
            f"code {int(codes.max())} outside vocab of size {table.vocab_size}"
        )
    return gather_rows(table.weights, codes)


@dataclass
class AffineLayer:
    weight: Tensor  # (out, in)
    bias: Tensor  # (out,)
    activation: str = "none"

    def __post_init__(self):
        if self.activation not in _ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.bias.shape != (self.weight.shape[0],):
            raise ShapeError(
                f"bias {self.bias.shape} does not match weight rows {self.weight.shape}"
            )

    @classmethod
    def init(cls, in_size: int, out_size: int, rng: RngState, activation: str = "none") -> "AffineLayer":
        return cls(
            weight=_uniform_param(rng, (out_size, in_size), in_size),
            bias=_uniform_param(rng, (out_size,), in_size),
            activation=activation,
        )

    @property
    def in_size(self) -> int:
        return self.weight.shape[1]

    @property
    def out_size(self) -> int:
        return self.weight.shape[0]

    def __call__(self, x: Tensor) -> Tensor:
        squeeze = x.data.ndim == 1
        if squeeze:
            x = reshape(x, (1, x.shape[0]))
        if x.shape[1] != self.in_size:
            raise ShapeError(f"affine expects {self.in_size} inputs, got {x.shape[1]}")
        out = add(matmul(x, transpose(self.weight)), self.bias)
        act = _ACTIVATIONS[self.activation]
        if act is not None:
            out = act(out)
        if squeeze:
            out = reshape(out, (self.out_size,))
        return out

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
        return cls(Tensor(w, requires_grad=True), Tensor(b, requires_grad=True))

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


def lstm_states(stack: LstmStack, x: np.ndarray, rng: RngState | None,
                training: bool) -> Tensor:
    """Run the stack over a ``(B, T, in)`` window and return the top layer's
    hidden state at every step, ``(B, T, h)``.

    Initial hidden/cell states are zero.  The sequence travels time-major
    between layers, so in training mode the inter-layer dropout mask is T
    successive ``(B, h)`` draws from the layer's stream.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != stack.input_size:
        raise ShapeError(f"LSTM expects (B, T, {stack.input_size}) windows, got {x.shape}")
    if x.shape[1] == 0:
        raise EmptySequenceError("LSTM received an empty sequence")
    seq = Tensor(x.transpose(1, 0, 2).copy())
    for li, layer in enumerate(stack.layers):
        seq = lstm(seq, layer.w, layer.b)
        if training and stack.dropout_p > 0 and li < stack.num_layers - 1:
            drop_rng = (rng or RngState(0)).split(f"lstm_dropout{li}")
            seq = dropout(seq, stack.dropout_p, True, drop_rng)
    return transpose(seq, (1, 0, 2))


@dataclass
class AttentionHead:
    """Scalar score per time step followed by softmax pooling."""

    score_layer: AffineLayer

    @classmethod
    def init(cls, hidden_size: int, rng: RngState) -> "AttentionHead":
        return cls(AffineLayer.init(hidden_size, 1, rng))

    def parameters(self) -> dict[str, Tensor]:
        return {f"score.{k}": v for k, v in self.score_layer.parameters().items()}


def attend(head: AttentionHead, hidden: Tensor) -> tuple[Tensor, Tensor]:
    """Pool ``(T, h)`` hidden states into a context vector.

    Returns ``(context, weights)`` where ``weights`` is the softmax of the
    per-step scalar scores and ``context`` their weighted sum: a convex
    combination of the hidden states.
    """
    if not isinstance(hidden, Tensor):
        hidden = Tensor(hidden)
    if hidden.data.ndim != 2:
        raise ShapeError(f"expected (T, h) hidden states, got {hidden.shape}")
    steps = hidden.shape[0]
    if steps == 0:
        raise EmptySequenceError("attention over an empty sequence")
    scores = head.score_layer(hidden)  # (T, 1)
    alpha_row = softmax(reshape(scores, (1, steps)), axis=1)
    context = matmul(alpha_row, hidden)  # (1, h)
    return reshape(context, (hidden.shape[1],)), reshape(alpha_row, (steps,))


def attend_batched(head: AttentionHead, hidden: Tensor) -> tuple[Tensor, Tensor]:
    """Batched attention over ``(B, T, h)`` hidden states: one score GEMM
    over all ``B*T`` states, a softmax per row and one weighted sum.

    Returns ``(context (B, h), weights (B, T))``.
    """
    batch, steps, width = hidden.shape
    if steps == 0:
        raise EmptySequenceError("attention over an empty sequence")
    scores = head.score_layer(reshape(hidden, (batch * steps, width)))  # (B*T, 1)
    alpha = softmax(reshape(scores, (batch, steps)), axis=1)
    return weighted_sum(alpha, hidden), alpha


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
            AffineLayer.init(sizes[i], sizes[i + 1], rng.split(f"mlp{i}"),
                             activation="relu" if i < num_layers - 1 else "none")
            for i in range(num_layers)
        ]
        return cls(layers)

    @property
    def in_size(self) -> int:
        return self.layers[0].in_size

    def __call__(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def parameters(self) -> dict[str, Tensor]:
        out = {}
        for i, layer in enumerate(self.layers):
            for name, t in layer.parameters().items():
                out[f"layer{i}.{name}"] = t
        return out
