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
    concat,
    dropout,
    gather_rows,
    matmul,
    mul,
    relu,
    reshape,
    sigmoid,
    slice_tensor,
    softmax,
    tanh,
    transpose,
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
class LstmGates:
    """One layer's gate parameters: input (i), forget (f), candidate (g),
    output (o); ``w_*`` act on the layer input, ``u_*`` on the previous
    hidden state."""

    w_i: Tensor
    w_f: Tensor
    w_g: Tensor
    w_o: Tensor
    u_i: Tensor
    u_f: Tensor
    u_g: Tensor
    u_o: Tensor
    b_i: Tensor
    b_f: Tensor
    b_g: Tensor
    b_o: Tensor

    @classmethod
    def init(cls, in_size: int, hidden: int, rng: RngState) -> "LstmGates":
        kw = {}
        for gate in "ifgo":
            kw[f"w_{gate}"] = _uniform_param(rng, (hidden, in_size), in_size)
            kw[f"u_{gate}"] = _uniform_param(rng, (hidden, hidden), hidden)
            kw[f"b_{gate}"] = _uniform_param(rng, (hidden,), hidden)
        return cls(**kw)

    def parameters(self) -> dict[str, Tensor]:
        return {name: getattr(self, name) for name in (
            "w_i", "w_f", "w_g", "w_o",
            "u_i", "u_f", "u_g", "u_o",
            "b_i", "b_f", "b_g", "b_o",
        )}


@dataclass
class LstmStack:
    num_layers: int
    input_size: int
    hidden_size: int
    layers: list[LstmGates]
    dropout_p: float = 0.0

    @classmethod
    def init(cls, num_layers: int, input_size: int, hidden_size: int,
             rng: RngState, dropout_p: float = 0.0) -> "LstmStack":
        if num_layers < 1:
            raise ConfigError("LSTM needs at least one layer")
        layers = [
            LstmGates.init(input_size if i == 0 else hidden_size, hidden_size, rng.split(f"lstm{i}"))
            for i in range(num_layers)
        ]
        return cls(num_layers, input_size, hidden_size, layers, dropout_p)

    def parameters(self) -> dict[str, Tensor]:
        out = {}
        for i, layer in enumerate(self.layers):
            for name, t in layer.parameters().items():
                out[f"layer{i}.{name}"] = t
        return out


def _cell_step(gates: LstmGates, x_t: Tensor, h_prev: Tensor, c_prev: Tensor,
               wt: dict[str, Tensor]) -> tuple[Tensor, Tensor]:
    # wt caches transposed weights so each forward transposes once, not per step
    i = sigmoid(add(add(matmul(x_t, wt["w_i"]), matmul(h_prev, wt["u_i"])), gates.b_i))
    f = sigmoid(add(add(matmul(x_t, wt["w_f"]), matmul(h_prev, wt["u_f"])), gates.b_f))
    g = tanh(add(add(matmul(x_t, wt["w_g"]), matmul(h_prev, wt["u_g"])), gates.b_g))
    o = sigmoid(add(add(matmul(x_t, wt["w_o"]), matmul(h_prev, wt["u_o"])), gates.b_o))
    c_t = add(mul(f, c_prev), mul(i, g))
    h_t = mul(o, tanh(c_t))
    return h_t, c_t


def lstm_states(stack: LstmStack, xs: list[Tensor], rng: RngState | None,
                training: bool) -> list[Tensor]:
    """Run the stack over a list of per-step ``(B, in)`` tensors and return
    the top layer's hidden state at every step.

    Initial hidden/cell states are zero; inter-layer dropout applies to the
    whole lower-layer sequence in training mode.
    """
    if not xs:
        raise EmptySequenceError("LSTM received an empty sequence")
    if xs[0].shape[1] != stack.input_size:
        raise ShapeError(
            f"LSTM expects {stack.input_size} input channels, got {xs[0].shape[1]}"
        )
    batch = xs[0].shape[0]
    seq = xs
    for li, gates in enumerate(stack.layers):
        wt = {
            name: transpose(getattr(gates, name))
            for name in ("w_i", "w_f", "w_g", "w_o", "u_i", "u_f", "u_g", "u_o")
        }
        h = Tensor(np.zeros((batch, stack.hidden_size)))
        c = Tensor(np.zeros((batch, stack.hidden_size)))
        outputs = []
        for x_t in seq:
            h, c = _cell_step(gates, x_t, h, c, wt)
            outputs.append(h)
        if training and stack.dropout_p > 0 and li < stack.num_layers - 1:
            drop_rng = (rng or RngState(0)).split(f"lstm_dropout{li}")
            outputs = [dropout(h_t, stack.dropout_p, True, drop_rng) for h_t in outputs]
        seq = outputs
    return seq


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


def attend_batched(head: AttentionHead, hidden_steps: list[Tensor]) -> tuple[Tensor, Tensor]:
    """Batched attention over per-step ``(B, h)`` tensors.

    Returns ``(context (B, h), weights (B, T))``.
    """
    if not hidden_steps:
        raise EmptySequenceError("attention over an empty sequence")
    scores = concat([head.score_layer(h_t) for h_t in hidden_steps], axis=1)  # (B, T)
    alpha = softmax(scores, axis=1)
    context = None
    for t, h_t in enumerate(hidden_steps):
        weighted = mul(slice_tensor(alpha, [(0, alpha.shape[0]), (t, t + 1)]), h_t)
        context = weighted if context is None else add(context, weighted)
    return context, alpha


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
