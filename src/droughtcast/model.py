"""End-to-end forecaster: categorical embeddings -> FFNN reduction, stacked
LSTM over the meteorological window -> attention pooling, then an MLP over
the fused vector producing one score per forecast week.

Each input path (static features, time series, attention pooling) can be
switched off independently, which shrinks the fused vector and removes the
corresponding parameters entirely.  :func:`parameter_layout` gives the
name and shape of each parameter, in the order of the parameter vector,
and :meth:`HybridModel.draw_init` their initial values.

The forward takes a :class:`~droughtcast.data.SampleSet` slice.
:meth:`HybridModel.check` is the one place where a sample set meets the
model: every column an enabled path reads must have the width the model
was built for, windows need at least one step, and codes must lie within
their embedding table.  ``predict`` and ``fit`` call it once per sample
set, so the forward, the layers and the losses trust their inputs.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .autodiff import RngState, Tensor
from .data import TARGET_WEEKS, SampleSet
from .errors import ConfigError, DataError
from .layers import (
    AffineLayer,
    AttentionHead,
    EmbeddingTable,
    LstmLayer,
    LstmStack,
    Mlp,
    attend_batched,
    dropout,
    embed,
    lstm_states,
)


@dataclass
class ModelConfig:
    """Hyperparameters of the full forecaster (defaults are the library's
    tuned values for the county drought dataset)."""

    input_channels: int  # M' = current + previous-year channels
    numeric_static_count: int
    categorical_vocab_sizes: list[int] = field(default_factory=list)
    lstm_layers: int = 2
    hidden_size: int = 490
    embed_dim: int = 27
    reduced_dim: int = 6
    mlp_layers: int = 2
    mlp_hidden: int = 256
    dropout: float = 0.1
    embed_dropout: float = 0.4

    def __post_init__(self):
        for name in ("input_channels", "lstm_layers", "hidden_size", "embed_dim",
                     "reduced_dim", "mlp_layers", "mlp_hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.numeric_static_count < 0:
            raise ConfigError("numeric_static_count must be >= 0")
        if self.reduced_dim >= self.embed_dim:
            raise ConfigError("reduced_dim must be smaller than embed_dim")
        if self.input_channels % 2 != 0:
            raise ConfigError("input_channels must be even (current + previous-year)")
        if any(v < 1 for v in self.categorical_vocab_sizes):
            raise ConfigError("vocab sizes must be positive")
        for name in ("dropout", "embed_dropout"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")


@dataclass
class AblationConfig:
    use_static: bool = True
    use_timeseries: bool = True
    use_attention: bool = True

    def __post_init__(self):
        if not (self.use_static or self.use_timeseries):
            raise ConfigError("at least one input path must stay enabled")
        if self.use_attention and not self.use_timeseries:
            raise ConfigError("attention requires the time-series path")

    def label(self) -> str:
        parts = []
        if self.use_static:
            parts.append("static")
        if self.use_timeseries:
            parts.append("ts")
        if self.use_attention:
            parts.append("attention")
        return "+".join(parts)


@dataclass
class BatchOutput:
    predictions: np.ndarray  # (B, 6)
    attention: np.ndarray | None  # (B, T) when the attention path is active
    cache: dict | None = None  # what HybridModel.backward reads; training mode only


def fused_width(config: ModelConfig, ablation: AblationConfig) -> int:
    """Width of ``[context, last_hidden, reduced_embeddings, numeric_statics]``."""
    width = 0
    if ablation.use_timeseries:
        width += config.hidden_size * (2 if ablation.use_attention else 1)
    if ablation.use_static:
        if config.categorical_vocab_sizes:
            width += config.reduced_dim
        width += config.numeric_static_count
    if width == 0:
        raise ConfigError("model has no inputs")
    return width


def parameter_layout(config: ModelConfig,
                     ablation: AblationConfig) -> Iterator[tuple[str, tuple[int, ...]]]:
    """``(name, shape)`` of every parameter, in parameter-vector order; lazy,
    so a reader can stop after a few entries whatever the layer counts say.
    A model with no inputs raises ``ConfigError`` at the MLP, which is last."""
    if ablation.use_static:
        vocab = config.categorical_vocab_sizes
        for i, size in enumerate(vocab):
            yield f"embed{i}.weights", (size, config.embed_dim)
        if vocab:
            yield "reducer.weight", (config.reduced_dim, len(vocab) * config.embed_dim)
            yield "reducer.bias", (config.reduced_dim,)
    if ablation.use_timeseries:
        hidden = config.hidden_size
        for i in range(config.lstm_layers):
            yield f"lstm.layer{i}.w", ((config.input_channels if i == 0 else hidden) + hidden,
                                       4 * hidden)
            yield f"lstm.layer{i}.b", (4 * hidden,)
        if ablation.use_attention:
            yield "attention.score.weight", (1, hidden)
            yield "attention.score.bias", (1,)
    width = fused_width(config, ablation)
    for i in range(config.mlp_layers):
        out = TARGET_WEEKS if i == config.mlp_layers - 1 else config.mlp_hidden
        yield f"mlp.layer{i}.weight", (out, width)
        yield f"mlp.layer{i}.bias", (out,)
        width = out


MAX_LAYERS = 1000  # LSTM or MLP layers a model may have: the layout is listed whole


class HybridModel:
    """Heterogeneous-input forecaster with switchable paths.  Each parameter's
    ``data`` and ``grad`` are views into ``params`` and ``grads``, laid out by
    :func:`parameter_layout`.  Given ``params`` of the layout's size, the
    model holds it and draws nothing; otherwise :meth:`draw_init` fills it
    from the seed.  A model of more than ``MAX_LAYERS`` LSTM or MLP layers,
    or too large to allocate, is a ``ConfigError``."""

    def __init__(self, config: ModelConfig, ablation: AblationConfig, seed: int,
                 params: np.ndarray | None = None):
        self.config = config
        self.ablation = ablation
        self.seed = int(seed)
        self.source = "model"  # how input-mismatch errors name it; a checkpoint path once loaded
        self.sha256: bytes | None = None  # the digest of the checkpoint file once loaded

        for name in ("lstm_layers", "mlp_layers"):
            if getattr(config, name) > MAX_LAYERS:
                raise ConfigError(f"{name} must be at most {MAX_LAYERS:,}, "
                                  f"got {getattr(config, name):,}")
        layout = list(parameter_layout(config, ablation))
        ends = list(accumulate((math.prod(shape) for _, shape in layout), initial=0))
        try:
            self.params = np.zeros(ends[-1]) if params is None else np.asarray(params, np.float64)
            self.grads = np.zeros(ends[-1])
        except MemoryError:
            raise ConfigError(f"the model's {ends[-1]:,} parameters need "
                              f"{2 * 8 * ends[-1] / 2**30:,.1f} GiB for their values and "
                              "gradients, more than can be allocated") from None
        self._tensors = {name: Tensor(self.params[a:b].reshape(shape),
                                      self.grads[a:b].reshape(shape))
                         for (name, shape), a, b in zip(layout, ends, ends[1:])}
        p = self._tensors

        def affine(prefix: str, relu: bool = False) -> AffineLayer:
            return AffineLayer(p[f"{prefix}.weight"], p[f"{prefix}.bias"], relu)

        self.embeddings = [EmbeddingTable(p[f"embed{i}.weights"])
                           for i in range(len(config.categorical_vocab_sizes))
                           if ablation.use_static]
        self.reducer = affine("reducer", relu=True) if self.embeddings else None
        self.lstm = None
        if ablation.use_timeseries:
            self.lstm = LstmStack(config.lstm_layers, config.input_channels, config.hidden_size,
                                  [LstmLayer(p[f"lstm.layer{i}.w"], p[f"lstm.layer{i}.b"])
                                   for i in range(config.lstm_layers)], config.dropout)
        self.attention = (AttentionHead(affine("attention.score")) if ablation.use_attention
                          else None)
        self.mlp = Mlp([affine(f"mlp.layer{i}", relu=i < config.mlp_layers - 1)
                        for i in range(config.mlp_layers)])
        if params is None:
            self.draw_init()

    def draw_init(self) -> None:
        """Fill every parameter in place, uniform in ``±sqrt(1/fan_in)`` so that
        initial activations stay bounded.  Each layer draws from its own
        stream under ``init``: an affine layer its weight, then its bias; an
        LSTM layer, gate by gate, its input rows, recurrent rows, then bias."""
        init = RngState(self.seed).split("init")

        def fill(rng: RngState, view: np.ndarray, fan_in: int) -> None:
            bound = np.sqrt(1.0 / fan_in)
            view[...] = rng.uniform(-bound, bound, view.shape)

        def affine(layer: AffineLayer, rng: RngState) -> None:
            for view in (layer.weight.data, layer.bias.data):
                fill(rng, view, layer.weight.data.shape[1])

        for i, table in enumerate(self.embeddings):
            fill(init.split(f"embed{i}"), table.weights.data, table.weights.data.shape[1])
        if self.reducer is not None:
            affine(self.reducer, init.split("reducer"))
        if self.lstm is not None:
            for i, layer in enumerate(self.lstm.layers):
                rng, w, b = init.split("lstm").split(f"lstm{i}"), layer.w.data, layer.b.data
                hidden = b.shape[0] // 4
                for cols in (slice(k * hidden, (k + 1) * hidden) for k in range(4)):
                    fill(rng, w[:-hidden, cols].T, w.shape[0] - hidden)  # input rows
                    fill(rng, w[-hidden:, cols].T, hidden)  # recurrent rows
                    fill(rng, b[cols], hidden)
        if self.attention is not None:
            affine(self.attention.score_layer, init.split("attention"))
        for i, layer in enumerate(self.mlp.layers):
            affine(layer, init.split("mlp").split(f"mlp{i}"))

    # the constructor under another name, which only perfbench calls
    @classmethod
    def build(cls, config: ModelConfig, ablation: AblationConfig, seed: int) -> "HybridModel":
        return cls(config, ablation, seed)

    def named_parameters(self) -> dict[str, Tensor]:
        """Every parameter by its :func:`parameter_layout` name, in that order."""
        return self._tensors

    def _mismatch(self, what: str) -> DataError:
        return DataError(f"{self.source} does not fit these samples: {what}; "
                         "retrain it on the current ingest")

    def _check_codes(self, s_d: np.ndarray) -> None:
        """One column of ``s_d`` per embedding table, within its vocabulary."""
        if s_d.shape[1] != len(self.embeddings):
            raise self._mismatch(f"expected {len(self.embeddings)} categorical features, "
                                 f"got {s_d.shape[1]}")
        for j, table in enumerate(self.embeddings):
            low, high, size = s_d[:, j].min(), s_d[:, j].max(), len(table.weights.data)
            if low < 0 or high >= size:
                raise self._mismatch(f"categorical feature {j} has codes {low}..{high}, "
                                     f"expected 0..{size - 1}")

    def check(self, samples: SampleSet) -> None:
        """Raise ``DataError`` naming :attr:`source` unless the non-empty
        ``samples`` fit every path this model reads, and hold six targets."""
        s_n = samples.s_n
        if self.lstm is not None and (samples.steps < 1
                                      or samples.width != self.config.input_channels):
            raise self._mismatch(f"expected (B, T, {self.config.input_channels}) windows, "
                                 f"got {(len(samples), samples.steps, samples.width)}")
        if self.ablation.use_static and s_n.shape[1] != self.config.numeric_static_count:
            raise self._mismatch(f"expected {self.config.numeric_static_count} numeric "
                                 f"static features, got {s_n.shape[1]}")
        if self.embeddings:
            self._check_codes(samples.s_d)
        if samples.y.shape[1:] != (TARGET_WEEKS,):
            raise self._mismatch(f"expected (N, {TARGET_WEEKS}) targets, got {samples.y.shape}")

    def _embedded(self, s_d: np.ndarray) -> np.ndarray:
        """The embedding rows of ``(B, f_d)`` categorical codes, side by side."""
        return np.concatenate([embed(table, s_d[:, j]) for j, table in enumerate(self.embeddings)],
                              axis=1)

    def forward(self, batch: SampleSet, training: bool = False,
                rng: RngState | None = None) -> BatchOutput:
        """Predictions for a slice of a sample set that passed :meth:`check`.
        In training mode, which needs the stream ``rng``, dropout draws from
        it and the output carries the cache :meth:`backward` reads; eval
        mode draws nothing."""
        if training and rng is None:
            raise TypeError("a training forward needs its random stream rng")
        rng = rng if training else None
        cache: dict = {"s_d": batch.s_d}
        pieces: list[np.ndarray] = []
        alpha = None

        if self.lstm is not None:
            hidden, cache["lstm"] = lstm_states(self.lstm, batch.x, rng)  # (B, T, h)
            cache["hidden_shape"] = hidden.shape
            if self.attention is not None:
                context, alpha, cache["attention"] = attend_batched(self.attention, hidden)
                pieces.append(context)
            pieces.append(hidden[:, -1])

        if self.embeddings:
            merged, cache["embed_mask"] = dropout(self._embedded(batch.s_d),
                                                  self.config.embed_dropout, rng, "embed_drop")
            reduced, cache["reducer"] = self.reducer(merged)
            pieces.append(reduced)
        if self.ablation.use_static and self.config.numeric_static_count:
            pieces.append(batch.s_n)

        cache["widths"] = [piece.shape[1] for piece in pieces]
        fused, cache["fuse_mask"] = dropout(np.concatenate(pieces, axis=1), self.config.dropout,
                                            rng, "fuse_drop")
        predictions, cache["mlp"] = self.mlp(fused)
        return BatchOutput(predictions, alpha, cache if training else None)

    def backward(self, out: BatchOutput, grad: np.ndarray) -> None:
        """Fill :attr:`grads` from ``grad``, the loss gradient with respect to
        the predictions of the training forward ``out``.

        Each parameter is used once per forward, so each gradient follows
        one chain of layer backwards.  Only the top LSTM states have more
        than one consumer, and the order their gradients add up in fixes
        the bits of seeded training: the last step, the attention's
        weighted sum, then its scores."""
        cache, out.cache = out.cache, None  # consumed: the activations go with this call
        grad = self.mlp.backward(grad, cache["mlp"])
        if cache["fuse_mask"] is not None:
            grad = grad * cache["fuse_mask"]
        pieces = iter(np.split(grad, np.cumsum(cache["widths"])[:-1], axis=1))
        if self.lstm is not None:
            g_context = next(pieces) if self.attention is not None else None
            g_hidden = np.zeros(cache["hidden_shape"])
            g_hidden[:, -1] += next(pieces)
            if g_context is not None:
                through_sum, through_scores = self.attention.backward(g_context,
                                                                      cache.pop("attention"))
                g_hidden += through_sum
                g_hidden += through_scores
                # two (B, T, H) arrays that the LSTM backward, where training peaks, need not hold
                del through_sum, through_scores
            self.lstm.backward(g_hidden, cache.pop("lstm"))
        if self.embeddings:
            grad = self.reducer.backward(next(pieces), cache["reducer"])
            if cache["embed_mask"] is not None:
                grad = grad * cache["embed_mask"]
            for j, (table, g) in enumerate(zip(self.embeddings,
                                               np.split(grad, len(self.embeddings), axis=1))):
                table.backward(g, cache["s_d"][:, j])

    def reduced_static_embedding(self, s_d: np.ndarray) -> np.ndarray:
        """Reduced embedding vector for categorical codes only (eval mode)."""
        if not self.embeddings:
            raise ConfigError("model was built without the categorical static path")
        s_d = np.asarray(s_d, dtype=np.int64)
        self._check_codes(s_d)
        return self.reducer(self._embedded(s_d))[0]


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error pooled over every sample and forecast week, and
    its gradient with respect to ``pred``."""
    diff = pred - target
    scale = 1.0 / diff.size
    return float((diff * diff).sum() * scale), (scale * diff) * 2.0


def mae_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean absolute error, and its gradient with respect to ``pred``
    (taken as 0 where the error is 0)."""
    diff = pred - target
    scale = 1.0 / diff.size
    return float(np.abs(diff).sum() * scale), scale * (diff > 0.0) - scale * (diff < 0.0)


LOSSES = {"mse": mse_loss, "mae": mae_loss}
