"""End-to-end forecaster: categorical embeddings -> FFNN reduction, stacked
LSTM over the meteorological window -> attention pooling, then an MLP over
the fused vector producing one score per forecast week.

Each input path (static features, time series, attention pooling) can be
switched off independently, which shrinks the fused vector and removes the
corresponding parameters entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import RngState, Tensor
from .errors import ConfigError, DataError, ShapeError
from .layers import (
    AffineLayer,
    AttentionHead,
    EmbeddingTable,
    LstmStack,
    Mlp,
    attend_batched,
    dropout,
    embed,
    lstm_states,
)

FORECAST_WEEKS = 6


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
class Batch:
    """Dense arrays for one mini-batch; fields may be None when a sample
    set was built without that input."""

    x: np.ndarray | None  # (B, T, M')
    s_n: np.ndarray | None  # (B, f_n)
    s_d: np.ndarray | None  # (B, f_d) integer codes
    y: np.ndarray | None = None  # (B, 6)

    @property
    def size(self) -> int:
        for arr in (self.x, self.s_n, self.s_d, self.y):
            if arr is not None:
                return arr.shape[0]
        raise DataError("empty batch")


@dataclass
class BatchOutput:
    predictions: np.ndarray  # (B, 6)
    attention: np.ndarray | None  # (B, T) when the attention path is active
    reduced_static: np.ndarray | None  # (B, z') when the static path is active
    cache: dict | None = None  # what HybridModel.backward reads; training mode only


class HybridModel:
    """Heterogeneous-input forecaster with switchable paths."""

    def __init__(self, config: ModelConfig, ablation: AblationConfig, seed: int):
        self.config = config
        self.ablation = ablation
        self.seed = int(seed)
        self.source = "model"  # how input-mismatch errors name it; a checkpoint path once loaded
        rng = RngState(self.seed).split("init")

        self.embeddings: list[EmbeddingTable] = []
        self.reducer: AffineLayer | None = None
        self.lstm: LstmStack | None = None
        self.attention: AttentionHead | None = None

        if ablation.use_static:
            self.embeddings = [
                EmbeddingTable.init(v, config.embed_dim, rng.split(f"embed{i}"))
                for i, v in enumerate(config.categorical_vocab_sizes)
            ]
            if self.embeddings:
                self.reducer = AffineLayer.init(
                    len(self.embeddings) * config.embed_dim,
                    config.reduced_dim,
                    rng.split("reducer"),
                    relu=True,
                )
        if ablation.use_timeseries:
            self.lstm = LstmStack.init(
                config.lstm_layers, config.input_channels, config.hidden_size,
                rng.split("lstm"), dropout_p=config.dropout,
            )
            if ablation.use_attention:
                self.attention = AttentionHead.init(config.hidden_size, rng.split("attention"))

        self.mlp = Mlp.init(self.fused_width(), config.mlp_hidden, FORECAST_WEEKS,
                            config.mlp_layers, rng.split("mlp"))

    @classmethod
    def build(cls, config: ModelConfig, ablation: AblationConfig, seed: int) -> "HybridModel":
        return cls(config, ablation, seed)

    def fused_width(self) -> int:
        width = 0
        if self.ablation.use_timeseries:
            width += self.config.hidden_size * (2 if self.ablation.use_attention else 1)
        if self.ablation.use_static:
            if self.embeddings:
                width += self.config.reduced_dim
            width += self.config.numeric_static_count
        if width == 0:
            raise ConfigError("model has no inputs")
        return width

    def named_parameters(self) -> dict[str, Tensor]:
        params: dict[str, Tensor] = {}
        for i, table in enumerate(self.embeddings):
            params[f"embed{i}.weights"] = table.weights
        if self.reducer is not None:
            for name, t in self.reducer.parameters().items():
                params[f"reducer.{name}"] = t
        if self.lstm is not None:
            for name, t in self.lstm.parameters().items():
                params[f"lstm.{name}"] = t
        if self.attention is not None:
            for name, t in self.attention.parameters().items():
                params[f"attention.{name}"] = t
        for name, t in self.mlp.parameters().items():
            params[f"mlp.{name}"] = t
        return params

    def _mismatch(self, what: str) -> DataError:
        return DataError(f"{self.source} does not fit these samples: {what}; "
                         "retrain it on the current ingest")

    def _embedded(self, s_d: np.ndarray | None) -> np.ndarray:
        """The embedding rows of ``(B, f_d)`` categorical codes, side by side."""
        if s_d is None:
            raise DataError("batch lacks categorical static features")
        if s_d.shape[1] != len(self.embeddings):
            raise self._mismatch(f"expected {len(self.embeddings)} categorical features, "
                                 f"got {s_d.shape[1]}")
        for j, table in enumerate(self.embeddings):
            low, high = s_d[:, j].min(), s_d[:, j].max()
            if low < 0 or high >= table.vocab_size:
                raise self._mismatch(f"categorical feature {j} has codes {low}..{high}, "
                                     f"expected 0..{table.vocab_size - 1}")
        return np.concatenate([embed(table, s_d[:, j]) for j, table in enumerate(self.embeddings)],
                              axis=1)

    def forward(self, batch: Batch, training: bool = False,
                rng: RngState | None = None) -> BatchOutput:
        """Predictions for a batch.  In training mode dropout is active and
        the output carries the cache :meth:`backward` reads."""
        rng = rng or RngState(self.seed).split("forward")
        cache: dict = {"s_d": batch.s_d}
        pieces: list[np.ndarray] = []
        alpha = None
        reduced = None

        if self.lstm is not None:
            if batch.x is None:
                raise DataError("batch lacks the time-series window")
            x = np.asarray(batch.x, dtype=np.float64)
            if x.ndim != 3 or x.shape[2] != self.config.input_channels:
                raise self._mismatch(f"expected (B, T, {self.config.input_channels}) windows, "
                                     f"got {x.shape}")
            hidden, cache["lstm"] = lstm_states(self.lstm, x, rng, training)  # (B, T, h)
            cache["hidden_shape"] = hidden.shape
            if self.attention is not None:
                context, alpha, cache["attention"] = attend_batched(self.attention, hidden)
                pieces.append(context)
            pieces.append(hidden[:, -1])

        if self.embeddings:
            merged, cache["embed_mask"] = dropout(self._embedded(batch.s_d),
                                                  self.config.embed_dropout, training,
                                                  rng.split("embed_drop"))
            reduced, cache["reducer"] = self.reducer(merged)
            pieces.append(reduced)
        if self.ablation.use_static and self.config.numeric_static_count:
            if batch.s_n is None:
                raise DataError("batch lacks numeric static features")
            if batch.s_n.shape[1] != self.config.numeric_static_count:
                raise self._mismatch(f"expected {self.config.numeric_static_count} numeric "
                                     f"static features, got {batch.s_n.shape[1]}")
            pieces.append(np.asarray(batch.s_n, dtype=np.float64))

        cache["widths"] = [piece.shape[1] for piece in pieces]
        fused, cache["fuse_mask"] = dropout(np.concatenate(pieces, axis=1), self.config.dropout,
                                            training, rng.split("fuse_drop"))
        predictions, cache["mlp"] = self.mlp(fused)
        return BatchOutput(predictions, alpha, reduced, cache if training else None)

    def backward(self, out: BatchOutput, grad: np.ndarray) -> None:
        """Set every parameter's ``grad`` from ``grad``, the loss gradient
        with respect to the predictions of the training forward ``out``.

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
        return self.reducer(self._embedded(np.asarray(s_d, dtype=np.int64)))[0]


def _check_shapes(pred: np.ndarray, target: np.ndarray) -> None:
    if pred.shape != target.shape:
        raise ShapeError(f"prediction {pred.shape} vs target {target.shape}")


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error pooled over every sample and forecast week, and
    its gradient with respect to ``pred``."""
    _check_shapes(pred, target)
    diff = pred - target
    scale = 1.0 / diff.size
    return float((diff * diff).sum() * scale), (scale * diff) * 2.0


def mae_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean absolute error, and its gradient with respect to ``pred``
    (taken as 0 where the error is 0)."""
    _check_shapes(pred, target)
    diff = pred - target
    scale = 1.0 / diff.size
    return float(np.abs(diff).sum() * scale), scale * (diff > 0.0) - scale * (diff < 0.0)


LOSSES = {"mse": mse_loss, "mae": mae_loss}
