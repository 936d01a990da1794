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

from .autodiff import (
    RngState,
    Tensor,
    add,
    concat,
    dropout,
    mean_all,
    mul,
    relu,
    reshape,
    scale,
    slice_tensor,
    sub,
)
from .errors import ConfigError, DataError, ShapeError
from .layers import (
    AffineLayer,
    AttentionHead,
    EmbeddingTable,
    LstmStack,
    Mlp,
    attend_batched,
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
    predictions: Tensor  # (B, 6)
    attention: Tensor | None  # (B, T) when the attention path is active
    reduced_static: Tensor | None  # (B, z') when the static path is active


class HybridModel:
    """Heterogeneous-input forecaster with switchable paths."""

    def __init__(self, config: ModelConfig, ablation: AblationConfig, seed: int):
        self.config = config
        self.ablation = ablation
        self.seed = int(seed)
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
                    activation="relu",
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

    def zero_grad(self) -> None:
        for t in self.named_parameters().values():
            t.zero_grad()

    def _static_vector(self, batch: Batch, training: bool, rng: RngState):
        pieces: list[Tensor] = []
        reduced = None
        if self.embeddings:
            if batch.s_d is None:
                raise DataError("batch lacks categorical static features")
            if batch.s_d.shape[1] != len(self.embeddings):
                raise DataError(
                    f"expected {len(self.embeddings)} categorical features, got {batch.s_d.shape[1]}"
                )
            rows = [embed(table, batch.s_d[:, j]) for j, table in enumerate(self.embeddings)]
            merged = concat(rows, axis=1)
            merged = dropout(merged, self.config.embed_dropout, training, rng.split("embed_drop"))
            reduced = self.reducer(merged)
            pieces.append(reduced)
        if self.config.numeric_static_count:
            if batch.s_n is None:
                raise DataError("batch lacks numeric static features")
            pieces.append(Tensor(np.asarray(batch.s_n, dtype=np.float64)))
        return reduced, pieces

    def forward(self, batch: Batch, training: bool = False,
                rng: RngState | None = None) -> BatchOutput:
        rng = rng or RngState(self.seed).split("forward")
        pieces: list[Tensor] = []
        alpha = None
        reduced = None

        if self.ablation.use_timeseries:
            if batch.x is None:
                raise DataError("batch lacks the time-series window")
            x = np.asarray(batch.x, dtype=np.float64)
            if x.ndim != 3 or x.shape[2] != self.config.input_channels:
                raise ShapeError(f"expected (B, T, {self.config.input_channels}) windows, got {x.shape}")
            hidden = lstm_states(self.lstm, x, rng, training)  # (B, T, h)
            if self.attention is not None:
                context, alpha = attend_batched(self.attention, hidden)
                pieces.append(context)
            batch_size, steps, width = hidden.shape
            last = slice_tensor(hidden, [(0, batch_size), (steps - 1, steps)])
            pieces.append(reshape(last, (batch_size, width)))

        if self.ablation.use_static:
            reduced, static_pieces = self._static_vector(batch, training, rng)
            pieces.extend(static_pieces)

        fused = concat(pieces, axis=1) if len(pieces) > 1 else pieces[0]
        fused = dropout(fused, self.config.dropout, training, rng.split("fuse_drop"))
        predictions = self.mlp(fused)
        return BatchOutput(predictions=predictions, attention=alpha, reduced_static=reduced)

    def reduced_static_embedding(self, s_d: np.ndarray) -> Tensor:
        """Reduced embedding vector for categorical codes only (eval mode)."""
        if not self.embeddings:
            raise ConfigError("model was built without the categorical static path")
        s_d = np.asarray(s_d, dtype=np.int64)
        rows = [embed(table, s_d[:, j]) for j, table in enumerate(self.embeddings)]
        return self.reducer(concat(rows, axis=1))


def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean squared error pooled over every sample and forecast week."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    if pred.shape != target.shape:
        raise ShapeError(f"prediction {pred.shape} vs target {target.shape}")
    diff = sub(pred, target)
    return mean_all(mul(diff, diff))


def mae_loss(pred: Tensor, target) -> Tensor:
    """Mean absolute error; |d| built as relu(d) + relu(-d)."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    if pred.shape != target.shape:
        raise ShapeError(f"prediction {pred.shape} vs target {target.shape}")
    diff = sub(pred, target)
    return mean_all(add(relu(diff), relu(scale(diff, -1.0))))


LOSSES = {"mse": mse_loss, "mae": mae_loss}
