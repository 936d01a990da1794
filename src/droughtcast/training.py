"""Optimization loop: decoupled-weight-decay Adam, a triangular cyclical
learning-rate schedule, seeded mini-batching, and binary checkpoints.

Each training step runs the model's forward in training mode, the loss,
which returns its value and its gradient with respect to the predictions,
then :meth:`HybridModel.backward`, which sets every parameter's ``grad``
for the AdamW update.  Inference runs the forward in eval mode, which
keeps no caches for a backward pass.

Checkpoint format (little-endian): magic ``HMCKPT2``, uint32 length +
UTF-8 config text (one ``model.<field>=`` or ``ablation.<field>=`` line
per field of ``ModelConfig`` and ``AblationConfig``, then ``seed=``),
uint32 tensor count, then per tensor uint32 name length, name bytes,
uint32 rank, uint32 dims, float64 payload.
"""

from __future__ import annotations

import struct
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .autodiff import RngState, Tensor
from .config import format_value, parse_as
from .data import SampleSet, csv_text
from .errors import ConfigError, DataError, FormatError, NumericError
from .model import LOSSES, AblationConfig, Batch, HybridModel, ModelConfig


@dataclass
class OptimizerState:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adamw_step(params: dict[str, Tensor], state: OptimizerState, lr: float) -> None:
    """One decoupled-weight-decay Adam update over all parameters.

    theta <- theta - lr * (m_hat / (sqrt(v_hat) + eps) + wd * theta)
    """
    state.step_count += 1
    t = state.step_count
    for name, p in params.items():
        g = p.grad
        if np.isnan(g).any() or np.isinf(g).any():
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        state.m[name] = state.beta1 * state.m[name] + (1 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1 - state.beta2) * g * g
        m_hat = state.m[name] / (1 - state.beta1 ** t)
        v_hat = state.v[name] / (1 - state.beta2 ** t)
        p.data -= lr * (m_hat / (np.sqrt(v_hat) + state.eps) + state.weight_decay * p.data)


@dataclass
class LrSchedule:
    """Triangular wave from base_lr up to max_lr and back over one cycle."""

    base_lr: float = 7e-6
    max_lr: float = 7e-5
    cycle_length: int = 100

    def __post_init__(self):
        if not 0 < self.base_lr <= self.max_lr:
            raise ConfigError("need 0 < base_lr <= max_lr")
        if self.cycle_length < 2:
            raise ConfigError("cycle_length must be at least 2 steps")

    def lr_at(self, step: int) -> float:
        phase = (step % self.cycle_length) / self.cycle_length
        tri = 1.0 - abs(2.0 * phase - 1.0)
        return self.base_lr + (self.max_lr - self.base_lr) * tri


@dataclass
class TrainRunConfig:
    batch_size: int = 128
    epochs: int = 9
    seed: int = 0
    weight_decay: float = 0.01
    loss: str = "mse"
    selection: str = "best"  # best validation MAE, or "last" epoch
    checkpoint_dir: str | None = None

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.loss not in LOSSES:
            raise ConfigError(f"unknown loss {self.loss!r}")
        if self.selection not in ("best", "last"):
            raise ConfigError(f"selection must be 'best' or 'last', got {self.selection!r}")


@dataclass
class HistoryRow:
    epoch: int
    step: int
    lr: float
    train_loss: float
    val_mae: float


def history_csv(history: list[HistoryRow]) -> str:
    return csv_text([[f.name for f in fields(HistoryRow)]] + [astuple(row) for row in history])


def batch_from_samples(samples: SampleSet) -> Batch:
    return Batch(x=samples.x, s_n=samples.s_n, s_d=samples.s_d, y=samples.y)


# fit calls backward through this module's namespace, where perfbench/tracing.py times it
backward = HybridModel.backward

PREDICT_BLOCK = 256  # rows per eval-mode forward


def predict(model: HybridModel, samples: SampleSet) -> tuple[np.ndarray, np.ndarray | None]:
    """Eval-mode forward over the sample set, ``PREDICT_BLOCK`` rows at a
    time.

    Returns ``(predictions (N, 6), attention (N, T))``; the attention is
    ``None`` when the model has no attention path.
    """
    if not samples:
        raise DataError("no samples to predict")
    predictions, attention = [], []
    for i in range(0, len(samples), PREDICT_BLOCK):
        out = model.forward(batch_from_samples(samples[i:i + PREDICT_BLOCK]), training=False)
        predictions.append(out.predictions)
        if out.attention is not None:
            attention.append(out.attention)
    return np.concatenate(predictions), (np.concatenate(attention) if attention else None)


def validation_mae(model: HybridModel, samples: SampleSet) -> float:
    errors = np.abs(predict(model, samples)[0] - samples.y)
    # summed one block at a time: a single pairwise sum over all rows rounds
    # differently and would change the last bits of seeded histories
    total = sum(errors[i:i + PREDICT_BLOCK].sum() for i in range(0, len(errors), PREDICT_BLOCK))
    return float(total / errors.size)


def fit(model: HybridModel, train_samples: SampleSet, val_samples: SampleSet,
        run: TrainRunConfig, schedule: LrSchedule) -> tuple[HybridModel, list[HistoryRow]]:
    """Train in place; returns the selected model plus the per-epoch history.

    Shuffling, dropout, and initialization all derive from ``run.seed``.
    On divergence (non-finite loss) the last good checkpoint is kept and
    ``NumericError`` raised.
    """
    if not train_samples:
        raise ConfigError("empty training set")
    loss_fn = LOSSES[run.loss]
    state = OptimizerState(weight_decay=run.weight_decay)
    root = RngState(run.seed)
    history: list[HistoryRow] = []
    best_mae = float("inf")
    best_params: dict[str, np.ndarray] | None = None
    ckpt_dir = Path(run.checkpoint_dir) if run.checkpoint_dir else None
    if ckpt_dir:
        ckpt_dir.mkdir(parents=True, exist_ok=True)

    global_step = 0
    for epoch in range(run.epochs):
        order = root.split(f"shuffle:{epoch}").permutation(len(train_samples))
        epoch_loss = 0.0
        seen = 0
        for bi, start in enumerate(range(0, len(order), run.batch_size)):
            batch = batch_from_samples(train_samples[order[start:start + run.batch_size]])
            rng = root.split(f"dropout:{epoch}:{bi}")
            out = model.forward(batch, training=True, rng=rng)
            value, grad = loss_fn(out.predictions, batch.y)
            if not np.isfinite(value):
                if ckpt_dir and best_params is not None:
                    _restore(model, best_params)
                    save_checkpoint(model, ckpt_dir / "best.ckpt")
                raise NumericError(f"training diverged at epoch {epoch}, batch {bi}")
            backward(model, out, grad)
            adamw_step(model.named_parameters(), state, schedule.lr_at(global_step))
            epoch_loss += value * batch.size
            seen += batch.size
            global_step += 1

        val_mae = validation_mae(model, val_samples) if val_samples else float("nan")
        history.append(HistoryRow(epoch, global_step, schedule.lr_at(global_step),
                                  epoch_loss / seen, val_mae))
        if val_samples and val_mae < best_mae:
            best_mae = val_mae
            best_params = {k: t.data.copy() for k, t in model.named_parameters().items()}
            if ckpt_dir:
                save_checkpoint(model, ckpt_dir / "best.ckpt")

    if ckpt_dir:
        save_checkpoint(model, ckpt_dir / "final.ckpt")
    if run.selection == "best" and best_params is not None:
        _restore(model, best_params)
    return model, history


def _restore(model: HybridModel, params: dict[str, np.ndarray]) -> None:
    for name, t in model.named_parameters().items():
        t.data[...] = params[name]


_CKPT_MAGIC = b"HMCKPT2"
_HEADER_SECTIONS = {"model": ModelConfig, "ablation": AblationConfig}


def _config_text(model: HybridModel) -> str:
    """``section.field=value`` per config field, then ``seed=``."""
    lines = [f"{section}.{f.name}={format_value(getattr(config, f.name))}"
             for section, config in zip(_HEADER_SECTIONS, (model.config, model.ablation))
             for f in fields(config)]
    lines.append(f"seed={model.seed}")
    return "\n".join(lines)


def _parse_config_text(blob: bytes) -> tuple[ModelConfig, AblationConfig, int]:
    """Inverse of :func:`_config_text`; each value is parsed by its field's
    annotation.  A missing key, a bad value or non-UTF-8 bytes raise
    ``FormatError``; the configs' own checks raise ``ConfigError``."""
    try:
        kv = dict(line.partition("=")[::2] for line in blob.decode().splitlines())
    except UnicodeDecodeError:
        raise FormatError("not UTF-8") from None

    def value(key: str, kind):
        if key not in kv:
            raise FormatError(f"missing {key!r}")
        try:
            return parse_as(kind, kv[key])
        except ValueError as exc:
            raise FormatError(f"{key}={kv[key]!r}: {exc}") from None

    configs = []
    for section, cls in _HEADER_SECTIONS.items():
        kinds = get_type_hints(cls)
        configs.append(cls(**{f.name: value(f"{section}.{f.name}", kinds[f.name])
                              for f in fields(cls)}))
    return configs[0], configs[1], value("seed", int)


def save_checkpoint(model: HybridModel, path) -> None:
    """Atomic write (temp file + rename) of configs and parameters."""
    config = _config_text(model).encode()
    chunks = [_CKPT_MAGIC, struct.pack("<I", len(config)), config]
    params = model.named_parameters()
    chunks.append(struct.pack("<I", len(params)))
    for name, t in params.items():
        nb = name.encode()
        chunks.append(struct.pack("<I", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<I", t.data.ndim))
        chunks.append(struct.pack(f"<{t.data.ndim}I", *t.data.shape))
        chunks.append(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(b"".join(chunks))
    tmp.replace(path)


def load_checkpoint(path) -> HybridModel:
    blob = Path(path).read_bytes()
    if blob[: len(_CKPT_MAGIC)] != _CKPT_MAGIC:
        if blob.startswith(b"HMCKPT"):
            raise FormatError(f"{path}: checkpoint version {blob[:7].decode(errors='replace')!r} "
                              f"is not supported (expected {_CKPT_MAGIC.decode()}); retrain the model")
        raise FormatError(f"{path}: bad checkpoint magic")
    view = memoryview(blob)
    offset = len(_CKPT_MAGIC)

    def take(n: int) -> memoryview:
        nonlocal offset
        if offset + n > len(blob):
            raise FormatError(f"{path}: truncated checkpoint")
        piece = view[offset:offset + n]
        offset += n
        return piece

    (config_len,) = struct.unpack("<I", take(4))
    header = bytes(take(config_len))
    try:
        model = HybridModel.build(*_parse_config_text(header))
    except (ConfigError, FormatError) as exc:
        raise FormatError(f"{path}: checkpoint config: {exc}") from None
    model.source = f"checkpoint {path}"
    params = model.named_parameters()
    (count,) = struct.unpack("<I", take(4))
    if count != len(params):
        raise FormatError(f"{path}: expected {len(params)} tensors, found {count}")
    for _ in range(count):
        (n,) = struct.unpack("<I", take(4))
        name = bytes(take(n)).decode(errors="replace")
        (rank,) = struct.unpack("<I", take(4))
        shape = struct.unpack(f"<{rank}I", take(4 * rank))
        payload = np.frombuffer(take(8 * int(np.prod(shape))), dtype="<f8").reshape(shape)
        if name not in params:
            raise FormatError(f"{path}: unknown parameter {name!r}")
        if params[name].data.shape != shape:
            raise FormatError(f"{path}: shape mismatch for {name!r}")
        params[name].data[...] = payload
    if offset != len(blob):
        raise FormatError(f"{path}: trailing bytes")
    return model
