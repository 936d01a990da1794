"""Optimization loop: decoupled-weight-decay Adam, a triangular cyclical
learning-rate schedule, seeded mini-batching, and binary checkpoints.

``fit`` and ``predict`` check each sample set against the model once
(:meth:`HybridModel.check`), before the first step or block, so a set the
model was not built for is a ``DataError`` before any parameter moves.
:func:`batch_from_samples` cuts every mini-batch and eval block, a
``SampleSet`` slice that the forward takes as it is.  Each training step
runs the model's forward in training mode, the loss, which returns its
value and its gradient with respect to the predictions, then
:meth:`HybridModel.backward`, which writes the model's gradient vector for
the AdamW update.  Inference runs the forward in eval mode, which keeps no
caches for a backward pass.  :func:`predict` runs its blocks through
:func:`~droughtcast.pool.run_pool`, the package's process pool.

A checkpoint is a :func:`~droughtcast.data.write_artifact` file with magic
``HMCKPT3``.  Its header is UTF-8 text: one ``model.<field>=`` or
``ablation.<field>=`` line per field of ``ModelConfig`` and
``AblationConfig``, then ``seed=``, then ``tensors=`` and the parameter
names, comma-separated, in :func:`~droughtcast.model.parameter_layout`
order.  The one array is the model's parameter vector (those parameters in
that order) as little-endian float64.  A load checks the names and the
size against that layout before it allocates, and draws no init.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from itertools import islice
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .autodiff import RngState
from .config import format_value, parse_as
from .data import SampleSet, csv_text, read_artifact, write_artifact
from .errors import ConfigError, DataError, FormatError, NumericError
from .model import LOSSES, AblationConfig, HybridModel, ModelConfig, parameter_layout
from .pool import run_pool


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    weight_decay: float = 0.01
    step_count: int = 0
    m: np.ndarray | None = None  # first and second moments, per parameter vector entry
    v: np.ndarray | None = None


def adamw_step(model: HybridModel, state: OptimizerState, lr: float) -> None:
    """One decoupled-weight-decay Adam step on ``model.params``, in place,
    with at most two vector-sized temporaries: theta <- theta - lr * (m_hat
    / (sqrt(v_hat) + eps) + wd * theta).  A non-finite ``model.grads`` entry
    raises ``NumericError``, naming its parameter, before anything moves."""
    theta, g = model.params, model.grads
    if not np.isfinite(g).all():
        first = int(np.flatnonzero(~np.isfinite(g))[0])
        name = next(name for name, t in model.named_parameters().items()
                    if np.may_share_memory(t.grad, g[first:first + 1]))
        raise NumericError(f"non-finite gradient for parameter {name!r}")
    if state.m is None:
        state.m, state.v = np.zeros_like(theta), np.zeros_like(theta)
    state.step_count += 1
    m, v, t = state.m, state.v, state.step_count
    m *= ADAM_BETA1
    m += (1 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1 - ADAM_BETA2) * g * g
    step = m / (1 - ADAM_BETA1 ** t)  # m_hat
    root = v / (1 - ADAM_BETA2 ** t)  # v_hat
    np.sqrt(root, out=root)
    root += ADAM_EPS
    step /= root
    step += np.multiply(state.weight_decay, theta, out=root)
    step *= lr
    theta -= step


@dataclass
class LrSchedule:
    """Triangular wave from base_lr up to max_lr and back over one cycle."""

    base_lr: float = 7e-6
    max_lr: float = 7e-5
    cycle_length: int = 100

    def __post_init__(self):
        if not 0 < self.base_lr <= self.max_lr < math.inf:
            raise ConfigError(f"need 0 < base_lr <= max_lr < inf, got {self.base_lr}, "
                              f"{self.max_lr}")
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

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
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


def batch_from_samples(samples: SampleSet, rows) -> SampleSet:
    """The mini-batch or eval block at ``rows``, a slice or index array."""
    return samples[rows]


# fit calls backward through this module's namespace, where perfbench/tracing.py times it
backward = HybridModel.backward

PREDICT_BLOCK = 256  # rows per eval-mode forward


def predict(model: HybridModel, samples: SampleSet) -> tuple[np.ndarray, np.ndarray | None]:
    """Eval-mode forward over the sample set, ``PREDICT_BLOCK`` rows at a
    time, the blocks run by :func:`~droughtcast.pool.run_pool` at one CPU each.

    Returns ``(predictions (N, 6), attention (N, T))``; the attention is
    ``None`` when the model has no attention path.
    """
    if not samples:
        raise DataError("no samples to predict")
    model.check(samples)

    def block(start: int) -> tuple[np.ndarray, np.ndarray | None]:
        out = model.forward(batch_from_samples(samples, slice(start, start + PREDICT_BLOCK)))
        return out.predictions, out.attention

    predictions, attention = zip(*run_pool(block, range(0, len(samples), PREDICT_BLOCK), 1))
    return (np.concatenate(predictions),
            None if attention[0] is None else np.concatenate(attention))


def validation_mae(model: HybridModel, samples: SampleSet) -> float:
    errors = np.abs(predict(model, samples)[0] - samples.y)
    # summed one block at a time: a single pairwise sum over all rows rounds
    # differently and would change the last bits of seeded histories
    total = sum(errors[i:i + PREDICT_BLOCK].sum() for i in range(0, len(errors), PREDICT_BLOCK))
    return float(total / errors.size)


def fit(model: HybridModel, train_samples: SampleSet, val_samples: SampleSet,
        run: TrainRunConfig, schedule: LrSchedule,
        checkpoint_dir: Path | None = None) -> tuple[HybridModel, list[HistoryRow]]:
    """Train in place; returns the selected model plus the per-epoch history.

    Both sample sets are checked against the model before the first step;
    ``val_samples`` may be empty.  Shuffling and dropout derive from
    ``run.seed``.  Given ``checkpoint_dir``, each new best epoch is saved
    there as ``best.ckpt`` and the last as ``final.ckpt``.  On divergence
    (non-finite loss) the last good checkpoint is kept and ``NumericError``
    raised.
    """
    if not train_samples:
        raise DataError("empty training set")
    model.check(train_samples)
    if val_samples:
        model.check(val_samples)
    loss_fn = LOSSES[run.loss]
    state = OptimizerState(weight_decay=run.weight_decay)
    root = RngState(run.seed)
    history: list[HistoryRow] = []
    best_mae = float("inf")
    best_params: np.ndarray | None = None
    if checkpoint_dir is not None:
        checkpoint_dir.mkdir(parents=True, exist_ok=True)

    global_step = 0
    for epoch in range(run.epochs):
        order = root.split(f"shuffle:{epoch}").permutation(len(train_samples))
        epoch_loss = 0.0
        seen = 0
        for bi, start in enumerate(range(0, len(order), run.batch_size)):
            batch = batch_from_samples(train_samples, order[start:start + run.batch_size])
            rng = root.split(f"dropout:{epoch}:{bi}")
            out = model.forward(batch, training=True, rng=rng)
            value, grad = loss_fn(out.predictions, batch.y)
            if not np.isfinite(value):
                raise NumericError(f"training diverged at epoch {epoch}, batch {bi}")
            backward(model, out, grad)
            adamw_step(model, state, schedule.lr_at(global_step))
            epoch_loss += value * len(batch.y)
            seen += len(batch.y)
            global_step += 1

        val_mae = validation_mae(model, val_samples) if val_samples else float("nan")
        history.append(HistoryRow(epoch, global_step, schedule.lr_at(global_step),
                                  epoch_loss / seen, val_mae))
        if val_samples and val_mae < best_mae:
            best_mae = val_mae
            best_params = model.params.copy()
            if checkpoint_dir is not None:
                save_checkpoint(model, checkpoint_dir / "best.ckpt")

    if checkpoint_dir is not None:
        save_checkpoint(model, checkpoint_dir / "final.ckpt")
    if run.selection == "best" and best_params is not None:
        np.copyto(model.params, best_params)
    return model, history


_CKPT_MAGIC = b"HMCKPT3"
_HEADER_SECTIONS = {"model": ModelConfig, "ablation": AblationConfig}


def _config_text(model: HybridModel) -> str:
    """``section.field=value`` per config field, then ``seed=``, then
    ``tensors=`` and the parameter names in :func:`parameter_layout` order."""
    lines = [f"{section}.{f.name}={format_value(getattr(config, f.name))}"
             for section, config in zip(_HEADER_SECTIONS, (model.config, model.ablation))
             for f in fields(config)]
    lines += [f"seed={model.seed}", f"tensors={','.join(model.named_parameters())}"]
    return "\n".join(lines)


def _parse_config_text(blob: bytes) -> tuple[ModelConfig, AblationConfig, int, list[str]]:
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
    seed = value("seed", int)
    if seed < 0:
        raise FormatError(f"seed={seed}: must be >= 0")
    return configs[0], configs[1], seed, value("tensors", str).split(",")


def save_checkpoint(model: HybridModel, path) -> bytes:
    """Configs and the parameter vector as one atomic :func:`write_artifact`;
    returns the sha256 of the bytes written."""
    return write_artifact(path, _CKPT_MAGIC, _config_text(model).encode(),
                          [np.asarray(model.params, "<f8")])


def load_checkpoint(path) -> HybridModel:
    """The model a :func:`save_checkpoint` file holds, built around the
    vector read from it once its names and size match the layout (walked no
    further than one entry past the names, whatever the layer counts), with
    the file's digest as ``sha256``."""
    header, read, sha256 = read_artifact(path, _CKPT_MAGIC, "checkpoint", "retrain the model")
    try:
        config, ablation, seed, names = _parse_config_text(header)
        layout = list(islice(parameter_layout(config, ablation), len(names) + 1))
    except (ConfigError, FormatError) as exc:
        raise FormatError(f"{path}: checkpoint config: {exc}") from None
    expected = [name for name, _ in layout]
    if names != expected:
        raise FormatError(f"{path}: checkpoint tensors {names} differ from its config's {expected}")
    (params,) = read([("<f8", (sum(math.prod(shape) for _, shape in layout),))])
    model = HybridModel(config, ablation, seed, params)
    model.source, model.sha256 = f"checkpoint {path}", sha256
    return model
