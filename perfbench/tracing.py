"""Spans recorded from outside the program, around calls into each layer.

Many droughtcast modules import functions by name, so each wrapper is
installed where the caller looks the name up (``droughtcast.cli.fit``, not
``droughtcast.training.fit``).  One wrapper serves every lookup site of the
same function, so each call yields exactly one span.  Spans stay in memory
until the run ends.

Only entry points the ROADMAP keeps are traced.  ``lstm_forward``,
``ffnn_reduce``, ``mlp_forward``, ``elementwise``, module-level ``lr_at``,
``Normalizer.invert_timeseries`` and ``LstmGates`` are due for deletion and
are left alone.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    group: int  # index of the outermost span: one CLI command or one bare ``fit``


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    tensors_created: int = 0
    # Tensor constructions in the first model forward, plus its loss when it
    # trains (10,484 at B=32, T=180, 2 layers, all paths on the seed)
    first_forward_tensors: int | None = None
    _loss_pending: bool = False
    lstm_flops: float = 0.0
    _stack: list[int] = field(default_factory=list)

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def call(self, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        group = self.spans[parent].group if parent is not None else index
        span = Span(name, time.perf_counter(), 0.0, parent, group)
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (duration
        minus the time covered by direct children, which never overlap in
        this single-threaded program)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[str, dict[str, float]] = {}
        for i, span in enumerate(self.spans):
            row = out.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            duration = span.end - span.start
            row["calls"] += 1
            row["s"] += duration
            row["self_s"] += duration - child_time[i]
        return out

    def dump(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "group": s.group}
            for s in self.spans
        ]


def _lstm_flops(stack, xs) -> float:
    """Multiply-add FLOPs of the four gate GEMM pairs per step and layer."""
    if isinstance(xs, (list, tuple)):
        steps, batch = len(xs), xs[0].shape[0]
    else:
        batch, steps = xs.shape[0], xs.shape[1]
    hidden = stack.hidden_size
    flops = 0.0
    for layer in range(stack.num_layers):
        fan_in = stack.input_size if layer == 0 else hidden
        flops += steps * 8.0 * batch * hidden * (fan_in + hidden)
    return flops


class Patcher:
    """Installs wrappers and restores every original on ``restore``."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object, bool]] = []

    def replace(self, owner, key: str, value, is_item: bool = False) -> None:
        original = owner[key] if is_item else getattr(owner, key)
        self._undo.append((owner, key, original, is_item))
        if is_item:
            owner[key] = value
        else:
            setattr(owner, key, value)

    def wrap(self, name: str, original, after=None):
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = tracer.call(name, original, args, kwargs)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def span(self, name: str, sites: list[tuple[str, str]], after=None) -> None:
        """Wrap the function found at every ``(module[.Class], attribute)``
        site; all sites must hold the same function."""
        owners = [_resolve(owner) for owner, _ in sites]
        found = [getattr(owner, attr) for owner, (_, attr) in zip(owners, sites)]
        if any(fn is not found[0] for fn in found):
            raise RuntimeError(f"span {name}: sites {sites} hold different functions")
        wrapper = self.wrap(name, found[0], after)
        for owner, (_, attr) in zip(owners, sites):
            self.replace(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, key, original, is_item in reversed(self._undo):
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()


def _resolve(path: str):
    """``droughtcast.data`` or ``droughtcast.data.Normalizer``."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


def _count_build(tracer, args, kwargs, result) -> None:
    report = result[1]
    tracer.add("data.samples_built", report.built)
    tracer.add("data.samples_dropped", report.dropped)


def _count_cache(tracer, args, kwargs, result) -> None:
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.add("data.cache_bytes", Path(path).stat().st_size)


def _count_lstm(tracer, args, kwargs, result) -> None:
    xs = args[1] if len(args) > 1 else kwargs["xs"]
    tracer.lstm_flops += _lstm_flops(args[0], xs)


CLI_COMMANDS = ("ingest", "train", "eval", "ablate", "cv", "locexp", "introspect")

# (span name, lookup sites of the one function it wraps); a name may cover
# several functions, as ``data.split`` does
SPANS: list[tuple[str, list[tuple[str, str]]]] = [
    ("data.load_timeseries", [("droughtcast.data", "load_timeseries")]),
    ("data.load_statics", [("droughtcast.data", "load_statics")]),
    ("data.build_samples", [("droughtcast.data", "build_samples")]),
    ("data.fit_normalizer", [("droughtcast.data", "fit_normalizer")]),
    ("data.normalizer_apply", [("droughtcast.data.Normalizer", "apply")]),
    ("data.save_samples", [("droughtcast.data", "save_samples")]),
    ("data.load_samples", [("droughtcast.data", "load_samples")]),
    ("data.split", [("droughtcast.data", "split_fractions")]),
    ("data.split", [("droughtcast.data", "kfold_split")]),
    ("data.split", [("droughtcast.data", "filter_by_state")]),
    ("training.fit", [("droughtcast.cli", "fit")]),
    ("training.batch_from_samples", [("droughtcast.training", "batch_from_samples"),
                                     ("droughtcast.metrics", "batch_from_samples"),
                                     ("droughtcast.introspection", "batch_from_samples")]),
    ("training.adamw_step", [("droughtcast.training", "adamw_step")]),
    ("training.validation_mae", [("droughtcast.training", "validation_mae")]),
    ("training.save_checkpoint", [("droughtcast.cli", "save_checkpoint"),
                                  ("droughtcast.training", "save_checkpoint")]),
    ("training.load_checkpoint", [("droughtcast.cli", "load_checkpoint")]),
    ("layers.lstm_states", [("droughtcast.model", "lstm_states")]),
    ("layers.attend_batched", [("droughtcast.model", "attend_batched")]),
    ("layers.embed", [("droughtcast.model", "embed")]),
    ("layers.mlp", [("droughtcast.layers.Mlp", "__call__")]),
    ("autodiff.backward", [("droughtcast.training", "backward")]),
    ("metrics.evaluate", [("droughtcast.cli", "evaluate"), ("droughtcast.metrics", "evaluate")]),
    ("metrics.report_from_predictions", [("droughtcast.metrics", "report_from_predictions")]),
    ("metrics.cross_validate", [("droughtcast.cli", "cross_validate")]),
    ("metrics.paired_t_test", [("droughtcast.cli", "paired_t_test")]),
    ("introspection.collect_attention", [("droughtcast.cli", "collect_attention")]),
    ("introspection.export_embeddings", [("droughtcast.cli", "export_embeddings")]),
    ("introspection.tsne", [("droughtcast.cli", "tsne")]),
    ("introspection.emit_figures", [("droughtcast.cli", "emit_figures")]),
]

AFTER = {
    "data.build_samples": _count_build,
    "data.save_samples": _count_cache,
    "layers.lstm_states": _count_lstm,
}


def install(tracer: Tracer) -> Patcher:
    """Wrap every traced entry point; the caller must ``restore`` the patcher."""
    import droughtcast.autodiff as autodiff
    import droughtcast.cli as cli
    import droughtcast.model as model
    import droughtcast.training as train_module

    patcher = Patcher(tracer)
    try:
        for name, sites in SPANS:
            patcher.span(name, sites, AFTER.get(name))
        for command in CLI_COMMANDS:
            patcher.replace(cli.COMMANDS, command,
                            patcher.wrap(f"cli.{command}", cli.COMMANDS[command]), True)

        def traced_loss(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                before = tracer.tensors_created
                try:
                    return tracer.call("model.loss", fn, args, kwargs)
                finally:
                    if tracer._loss_pending:
                        tracer.first_forward_tensors += tracer.tensors_created - before
                        tracer._loss_pending = False

            return wrapper

        for loss in list(train_module.LOSSES):
            patcher.replace(train_module.LOSSES, loss,
                            traced_loss(train_module.LOSSES[loss]), True)

        forward = model.HybridModel.forward

        def traced_forward(self, batch, training=False, rng=None):
            before = tracer.tensors_created
            name = "model.forward_train" if training else "model.forward_eval"
            try:
                return tracer.call(name, forward, (self, batch, training, rng), {})
            finally:
                if tracer.first_forward_tensors is None:
                    tracer.first_forward_tensors = tracer.tensors_created - before
                    tracer._loss_pending = training

        patcher.replace(model.HybridModel, "forward", traced_forward)

        tensor_init = autodiff.Tensor.__init__

        def counting_init(self, *args, **kwargs):
            tracer.tensors_created += 1
            tensor_init(self, *args, **kwargs)

        patcher.replace(autodiff.Tensor, "__init__", counting_init)
    except BaseException:
        patcher.restore()
        raise
    return patcher
