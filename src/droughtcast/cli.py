"""Command-line entry point.

Subcommands: ingest, train, eval, ablate, cv, locexp, introspect.  Every
command is a pure function of (config, input files, seed): artifacts land
in ``<out>/<command>/`` (``--out``, default ``runs``) with the resolved
configuration echoed alongside them, and each later command reads what
the earlier ones wrote under the same ``<out>``.

Exit codes: 0 success, 2 configuration error, 3 data error (an input or
output file that cannot be read or written included), 4 numeric error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, fields
from functools import partial
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from . import data as dp
from .config import RunConfig, config_help_text, load_config
from .errors import ConfigError, DataError, FormatError, NumericError, SchemaError
from .introspection import collect_attention, emit_figures, export_embeddings, tsne
from .layers import lstm_threads
from .metrics import (
    WEEKLY_COLUMNS,
    cross_validate,
    evaluate,
    location_experiment_report,
    paired_t_test,
)
from .model import AblationConfig, HybridModel, ModelConfig
from .training import (
    HistoryRow,
    LrSchedule,
    TrainRunConfig,
    fit,
    history_csv,
    load_checkpoint,
    predict,
    run_pool,
    save_checkpoint,
)

ABLATION_SETTINGS = [
    AblationConfig(use_static=True, use_timeseries=True, use_attention=True),
    AblationConfig(use_static=False, use_timeseries=True, use_attention=True),
    AblationConfig(use_static=False, use_timeseries=True, use_attention=False),
    AblationConfig(use_static=True, use_timeseries=True, use_attention=False),
    AblationConfig(use_static=True, use_timeseries=False, use_attention=False),
]


def _out_root(cfg: RunConfig) -> Path:
    return Path(cfg.get("run", "out"))


def _command_dir(cfg: RunConfig, command: str) -> Path:
    path = _out_root(cfg) / command
    path.mkdir(parents=True, exist_ok=True)
    dp.write_file(path / "resolved_config.ini", [cfg.render()])
    return path


def _ingest_dir(cfg: RunConfig) -> Path:
    return _out_root(cfg) / "ingest"


def _ingest_file(ingest: Path, name: str) -> Path:
    path = ingest / name
    if not path.exists():
        raise DataError(f"missing ingest artifact {path}; run `ingest` first")
    return path


def _require_file(cfg: RunConfig, section: str, key: str) -> Path:
    raw = cfg.get(section, key)
    if not raw:
        raise ConfigError(f"[{section}] {key} is required for this command")
    path = Path(raw)
    if not path.exists():
        raise SchemaError(f"[{section}] {key}: {path} does not exist")
    return path


def cmd_ingest(cfg: RunConfig) -> int:
    out = _command_dir(cfg, "ingest")
    ts_path = _require_file(cfg, "data", "timeseries")
    statics_path = _require_file(cfg, "data", "statics")
    categorical = cfg.get_list("data", "categorical_columns")
    window = cfg.get_int("data", "window_days")
    phase = cfg.get("data", "target_phase")
    max_gap = cfg.get_int("data", "max_gap_days")

    messages: list[str] = []
    statics, encoder = dp.load_statics(statics_path, categorical)

    def build_from(path: Path, channel_names: list[str] | None) -> tuple[dp.SampleSet, list[str]]:
        """Samples of one time-series file and its channel names, which must
        equal ``channel_names`` when those are given."""
        series = dp.load_timeseries(path, max_gap_days=max_gap, report=messages)
        if channel_names is not None and series.channel_names != channel_names:
            raise DataError(f"{path}: channels {series.channel_names} differ from the "
                            f"training file's {channel_names}")
        samples, report = dp.build_samples(series, statics, window_days=window,
                                           target_phase=phase)
        messages.append(f"{path.name}: {report.describe()}")
        return samples, series.channel_names

    # every set built, each normalized in place once; a split is a set and
    # the selection of its rows, made once the set is normalized
    built, channel_names = build_from(ts_path, None)
    sets = [built]
    if cfg.get("data", "timeseries_val") or cfg.get("data", "timeseries_test"):
        splits = [(built, slice(None))]
        for key in ("timeseries_val", "timeseries_test"):
            if cfg.get("data", key):
                sets.append(build_from(_require_file(cfg, "data", key), channel_names)[0])
                splits.append((sets[-1], slice(None)))
            else:
                splits.append((built, slice(0)))
    else:
        split = dp.split_fractions(
            len(built), cfg.get_float("data", "val_fraction"),
            cfg.get_float("data", "test_fraction"), seed=cfg.seed,
        )
        splits = [(built, index) for index in split]
        messages.append("random split: {} train / {} val / {} test".format(*map(len, split)))
    train = built[splits[0][1]]
    if not train:
        raise DataError("ingest produced no training samples")

    normalizer = dp.fit_normalizer(train, channel_names, statics.numeric_names)
    for samples in sets:
        normalizer.apply(samples)
    for name, (samples, rows) in zip(("train", "val", "test"), splits):
        dp.save_samples(samples[rows], out / f"{name}.samples")
    normalizer.save(out / "normalizer.csv")
    encoder.save(out / "categories.csv")
    for message in messages:
        print(message)
    print(f"ingested dataset -> {out}")
    return 0


def _load_sets(ingest: Path, *names: str) -> list[dp.SampleSet]:
    """The named sample caches (``train``, ``val``, ``test``) of an ingest
    directory, in order."""
    return [dp.load_samples(_ingest_file(ingest, f"{name}.samples")) for name in names]


def _checkpoint(cfg: RunConfig) -> Path:
    path = _out_root(cfg) / "train" / "model.ckpt"
    if not path.exists():
        raise DataError(f"no trained checkpoint at {path}; run `train` first")
    return path


def _from_section(cfg: RunConfig, cls, section: str, prefix: str = "", **given):
    """A ``cls`` from ``given`` plus, for each other field, the
    ``[section]`` key ``prefix + field name`` parsed by the field's
    annotation; a field with no such key keeps its default."""
    kinds = get_type_hints(cls)
    values = {f.name: cfg.get_as(section, prefix + f.name, kinds[f.name]) for f in fields(cls)
              if f.name not in given and prefix + f.name in cfg.values[section]}
    return cls(**values, **given)


def _model_config(cfg: RunConfig, ingest: Path, samples: dp.SampleSet) -> ModelConfig:
    """``[model]`` sized to the ingested samples and label dictionary."""
    vocab_sizes = dp.CategoricalEncoder.load(_ingest_file(ingest, "categories.csv")).vocab_sizes
    return _from_section(cfg, ModelConfig, "model", input_channels=samples.width,
                         numeric_static_count=samples.s_n.shape[1],
                         categorical_vocab_sizes=vocab_sizes)


def _schedule(cfg: RunConfig, n_train: int) -> LrSchedule:
    max_lr = cfg.get_float("train", "max_lr")
    base_lr = cfg.get_float("train", "base_lr") if cfg.get("train", "base_lr") else max_lr / 10.0
    batch = cfg.get_int("train", "batch_size")
    steps_per_epoch = max(1, -(-n_train // batch))
    cycle_epochs = cfg.get_int("train", "cycle_epochs")
    if cycle_epochs < 1:
        raise ConfigError(f"[train] cycle_epochs must be at least 1, got {cycle_epochs}")
    cycle = max(2, cycle_epochs * steps_per_epoch)
    return LrSchedule(base_lr=base_lr, max_lr=max_lr, cycle_length=cycle)


def _trained(cfg: RunConfig, config: ModelConfig, ablation: AblationConfig, seed: int,
             train: dp.SampleSet, val: dp.SampleSet, epochs: int | None = None,
             out: Path | None = None) -> tuple[HybridModel, list[HistoryRow], str | None]:
    """A model built from ``seed`` and fitted under ``[train]``, its history
    and, for cached sets, a note on where it came from; ``epochs`` overrides
    the epoch count.  With ``out``, the fit's checkpoints, ``model.ckpt`` and
    its key in ``manifest.json`` go there; without, :func:`_reused` may load
    ``train``'s model in place of the fit."""
    given = {"epochs": epochs} if epochs is not None else {}
    run = _from_section(cfg, TrainRunConfig, "train", seed=seed, **given,
                        checkpoint_dir=str(out) if out else None)
    schedule = _schedule(cfg, len(train))
    key = None if train.sha256 is None or val.sha256 is None else json.loads(json.dumps({
        "samples_sha256": {"train": train.sha256.hex(), "val": val.sha256.hex()},
        "model": asdict(config), "ablation": asdict(ablation), "schedule": asdict(schedule),
        "train": {k: v for k, v in asdict(run).items() if k != "checkpoint_dir"},
        "seed": seed, "version": __version__}))  # a derived set has no digest: no key
    model, note = _reused(cfg, key) if key is not None and out is None else (None, None)
    if model is not None:
        return model, [], note
    model, history = fit(HybridModel(config, ablation, seed), train, val, run, schedule)
    if out is not None:
        digest = save_checkpoint(model, out / "model.ckpt").hex()
        dp.write_file(out / "manifest.json", [json.dumps(
            {**key, "checkpoint_sha256": digest}, indent=2, sort_keys=True) + "\n"])
    return model, history, note


def _reused(cfg: RunConfig, key: dict) -> tuple[HybridModel | None, str]:
    """``train/model.ckpt`` when ``train/manifest.json`` holds ``key`` and
    the checkpoint's digest, else ``None``; and the note that says which."""
    path = _out_root(cfg) / "train"
    try:
        manifest = dict(json.loads((path / "manifest.json").read_text(encoding="utf-8")))
    except (OSError, ValueError, TypeError):
        return None, "trained (no train manifest)"
    digest = manifest.pop("checkpoint_sha256", None)
    if manifest != key:
        data = manifest.get("samples_sha256") != key["samples_sha256"]
        return None, f"trained (another {'data' if data else 'config'})"
    try:
        model = load_checkpoint(path / "model.ckpt")
    except (OSError, FormatError):  # a checkpoint that cannot stand in is retrained
        model = None
    if model is None or model.sha256.hex() != digest:
        return None, "trained (checkpoint changed)"
    return model, f"reused {path / 'model.ckpt'}"


def cmd_train(cfg: RunConfig) -> int:
    out = _command_dir(cfg, "train")
    ingest = _ingest_dir(cfg)
    train, val = _load_sets(ingest, "train", "val")
    if not train:
        raise DataError("no training samples in the ingest cache")
    model, history, _ = _trained(cfg, _model_config(cfg, ingest, train),
                                 _from_section(cfg, AblationConfig, "ablation"), cfg.seed,
                                 train, val, out=out)
    dp.write_file(out / "history.csv", [history_csv(history)])
    print(f"trained {model.ablation.label()} model: "
          f"final train loss {history[-1].train_loss:.4f}, "
          f"val MAE {history[-1].val_mae:.4f} -> {out}")
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    out = _command_dir(cfg, "eval")
    (test,) = _load_sets(_ingest_dir(cfg), "test")
    if not test:
        raise DataError("no test samples in the ingest cache")
    model = load_checkpoint(_checkpoint(cfg))
    report, predictions, attention = evaluate(model, test)
    dp.write_file(out / "weekly.csv", [report.weekly_csv()])
    dp.write_file(out / "summary.csv", [report.summary_csv()])
    dp.write_file(out / "report.txt", [report.render_text()])
    dp.EvalPredictions(predictions, attention, model.sha256,
                       test.sha256).save(out / "predictions.bin")
    print(report.render_text())
    return 0


def cmd_ablate(cfg: RunConfig) -> int:
    out = _command_dir(cfg, "ablate")
    ingest = _ingest_dir(cfg)
    train, val, test = _load_sets(ingest, "train", "val", "test")
    if not train or not test:
        raise DataError("ablation needs train and test samples in the cache")
    base_config = _model_config(cfg, ingest, train)
    summary = [["setting", "static", "timeseries", "attention", "mae", "rmse", "f1"]]
    weekly = [["setting", *WEEKLY_COLUMNS]]

    def setting(i: int):
        model, _, note = _trained(cfg, base_config, ABLATION_SETTINGS[i], cfg.seed + i, train, val)
        return note, evaluate(model, test)[0]

    reports = run_pool(setting, range(len(ABLATION_SETTINGS)),
                       lstm_threads(base_config.lstm_layers))
    for ablation, (note, report) in zip(ABLATION_SETTINGS, reports):
        label = ablation.label()
        if note:
            print(f"note: {label}: {note}", file=sys.stderr)
        summary.append([label, ablation.use_static, ablation.use_timeseries,
                        ablation.use_attention, report.mae, report.rmse, report.f1])
        weekly.append([label, *report.weekly_cells()])
        print(f"{label}: MAE {report.mae:.3f}  RMSE {report.rmse:.3f}  F1 {report.f1:.1f}")

    dp.write_file(out / "ablation_summary.csv", [dp.csv_text(summary)])
    dp.write_file(out / "ablation_weekly.csv", [dp.csv_text(weekly)])
    return 0


def cmd_cv(cfg: RunConfig) -> int:
    out = _command_dir(cfg, "cv")
    ingest = _ingest_dir(cfg)
    train, val = _load_sets(ingest, "train", "val")
    pool = train + val
    base_config = _model_config(cfg, ingest, pool)
    folds = cfg.get_int("cv", "folds")
    epochs = cfg.get_int("cv", "epochs") if cfg.get("cv", "epochs") else None

    def trainer(ablation):
        return lambda train, val, seed: _trained(cfg, base_config, ablation, seed, train, val,
                                                 epochs)[0]

    # both settings are built, and so checked, before the first fold trains
    primary, baseline = cross_validate(
        pool, folds, [trainer(_from_section(cfg, AblationConfig, "ablation")),
                      trainer(_from_section(cfg, AblationConfig, "cv", "baseline_"))],
        partial(run_pool, cpus_per_job=lstm_threads(base_config.lstm_layers)), seed=cfg.seed)

    dp.write_file(out / "cv_folds_primary.csv", [primary.folds_csv()])
    dp.write_file(out / "cv_summary_primary.csv", [primary.summary_csv()])
    dp.write_file(out / "cv_folds_baseline.csv", [baseline.folds_csv()])
    dp.write_file(out / "cv_summary_baseline.csv", [baseline.summary_csv()])

    rows = [["metric", "mean_difference", "t", "df", "p"]]
    for metric in primary.metric_names:
        result = paired_t_test([fold[metric] for fold in baseline.folds],
                               [fold[metric] for fold in primary.folds])
        rows.append([metric, result.mean_difference, result.t_stat, result.df, result.p_value])
        shown = ("degenerate (tied folds)" if math.isnan(result.t_stat)
                 else f"t={result.t_stat:.3f} p={result.p_value:.4f}")
        print(f"paired t-test on {metric}: {shown}")
    dp.write_file(out / "paired_tests.csv", [dp.csv_text(rows)])
    return 0


def cmd_locexp(cfg: RunConfig) -> int:
    out = _command_dir(cfg, "locexp")
    states = cfg.get_list("locexp", "states")
    if not states:
        raise ConfigError("[locexp] states must list at least one FIPS prefix")
    for i, state in enumerate(states):
        if len(state) != 2:
            raise ConfigError(f"[locexp] states: {state!r} is not a 2-character FIPS prefix")
        if state in states[:i]:
            raise ConfigError(f"[locexp] states: {state!r} is listed twice")
    ingest = _ingest_dir(cfg)
    train, val, test = _load_sets(ingest, "train", "val", "test")
    base_config = _model_config(cfg, ingest, train)
    ablation = _from_section(cfg, AblationConfig, "ablation")

    # every state's rows are selected, and checked, before the first model trains
    by_state = {state: [samples[dp.filter_by_state(samples.fips, [state])]
                        for samples in (train, val, test)] for state in states}
    for state, (state_train, _, state_test) in by_state.items():
        if not state_train or not state_test:
            raise DataError(f"state prefix {state!r} has no train or test samples")

    def reports(i: int) -> tuple[str | None, list]:
        """Job 0: the model trained on every state, on each state's test
        rows; job i: the i-th state's model on its own."""
        rows = by_state[states[i - 1]] if i else [train, val, *(t for *_, t in by_state.values())]
        model, _, note = _trained(cfg, base_config, ablation, cfg.seed + 100 * i, *rows[:2])
        return note, [evaluate(model, test)[0] for test in rows[2:]]

    results = run_pool(reports, range(len(states) + 1),
                       lstm_threads(base_config.lstm_layers))
    note, first = next(results)
    if note:
        print(f"note: all: {note}", file=sys.stderr)
    agnostic, specific = dict(zip(states, first)), {}
    for state, (_, [report]) in zip(states, results):
        specific[state] = report
        print(f"state {state}: specific MAE {specific[state].mae:.3f}, "
              f"agnostic MAE {agnostic[state].mae:.3f}")

    report = location_experiment_report(specific, agnostic)
    dp.write_file(out / "location_weekly.csv", [report.weekly_csv()])
    dp.write_file(out / "location_summary.csv", [report.summary_csv()])
    dp.write_file(out / "location_improvements.csv", [report.improvements_csv()])
    return 0


def _test_attention(cfg: RunConfig, model: HybridModel) -> tuple[np.ndarray, str]:
    """The attention weights of the checkpoint's ``model`` over the test
    set, and where they came from: ``eval/predictions.bin`` when it was
    written for the same checkpoint and test set, else a fresh forward."""
    (test,) = _load_sets(_ingest_dir(cfg), "test")
    saved_path = _out_root(cfg) / "eval" / "predictions.bin"
    if not saved_path.exists():
        reason = "no eval predictions"
    else:
        saved = dp.EvalPredictions.load(saved_path)
        if saved.attention is None or saved.checkpoint_sha256 != model.sha256:
            reason = "another checkpoint"
        elif saved.samples_sha256 != test.sha256:
            reason = "another test set"
        else:
            return saved.attention, f"reused {saved_path}"
    if not test:
        raise DataError("no test samples in the ingest cache")
    return predict(model, test)[1], f"computed ({reason})"


def cmd_introspect(cfg: RunConfig) -> int:
    out = _command_dir(cfg, "introspect")
    ingest = _ingest_dir(cfg)
    model = load_checkpoint(_checkpoint(cfg))
    if model.attention is None:
        raise ConfigError("model was built without the attention path")

    encoder = dp.CategoricalEncoder.load(_ingest_file(ingest, "categories.csv"))
    color = cfg.get("introspect", "color_column") or None
    if color is not None and color not in encoder.columns:
        raise ConfigError(f"[introspect] color_column {color!r} is not a categorical column; "
                          f"choose one of {', '.join(encoder.columns) or '(none)'}")
    statics, _ = dp.load_statics(_require_file(cfg, "data", "statics"), encoder.columns,
                                 encoder=encoder)

    alpha, source = _test_attention(cfg, model)
    profile = collect_attention(alpha)
    export = export_embeddings(model, statics, encoder)
    perplexity = cfg.get_float("introspect", "perplexity")
    projection = tsne(export.vectors, perplexity=perplexity,
                      iterations=cfg.get_int("introspect", "iterations"), seed=cfg.seed)
    if projection.perplexity_used != perplexity:
        print(f"note: perplexity {perplexity} too large for {len(export.vectors)} points; "
              f"t-SNE used {projection.perplexity_used:.2f}", file=sys.stderr)
    paths = emit_figures(profile, projection, export, out, color_column=color)
    print(f"attention: {source}")
    print(f"wrote {len(paths)} introspection artifacts -> {out}")
    return 0


COMMANDS = {
    "ingest": cmd_ingest,
    "train": cmd_train,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "cv": cmd_cv,
    "locexp": cmd_locexp,
    "introspect": cmd_introspect,
}


def _parse_set(values: list[str]) -> dict[tuple[str, str], str]:
    overrides: dict[tuple[str, str], str] = {}
    for item in values:
        key, sep, value = item.partition("=")
        if not sep or "." not in key:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        section, name = key.split(".", 1)
        overrides[(section.strip(), name.strip())] = value.strip()
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="droughtcast",
        description="Train and analyze the hybrid county drought-score forecaster.",
        epilog=config_help_text(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--config", help="run configuration file (ini-style sections)")
    parser.add_argument("--seed", type=int, help="run seed (overrides [run] seed)")
    parser.add_argument("--out", help="output directory (overrides [run] out)")
    parser.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                        help="override any config key; repeatable")
    parser.add_argument("command", choices=sorted(COMMANDS), help="experiment stage to run")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = _parse_set(args.set)
        if args.seed is not None:
            overrides[("run", "seed")] = str(args.seed)
        if args.out is not None:
            overrides[("run", "out")] = args.out
        cfg = load_config(args.config, overrides)
        _ = cfg.seed  # fail fast when no seed was provided
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
