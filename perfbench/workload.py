"""One benchmark workload, run in the current process.

A run sets up (inputs, config, checkpoint, warm-up) several times and keeps
the median, then repeats the workload's pass, a fixed sequence of CLI
commands, until the requested seconds are spent.  End-to-end metrics are
medians over the passes, measured with nothing patched.  A traced run makes
one plain pass and one traced pass; their difference is the tracing
overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import speed
import tracing

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
IMPORT_PROBES = 5
MIN_PASSES = 2
BURST_S = 1.0

TRAIN_PAPER_WIDTH_CONFIG = """
[data]
timeseries = {ts}
statics = {statics}
categorical_columns = soil_quality,texture
window_days = 180
val_fraction = 0
test_fraction = 0.2

[model]
lstm_layers = 2
hidden_size = 490
embed_dim = 27
reduced_dim = 6
mlp_hidden = 256

[train]
batch_size = 32
epochs = 1

[introspect]
perplexity = 1
iterations = 250

[run]
seed = {seed}
"""

# the configuration of scripts/run_desk_pipeline.py
DESK_GRID_CONFIG = """
[data]
timeseries = {ts}
statics = {statics}
categorical_columns = soil_quality,texture
window_days = 30
val_fraction = 0.2
test_fraction = 0.2

[model]
lstm_layers = 1
hidden_size = 16
embed_dim = 6
reduced_dim = 3
mlp_hidden = 32

[train]
batch_size = 16
epochs = 4
max_lr = 5e-3

[cv]
folds = 3
epochs = 2

[introspect]
perplexity = 5
iterations = 300

[run]
seed = {seed}
"""

WIDE_READ_PATH_CONFIG = """
[data]
timeseries = {ts}
statics = {statics}
categorical_columns = soil_quality,texture
window_days = 180
val_fraction = 0.15
test_fraction = 0.15

[model]
lstm_layers = 2
hidden_size = 64

[introspect]
perplexity = 30

[run]
seed = {seed}
"""


@dataclass(frozen=True)
class Workload:
    name: str
    counties: int
    days: int
    channels: int
    window_days: int
    val_fraction: float
    test_fraction: float
    config: str
    commands: tuple[str, ...]
    batch_size: int = 0  # training batch, 0 when the workload does not train
    epochs: int = 0
    checkpoint_hidden: int = 0  # hidden size of a setup-written checkpoint
    reference_rtol: float = 1e-6
    # per-layer metrics that cannot fire on this workload
    not_applicable: frozenset[str] = field(default_factory=frozenset)

    @property
    def trains(self) -> bool:
        return "train" in self.commands


GRID_ONLY = frozenset({
    "cli.ablate", "cli.cv", "cli.locexp",
    "metrics.cross_validate", "metrics.paired_t_test",
})
TRAINING_ONLY = frozenset({
    "cli.train", "training.fit", "training.adamw_step", "training.save_checkpoint",
    "training.steps", "training.validation_mae", "model.forward_train", "model.loss",
    "autodiff.backward",
})

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="train_paper_width", counties=4, days=720, channels=3, window_days=180,
            val_fraction=0.0, test_fraction=0.2, config=TRAIN_PAPER_WIDTH_CONFIG,
            commands=("ingest", "train", "eval", "introspect"), batch_size=32, epochs=1,
            not_applicable=GRID_ONLY | {"training.validation_mae"},
        ),
        Workload(
            name="desk_grid", counties=6, days=760, channels=2, window_days=30,
            val_fraction=0.2, test_fraction=0.2, config=DESK_GRID_CONFIG,
            commands=("ingest", "train", "eval", "ablate", "cv", "locexp", "introspect"),
            batch_size=16, epochs=4, reference_rtol=1e-5,
        ),
        Workload(
            name="wide_read_path", counties=120, days=1100, channels=3, window_days=180,
            val_fraction=0.15, test_fraction=0.15, config=WIDE_READ_PATH_CONFIG,
            commands=("ingest", "eval", "introspect"), checkpoint_hidden=64,
            not_applicable=GRID_ONLY | TRAINING_ONLY,
        ),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pipeline_s": "s",
    "model_samples_per_s": "samples/s",
    "ingest_rows_per_s": "rows/s",
    "eval_samples_per_s": "samples/s",
    "introspect_s": "s",
}
STAGE_COMMANDS = ("ingest", "train", "eval", "introspect")

SPAN_METRICS = (
    [f"cli.{c}" for c in tracing.CLI_COMMANDS]
    + ["data.load_timeseries", "data.load_statics", "data.build_samples",
       "data.fit_normalizer", "data.normalizer_apply", "data.save_samples",
       "data.load_samples", "data.split",
       "training.fit", "training.batch_from_samples", "training.adamw_step",
       "training.validation_mae", "training.save_checkpoint", "training.load_checkpoint",
       "model.forward_train", "model.forward_eval", "model.loss",
       "layers.lstm_states", "layers.attend_batched", "layers.embed", "layers.mlp",
       "autodiff.backward",
       "metrics.evaluate", "metrics.report_from_predictions", "metrics.cross_validate",
       "metrics.paired_t_test",
       "introspection.collect_attention", "introspection.export_embeddings",
       "introspection.tsne", "introspection.emit_figures"]
)
SELF_TIME_PREFIXES = ("cli.", "model.")

PER_LAYER_UNITS = {
    **{f"{name}.s": "s" for name in SPAN_METRICS},
    **{f"{name}.self_s": "s" for name in SPAN_METRICS if name.startswith(SELF_TIME_PREFIXES)},
    "data.samples_built": "count",
    "data.samples_dropped": "count",
    "data.cache_bytes": "bytes",
    "training.batch_from_samples.calls": "count",
    "training.steps": "count",
    "layers.lstm_states.gflops": "GFLOP/s-computed",
    "machine.gemm_peak_gflops": "GFLOP/s",
    "autodiff.tensors_per_forward": "count",
    "autodiff.step_traced_peak_mb": "MB",
    "trace.overhead_s": "s",
}


class Ledger:
    """Operations attempted and failed: CLI commands and correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"CHECK FAILED: {what}", file=sys.stderr)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class PassResult:
    timings: dict[str, speed.Timing]
    stdout: dict[str, str]
    files: dict[str, bytes]


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=rtol)


class Run:
    def __init__(self, workload: Workload, seed: int, work: Path, probe: speed.SpeedProbe):
        self.w = workload
        self.seed = seed
        self.data_dir = work / "data"
        self.out = work / "out"
        self.config_path = work / "run.ini"
        self.ledger = Ledger()
        counts = inputs.expected_counts(workload.counties, workload.days, workload.window_days)
        self.expected = {
            **counts,
            **inputs.expected_split(counts["built"], workload.val_fraction,
                                    workload.test_fraction),
        }
        self.rows = workload.counties * workload.days
        # every timed call, by command (plus "import" and "setup")
        self.timings: dict[str, list[speed.Timing]] = defaultdict(list)
        self.probe = probe

    # ---- set-up -----------------------------------------------------------

    def setup(self) -> None:
        """Time fresh-interpreter imports of the CLI, then set up repeatedly."""
        command = [sys.executable, "-c", "import droughtcast.cli"]
        for _ in range(IMPORT_PROBES):
            self.timings["import"].append(
                self.probe.time(lambda: subprocess.run(command, check=True, timeout=60))[1])
        for _ in range(SETUP_REPEATS):
            self.timings["setup"].append(self.probe.time(self.setup_once)[1])

    def setup_once(self) -> None:
        ts, statics = inputs.write_dataset(self.data_dir, self.w.counties, self.w.days,
                                              self.w.channels, self.seed)
        self.config_path.write_text(self.w.config.format(ts=ts, statics=statics,
                                                         seed=self.seed))
        if self.w.checkpoint_hidden:
            self._write_checkpoint()
        _warm_blas(max(self.w.checkpoint_hidden, 16))

    def _write_checkpoint(self) -> None:
        from droughtcast.model import AblationConfig, HybridModel, ModelConfig
        from droughtcast.training import save_checkpoint

        config = ModelConfig(
            input_channels=2 * self.w.channels,
            numeric_static_count=2,
            categorical_vocab_sizes=inputs.vocab_sizes(self.w.counties),
            lstm_layers=2,
            hidden_size=self.w.checkpoint_hidden,
        )
        model = HybridModel.build(config, AblationConfig(), self.seed)
        (self.out / "train").mkdir(parents=True, exist_ok=True)
        save_checkpoint(model, self.out / "train" / "model.ckpt")

    # ---- the timed pass ---------------------------------------------------

    def run_command(self, command: str, repeats: int = 1) -> tuple[speed.Timing, str]:
        """A CLI command in this process, ``repeats`` times in a row; returns
        the timing of one call and the captured stdout."""
        from droughtcast.cli import main as cli_main

        argv = ["--config", str(self.config_path), "--out", str(self.out), command]
        buf = io.StringIO()

        def call():
            try:
                with contextlib.redirect_stdout(buf):
                    return cli_main(argv)
            except Exception:  # a crash is a failed operation, not a benchmark crash
                traceback.print_exc()
                return None

        codes = []
        _, timing = self.probe.time(lambda: codes.append(call()), repeats)
        self.timings[command].append(timing)
        for code in codes:
            self.ledger.check(code == 0, f"`{command}` exited {code}")
        return timing, buf.getvalue()

    def run_pass(self) -> PassResult:
        timings: dict[str, speed.Timing] = {}
        stdout: dict[str, str] = {}
        for command in self.w.commands:
            timings[command], stdout[command] = self.run_command(command)
        files = {}
        for rel in ("train/history.csv", "eval/summary.csv", "introspect/attention_profile.csv"):
            path = self.out / rel
            if path.exists():
                files[rel] = path.read_bytes()
        return PassResult(timings, stdout, files)

    def repeat_stages(self, deadline: float) -> None:
        """Time the stage commands behind the per-stage metrics again, fewest
        timings first, while the next one is expected to end by ``deadline``.
        A command shorter than ``BURST_S`` runs back to back for about that
        long as one timing, so the speed samples around it cover its time."""
        stages = [c for c in STAGE_COMMANDS if c in self.w.commands]
        while True:
            typical = {c: statistics.median(t.net_s for t in self.timings[c]) for c in stages}
            repeats = {c: max(1, round(BURST_S / typical[c])) for c in stages}
            fits = [c for c in stages
                    if time.perf_counter() + typical[c] * repeats[c] < deadline]
            if not fits:
                return
            command = min(fits, key=lambda c: len(self.timings[c]))
            self.run_command(command, repeats[command])

    # ---- correctness ------------------------------------------------------

    def check_pass(self, result: PassResult, first: PassResult) -> None:
        e = self.expected
        check = self.ledger.check
        ingest = result.stdout.get("ingest", "")
        check(f"built {e['built']} samples; dropped {e['dropped_history']} without full "
              f"history, {e['dropped_future']} without" in ingest,
              f"ingest built/dropped counts differ from the generator's {e}")
        check(f"random split: {e['train']} train / {e['val']} val / {e['test']} test" in ingest,
              f"ingest split sizes differ from {e}")

        summary = _csv_rows(result.files.get("eval/summary.csv", b""))
        mae = number(summary[0]["mae"]) if summary else float("nan")
        rmse = number(summary[0]["rmse"]) if summary else float("nan")
        check(bool(summary) and int(summary[0]["samples"]) == e["test"],
              f"eval scored a sample count other than the {e['test']} test samples")
        # MAE and RMSE are finite only when every prediction is
        check(math.isfinite(mae) and math.isfinite(rmse) and 0.0 <= mae <= 5.0,
              f"eval MAE {mae} / RMSE {rmse} not finite or outside the score range")

        profile = _csv_rows(result.files.get("introspect/attention_profile.csv", b""))
        total = sum(number(row["mean"]) for row in profile)
        check(len(profile) == self.w.window_days and abs(total - 1.0) < 1e-9,
              f"attention profile has {len(profile)} days summing to {total!r}, not 1")

        if self.w.trains:
            history = _csv_rows(result.files.get("train/history.csv", b""))
            last = history[-1] if history else {}
            loss = number(last.get("train_loss", "nan"))
            steps = self.w.epochs * -(-e["train"] // self.w.batch_size)
            check(len(history) == self.w.epochs and int(last.get("step", -1)) == steps,
                  f"history has {len(history)} epochs, expected {self.w.epochs} "
                  f"ending at step {steps}")
            # fit raises NumericError on any non-finite step loss, so a clean
            # exit plus a finite epoch mean covers every step
            check(math.isfinite(loss) and loss > 0.0, f"epoch loss {loss} not finite and positive")
            if last:
                self._check_reference(mae, last)

        for rel, blob in first.files.items():
            check(result.files.get(rel) == blob, f"{rel} differs between two passes")

    def _check_reference(self, mae: float, last: dict[str, str]) -> None:
        refs = load_references().get(self.w.name, {}).get(str(self.seed))
        if refs is None:
            print(f"no recorded reference for {self.w.name} seed {self.seed}; "
                  f"reference checks skipped", file=sys.stderr)
            return
        rtol = self.w.reference_rtol
        self.ledger.check(_close(mae, refs["test_mae"], rtol),
                          f"test MAE {mae!r} differs from reference {refs['test_mae']!r}")
        row = refs["history_last"]
        ok = (int(last["epoch"]) == row["epoch"] and int(last["step"]) == row["step"]
              and all(_close(number(last[k]), row[k], rtol) or
                      (math.isnan(number(last[k])) and math.isnan(row[k]))
                      for k in ("lr", "train_loss", "val_mae")))
        self.ledger.check(ok, f"last history row {last} differs from reference {row}")

    # ---- metrics ----------------------------------------------------------

    def seconds(self, command: str) -> float:
        """Median scaled seconds of every timing of ``command``."""
        return statistics.median(t.scaled_s for t in self.timings[command])

    @staticmethod
    def pass_seconds(result: PassResult) -> float:
        return sum(t.scaled_s for t in result.timings.values())

    def end_to_end(self, passes: list[PassResult]) -> dict[str, float]:
        med = self.seconds
        e = self.expected
        if self.w.trains:
            model_samples = e["train"] * self.w.epochs / med("train")
        else:
            model_samples = 2 * e["test"] / (med("eval") + med("introspect"))
        return {
            "setup_s": med("import") + med("setup"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pipeline_s": statistics.median(self.pass_seconds(p) for p in passes),
            "model_samples_per_s": model_samples,
            "ingest_rows_per_s": self.rows / med("ingest"),
            "eval_samples_per_s": e["test"] / med("eval"),
            "introspect_s": med("introspect"),
        }

    def per_layer(self, tracer: tracing.Tracer, overhead_s: float) -> dict[str, float]:
        totals = tracer.totals()
        metrics: dict[str, float] = {}
        for name in SPAN_METRICS:
            row = totals.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            applies = name not in self.w.not_applicable
            self.ledger.check(row["calls"] > 0 or not applies,
                              f"span {name} never fired on {self.w.name}")
            metrics[f"{name}.s"] = row["s"]
            if name.startswith(SELF_TIME_PREFIXES):
                metrics[f"{name}.self_s"] = row["self_s"]
        for name in ("data.samples_built", "data.samples_dropped", "data.cache_bytes"):
            metrics[name] = tracer.counts.get(name, 0)
        metrics["training.batch_from_samples.calls"] = totals.get(
            "training.batch_from_samples", {"calls": 0})["calls"]
        metrics["training.steps"] = totals.get("training.adamw_step", {"calls": 0})["calls"]
        lstm_s = totals.get("layers.lstm_states", {"s": 0.0})["s"]
        metrics["layers.lstm_states.gflops"] = tracer.lstm_flops / lstm_s / 1e9 if lstm_s else 0.0
        metrics["autodiff.tensors_per_forward"] = tracer.first_forward_tensors or 0
        metrics["trace.overhead_s"] = overhead_s
        e = self.expected
        self.ledger.check(metrics["data.samples_built"] == e["built"]
                          and metrics["data.samples_dropped"]
                          == e["dropped_history"] + e["dropped_future"],
                          "traced build_samples counts differ from the generator's")
        return metrics

    def traced_step_peak_mb(self) -> float:
        """tracemalloc peak over one training step (fit on one batch) or, for
        a workload that does not train, one evaluation batch."""
        from droughtcast.data import load_samples
        from droughtcast.metrics import evaluate
        from droughtcast.training import LrSchedule, TrainRunConfig, fit, load_checkpoint

        model = load_checkpoint(self.out / "train" / "model.ckpt")
        if self.w.trains:
            batch = load_samples(self.out / "ingest" / "train.samples")[: self.w.batch_size]
            run = TrainRunConfig(batch_size=self.w.batch_size, epochs=1, seed=self.seed)
            tracemalloc.start()
            fit(model, batch, [], run, LrSchedule())
        else:
            batch = load_samples(self.out / "ingest" / "test.samples")[:256]
            tracemalloc.start()
            evaluate(model, batch)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak / 2 ** 20


def number(text: str) -> float:
    """A float from a CSV cell; numpy 2 scalars written with ``!r`` read
    ``np.float64(0.5)``."""
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def _csv_rows(blob: bytes) -> list[dict[str, str]]:
    lines = blob.decode().splitlines()
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _warm_blas(hidden: int) -> None:
    a = np.ones((32, hidden))
    b = np.ones((hidden, 4 * hidden))
    for _ in range(8):
        a @ b


def load_references() -> dict:
    path = HERE / "references.json"
    return json.loads(path.read_text()) if path.exists() else {}


def gemm_peak_gflops() -> float:
    """Best float64 GEMM rate on the paper-width LSTM shapes (B=32, H=490,
    6 input channels): one gate, the packed [x, h] gates of each layer, and
    the input projection hoisted over T=180 steps."""
    shapes = [((32, 490), (490, 490)), ((32, 496), (496, 1960)),
              ((32, 980), (980, 1960)), ((32 * 180, 6), (6, 1960))]
    best = 0.0
    rng = np.random.default_rng(0)
    for (m, k), (_, n) in shapes:
        a = rng.random((m, k))
        b = rng.random((k, n))
        a @ b
        for _ in range(5):
            start = time.perf_counter()
            reps = 0
            while time.perf_counter() - start < 0.02:
                a @ b
                reps += 1
            best = max(best, 2.0 * m * k * n * reps / (time.perf_counter() - start) / 1e9)
    return best


def machine_record(blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2 ** 30, 1),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path,
                 trace_path: Path, deadline: float) -> tuple[dict[str, float], Ledger]:
    with speed.SpeedProbe(deadline) as probe:
        run = Run(WORKLOADS[name], seed, work, probe)
        run.setup()
        if trace:
            return _traced(run, trace_path), run.ledger

        # whole passes for the first half of the time, then more samples of
        # the short stage commands, whose single timings are the noisiest
        passes: list[PassResult] = []
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds / 2:
            passes.append(run.run_pass())
            run.check_pass(passes[-1], passes[0])
        run.repeat_stages(start + seconds)
        metrics = run.end_to_end(passes)
    summary = _csv_rows(passes[0].files.get("eval/summary.csv", b""))
    if summary:
        print(f"test_mae {number(summary[0]['mae'])!r} score (not bounded: see README)")
    raw = {c: round(statistics.median(t.net_s for t in v), 4) for c, v in run.timings.items()}
    print("raw median seconds " + json.dumps(raw))
    return metrics, run.ledger


def _traced(run: Run, trace_path: Path) -> dict[str, float]:
    plain = run.run_pass()
    run.check_pass(plain, plain)
    tracer = tracing.Tracer()
    patcher = tracing.install(tracer)
    try:
        traced = run.run_pass()
    finally:
        patcher.restore()
    run.check_pass(traced, plain)
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps({"workload": run.w.name, "seed": run.seed,
                                      "spans": tracer.dump()}) + "\n")

    overhead_s = run.pass_seconds(traced) - run.pass_seconds(plain)
    metrics = run.per_layer(tracer, overhead_s)
    metrics["autodiff.step_traced_peak_mb"] = run.traced_step_peak_mb()
    metrics["machine.gemm_peak_gflops"] = gemm_peak_gflops()
    return metrics
