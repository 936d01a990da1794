import csv
import hashlib
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import edit_header, needs_two_cpus, pinned, spy_forks, spy_opens
import droughtcast
import droughtcast.cli as cli
from droughtcast import errors
from droughtcast.cli import COMMANDS, main
from droughtcast.config import CONFIG_KEYS, parse_as
from droughtcast.data import CategoricalEncoder, EvalPredictions, load_samples
from droughtcast.model import AblationConfig, HybridModel, ModelConfig
from droughtcast.synthetic import make_dataset
from droughtcast.training import TrainRunConfig, predict

BASE_CONFIG = """
[data]
timeseries = {ts}
statics = {statics}
categorical_columns = soil_quality,texture
window_days = 25
val_fraction = 0.2
test_fraction = 0.2

[model]
lstm_layers = 1
hidden_size = 8
embed_dim = 4
reduced_dim = 2
mlp_hidden = 8

[train]
batch_size = 16
epochs = 2
max_lr = 5e-3

[cv]
folds = 3
epochs = 1

[introspect]
perplexity = 5
iterations = 60

[run]
seed = 11
"""


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("dataset")
    ts, statics = make_dataset(root, n_counties=6, days=560, channels=2, seed=3)
    config = root / "run.ini"
    config.write_text(BASE_CONFIG.format(ts=ts, statics=statics))
    return config


def run_cli(config, out, command, *extra):
    return main(["--config", str(config), "--out", str(out), command, *extra])


@pytest.fixture(scope="module")
def ingested(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert run_cli(dataset, out, "ingest") == 0
    return dataset, out


def test_ingest_writes_cache_and_is_idempotent(ingested):
    config, out = ingested
    ingest_dir = out / "ingest"
    for name in ("train.samples", "val.samples", "test.samples",
                 "normalizer.csv", "categories.csv", "resolved_config.ini"):
        assert (ingest_dir / name).exists(), name
    first = (ingest_dir / "train.samples").read_bytes()
    assert run_cli(config, out, "ingest") == 0
    assert (ingest_dir / "train.samples").read_bytes() == first


def test_cv_pool_holds_the_day_table_once(ingested):
    """``cv``'s ``train + val`` of two caches cut from one file keeps one
    copy of its D-day table and gathers the windows of the stacked join."""
    _, out = ingested
    train, val = (load_samples(out / "ingest" / f"{name}.samples") for name in ("train", "val"))
    np.testing.assert_array_equal(train.days, val.days)
    pool = train + val
    assert pool.days.shape == train.days.shape
    np.testing.assert_array_equal(pool.x, np.concatenate([train.x, val.x]))


def test_ingest_peak_stays_under_half_the_bytes_of_the_windows(tmp_path):
    """Ingest's traced heap peak on T=180 samples stays under half the bytes
    that their windows would take: sets, splits and caches hold the day
    table and start rows, and no step gathers every window.  Holding the
    windows once read 1.25 times their bytes here; the day table reads
    0.33."""
    ts, statics = make_dataset(tmp_path / "data", n_counties=12, days=1100, channels=3, seed=1)
    config = tmp_path / "run.ini"
    config.write_text(f"[data]\ntimeseries = {ts}\nstatics = {statics}\n"
                      "categorical_columns = soil_quality,texture\nwindow_days = 180\n"
                      "[run]\nseed = 1\n")
    tracemalloc.start()
    try:
        assert run_cli(config, tmp_path / "out", "ingest") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    built = sum(len(load_samples(tmp_path / "out" / "ingest" / f"{name}.samples"))
                for name in ("train", "val", "test"))
    windows = built * 180 * 2 * 3 * 8
    assert windows > 7_000_000  # the windows would dominate what is held
    assert peak < 0.5 * windows, peak / windows


def test_missing_statics_file_exits_3(dataset, tmp_path):
    code = main([
        "--config", str(dataset), "--out", str(tmp_path), "ingest",
        "--set", "data.statics=/nonexistent/statics.csv",
    ])
    assert code == 3


def test_unknown_config_key_exits_2(dataset, tmp_path):
    code = main([
        "--config", str(dataset), "--out", str(tmp_path), "ingest",
        "--set", "data.bogus_key=1",
    ])
    assert code == 2


def test_missing_seed_exits_2(tmp_path):
    assert main(["--out", str(tmp_path), "ingest"]) == 2


EXIT_CODES = {errors.ConfigError: 2, errors.DataError: 3, errors.NumericError: 4, OSError: 3}


@pytest.mark.parametrize("error", [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.DroughtcastError)
    and cls is not errors.DroughtcastError
] + [OSError], ids=lambda cls: cls.__name__)
def test_every_error_type_exits_with_its_family_code(error, tmp_path, monkeypatch, capsys):
    (family,) = [family for family in EXIT_CODES if issubclass(error, family)]

    def fails(cfg):
        raise error("boom")

    monkeypatch.setitem(COMMANDS, "eval", fails)
    assert main(["--seed", "0", "--out", str(tmp_path), "eval"]) == EXIT_CODES[family]
    assert capsys.readouterr().err.endswith(": boom\n")


def test_commands_chain_under_the_default_out(dataset, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for command in ("ingest", "train", "eval"):
        assert main(["--config", str(dataset), "--set", "train.epochs=1", command]) == 0, command
    assert (tmp_path / "runs" / "eval" / "summary.csv").exists()


def test_eval_before_train_exits_3(ingested):
    config, out = ingested
    assert run_cli(config, out, "eval") == 3


@pytest.fixture(scope="module")
def trained(ingested):
    config, out = ingested
    assert run_cli(config, out, "train") == 0
    return config, out


def test_train_artifacts(trained):
    _, out = trained
    history = (out / "train" / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,step,lr,train_loss,val_mae"
    assert len(history) == 3  # one row per epoch
    assert (out / "train" / "model.ckpt").exists()
    assert (out / "train" / "best.ckpt").exists()
    assert (out / "train" / "final.ckpt").exists()


def test_train_manifest_holds_the_fit_key_and_the_checkpoint_digest(trained):
    """``train/manifest.json``: the digests of the two caches the fit read
    and of the checkpoint written, the resolved configs and schedule but
    not where the checkpoints went, the seed and the package version."""
    _, out = trained
    text = (out / "train" / "manifest.json").read_text()
    manifest = json.loads(text)
    assert text == json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    assert sorted(manifest) == ["ablation", "checkpoint_sha256", "model", "samples_sha256",
                                "schedule", "seed", "train", "version"]

    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    assert manifest["checkpoint_sha256"] == digest(out / "train" / "model.ckpt")
    assert manifest["samples_sha256"] == {name: digest(out / "ingest" / f"{name}.samples")
                                          for name in ("train", "val")}
    assert manifest["seed"] == manifest["train"]["seed"] == 11
    assert manifest["train"]["epochs"] == 2 and "checkpoint_dir" not in manifest["train"]
    assert manifest["model"]["hidden_size"] == 8
    assert manifest["ablation"] == {f.name: True for f in fields(AblationConfig)}
    assert manifest["version"] == droughtcast.__version__


def test_eval_artifacts(trained):
    config, out = trained
    assert run_cli(config, out, "eval") == 0
    summary = (out / "eval" / "summary.csv").read_text().splitlines()
    assert summary[0] == "mae,rmse,f1,roc_auc,samples"
    weekly = (out / "eval" / "weekly.csv").read_text().splitlines()
    assert len(weekly) == 7
    assert (out / "eval" / "report.txt").read_text().startswith("  week")


def test_ablate_runs_five_settings_in_order(trained):
    config, out = trained
    assert run_cli(config, out, "ablate") == 0
    rows = (out / "ablate" / "ablation_summary.csv").read_text().splitlines()
    assert len(rows) == 6
    labels = [row.split(",")[0] for row in rows[1:]]
    assert labels == ["static+ts+attention", "ts+attention", "ts", "static+ts", "static"]
    weekly = (out / "ablate" / "ablation_weekly.csv").read_text().splitlines()
    assert len(weekly) == 6
    assert weekly[0].startswith("setting,week1_mae,week1_f1")


def test_cv_emits_folds_summary_and_paired_tests(trained):
    config, out = trained
    assert run_cli(config, out, "cv") == 0
    folds = (out / "cv" / "cv_folds_primary.csv").read_text().splitlines()
    assert len(folds) == 4  # header + 3 folds
    summary = (out / "cv" / "cv_summary_primary.csv").read_text().splitlines()
    assert len(summary) == 4  # header + mae/rmse/f1
    paired = (out / "cv" / "paired_tests.csv").read_text().splitlines()
    assert paired[0] == "metric,mean_difference,t,df,p"
    assert len(paired) == 4
    assert (out / "cv" / "cv_folds_baseline.csv").exists()


def test_cv_runs_both_settings_folds_as_one_grid(trained, tmp_path, monkeypatch):
    config, trained_out = trained
    out = tmp_path / "out"
    shutil.copytree(trained_out / "ingest", out / "ingest")
    grids, grid = [], cli.run_pool

    def spy(fn, jobs, cpus_per_job):
        grids.append(len(jobs))
        return grid(fn, jobs, cpus_per_job)

    monkeypatch.setattr(cli, "run_pool", spy)
    assert run_cli(config, out, "cv") == 0
    assert grids == [2 * 3]  # two settings of three folds


def test_cv_with_the_baseline_equal_to_the_primary_setting_reports_tied_folds(trained, tmp_path,
                                                                            capsys):
    config, trained_out = trained
    out = tmp_path / "out"
    shutil.copytree(trained_out / "ingest", out / "ingest")
    same = [f"--set=cv.baseline_{f.name}=true" for f in fields(AblationConfig)]
    assert run_cli(config, out, "cv", *same) == 0
    paired = (out / "cv" / "paired_tests.csv").read_text().splitlines()
    assert paired == ["metric,mean_difference,t,df,p", "mae,0.0,nan,2,nan",
                      "rmse,0.0,nan,2,nan", "f1,0.0,nan,2,nan"]
    printed = capsys.readouterr().out.splitlines()
    assert printed == [f"paired t-test on {metric}: degenerate (tied folds)"
                       for metric in ("mae", "rmse", "f1")]


def test_locexp_emits_six_result_rows(trained):
    config, out = trained
    assert run_cli(config, out, "locexp") == 0
    rows = (out / "locexp" / "location_summary.csv").read_text().splitlines()
    assert len(rows) == 7  # header + 3 specific + 3 agnostic
    trains = [row.split(",")[0] for row in rows[1:]]
    assert trains == ["19", "30", "40", "all", "all", "all"]
    improvements = (out / "locexp" / "location_improvements.csv").read_text().splitlines()
    assert improvements[0] == "definition,19,30,40,average"
    assert len(improvements) == 9  # header + 4 relative + 4 absolute definitions


@pytest.mark.parametrize("command, setting, code, message", [
    ("cv", "cv.baseline_use_timeseries=false", 2, "at least one input path must stay enabled"),
    ("locexp", "locexp.states=19,99", 3, "state prefix '99' has no train or test samples"),
])
def test_a_bad_setting_fails_before_the_first_training(trained, tmp_path, monkeypatch, capsys,
                                                       command, setting, code, message):
    """``cv`` builds both ablation settings, and ``locexp`` selects and checks
    every state's rows, before any model trains."""
    config, trained_out = trained
    out = tmp_path / "out"
    shutil.copytree(trained_out / "ingest", out / "ingest")
    fits, fit = [], cli.fit

    def spy(*args, **kwargs):
        fits.append(args)
        return fit(*args, **kwargs)

    monkeypatch.setattr(cli, "fit", spy)
    # a fit in a forked worker would escape the spy, so no worker may start either
    forks = spy_forks(monkeypatch)
    assert run_cli(config, out, command, "--set", setting) == code
    assert fits == []
    assert forks == []
    assert message in capsys.readouterr().err


@needs_two_cpus
@pytest.mark.parametrize("cpus", ["one", "every"])
@pytest.mark.parametrize("failing", [1, 2])
def test_a_failing_grid_job_ends_the_command_after_the_jobs_before_it(
        trained, tmp_path, monkeypatch, capsys, failing, cpus):
    """``ablate``'s job 1 fails in a forked worker on two CPUs, job 2 in the
    calling process: either way the command prints the lines of the jobs
    before it, exits with the job's error and leaves no child behind."""
    config, trained_out = trained
    out = tmp_path / "out"
    shutil.copytree(trained_out / "ingest", out / "ingest")
    assert run_cli(config, out, "ablate") == 0
    every_line = capsys.readouterr().out.splitlines()
    fit, seed = cli.fit, 11 + failing  # job i trains with the run seed 11 plus i

    def fit_failing(model, train, val, run, schedule):
        if run.seed == seed:
            raise errors.NumericError(f"planted failure at seed {seed}")
        return fit(model, train, val, run, schedule)

    monkeypatch.setattr(cli, "fit", fit_failing)
    forks = spy_forks(monkeypatch)
    with pinned(cpus):
        given = os.sched_getaffinity(0)
        code = run_cli(config, out, "ablate")
        assert os.sched_getaffinity(0) == given  # the grid hands its CPUs back
    printed = capsys.readouterr()
    assert code == 4
    assert printed.out.splitlines() == every_line[:failing]
    assert f"numeric error: planted failure at seed {seed}" in printed.err
    assert bool(forks) == (cpus == "every")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_two_cpus
def test_an_interrupt_in_the_calling_process_kills_and_reaps_every_worker(trained, tmp_path,
                                                                         monkeypatch):
    """A ``KeyboardInterrupt`` (or the benchmark's timeout) raised in the
    calling process's share ends the workers still fitting at once."""
    config, trained_out = trained
    out = tmp_path / "out"
    shutil.copytree(trained_out / "ingest", out / "ingest")
    caller = os.getpid()

    def fit_interrupted(*args):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(60)  # a worker's fit that is still running

    monkeypatch.setattr(cli, "fit", fit_interrupted)
    forks = spy_forks(monkeypatch)
    given, start = os.sched_getaffinity(0), time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_cli(config, out, "ablate")
    assert time.perf_counter() - start < 30
    assert forks
    assert os.sched_getaffinity(0) == given
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# Runs ablate, cv and locexp on the CPUs given as argv[1] ("one" pins the
# process to one CPU), the config argv[2] and the output directory argv[3];
# prints each command's stdout, then per command the workers it forked and
# whether a child was left when it returned.
GRID_CPU_RUN = """
import os, sys
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from droughtcast.cli import main

forks, fork = [], os.fork
os.fork = lambda: forks.append(None) or fork()
counts = []
for command in ("ablate", "cv", "locexp"):
    before = len(forks)
    assert main(["--config", sys.argv[2], "--out", sys.argv[3], command]) == 0
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        left = None
    counts.append(f"{command}:{len(forks) - before}:{left}")
print(*counts)
"""


@needs_two_cpus
def test_grid_bytes_do_not_depend_on_the_cpu_count(trained, tmp_path):
    """``ablate``, ``cv`` and ``locexp`` on one CPU, which runs every fit in
    the calling process, and on every CPU, where each command forks
    workers, print the same lines and write the same CSVs."""
    config, trained_out = trained
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src))
    printed, csvs, counts = {}, {}, {}
    for cpus in ("one", "every"):
        out = tmp_path / cpus
        shutil.copytree(trained_out / "ingest", out / "ingest")
        *printed[cpus], last = subprocess.run(
            [sys.executable, "-c", GRID_CPU_RUN, cpus, str(config), str(out)],
            capture_output=True, text=True, env=env, timeout=300, check=True).stdout.splitlines()
        counts[cpus] = [count.split(":") for count in last.split()]
        csvs[cpus] = {path.relative_to(out): path.read_bytes() for path in out.glob("*/*.csv")}
    assert counts["one"] == [["ablate", "0", "None"], ["cv", "0", "None"], ["locexp", "0", "None"]]
    assert all(int(forks) > 0 and left == "None" for _, forks, left in counts["every"])
    assert len(csvs["one"]) == 2 + 2 + 5 + 3  # ingest, ablate, cv and locexp
    assert printed["one"] == printed["every"]
    assert csvs["one"] == csvs["every"]


def grid_outputs(config, out, capsys, *extra):
    """``ablate`` then ``locexp`` in ``out``: their stdout, their stderr
    lines and their CSVs' bytes."""
    capsys.readouterr()
    for command in ("ablate", "locexp"):
        assert run_cli(config, out, command, *extra) == 0, command
    printed = capsys.readouterr()
    return (printed.out, printed.err.splitlines(),
            {path.name: path.read_bytes() for path in out.glob("[al]*/*.csv")})


def test_ablate_and_locexp_reuse_the_trained_model_and_write_the_same_bytes(
        trained, tmp_path, monkeypatch, capsys):
    """After ``train``, ``ablate``'s first setting and ``locexp``'s all-states
    model load ``train/model.ckpt`` in place of a fit and note it; the
    other fits note why they trained.  Stdout and every CSV are the bytes
    of a run directory where ``train`` never ran."""
    config, trained_out = trained
    fits, fit = [], cli.fit

    def spy(*args, **kwargs):
        fits.append(None)
        return fit(*args, **kwargs)

    monkeypatch.setattr(cli, "fit", spy)
    runs = {}
    for name, stages in (("reused", ("ingest", "train")), ("fresh", ("ingest",))):
        out = tmp_path / name
        for stage in stages:
            shutil.copytree(trained_out / stage, out / stage)
        fits.clear()
        with pinned("one"):  # every fit in this process, where the spy sees it
            runs[name] = grid_outputs(config, out, capsys)
        runs[name] += (len(fits),)
    checkpoint = tmp_path / "reused" / "train" / "model.ckpt"
    labels = ["static+ts+attention", "ts+attention", "ts", "static+ts", "static", "all"]
    assert runs["reused"][1] == [f"note: {label}: {note}" for label, note in zip(
        labels, [f"reused {checkpoint}", *["trained (another config)"] * 4,
                 f"reused {checkpoint}"])]
    assert runs["fresh"][1] == [f"note: {label}: trained (no train manifest)"
                                for label in labels]
    assert runs["reused"][0] == runs["fresh"][0]
    assert len(runs["reused"][2]) == 5 and runs["reused"][2] == runs["fresh"][2]
    assert (runs["reused"][3], runs["fresh"][3]) == (5 + 4 - 2, 5 + 4)


@pytest.mark.parametrize("change, reason", [
    ("epochs", "another config"),
    ("ablation", "another config"),
    ("data", "another data"),
    ("manifest", "no train manifest"),
    ("checkpoint", "checkpoint changed"),
])
def test_ablate_and_locexp_retrain_unless_train_wrote_their_model(trained, tmp_path, capsys,
                                                                  change, reason):
    """Another ``[train] epochs``, a ``train`` under another ``[ablation]``,
    a re-ingest of other data, no manifest, or one flipped parameter byte in
    ``model.ckpt`` (a file that still parses) each make ``ablate`` and
    ``locexp`` retrain, with the reason on stderr."""
    config, trained_out = trained
    out = tmp_path / "out"
    for stage in ("ingest", "train"):
        shutil.copytree(trained_out / stage, out / stage)
    extra = ["--set", "train.epochs=1"] if change == "epochs" else []
    if change == "ablation":
        assert run_cli(config, out, "train", "--set", "ablation.use_static=false") == 0
    elif change == "data":
        assert run_cli(config, out, "ingest", "--set", "data.val_fraction=0.25") == 0
    elif change == "manifest":
        (out / "train" / "manifest.json").unlink()
    elif change == "checkpoint":
        blob = bytearray((out / "train" / "model.ckpt").read_bytes())
        blob[-8] ^= 1  # the lowest byte of the last parameter
        (out / "train" / "model.ckpt").write_bytes(blob)
        cli.load_checkpoint(out / "train" / "model.ckpt")  # the file still parses
    _, notes, _ = grid_outputs(config, out, capsys, *extra)
    assert f"note: static+ts+attention: trained ({reason})" in notes
    assert f"note: all: trained ({reason})" in notes
    assert not [note for note in notes if "reused" in note]


def test_introspect_emits_figures(trained):
    config, out = trained
    assert run_cli(config, out, "introspect") == 0
    intro = out / "introspect"
    attention = (intro / "attention_profile.csv").read_text().splitlines()
    assert attention[0] == "day,mean,ci_low,ci_high,n"
    assert len(attention) == 1 + 25  # one row per look-back day
    tsne_rows = (intro / "tsne.csv").read_text().splitlines()
    assert len(tsne_rows) == 1 + 6  # one row per county
    for name in ("tsne.svg", "attention_profile.svg"):
        root = ET.parse(intro / name).getroot()
        assert root.tag.endswith("svg")


BINARY_ARTIFACTS = {".samples", ".ckpt", ".bin"}


def test_every_command_writes_utf8_text_under_an_ascii_locale(tmp_path):
    """A non-ASCII categorical column runs through all seven commands under
    the C locale with UTF-8 mode off, and every text artifact is UTF-8."""
    ts, statics = make_dataset(tmp_path / "data", n_counties=6, days=560, channels=2, seed=3)
    statics.write_text(statics.read_text().replace(",texture", ",textura_ñ", 1),
                       encoding="utf-8")
    config = tmp_path / "run.ini"
    config.write_text(BASE_CONFIG.format(ts=ts, statics=statics)
                      .replace(",texture", ",textura_ñ")
                      .replace("[introspect]\n", "[introspect]\ncolor_column = textura_ñ\n"),
                      encoding="utf-8")
    out = tmp_path / "out"
    for command in ("ingest", "train", "eval", "ablate", "cv", "locexp", "introspect"):
        result = run_module("--config", str(config), "--out", str(out), command,
                            PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C")
        assert result.returncode == 0, f"{command}: {result.stderr}"
    written = sorted(path for path in out.rglob("*") if path.is_file())
    assert not [path for path in written if path.suffix == ".tmp"]
    texts = {path: path.read_bytes().decode("utf-8") for path in written
             if path.suffix not in BINARY_ARTIFACTS}
    assert len(texts) == 28  # seven resolved configs, a manifest, 20 tables, reports and figures
    assert "textura_ñ" in texts[out / "ingest" / "resolved_config.ini"]
    assert "textura_ñ" in texts[out / "ingest" / "categories.csv"]
    assert texts[out / "introspect" / "tsne.csv"].startswith(
        "fips,x,y,soil_quality,textura_ñ\n")
    assert "embedding projection by textura_ñ" in texts[out / "introspect" / "tsne.svg"]


def test_introspect_notes_a_lowered_perplexity_without_a_python_warning(trained, tmp_path):
    config, trained_out = trained
    out = tmp_path / "out"
    for stage in ("ingest", "train"):
        shutil.copytree(trained_out / stage, out / stage)
    result = run_module("--config", str(config), "--out", str(out), "introspect")
    assert result.returncode == 0, result.stderr
    assert result.stderr == "note: perplexity 5.0 too large for 6 points; t-SNE used 1.67\n"
    assert "Warning" not in result.stdout + result.stderr


@pytest.fixture(scope="module")
def evaluated(trained, tmp_path_factory):
    """A run directory of its own with ``ingest``, ``train`` and ``eval`` done."""
    config, trained_out = trained
    out = tmp_path_factory.mktemp("evaluated")
    for stage in ("ingest", "train"):
        shutil.copytree(trained_out / stage, out / stage)
    assert run_cli(config, out, "eval") == 0
    return config, out


def _copy_run(evaluated, out: Path) -> Path:
    """``out`` holding a copy of the evaluated run; returns its saved predictions."""
    for stage in ("ingest", "train", "eval"):
        shutil.copytree(evaluated[1] / stage, out / stage)
    return out / "eval" / "predictions.bin"


def _introspect(config, out, monkeypatch, capsys) -> tuple[list[str], int, bytes]:
    """``introspect`` in this process: its ``attention:`` lines, the number of
    ``predict`` calls it made, and the attention profile it wrote."""
    calls = []
    monkeypatch.setattr(cli, "predict", lambda *args: calls.append(args) or predict(*args))
    capsys.readouterr()
    assert run_cli(config, out, "introspect") == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("attention: ")]
    return lines, len(calls), (out / "introspect" / "attention_profile.csv").read_bytes()


def test_introspect_reuses_the_attention_that_eval_saved(evaluated, tmp_path, monkeypatch,
                                                          capsys):
    config, _ = evaluated
    out = tmp_path / "out"
    saved = _copy_run(evaluated, out)
    lines, calls, profile = _introspect(config, out, monkeypatch, capsys)
    assert (lines, calls) == ([f"attention: reused {saved}"], 0)
    blob = saved.read_bytes()
    # a digest byte flipped: the file was written for another checkpoint or test set
    for offset, reason in ((32, "another checkpoint"), (64, "another test set")):
        stale = bytearray(blob)
        stale[offset] ^= 1
        saved.write_bytes(bytes(stale))
        assert _introspect(config, out, monkeypatch, capsys) == (
            [f"attention: computed ({reason})"], 1, profile)
    saved.unlink()
    assert _introspect(config, out, monkeypatch, capsys) == (
        ["attention: computed (no eval predictions)"], 1, profile)


@pytest.mark.parametrize("stage, setting, reason", [
    ("train", "--seed=12", "another checkpoint"),
    ("ingest", "--set=data.test_fraction=0.3", "another test set"),
], ids=["retrained", "reingested"])
def test_introspect_recomputes_after_a_retrain_or_a_reingest(evaluated, tmp_path, monkeypatch,
                                                             capsys, stage, setting, reason):
    config, _ = evaluated
    out = tmp_path / "out"
    saved = _copy_run(evaluated, out)
    before = saved.read_bytes()
    assert run_cli(config, out, stage, setting) == 0
    lines, calls, profile = _introspect(config, out, monkeypatch, capsys)
    assert (lines, calls) == ([f"attention: computed ({reason})"], 1)
    assert saved.read_bytes() == before  # introspect reads the file and never writes it
    assert run_cli(config, out, "eval") == 0
    assert _introspect(config, out, monkeypatch, capsys) == (
        [f"attention: reused {saved}"], 0, profile)


def test_eval_and_introspect_read_the_test_set_and_the_checkpoint_once(evaluated, tmp_path,
                                                                      monkeypatch, capsys):
    """``eval``, and ``introspect`` whether it reuses the saved attention or
    not, open ``test.samples`` and ``model.ckpt`` once each; the digests
    that ``eval`` stores are those of the two files."""
    config, _ = evaluated
    out = tmp_path / "out"
    saved = _copy_run(evaluated, out)
    test, checkpoint = out / "ingest" / "test.samples", out / "train" / "model.ckpt"
    opened = spy_opens(monkeypatch)
    assert run_cli(config, out, "eval") == 0
    assert (opened.count(test), opened.count(checkpoint)) == (1, 1)
    stored = EvalPredictions.load(saved)
    assert (stored.checkpoint_sha256, stored.samples_sha256) == (
        hashlib.sha256(checkpoint.read_bytes()).digest(),
        hashlib.sha256(test.read_bytes()).digest())
    blob = saved.read_bytes()
    for content, line in ((blob, f"attention: reused {saved}"),
                          (blob[:64] + bytes(32) + blob[96:],
                           "attention: computed (another test set)")):
        saved.write_bytes(content)
        opened.clear()
        assert _introspect(config, out, monkeypatch, capsys)[0] == [line]
        assert (opened.count(test), opened.count(checkpoint)) == (1, 1), line


def test_introspect_on_a_model_without_attention_exits_2_before_any_forward(
        ingested, tmp_path, monkeypatch):
    config, ingested_out = ingested
    out = tmp_path / "out"
    shutil.copytree(ingested_out / "ingest", out / "ingest")
    assert run_cli(config, out, "train", "--set=ablation.use_attention=false") == 0
    assert run_cli(config, out, "eval") == 0
    assert EvalPredictions.load(out / "eval" / "predictions.bin").attention is None
    result = run_module("--config", str(config), "--out", str(out), "introspect")
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert "configuration error: model was built without the attention path" in result.stderr
    touched = []
    monkeypatch.setattr(HybridModel, "forward", lambda *args, **kwargs: touched.append(args))
    monkeypatch.setattr(cli.dp, "load_samples", lambda path: touched.append(path))
    assert run_cli(config, out, "introspect") == 2
    assert touched == []


@pytest.mark.parametrize("damage, message", [
    (lambda blob: blob[:-3], "truncated eval predictions"),
    (lambda blob: blob + b"\0", "trailing bytes in eval predictions"),
    (lambda blob: b"HMXXXX1" + blob[7:], "bad eval predictions magic"),
    (lambda blob: b"HMPRED0" + blob[7:],
     "eval predictions version 'HMPRED0' is not supported (expected HMPRED1); re-run eval"),
], ids=["truncated", "trailing_bytes", "bad_magic", "older_version"])
def test_damaged_eval_predictions_exit_3_naming_the_file(evaluated, tmp_path, capsys, damage,
                                                         message):
    config, _ = evaluated
    out = tmp_path / "out"
    saved = _copy_run(evaluated, out)
    saved.write_bytes(damage(saved.read_bytes()))
    capsys.readouterr()
    assert run_cli(config, out, "introspect") == 3
    assert f"data error: {saved}: {message}" in capsys.readouterr().err


def test_help_documents_config_keys(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for needle in ("hidden_size = 490", "max_lr = 7e-5", "epochs = 9",
                   "batch_size = 128", "embed_dropout = 0.4", "perplexity = 100"):
        assert needle in text
    assert "threads" not in text


@pytest.mark.parametrize("section, cls", [
    ("model", ModelConfig), ("ablation", AblationConfig), ("train", TrainRunConfig),
])
def test_config_key_defaults_equal_dataclass_defaults(section, cls):
    kinds = get_type_hints(cls)
    named = [f for f in fields(cls) if f.name in CONFIG_KEYS[section]]
    assert named
    for f in named:
        default, _ = CONFIG_KEYS[section][f.name]
        assert parse_as(kinds[f.name], default) == f.default, f.name


def test_history_cells_parse_as_floats(trained):
    _, out = trained
    rows = (out / "train" / "history.csv").read_text().splitlines()[1:]
    assert rows
    for row in rows:
        for cell in row.split(","):
            float(cell)


def run_module(*argv, address_space: int | None = None, timeout: float = 300,
               **environ) -> subprocess.CompletedProcess:
    """``python -m droughtcast`` in a fresh interpreter, with ``environ``
    added to its environment, and its address space limited to
    ``address_space`` bytes if given."""
    src = str(Path(droughtcast.__file__).resolve().parents[1])
    env = dict(os.environ, **environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run([sys.executable, "-m", "droughtcast", *argv], capture_output=True,
                          text=True, env=env, timeout=timeout,
                          preexec_fn=limit if address_space else None)


def test_train_of_a_model_too_large_to_allocate_exits_2(trained, tmp_path):
    """A model whose parameters cannot be allocated is a configuration error
    that names its size, not a ``MemoryError`` traceback."""
    config, trained_out = trained
    out = tmp_path / "out"
    shutil.copytree(trained_out / "ingest", out / "ingest")
    result = run_module("--config", str(config), "--out", str(out),
                        "--set", "model.hidden_size=1000000", "train",
                        address_space=4 << 30, timeout=60)
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert re.search(r"^configuration error: the model's [\d,]+ parameters need [\d,.]+ GiB ",
                     result.stderr), result.stderr


def test_train_of_a_hundred_million_mlp_layers_exits_2_at_once(trained, tmp_path):
    """A layer count beyond ``MAX_LAYERS`` is a configuration error before
    the layout is listed, not a ``MemoryError`` traceback under a 1.5 GB
    address space after minutes of listing, however narrow the layers."""
    config, trained_out = trained
    out = tmp_path / "out"
    shutil.copytree(trained_out / "ingest", out / "ingest")
    for width in ("8", "1"):
        started = time.perf_counter()
        result = run_module("--config", str(config), "--out", str(out),
                            "--set", "model.mlp_layers=100000000",
                            "--set", f"model.mlp_hidden={width}", "train",
                            address_space=1_500_000 << 10, timeout=60)
        elapsed = time.perf_counter() - started
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        assert re.search(r"^configuration error: mlp_layers must be at most 1,000, "
                         r"got 100,000,000$", result.stderr, re.M), result.stderr
        assert elapsed < 2.0, elapsed


@pytest.mark.parametrize("key, value", [
    ("model.hidden_size", "1000000"),
    ("model.categorical_vocab_sizes", "4,300000000"),
    ("model.lstm_layers", "100000000"),
    ("model.mlp_layers", "100000000"),
])
def test_eval_of_a_checkpoint_claiming_huge_sizes_exits_3(trained, tmp_path, key, value):
    """A header that claims terabytes of parameters, or a hundred million
    layers, is a data error before anything is allocated: under a 4 GiB
    address-space limit, ``eval`` exits 3 at once, without a traceback."""
    config, out = trained
    run = tmp_path / "run"
    shutil.copytree(out / "ingest", run / "ingest")
    (run / "train").mkdir()
    checkpoint = (out / "train" / "model.ckpt").read_bytes()
    line = re.compile(f"^{re.escape(key)}=.*$".encode(), re.M)
    edited = edit_header(checkpoint, lambda h: line.sub(f"{key}={value}".encode(), h))
    assert edited != checkpoint
    (run / "train" / "model.ckpt").write_bytes(edited)
    result = run_module("--config", str(config), "--out", str(run), "eval",
                        address_space=4 << 30, timeout=60)
    assert result.returncode == 3, result.stderr
    assert result.stderr.startswith("data error: ") and "Traceback" not in result.stderr


def _rewrite(path: Path, out: Path, edit, encoding: str = "utf-8") -> Path:
    """Copy of a CSV whose lines, header first, pass through ``edit``."""
    out.write_text("\n".join(edit(path.read_text().splitlines())) + "\n", encoding=encoding)
    return out


def _corrupt_line(path: Path, out: Path, edit) -> Path:
    """Copy of a CSV with its first data row passed through ``edit``."""
    return _rewrite(path, out, lambda lines: [lines[0], ",".join(edit(lines[1].split(","))),
                                              *lines[2:]])


@pytest.mark.parametrize("key, edit, message", [
    ("statics", lambda cells: cells[:1] + ["high"] + cells[2:], "line 2, column 'elevation'"),
    ("statics", lambda cells: cells[:-1], "line 2 has 4 cells"),
    ("timeseries", lambda cells: cells[:2] + ["wet"] + cells[3:], "line 2, column 'chan0'"),
    ("timeseries", lambda cells: cells[:-1], "line 2 has 4 cells"),
    ("timeseries", lambda cells: cells[:-1] + ["high"], "line 2, column 'score'"),
    ("statics", lambda cells: cells[:1] + ["nan"] + cells[2:],
     "line 2, column 'elevation': 'nan' is not a finite number"),
    ("timeseries", lambda cells: cells[:2] + ["nan"] + cells[3:],
     "line 2, column 'chan0': 'nan' is not a finite number"),
    ("timeseries", lambda cells: cells[:3] + ["-inf"] + cells[4:],
     "line 2, column 'chan1': '-inf' is not a finite number"),
    ("timeseries", lambda cells: cells[:1] + ["2015-13-01"] + cells[2:],
     "line 2, column 'date': '2015-13-01': month must be in 1..12"),
    ("timeseries", lambda cells: cells[:1] + ["20150101"] + cells[2:],
     "line 2, column 'date': '20150101': not a YYYY-MM-DD date"),
    ("timeseries", lambda cells: cells[:1] + ["2015-W01-4"] + cells[2:],
     "line 2, column 'date': '2015-W01-4': not a YYYY-MM-DD date"),
])
def test_malformed_csv_cell_exits_3_without_traceback(dataset, tmp_path, key, edit, message):
    bad = _corrupt_line(dataset.parent / f"{key}.csv", tmp_path / f"{key}.csv", edit)
    result = run_module("--config", str(dataset), "--out", str(tmp_path / "out"),
                        "--set", f"data.{key}={bad}", "ingest")
    assert result.returncode == 3, result.stderr
    assert "Traceback" not in result.stderr
    assert f"{bad}: {message}" in result.stderr


@pytest.mark.parametrize("key, header, repeated", [
    ("statics", "fips,elevation,elevation,soil_quality,texture", "['elevation']"),
    ("timeseries", "fips,date,chan0,score,score", "['score']"),
])
def test_repeated_header_name_exits_3_without_traceback(dataset, tmp_path, key, header,
                                                        repeated):
    bad = _rewrite(dataset.parent / f"{key}.csv", tmp_path / f"{key}.csv",
                   lambda lines: [header, *lines[1:]])
    result = run_module("--config", str(dataset), "--out", str(tmp_path / "out"),
                        "--set", f"data.{key}={bad}", "ingest")
    assert result.returncode == 3, result.stderr
    assert "Traceback" not in result.stderr
    assert f"{bad}: header repeats column names {repeated}" in result.stderr


def _shuffled_rows(lines: list[str]) -> list[str]:
    header, *rows = lines
    return [header, *(rows[i] for i in np.random.default_rng(5).permutation(len(rows)))]


@pytest.mark.parametrize("edit, encoding", [
    (lambda lines: lines, "utf-8-sig"),
    (_shuffled_rows, "utf-8"),
], ids=["byte_order_mark", "shuffled_rows"])
def test_ingest_caches_ignore_a_byte_order_mark_and_the_row_order(ingested, tmp_path, edit,
                                                                  encoding):
    config, out = ingested
    moved = [f"--set=data.{key}="
             f"{_rewrite(config.parent / f'{key}.csv', tmp_path / f'{key}.csv', edit, encoding)}"
             for key in ("timeseries", "statics")]
    assert main(["--config", str(config), "--out", str(tmp_path / "out"), *moved, "ingest"]) == 0
    for name in ("train.samples", "val.samples", "test.samples", "normalizer.csv",
                 "categories.csv"):
        assert ((tmp_path / "out" / "ingest" / name).read_bytes()
                == (out / "ingest" / name).read_bytes()), name


def _renamed_channel(root: Path, source: Path) -> Path:
    return _rewrite(source, root / "renamed.csv",
                    lambda lines: [lines[0].replace("chan1", "rain"), *lines[1:]])


def _third_channel(root: Path, source: Path) -> Path:
    return _three_channels(root)["timeseries"]


@pytest.mark.parametrize("key, make_file, channels", [
    ("timeseries_val", _renamed_channel, "['chan0', 'rain']"),
    ("timeseries_test", _third_channel, "['chan0', 'chan1', 'chan2']"),
])
def test_held_out_file_with_other_channels_exits_3(dataset, tmp_path, key, make_file, channels):
    held_out = make_file(tmp_path, dataset.parent / "timeseries.csv")
    result = run_module("--config", str(dataset), "--out", str(tmp_path / "out"),
                        "--set", f"data.{key}={held_out}", "ingest")
    assert result.returncode == 3, result.stderr
    assert "Traceback" not in result.stderr
    assert (f"{held_out}: channels {channels} differ from the training file's "
            f"['chan0', 'chan1']") in result.stderr


# one edit of a desk CSV: (file, kind, row, column, text); row and column
# are taken modulo the file's size
MUTATION_KINDS = ("short_row", "cell", "score", "date", "repeat_header", "bom", "crlf",
                  "held_out")
MUTATION_TEXTS = ("", "high", "nan", "NaN", "-inf", "1e999", "-1", "7", " 2", "0x10", "é",
                  "2015-13-01", "2015-02-30", "2015/01/05", "2015-01-01T00:00")
mutations = st.lists(st.tuples(st.sampled_from(("timeseries", "statics")),
                               st.sampled_from(MUTATION_KINDS), st.integers(0, 10 ** 6),
                               st.integers(0, 10), st.sampled_from(MUTATION_TEXTS)),
                     min_size=1, max_size=3)


@pytest.fixture(scope="module")
def fuzz_dataset(tmp_path_factory):
    """A three-county dataset small enough to ingest many times."""
    root = tmp_path_factory.mktemp("fuzz")
    ts, statics = make_dataset(root, n_counties=3, days=460, channels=2, seed=3)
    config = root / "run.ini"
    config.write_text(BASE_CONFIG.format(ts=ts, statics=statics))
    return config


def _mutated_inputs(config: Path, root: Path, edits) -> list[str]:
    """``--set`` arguments that point ingest at copies of the fixture's CSVs
    with ``edits`` applied."""
    files = {key: {"lines": (config.parent / f"{key}.csv").read_text().splitlines(),
                   "encoding": "utf-8", "newline": "\n"} for key in ("timeseries", "statics")}
    overrides = []
    for key, kind, row, col, text in edits:
        file = files[key]
        lines = file["lines"]
        r = 1 + row % (len(lines) - 1)
        cells = lines[r].split(",")
        c = col % len(cells)
        if kind == "short_row":
            cells = cells[:-1]
        elif kind == "cell":
            cells[c] = text
        elif kind == "score":  # the last column: a time series' score, a categorical static
            cells[-1] = text
        elif kind == "date":  # the second column: a time series' date, a numeric static
            cells[1] = text
        elif kind == "repeat_header":
            header = lines[0].split(",")
            header[c] = header[(c + 1) % len(header)]
            lines[0] = ",".join(header)
        elif kind == "bom":
            file["encoding"] = "utf-8-sig"
        elif kind == "crlf":
            file["newline"] = "\r\n"
        elif kind == "held_out":
            held_out = root / "held_out.csv"
            held_out.write_text("\n".join([files["timeseries"]["lines"][0].replace(
                "chan1", "rain"), *files["timeseries"]["lines"][1:]]) + "\n")
            overrides.append(f"--set=data.timeseries_val={held_out}")
        if kind in ("short_row", "cell", "score", "date"):
            lines[r] = ",".join(cells)
    for key, file in files.items():
        path = root / f"{key}.csv"
        with path.open("w", encoding=file["encoding"], newline="") as fh:
            fh.write(file["newline"].join(file["lines"]) + file["newline"])
        overrides.append(f"--set=data.{key}={path}")
    return overrides


@settings(max_examples=40, deadline=None)
@given(edits=mutations)
# the malformed inputs that once ended in a traceback or were misread stay as seeds
@example(edits=[("statics", "repeat_header", 0, 1, "")])
@example(edits=[("timeseries", "repeat_header", 0, 3, "")])
@example(edits=[("timeseries", "bom", 0, 0, ""), ("statics", "bom", 0, 0, "")])
@example(edits=[("timeseries", "held_out", 0, 0, "")])
@example(edits=[("timeseries", "crlf", 0, 0, ""), ("statics", "crlf", 0, 0, "")])
@example(edits=[("timeseries", "date", 0, 0, "2015-13-01")])
@example(edits=[("timeseries", "score", 0, 0, "nan")])
@example(edits=[("timeseries", "cell", 0, 2, "nan")])
@example(edits=[("statics", "cell", 0, 1, "high")])
@example(edits=[("statics", "short_row", 0, 0, "")])
def test_mutated_csvs_ingest_or_exit_with_an_error_code(fuzz_dataset, tmp_path_factory, edits):
    root = tmp_path_factory.mktemp("mutated")
    overrides = _mutated_inputs(fuzz_dataset, root, edits)
    # an uncaught exception fails the test
    code = main(["--config", str(fuzz_dataset), "--out", str(root / "out"), *overrides,
                 "ingest"])
    assert code in (0, 2, 3, 4)


@pytest.mark.parametrize("command, setting, code, message", [
    ("ingest", "data.timeseries={empty}", 3, "{empty}: empty file"),
    ("ingest", "data.window_days=0", 2, "window_days must be at least 1, got 0"),
    ("ingest", "data.max_gap_days=-1", 2, "max_gap_days must be >= 0, got -1"),
    ("ingest", "data.categorical_columns=soil_quality,texture,texture", 2,
     "categorical column 'texture' is listed twice"),
    ("locexp", "locexp.states=1", 2, "[locexp] states: '1' is not a 2-character FIPS prefix"),
    ("locexp", "locexp.states=190", 2,
     "[locexp] states: '190' is not a 2-character FIPS prefix"),
    ("locexp", "locexp.states=19,30,19", 2, "[locexp] states: '19' is listed twice"),
    ("ingest", "run.seed=-1", 2, "[run] seed must be >= 0, got -1"),
    ("train", "run.seed=-1", 2, "[run] seed must be >= 0, got -1"),
    ("eval", "run.seed=-1", 2, "[run] seed must be >= 0, got -1"),
    ("ingest", "data.val_fraction=nan", 2,
     "val/test fractions must be nonnegative and sum below 1, got nan and 0.2"),
    ("ingest", "data.test_fraction=nan", 2,
     "val/test fractions must be nonnegative and sum below 1, got 0.2 and nan"),
    ("train", "train.weight_decay=nan", 2, "weight_decay must be finite and >= 0, got nan"),
    ("train", "train.max_lr=inf", 2, "need 0 < base_lr <= max_lr < inf, got inf, inf"),
    ("train", "train.cycle_epochs=0", 2, "[train] cycle_epochs must be at least 1, got 0"),
    ("train", "train.cycle_epochs=-3", 2, "[train] cycle_epochs must be at least 1, got -3"),
    ("introspect", "introspect.iterations=0", 2, "t-SNE needs at least one iteration, got 0"),
    ("introspect", "introspect.perplexity=0", 2, "t-SNE perplexity must be positive, got 0.0"),
    ("introspect", "introspect.color_column=elevation", 2,
     "color_column 'elevation' is not a categorical column; choose one of soil_quality, texture"),
])
def test_bad_input_or_setting_exits_with_its_code_without_traceback(trained, tmp_path, command,
                                                                     setting, code, message):
    config, trained_out = trained
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    out = tmp_path / "out"
    if command != "ingest":
        for stage in ("ingest", "train"):
            shutil.copytree(trained_out / stage, out / stage)
    result = run_module("--config", str(config), "--out", str(out),
                        "--set", setting.format(empty=empty), command)
    assert result.returncode == code, result.stderr
    assert "Traceback" not in result.stderr
    assert message.format(empty=empty) in result.stderr


@pytest.mark.parametrize("write, extra, message", [
    (None, [], "cannot read config file {path}: No such file or directory"),
    (lambda path: path.mkdir(), [], "cannot read config file {path}: Is a directory"),
    (lambda path: path.write_bytes(b"[run]\nout = r\xe9sultats\n"), [],
     "config file {path} is not UTF-8: 'utf-8' codec can't decode byte 0xe9"),
    (lambda path: path.write_text("seed = 1\n"), [],
     "cannot parse {path}: File contains no section headers."),
    (lambda path: path.write_text("[bogus]\nseed = 1\n"), [], "{path}: unknown section [bogus]"),
    (lambda path: path.write_text("[DEFAULT]\nseed = 1\n[data]\nwindow_days = 5\n"), [],
     "{path}: unknown section [DEFAULT]"),
    (lambda path: path.write_text("[run]\nbogus = 1\n"), [],
     "{path}: unknown key 'bogus' in [run]"),
    (lambda path: path.write_text("[run]\nseed = 5%\n"), [],
     "[run] seed must be an integer, got '5%'"),
    (lambda path: path.write_text("[run]\nseed = -1\n"), [], "[run] seed must be >= 0, got -1"),
    (lambda path: path.write_text("[run]\nseed = 1\n"), ["--seed", "-1"],
     "[run] seed must be >= 0, got -1"),
    (lambda path: path.write_text("[run]\nseed = 1\n"), ["--set", "data.window_days"],
     "--set expects section.key=value, got 'data.window_days'"),
    (lambda path: path.write_text("[run]\nseed = 1\n"), ["--config", ""],
     "cannot read config file '': the path is empty"),
], ids=["missing", "directory", "not_utf8", "no_section", "unknown_section", "default_section",
        "unknown_key", "percent_sign", "negative_seed", "negative_seed_flag",
        "set_without_equals", "empty_path"])
def test_config_file_or_override_failure_exits_2_without_traceback(tmp_path, write, extra,
                                                                    message):
    path = tmp_path / "run.ini"
    if write is not None:
        write(path)
    result = run_module("--config", str(path), "--out", str(tmp_path / "out"), *extra, "ingest")
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert f"configuration error: {message.format(path=path)}" in result.stderr


@pytest.mark.parametrize("arguments, message", [
    (["--out", "{root}/file/out"], "Not a directory: '{root}/file/out/ingest'"),
    (["--out", "{root}/out", "--set", "data.timeseries={root}"], "Is a directory: '{root}'"),
], ids=["out_below_a_file", "directory_as_timeseries"])
def test_unwritable_output_or_unreadable_input_exits_3_without_traceback(dataset, tmp_path,
                                                                         arguments, message):
    (tmp_path / "file").write_text("")
    result = run_module("--config", str(dataset),
                        *(argument.format(root=tmp_path) for argument in arguments), "ingest")
    assert result.returncode == 3, result.stderr
    assert "Traceback" not in result.stderr
    assert "data error: " in result.stderr
    assert message.format(root=tmp_path) in result.stderr


def _three_channels(root: Path) -> dict[str, Path]:
    ts, _ = make_dataset(root, n_counties=6, days=560, channels=3, seed=3)
    return {"timeseries": ts}


def _edit_statics(root: Path, edit) -> dict[str, Path]:
    """A copy of the fixture's statics with each row's cells passed through
    ``edit(row index, cells)``."""
    _, statics = make_dataset(root, n_counties=6, days=560, channels=2, seed=3)
    lines = statics.read_text().splitlines()
    statics.write_text("\n".join(",".join(edit(i, line.split(","))) for i, line in
                                 enumerate(lines)) + "\n")
    return {"statics": statics}


STALE_INGESTS = {
    "three_channels": (_three_channels, "expected (B, T, 4) windows, got"),
    "extra_numeric_static": (
        lambda root: _edit_statics(root, lambda i, cells: cells[:3] + [
            "aspect" if i == 0 else str(i)] + cells[3:]),
        "expected 2 numeric static features, got 3"),
    "more_texture_labels": (
        lambda root: _edit_statics(root, lambda i, cells: cells[:-1] + [
            "texture" if i == 0 else f"texture{i}"]),
        "categorical feature 1 has codes"),
}


@pytest.mark.parametrize("case", sorted(STALE_INGESTS))
@pytest.mark.parametrize("command", ["eval", "introspect"])
def test_checkpoint_from_an_older_ingest_exits_3_without_traceback(trained, tmp_path, command,
                                                                   case):
    config, trained_out = trained
    make_inputs, message = STALE_INGESTS[case]
    out = tmp_path / "out"
    shutil.copytree(trained_out / "train", out / "train")
    overrides = [f"--set=data.{key}={path}" for key, path in make_inputs(tmp_path / "data").items()]
    assert main(["--config", str(config), "--out", str(out), *overrides, "ingest"]) == 0
    result = run_module("--config", str(config), "--out", str(out), *overrides, command)
    assert result.returncode == 3, result.stderr
    assert "Traceback" not in result.stderr
    checkpoint = out / "train" / "model.ckpt"
    assert f"data error: checkpoint {checkpoint} does not fit these samples: " in result.stderr
    assert message in result.stderr


def test_checkpoint_with_a_negative_seed_exits_3_naming_the_file(trained, tmp_path):
    config, trained_out = trained
    out = tmp_path / "out"
    for stage in ("ingest", "train"):
        shutil.copytree(trained_out / stage, out / stage)
    checkpoint = out / "train" / "model.ckpt"
    blob = checkpoint.read_bytes()
    assert blob.count(b"\nseed=11\n") == 1  # same length as the edit, so no re-padding
    checkpoint.write_bytes(blob.replace(b"\nseed=11\n", b"\nseed=-3\n"))
    result = run_module("--config", str(config), "--out", str(out), "eval")
    assert result.returncode == 3, result.stderr
    assert "Traceback" not in result.stderr
    assert f"data error: {checkpoint}: checkpoint config: seed=-3: must be >= 0" in result.stderr


@pytest.mark.parametrize("command, artifact", [
    ("eval", "test.samples"),
    ("train", "categories.csv"),
])
def test_missing_ingest_artifact_exits_3_without_traceback(dataset, tmp_path, command, artifact):
    out = tmp_path / "out"
    assert main(["--config", str(dataset), "--out", str(out), "ingest"]) == 0
    (out / "ingest" / artifact).unlink()
    result = run_module("--config", str(dataset), "--out", str(out), command)
    assert result.returncode == 3, result.stderr
    assert "Traceback" not in result.stderr
    assert f"{out / 'ingest' / artifact}; run `ingest` first" in result.stderr


def test_label_with_comma_survives_ingest_and_train(dataset, tmp_path):
    label = "loam, sandy & <silt>"
    quoted = _corrupt_line(dataset.parent / "statics.csv", tmp_path / "statics.csv",
                           lambda cells: cells[:-1] + [f'"{label}"'])
    out = tmp_path / "out"
    argv = ["--config", str(dataset), "--out", str(out), "--set", f"data.statics={quoted}",
            "--set", "train.epochs=1", "--set", "introspect.color_column=texture"]
    assert main(argv + ["ingest"]) == 0
    encoder = CategoricalEncoder.load(out / "ingest" / "categories.csv")
    assert label in encoder.labels["texture"]
    assert main(argv + ["train"]) == 0
    assert main(argv + ["introspect"]) == 0
    with (out / "introspect" / "tsne.csv").open(newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert len(rows) == 6
    assert all(len(row) == len(header) for row in rows)
    assert label in [row[header.index("texture")] for row in rows]
    legend = [text.text for text in ET.parse(out / "introspect" / "tsne.svg").iter()
              if text.tag.endswith("text")]
    assert label in legend


def test_train_and_eval_reproduce_byte_for_byte(dataset, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli(dataset, out, "ingest") == 0
        assert run_cli(dataset, out, "train") == 0
        assert run_cli(dataset, out, "eval") == 0
        outs.append(out)
    a, b = outs
    for rel in ("ingest/train.samples", "train/history.csv", "train/model.ckpt",
                "eval/summary.csv", "eval/weekly.csv", "eval/predictions.bin"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
