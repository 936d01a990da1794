import csv
import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import pytest

import droughtcast
from droughtcast import errors
from droughtcast.cli import COMMANDS, main
from droughtcast.config import CONFIG_KEYS, parse_as
from droughtcast.data import CategoricalEncoder
from droughtcast.model import AblationConfig, ModelConfig
from droughtcast.synthetic import make_dataset
from droughtcast.training import TrainRunConfig

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


EXIT_CODES = {errors.ConfigError: 2, errors.DataError: 3, errors.NumericError: 4,
              errors.IoError: 3}


@pytest.mark.parametrize("error", [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.DroughtcastError)
    and cls is not errors.DroughtcastError
], ids=lambda cls: cls.__name__)
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


def test_introspect_notes_a_lowered_perplexity_without_a_python_warning(trained, tmp_path):
    config, trained_out = trained
    out = tmp_path / "out"
    for stage in ("ingest", "train"):
        shutil.copytree(trained_out / stage, out / stage)
    result = run_module("--config", str(config), "--out", str(out), "introspect")
    assert result.returncode == 0, result.stderr
    assert result.stderr == "note: perplexity 5.0 too large for 6 points; t-SNE used 1.67\n"
    assert "Warning" not in result.stdout + result.stderr


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


def run_module(*argv) -> subprocess.CompletedProcess:
    """``python -m droughtcast`` in a fresh interpreter."""
    src = str(Path(droughtcast.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "droughtcast", *argv], capture_output=True,
                          text=True, env=env, timeout=300)


def _corrupt_line(path: Path, out: Path, edit) -> Path:
    """Copy of a CSV with its first data row passed through ``edit``."""
    lines = path.read_text().splitlines()
    lines[1] = ",".join(edit(lines[1].split(",")))
    out.write_text("\n".join(lines) + "\n")
    return out


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
])
def test_malformed_csv_cell_exits_3_without_traceback(dataset, tmp_path, key, edit, message):
    bad = _corrupt_line(dataset.parent / f"{key}.csv", tmp_path / f"{key}.csv", edit)
    result = run_module("--config", str(dataset), "--out", str(tmp_path / "out"),
                        "--set", f"data.{key}={bad}", "ingest")
    assert result.returncode == 3, result.stderr
    assert "Traceback" not in result.stderr
    assert f"{bad}: {message}" in result.stderr


@pytest.mark.parametrize("command, setting, code, message", [
    ("ingest", "data.timeseries={empty}", 3, "{empty}: empty file"),
    ("ingest", "data.window_days=0", 2, "window_days must be at least 1, got 0"),
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
    if command == "introspect":
        for stage in ("ingest", "train"):
            shutil.copytree(trained_out / stage, out / stage)
    result = run_module("--config", str(config), "--out", str(out),
                        "--set", setting.format(empty=empty), command)
    assert result.returncode == code, result.stderr
    assert "Traceback" not in result.stderr
    assert message.format(empty=empty) in result.stderr


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
    assert label in encoder.label_to_code["texture"]
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
                "eval/summary.csv", "eval/weekly.csv"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
