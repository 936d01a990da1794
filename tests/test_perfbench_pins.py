"""The names ``perfbench/tracing.py`` wraps must stay where it looks them
up, so that ``perfbench/run.py --trace 1`` keeps timing every layer."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import droughtcast.cli as cli
import droughtcast.training as training
from conftest import window_set
from droughtcast.autodiff import RngState
from droughtcast.model import AblationConfig, HybridModel, ModelConfig
from droughtcast.synthetic import make_dataset
from droughtcast.training import LrSchedule, TrainRunConfig, fit, predict

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def test_trace_spans_fire_on_a_training_step_and_a_prediction():
    tracing = _load_tracing()
    config = ModelConfig(input_channels=2, numeric_static_count=1, categorical_vocab_sizes=[3],
                         lstm_layers=2, hidden_size=3, embed_dim=3, reduced_dim=2,
                         mlp_layers=2, mlp_hidden=4)
    model = HybridModel.build(config, AblationConfig(), seed=0)
    rng = RngState(1)
    samples = window_set(rng.uniform(-1, 1, (4, 5, 2)), rng.uniform(-1, 1, (4, 1)),
                         rng.integers(0, 3, (4, 1)), rng.uniform(0, 5, (4, 6)),
                         np.array(["19001"] * 4), np.full(4, np.datetime64("2020-01-01", "D")))
    tracer = tracing.Tracer()
    patcher = tracing.install(tracer)
    try:
        fit(model, samples, [], TrainRunConfig(batch_size=4, epochs=1), LrSchedule())
        predict(model, samples)
    finally:
        patcher.restore()
    totals = tracer.totals()
    for name in ("autodiff.backward", "layers.lstm_states", "layers.attend_batched",
                 "layers.embed", "layers.mlp", "model.loss", "training.batch_from_samples",
                 "training.adamw_step", "model.forward_train", "model.forward_eval"):
        assert totals.get(name, {}).get("calls", 0) >= 1, name
    assert totals["autodiff.backward"]["calls"] == 1
    assert tracer.lstm_flops > 0


def test_trace_spans_fire_on_a_cache_and_a_checkpoint_round_trip(tmp_path):
    """The artifact functions are called through the names the CLI and
    ``fit`` use, so each round trip fires its span."""
    tracing = _load_tracing()
    model = HybridModel.build(ModelConfig(input_channels=2, numeric_static_count=1,
                                          categorical_vocab_sizes=[3], hidden_size=2,
                                          embed_dim=2, reduced_dim=1, mlp_hidden=2),
                              AblationConfig(), seed=0)
    rng = RngState(1)
    samples = window_set(rng.uniform(-1, 1, (3, 4, 2)), rng.uniform(-1, 1, (3, 1)),
                         rng.integers(0, 3, (3, 1)), rng.uniform(0, 5, (3, 6)),
                         np.array(["19001"] * 3), np.full(3, np.datetime64("2020-01-01", "D")))
    tracer = tracing.Tracer()
    patcher = tracing.install(tracer)
    try:
        cli.dp.save_samples(samples, tmp_path / "test.samples")
        loaded = cli.dp.load_samples(tmp_path / "test.samples")
        training.save_checkpoint(model, tmp_path / "fit.ckpt")
        cli.save_checkpoint(model, tmp_path / "model.ckpt")
        restored = cli.load_checkpoint(tmp_path / "model.ckpt")
    finally:
        patcher.restore()
    totals = tracer.totals()
    for name, calls in (("data.save_samples", 1), ("data.load_samples", 1),
                        ("training.save_checkpoint", 2), ("training.load_checkpoint", 1)):
        assert totals.get(name, {}).get("calls", 0) == calls, name
    assert tracer.counts["data.cache_bytes"] == (tmp_path / "test.samples").stat().st_size
    np.testing.assert_array_equal(loaded.x, samples.x)
    np.testing.assert_array_equal(predict(restored, samples)[0], predict(model, samples)[0])


RUN_CONFIG = """
[data]
timeseries = {ts}
statics = {statics}
categorical_columns = soil_quality,texture
window_days = 20
[model]
lstm_layers = 1
hidden_size = 4
embed_dim = 3
reduced_dim = 2
mlp_hidden = 4
[train]
batch_size = 16
epochs = 1
[introspect]
perplexity = 1.5
iterations = 20
[run]
seed = 5
"""


def test_trace_spans_fire_on_ingest(tmp_path):
    """Every data span that ``--trace 1`` times on ingest fires: the
    normalizer once for the one set built, the cache writer once per split."""
    ts, statics = make_dataset(tmp_path / "data", n_counties=4, days=500, channels=2, seed=2)
    config = tmp_path / "run.ini"
    config.write_text(RUN_CONFIG.format(ts=ts, statics=statics))
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    patcher = tracing.install(tracer)
    try:
        assert cli.main(["--config", str(config), "--out", str(tmp_path / "out"), "ingest"]) == 0
    finally:
        patcher.restore()
    totals = tracer.totals()
    for name, calls in (("cli.ingest", 1), ("data.load_timeseries", 1),
                        ("data.load_statics", 1), ("data.build_samples", 1), ("data.split", 1),
                        ("data.fit_normalizer", 1), ("data.normalizer_apply", 1),
                        ("data.save_samples", 3)):
        assert totals.get(name, {}).get("calls", 0) == calls, name
    assert tracer.counts["data.samples_built"] > 0

def test_eval_then_introspect_run_one_forward_in_the_eval_span(tmp_path):
    """``introspect`` after ``eval`` reuses the saved attention: the only
    eval-mode forwards are those under ``cli.eval``, and the evaluate and
    collect_attention spans each fire once."""
    ts, statics = make_dataset(tmp_path / "data", n_counties=4, days=500, channels=2, seed=2)
    config = tmp_path / "run.ini"
    config.write_text(RUN_CONFIG.format(ts=ts, statics=statics))
    argv = ["--config", str(config), "--out", str(tmp_path / "out")]
    for command in ("ingest", "train"):
        assert cli.main([*argv, command]) == 0
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    patcher = tracing.install(tracer)
    try:
        for command in ("eval", "introspect"):
            assert cli.main([*argv, command]) == 0
    finally:
        patcher.restore()
    totals = tracer.totals()
    assert totals["metrics.evaluate"]["calls"] == 1
    assert totals["introspection.collect_attention"]["calls"] == 1
    groups = {tracer.spans[span.group].name for span in tracer.spans
              if span.name == "model.forward_eval"}
    assert groups == {"cli.eval"}
