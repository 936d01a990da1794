"""The names ``perfbench/tracing.py`` wraps must stay where it looks them
up, so that ``perfbench/run.py --trace 1`` keeps timing every layer."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from droughtcast.autodiff import RngState
from droughtcast.data import SampleSet
from droughtcast.model import AblationConfig, HybridModel, ModelConfig
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
    samples = SampleSet(rng.uniform(-1, 1, (4, 5, 2)), rng.uniform(-1, 1, (4, 1)),
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
