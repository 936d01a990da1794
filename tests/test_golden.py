"""Golden bytes of seeded training: a tiny two-layer model with every kind
of dropout, trained a few steps with each loss under each ablation setting.

The digests were recorded from the autodiff-tape implementation of the
model.  Any rewrite of the forward or backward passes must keep every
parameter and every prediction bit-identical.
"""

import hashlib

import numpy as np
import pytest

from droughtcast.autodiff import RngState
from droughtcast.cli import ABLATION_SETTINGS
from droughtcast.data import SampleSet
from droughtcast.model import HybridModel, ModelConfig
from droughtcast.training import LrSchedule, TrainRunConfig, fit, predict

CONFIG = ModelConfig(
    input_channels=4, numeric_static_count=3, categorical_vocab_sizes=[3, 4],
    lstm_layers=2, hidden_size=5, embed_dim=3, reduced_dim=2, mlp_layers=2, mlp_hidden=6,
    dropout=0.3, embed_dropout=0.4,
)

# label: (parameters after 3 mse steps, after 3 more mae steps, predict outputs)
GOLDEN = {
    "static+ts+attention": (
        "ee7367236a813c909810baa0fe9054a642305696724a7df4fde2c3f6e275cdad",
        "53a6aef0dafcb10e901c09dbb5fa0e288a926f8d31773f979ae0e743b738b963",
        "adda604dc2f36506661cf8bbeb271406b623a56d0c0ac1e713e4e33826b69c75",
    ),
    "ts+attention": (
        "6b9ea4805df1c8440645cb2957b6255e7ac58e58305992b3295accdfdab94d0c",
        "f78a0235adf0463ae59ad67e14918fbd5049413368a330f5659c9d38e254b157",
        "04bf5cf8aeb9a135c941e46bc58d2f04fa442984314e1a03b0b2f8c60efeeebb",
    ),
    "ts": (
        "700a59a07f6dcfdeb832a8131579e03de5f036cb6aab69772f67eff063068d78",
        "ec5860d94d3efc807c92d60807391b43e2b186ef29ddc80cbe950e78249c3690",
        "9fa79d48609ec89127f4270877f3657ad07ec1ff1155ea2bc744d858807ca83e",
    ),
    "static+ts": (
        "ee9eca2734a0c0a0a7d3801195dd2c0674c35ee4183ae4ef969fbe60f8a1cb15",
        "47ec9464ccdf686d8513206aab35270d21aa9a4edab663a9a9e3bf5fc37f821f",
        "bc061ffcf9435642d5a96c521624a60cb1570b53cc4c6c132b1d771e45132b55",
    ),
    "static": (
        "9662dde8609d30dd4ef4c6898b40ad2e69fa0737b1904e0f7bf8fe7de7e45419",
        "4f80f0e0899a13f5c59d844ce74ed02e79525ae9d22235c7334623cb54b4f8d1",
        "4bcd0d23ad1594dc7a4b83c7e54be1bd5bc976cf590f644ebc30ddf9284b48b5",
    ),
}


def _samples(n: int, seed: int, steps: int = 6) -> SampleSet:
    rng = RngState(seed)
    return SampleSet(
        rng.uniform(-1, 1, (n, steps, CONFIG.input_channels)),
        rng.uniform(-1, 1, (n, CONFIG.numeric_static_count)),
        np.stack([rng.integers(0, v, n) for v in CONFIG.categorical_vocab_sizes], axis=1),
        rng.uniform(0, 5, (n, 6)),
        np.array([f"19{i:03d}" for i in range(n)]),
        np.full(n, np.datetime64("2020-01-01", "D")),
    )


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for name, array in arrays:
        h.update(name.encode())
        h.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
    return h.hexdigest()


def _params_digest(model: HybridModel) -> str:
    return _digest((name, t.data) for name, t in model.named_parameters().items())


@pytest.mark.parametrize("index", range(len(ABLATION_SETTINGS)))
def test_seeded_training_is_bit_identical_to_the_recorded_run(index):
    ablation = ABLATION_SETTINGS[index]
    train, val = _samples(12, seed=1), _samples(5, seed=2)
    schedule = LrSchedule(base_lr=1e-3, max_lr=1e-2, cycle_length=4)
    model = HybridModel.build(CONFIG, ablation, seed=3 + index)
    digests = []
    for loss in ("mse", "mae"):  # 12 samples in batches of 4: three steps each
        run = TrainRunConfig(batch_size=4, epochs=1, seed=10 + index, loss=loss)
        fit(model, train, val, run, schedule)
        digests.append(_params_digest(model))
    predictions, attention = predict(model, val)
    digests.append(_digest([("predictions", predictions)]
                           + ([("attention", attention)] if attention is not None else [])))
    assert tuple(digests) == GOLDEN[ablation.label()]


# window length T: digest of predict's outputs for 259 rows (two predict
# blocks) through the untrained two-layer model with every path on; the T
# straddle the eval forward's 16-step input-projection blocks
PREDICT_GOLDEN = {
    1: "4a6301f5a3790bc387a2fb0a34024b11a6346c502352ccfa5f7dd18c0fdcdf8f",
    15: "0994dd718f5352093178c585f91fa200e64b5474f9704caabfc7cad4e5a3c026",
    16: "b0270ffc84e0359a2c1b3803e1354712dda0a814646d2b9ada7073dc6352f356",
    17: "b20efddfb5d49b468d96af70f358ea03c60c3162a7a814c2c28028222af93c04",
    180: "734d501949de7a8795236e49dba38777af701285c2db86f3694b908a6ee2a83b",
}


@pytest.mark.parametrize("steps", sorted(PREDICT_GOLDEN))
def test_predict_is_bit_identical_to_the_recorded_run(steps):
    model = HybridModel.build(CONFIG, ABLATION_SETTINGS[0], seed=5)
    predictions, attention = predict(model, _samples(259, seed=4, steps=steps))
    assert _digest([("predictions", predictions), ("attention", attention)]) \
        == PREDICT_GOLDEN[steps]
