"""Golden bytes of seeded training: a tiny two-layer model with every kind
of dropout, trained a few steps with each loss under each ablation setting;
and of one seeded ingest.

The training digests were recorded from the fused LSTM layer whose step
takes all four gate activations from one ``tanh`` (σ(z) = ½ + ½·tanh(z/2)).
Any rewrite of the forward or backward passes must keep every
parameter and every prediction bit-identical, and any rewrite of the parse
or the normalizer every file that ingest writes.

The training digests train at T=6, one 16-step block, so they still hold
since the LSTM backward forms each block's input gradient with a GEMM of
its own: over one block that GEMM is the whole one, while over longer
windows it may round the gradients below the top layer differently in the
last bit.  The predict digests run forwards only.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from droughtcast.autodiff import RngState
from droughtcast.cli import ABLATION_SETTINGS, main
from conftest import window_set
from droughtcast.data import SampleSet
from droughtcast.model import HybridModel, ModelConfig
from droughtcast.synthetic import make_dataset
from droughtcast.training import LrSchedule, TrainRunConfig, fit, predict, save_checkpoint

CONFIG = ModelConfig(
    input_channels=4, numeric_static_count=3, categorical_vocab_sizes=[3, 4],
    lstm_layers=2, hidden_size=5, embed_dim=3, reduced_dim=2, mlp_layers=2, mlp_hidden=6,
    dropout=0.3, embed_dropout=0.4,
)

# label: (parameters after 3 mse steps, after 3 more mae steps, predict outputs)
GOLDEN = {
    "static+ts+attention": (
        "2b0a8d5c39590e4ecb4498d91acf6c29abcac99c6c00d0b3e1b96ce2ef6f1da1",
        "e673e289417efc7338cfe5decf02c2f560930faf4095bf04a02fb53b9fd2e7dd",
        "31ead5f16f0e5d9e0aa84839753be1d180a35108e8b7741f6c1809ca504aaead",
    ),
    "ts+attention": (
        "c037902ff2b1cd5e6ff21c38bd3d48211e838fc20f5546ac7b9a95fef2b4af8b",
        "57a96cb7cb6073c9302fb442e682d05f361acd1ead983c1051952170caadd905",
        "f57acdfc75ce3cc298f9430d59abde66940b2a8a4ec0cfb95374c0122fda8af6",
    ),
    "ts": (
        "93880a9b3fea0d8a2d2e794a68e41419430925aa6c77a58ca11e6ee77adb993a",
        "72f1c0b0edc397b71a1e38dcb3b7e683048fa420d024a4157f25d0fe672db7b5",
        "279e01e3e0f370b5c5ed907269e67eb71de61d4036b829909f01e7174f3aed4a",
    ),
    "static+ts": (
        "37f020776ba0a9cfa906c26a7815070851d8b1897e3bb0219b7ad675f39ac0bd",
        "1399146da6c1d3c3dea3104a5d0ea282291129f61a47b169eef840722f4dece9",
        "9419180fa72add9ae8f49e446d86df4c736e995606d9e86fdb4d93a9813ec97e",
    ),
    "static": (
        "9662dde8609d30dd4ef4c6898b40ad2e69fa0737b1904e0f7bf8fe7de7e45419",
        "4f80f0e0899a13f5c59d844ce74ed02e79525ae9d22235c7334623cb54b4f8d1",
        "4bcd0d23ad1594dc7a4b83c7e54be1bd5bc976cf590f644ebc30ddf9284b48b5",
    ),
}


def _samples(n: int, seed: int, steps: int = 6) -> SampleSet:
    rng = RngState(seed)
    return window_set(
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
    1: "a9237b89b8271f9a11e0ccee426c30689826baacdd20b6f1182d4e8539aefa05",
    15: "93fa73b9c9fbeb9805e6226f5aad28eeba8b437402f31ebf24697e6e4f049d4c",
    16: "e184bedfe344fb4da79d7ebb27e1f9cc9137c8ef8c49f030f97ba753f6a7d5d4",
    17: "18ebb81b336f9aad8e2faaf326fdd9c0a8d571264ced7f1f1095e1d966e7c101",
    180: "18d67b2c413537178f81bbbfd9d32cec28742cf87275bbb238ccc2acab201dd6",
}


@pytest.mark.parametrize("steps", sorted(PREDICT_GOLDEN))
def test_predict_is_bit_identical_to_the_recorded_run(steps):
    model = HybridModel.build(CONFIG, ABLATION_SETTINGS[0], seed=5)
    predictions, attention = predict(model, _samples(259, seed=4, steps=steps))
    assert _digest([("predictions", predictions), ("attention", attention)]) \
        == PREDICT_GOLDEN[steps]


# sha256 of the checkpoint file of the model with every path on after three
# epochs of three mse steps; the second epoch has the best validation MAE, so
# the file holds the parameters restored from it
CHECKPOINT_GOLDEN = "e08fcc8fa9a39f23398c7189b2649c380e359b232896592b09f1f3a1766fd27f"


def test_checkpoint_file_is_bit_identical_to_the_recorded_run(tmp_path):
    model = HybridModel.build(CONFIG, ABLATION_SETTINGS[0], seed=3)
    fit(model, _samples(12, seed=1), _samples(5, seed=2),
        TrainRunConfig(batch_size=4, epochs=3, seed=10),
        LrSchedule(base_lr=1e-3, max_lr=0.1, cycle_length=4))
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CHECKPOINT_GOLDEN


# sha256 of each file ingest writes, and its stdout (the out directory as
# {out}), for the dataset of _golden_ingest_input: the HMSAMP4 caches, which
# hold the day table in place of the windows, and the statistics weighted by
# window cover on that table, which differ from the pooled copy's in the last
# bits
INGEST_GOLDEN = {
    "train.samples": "a6f80e9f3e125f77f0b18b35d84d920e7d990d9b6454eac689d29e697cb1bebf",
    "val.samples": "64e11c86d795fa4ca7602e17ad764a49d2bd99be0467c9fde9b5d2e1eb0e7a77",
    "test.samples": "60d39799502778a90c1a9ac207e3e051a0b57381c99a8139246833f3b76108f6",
    "normalizer.csv": "06f45e85b4248ab03f8a6aad8d075e137dc109a6511618b6ec62abfb4ae9e788",
    "categories.csv": "823e863b47bdcd51824fab6f0388c440aaf1d5a89d0e210013de0cf533610a18",
}
INGEST_STDOUT = (
    "dropped county 40003: county 40003: channel 'chan1' has a 20-day gap (limit 14)\n"
    "timeseries.csv: built 335 samples; dropped 285 without full history, 25 without a "
    "full 6-week future\n"
    "random split: 235 train / 50 val / 50 test\n"
    "ingested dataset -> {out}/ingest\n")


def _golden_ingest_input(root: Path) -> Path:
    """Six synthetic counties: 40003 misses chan1 for 20 days, more than
    ``max_gap_days`` allows, so ingest drops it; 19004 misses chan0 for 3
    days, which are interpolated.  About 240 training samples.  Returns the
    run config."""
    days = 900
    ts, statics = make_dataset(root, n_counties=6, days=days, channels=3, seed=3)
    lines = ts.read_text().splitlines(keepends=True)
    for county, channel, first, last in ((2, 1, 200, 220), (3, 0, 500, 503)):
        for day in range(first, last):
            cells = lines[1 + county * days + day].split(",")
            cells[2 + channel] = ""
            lines[1 + county * days + day] = ",".join(cells)
    ts.write_text("".join(lines))
    config = root / "run.ini"
    config.write_text(f"[data]\ntimeseries = {ts}\nstatics = {statics}\n"
                      "categorical_columns = soil_quality,texture\nwindow_days = 30\n"
                      "[run]\nseed = 4\n")
    return config


def test_ingest_bytes_and_stdout_match_the_recorded_run(tmp_path, capsys):
    config = _golden_ingest_input(tmp_path / "data")
    out = tmp_path / "out"
    assert main(["--config", str(config), "--out", str(out), "ingest"]) == 0
    assert capsys.readouterr().out.replace(str(out), "{out}") == INGEST_STDOUT
    assert {name: hashlib.sha256((out / "ingest" / name).read_bytes()).hexdigest()
            for name in INGEST_GOLDEN} == INGEST_GOLDEN


# sha256 of each file ingest writes when held-out time-series files are
# given, for the dataset of _explicit_ingest_input: with both files, and
# with a validation file only (an empty test cache, which holds no row of
# the training file's day table); recorded as INGEST_GOLDEN was
EXPLICIT_INGEST_GOLDEN = {
    ("timeseries_val", "timeseries_test"): {
        "train.samples": "e2051b8eacacdbbcfcda2a25c0cbe9afc89fe7a3650349182ae3edf76637845c",
        "val.samples": "774a4a2b9d8a94edcfe9e04ea0ea66528bea256369c8cc25976dd3cac91b77c7",
        "test.samples": "2bf4b4f607b911a375d01bf1b44f32cc2593e9461d65f91b4358b7cbea2e9f97",
        "normalizer.csv": "0525655117472f4536036ec41637ca61eb2e903f856af5a3005cf6daf4545cd8",
    },
    ("timeseries_val",): {
        "train.samples": "e2051b8eacacdbbcfcda2a25c0cbe9afc89fe7a3650349182ae3edf76637845c",
        "val.samples": "774a4a2b9d8a94edcfe9e04ea0ea66528bea256369c8cc25976dd3cac91b77c7",
        "test.samples": "c40b1314513d8829501149404a93b0f6c8395f31755196ab9f30cbb07a7dc7cc",
        "normalizer.csv": "0525655117472f4536036ec41637ca61eb2e903f856af5a3005cf6daf4545cd8",
    },
}


def _explicit_ingest_input(root: Path, keys: tuple[str, ...]) -> Path:
    """Four synthetic counties for training and, for each key, a held-out
    file of the same counties drawn from another seed.  Returns the run
    config."""
    ts, statics = make_dataset(root / "train", n_counties=4, days=800, channels=3, seed=3)
    lines = ["[data]", f"timeseries = {ts}", f"statics = {statics}",
             "categorical_columns = soil_quality,texture", "window_days = 30"]
    for seed, key in enumerate(keys, start=6):
        held_out, _ = make_dataset(root / key, n_counties=4, days=700, channels=3, seed=seed)
        lines.append(f"{key} = {held_out}")
    config = root / "run.ini"
    config.write_text("\n".join([*lines, "[run]", "seed = 4", ""]))
    return config


@pytest.mark.parametrize("keys", sorted(EXPLICIT_INGEST_GOLDEN))
def test_explicit_split_ingest_bytes_match_the_recorded_run(tmp_path, keys):
    config = _explicit_ingest_input(tmp_path / "data", keys)
    out = tmp_path / "out"
    assert main(["--config", str(config), "--out", str(out), "ingest"]) == 0
    golden = EXPLICIT_INGEST_GOLDEN[keys]
    assert {name: hashlib.sha256((out / "ingest" / name).read_bytes()).hexdigest()
            for name in golden} == golden
