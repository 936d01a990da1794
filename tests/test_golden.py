"""Golden bytes of seeded training: a tiny two-layer model with every kind
of dropout, trained a few steps with each loss under each ablation setting;
and of one seeded ingest.

The training digests were recorded from the fused LSTM layer whose step
takes all four gate activations from one ``tanh`` (σ(z) = ½ + ½·tanh(z/2)).
Any rewrite of the forward or backward passes must keep every
parameter and every prediction bit-identical, and any rewrite of the parse
or the normalizer every file that ingest writes.

The training digests train at T=6, one 16-step block.  The LSTM stack
digests pin a bare stack's training forward, backward and eval forward
over 3 and 12 blocks; they were recorded from the stack run as a
wavefront of blocks, one diagonal at a time, and hold unchanged for the
stack run as a task graph.  The predict digests run forwards only.

The t-SNE digests pin the projection's coordinates and KL divergence, and
one run's KL after every iteration; they were recorded from the loop that
allocated new arrays in each iteration.  The desk pipeline pins the
end-to-end run of ``scripts/run_desk_pipeline.py`` at its default seed.
"""

import csv
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from droughtcast.autodiff import RngState
from droughtcast.cli import ABLATION_SETTINGS, main
from conftest import new_lstm, tensors, tsne_kl_trace, window_set
from droughtcast.data import SampleSet
from droughtcast.introspection import tsne
from droughtcast.layers import lstm_states
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
    model = HybridModel(CONFIG, ablation, seed=3 + index)
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
    model = HybridModel(CONFIG, ABLATION_SETTINGS[0], seed=5)
    predictions, attention = predict(model, _samples(259, seed=4, steps=steps))
    assert _digest([("predictions", predictions), ("attention", attention)]) \
        == PREDICT_GOLDEN[steps]


# sha256 of the checkpoint file of the model with every path on after three
# epochs of three mse steps; the second epoch has the best validation MAE, so
# the file holds the parameters restored from it
CHECKPOINT_GOLDEN = "e08fcc8fa9a39f23398c7189b2649c380e359b232896592b09f1f3a1766fd27f"


def test_checkpoint_file_is_bit_identical_to_the_recorded_run(tmp_path):
    model = HybridModel(CONFIG, ABLATION_SETTINGS[0], seed=3)
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


# (layers, T): sha256 of a bare LSTM stack's training forward (output, then
# each layer's cache arrays and dropout mask), of every w/b gradient of its
# backward, and of its eval forward's output; B=3, dropout 0.4.  T=40 and
# T=180 run 3 and 12 16-step blocks per layer, and the 4-layer stack has
# more layers than the machine that recorded them had CPUs
LSTM_STACK_GOLDEN = {
    (2, 40): (
        "7667fb10ebd823aaf4adbc255fba28142e7cb4804da92c9427fa63a593b608c0",
        "7471bcb86383403ffc5b129ea40c0e420fa37b84a665a84e54c1035fd7a83f6c",
        "89addb1e3ff04908b927d01704ea45d34c96a82559f4c49e0b3f6ca8b4e1d437",
    ),
    (2, 180): (
        "7f4eba7552f67e3bf1e910465af0bf2d44f19becaea497366e751f2dceee9a72",
        "fb8a0680132f3c11769f6c8f4c14a270d6d4cf6700bc4e6787ec188415759cd0",
        "5c404557e4584e19cd71a09bfa8a243399d7a1fad6f8a5d723518051f30c90d3",
    ),
    (4, 40): (
        "4bc8e3dd1675e0e54684d43206a94077afbde359a3c86d2139e691f59e2a4474",
        "e38559743f46c1124f4f27dc58b30f756a9f61a1fd984a407aa2bbbf067ce263",
        "c62379c49ab5f136e65d8444e1ccb446bd41f20a4b7012693fe81bf034ae65fe",
    ),
    (4, 180): (
        "f959fee1338fcfa8d23231fd44a842e74bf53d487745228dacb695069559dd10",
        "95af49245c5bf0206de0b27207e9a64d30786d37c1f26152e4d3ca649ac0b768",
        "2df69093d5afc5330e893f28d973f0cedf0ad5fcae7644ba2ef43860faed05a0",
    ),
}


def lstm_stack_digests(layers: int, steps: int) -> tuple[str, str, str]:
    """The three digests of ``LSTM_STACK_GOLDEN[layers, steps]``."""
    stack = new_lstm(layers, 4, 7, RngState(90 + layers), dropout_p=0.4)
    x = RngState(91).uniform(-2, 2, (3, steps, 4))
    out, cache = lstm_states(stack, x, RngState(92))
    arrays = [("out", out)]
    for li, (layer_cache, mask) in enumerate(cache):
        arrays += [(f"{li}.{name}", a) for name, a in zip(("x", "w", "gates", "hs", "cs"),
                                                          layer_cache)]
        arrays += [(f"{li}.mask", mask)] if mask is not None else []
    trained = _digest(arrays)
    stack.backward(RngState(93).uniform(-1, 1, out.shape), cache)
    grads = _digest((name, t.grad) for name, t in tensors(stack).items())
    out, _ = lstm_states(stack, x, None)
    return trained, grads, _digest([("out", out)])


@pytest.mark.parametrize("layers, steps", sorted(LSTM_STACK_GOLDEN))
def test_lstm_stack_bits_match_the_recorded_run(layers, steps):
    assert lstm_stack_digests(layers, steps) == LSTM_STACK_GOLDEN[layers, steps]


def _duplicate_points() -> np.ndarray:
    points = np.zeros((8, 3))
    points[4:] = 1.0
    return points


def _two_clusters() -> np.ndarray:
    """Sixty points in two clusters; tests/test_introspection.py's
    ``two_cluster_points(n_per=30, seed=4)``."""
    rng = RngState(4)
    return np.concatenate([rng.normal(0.0, 0.5, (30, 6)) + 8.0,
                           rng.normal(0.0, 0.5, (30, 6)) - 8.0])


# case: (points, perplexity, iterations, seed, sha256 of coords.tobytes(),
# repr(kl)); "two clusters" runs both phases, "duplicates" takes the jitter
# path and "lowered perplexity" has N <= 3 * perplexity
TSNE_GOLDEN = {
    "two clusters": (_two_clusters, 15, 1000, 2,
                     "5d873ccfd2c866ca033dfa1cd11ffa6beb36cc032aec2066bca207703296d835",
                     "0.2208951932545196"),
    "duplicates": (_duplicate_points, 2, 60, 5,
                   "5e26bfac5415f733a127e8bf72b153aaa528d1512132f26bb86f9b4f6b06a825",
                   "0.3894472172061079"),
    "lowered perplexity": (lambda: RngState(16).normal(0.0, 1.0, (12, 3)), 5, 300, 17,
                           "08a858ec8fbb8fee1d2cf6728f2d9728fb5e9241db5e982beca8eb48fd211acc",
                           "1.1538700838767755"),
}
# sha256 of the KL divergence after each of the 1,000 iterations of the
# "two clusters" case, as little-endian float64
TSNE_KL_TRACE_GOLDEN = "1452a01ed6603ea8c8db4038b0bfb464275de684959273313adc116dbc5f6c19"


@pytest.mark.parametrize("case", sorted(TSNE_GOLDEN))
def test_tsne_bits_match_the_recorded_run(case):
    points, perplexity, iterations, seed, coords, kl = TSNE_GOLDEN[case]
    result = tsne(points(), perplexity=perplexity, iterations=iterations, seed=seed)
    assert (hashlib.sha256(result.coords.tobytes()).hexdigest(), repr(result.kl)) == (coords, kl)


def test_tsne_kl_trace_matches_the_recorded_run():
    points, perplexity, iterations, seed, coords, kl = TSNE_GOLDEN["two clusters"]
    descent, trace = tsne_kl_trace(points(), perplexity, iterations, seed)
    assert (hashlib.sha256(descent.y.tobytes()).hexdigest(), repr(trace[-1])) == (coords, kl)
    assert hashlib.sha256(np.asarray(trace, dtype="<f8").tobytes()).hexdigest() \
        == TSNE_KL_TRACE_GOLDEN


# scripts/run_desk_pipeline.py at seed 7: the test MAE of eval/summary.csv and
# the sha256 of introspect/tsne.csv
DESK_PIPELINE_MAE = "0.6351651017618923"
DESK_PIPELINE_TSNE_GOLDEN = "f9a1aadb3f167f0f22c316695404edc24b523ef46025395f5dd58f3fba7ef178"


def test_desk_pipeline_matches_the_recorded_run(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    subprocess.run([sys.executable, str(root / "scripts" / "run_desk_pipeline.py"),
                    "--seed", "7", "--out", str(tmp_path)],
                   env=env, check=True, capture_output=True)
    with open(tmp_path / "eval" / "summary.csv", newline="") as f:
        assert next(csv.DictReader(f))["mae"] == DESK_PIPELINE_MAE
    assert hashlib.sha256((tmp_path / "introspect" / "tsne.csv").read_bytes()).hexdigest() \
        == DESK_PIPELINE_TSNE_GOLDEN
