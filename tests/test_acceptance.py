"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    Packed,
    attend_reference,
    claim_consistent,
    new_head,
    row_perplexity,
    scored_days,
    series_fixture,
    statics_fixture,
    tsne_kl_trace,
    window_set,
    with_windows,
)
from droughtcast.autodiff import RngState, Tensor, grad_check
from droughtcast.cli import main as cli_main
from droughtcast.data import build_samples, split_fractions
from droughtcast.introspection import _pairwise_sq_dists, conditional_affinities
from droughtcast.layers import attend_batched
from droughtcast.metrics import (
    binary_auc,
    macro_f1,
    mae,
    paired_t_test,
    relative_improvement,
    rmse,
    roc_auc_weighted,
    summarize_folds,
)
from droughtcast.model import AblationConfig, HybridModel, ModelConfig, mse_loss
from droughtcast.synthetic import make_dataset
from droughtcast.training import OptimizerState, adamw_step, fit, LrSchedule, TrainRunConfig

BASELINE_FOLD_MAE = [0.347, 0.365, 0.272, 0.332, 0.310]
HYBRID_FOLD_MAE = [0.244, 0.302, 0.254, 0.266, 0.299]
BASELINE_FOLD_RMSE = [0.553, 0.570, 0.444, 0.548, 0.504]
HYBRID_FOLD_RMSE = [0.433, 0.519, 0.404, 0.433, 0.502]
BASELINE_FOLD_F1 = [58.34, 42.79, 66.22, 44.82, 63.88]
HYBRID_FOLD_F1 = [60.22, 59.67, 75.22, 59.84, 71.06]


def _report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {name}{suffix}")
    assert ok, f"criterion {number} failed: {name} {suffix}"


def _tiny_batch(config, b, t, seed):
    rng = RngState(seed)
    return window_set(
        x=rng.uniform(-1, 1, (b, t, config.input_channels)),
        s_n=rng.uniform(-1, 1, (b, config.numeric_static_count)),
        s_d=np.stack([rng.integers(0, v, b) for v in config.categorical_vocab_sizes], axis=1),
        y=rng.uniform(0, 5, (b, 6)),
        fips=np.array(["19001"] * b),
        anchor=np.full(b, np.datetime64("2020-01-01", "D")),
    )


def test_criterion_01_full_model_gradients():
    started = time.monotonic()
    config = ModelConfig(
        input_channels=4, numeric_static_count=3, categorical_vocab_sizes=[3, 4],
        lstm_layers=2, hidden_size=8, embed_dim=3, reduced_dim=2,
        mlp_layers=2, mlp_hidden=8, dropout=0.1, embed_dropout=0.4,
    )
    model = HybridModel(config, AblationConfig(), seed=17)
    batch = _tiny_batch(config, b=2, t=5, seed=18)

    def loss_fn():
        # recreating the stream freezes every dropout mask across calls
        out = model.forward(batch, training=True, rng=RngState(777))
        value, grad = mse_loss(out.predictions, batch.y)
        model.backward(out, grad)
        return value

    report = grad_check(loss_fn, model.named_parameters(), step=1e-5, tolerance=1e-4)
    elapsed = time.monotonic() - started
    _report(1, "full-model gradients match finite differences", report.ok and elapsed < 60,
            f"max rel err {report.max_error:.2e}, {elapsed:.1f}s")


def test_criterion_02_attention_invariants():
    rng = RngState(29)
    head_rng = RngState(31)
    worst_sum = 0.0
    for i in range(1000):
        t = int(rng.integers(1, 13, ()))
        h = rng.uniform(-3, 3, (t, 4))
        head = new_head(4, head_rng.split(i))
        (context,), (alpha,), _ = attend_batched(head, h[None])
        ref_context, ref_alpha = attend_reference(head, h)
        np.testing.assert_allclose(context, ref_context, atol=1e-12)
        np.testing.assert_allclose(alpha, ref_alpha, atol=1e-12)
        worst_sum = max(worst_sum, abs(float(alpha.sum()) - 1.0))
        assert (context >= h.min(axis=0) - 1e-12).all()
        assert (context <= h.max(axis=0) + 1e-12).all()
        head.score_layer.bias.data[...] += float(rng.uniform(-50, 50, ()))
        _, (shifted,), _ = attend_batched(head, h[None])
        np.testing.assert_allclose(shifted, alpha, atol=1e-12)
    _report(2, "attention simplex/shift/convexity invariants", worst_sum <= 1e-12,
            f"max |sum(alpha)-1| = {worst_sum:.2e}")


def test_criterion_03_statistics_reproduction():
    started = time.monotonic()
    checks = []
    mean, std = summarize_folds(BASELINE_FOLD_MAE)
    checks.append(abs(mean - 0.325) <= 0.001 and abs(std - 0.036) <= 0.001)
    mean, std = summarize_folds(HYBRID_FOLD_MAE)
    checks.append(abs(mean - 0.273) <= 0.001 and abs(std - 0.026) <= 0.001)
    checks.append(abs(summarize_folds(BASELINE_FOLD_F1)[0] - 55.2) <= 0.05)
    checks.append(abs(summarize_folds(HYBRID_FOLD_F1)[0] - 65.2) <= 0.05)

    p_mae = paired_t_test(BASELINE_FOLD_MAE, HYBRID_FOLD_MAE).p_value
    p_rmse = paired_t_test(BASELINE_FOLD_RMSE, HYBRID_FOLD_RMSE).p_value
    p_f1 = paired_t_test(BASELINE_FOLD_F1, HYBRID_FOLD_F1).p_value
    checks.append(abs(p_mae - 0.037) <= 0.001 and int(p_mae * 100) == 3)
    checks.append(abs(p_rmse - 0.045) <= 0.001 and int(p_rmse * 100) == 4)
    checks.append(abs(p_f1 - 0.021) <= 0.001 and int(p_f1 * 100) == 2)
    elapsed = time.monotonic() - started
    _report(3, "fold statistics and paired t-tests reproduce the reference tables",
            all(checks) and elapsed < 1.0,
            f"p = {p_mae:.4f}/{p_rmse:.4f}/{p_f1:.4f}, {elapsed:.3f}s")


def test_criterion_04_relative_improvements():
    started = time.monotonic()
    f1_gain = relative_improvement(61.9, 67.3, better="higher")
    auc_gain = relative_improvement(80.6, 85.9, better="higher")
    mae_gain = relative_improvement(0.306, 0.218, better="lower")
    ok = (
        abs(f1_gain - 8.7) <= 0.5 and claim_consistent(f1_gain, 9.0)
        and abs(auc_gain - 6.6) <= 0.5 and claim_consistent(auc_gain, 7.0)
        and abs(mae_gain - 28.8) <= 0.1 and not claim_consistent(mae_gain, 30.0)
    )
    elapsed = time.monotonic() - started
    _report(4, "headline relative improvements reproduce (MAE claim flagged)",
            ok and elapsed < 1.0,
            f"F1 +{f1_gain:.2f}%, AUC +{auc_gain:.2f}%, MAE +{mae_gain:.2f}%")


def _linear_samples(n=32, t=8, m2=4, f_n=2, seed=0):
    rng = RngState(seed)
    w_x = rng.uniform(-1, 1, (m2, 6))
    w_s = rng.uniform(-1, 1, (f_n, 6))
    rows = []
    for _ in range(n):
        x = rng.uniform(-1, 1, (t, m2))
        s_n = rng.uniform(-1, 1, f_n)
        s_d = rng.integers(0, 3, 2).astype(np.int64)
        rows.append((x, s_n, s_d, 2.5 + x.mean(axis=0) @ w_x + s_n @ w_s))
    x, s_n, s_d, y = (np.stack(column) for column in zip(*rows))
    return window_set(x, s_n, s_d, y, np.array([f"19{i:03d}" for i in range(n)]),
                      np.full(n, np.datetime64("2020-01-01", "D")))


def test_criterion_05_overfit_sanity():
    started = time.monotonic()
    samples = _linear_samples()
    config = ModelConfig(
        input_channels=4, numeric_static_count=2, categorical_vocab_sizes=[3, 3],
        lstm_layers=2, hidden_size=12, embed_dim=4, reduced_dim=2,
        mlp_layers=2, mlp_hidden=32, dropout=0.0, embed_dropout=0.0,
    )
    model = HybridModel(config, AblationConfig(), seed=1)
    run = TrainRunConfig(batch_size=32, epochs=500, seed=2, weight_decay=0.0)
    schedule = LrSchedule(base_lr=5e-3, max_lr=5e-3, cycle_length=100)
    model, history = fit(model, samples, [], run, schedule)
    elapsed = time.monotonic() - started
    _report(5, "hybrid model memorizes 32 synthetic samples",
            history[-1].step <= 500 and history[-1].train_loss < 1e-2 and elapsed < 120,
            f"MSE {history[-1].train_loss:.2e} after {history[-1].step} steps, {elapsed:.0f}s")


def test_criterion_06_ablation_harness(tmp_path):
    from droughtcast.data import load_statics, load_timeseries

    ts_path, statics_path = make_dataset(tmp_path, n_counties=4, days=560, channels=2, seed=41)
    series = load_timeseries(ts_path)
    statics, encoder = load_statics(statics_path, ["soil_quality", "texture"])
    samples, _ = build_samples(series, statics, window_days=15)
    train, val, test = (samples[index] for index in split_fractions(len(samples), 0.2, 0.2,
                                                                    seed=42))

    config = ModelConfig(
        input_channels=4, numeric_static_count=2, categorical_vocab_sizes=encoder.vocab_sizes,
        lstm_layers=1, hidden_size=8, embed_dim=4, reduced_dim=2,
        mlp_layers=2, mlp_hidden=8,
    )
    settings = [
        AblationConfig(True, True, True),
        AblationConfig(False, True, True),
        AblationConfig(False, True, False),
        AblationConfig(True, True, False),
        AblationConfig(True, False, False),
    ]
    from droughtcast.metrics import evaluate

    reports = {}
    models = {}
    for i, ablation in enumerate(settings):
        model = HybridModel(config, ablation, seed=50 + i)
        run = TrainRunConfig(batch_size=16, epochs=1, seed=60 + i)
        model, _ = fit(model, train, val, run, LrSchedule(base_lr=1e-3, max_lr=1e-3, cycle_length=10))
        reports[ablation.label()] = evaluate(model, test)[0]
        models[ablation.label()] = model

    batch = test[:4]
    statics_only = models["static"]
    base = statics_only.forward(batch).predictions
    scrambled = with_windows(batch, RngState(99).uniform(-5, 5, batch.x.shape))
    statics_invariant = np.array_equal(statics_only.forward(scrambled).predictions, base)

    ts_only = models["ts"]
    base_ts = ts_only.forward(batch).predictions
    scrambled_statics = replace(batch, s_n=batch.s_n * 0 + 9.0, s_d=np.zeros_like(batch.s_d))
    ts_invariant = np.array_equal(ts_only.forward(scrambled_statics).predictions, base_ts)

    ok = len(reports) == 5 and statics_invariant and ts_invariant
    _report(6, "all five ablation settings run end-to-end with path invariances", ok,
            f"{len(reports)} settings")


def test_criterion_07_metric_oracles():
    target = np.zeros((1, 6))
    pred = np.array([[1.0, 0.0, 1.0, 2.0, 3.0, 4.0]])
    exact = (
        mae(pred, target) == 11.0 / 6.0
        and rmse(pred, target) == np.sqrt(31.0 / 6.0)
        and macro_f1([0, 1, 1, 1], [0, 0, 1, 1]) == (2 / 3 + 4 / 5) / 2 * 100
        and macro_f1(np.full(24, 2), np.arange(6).repeat(4)) == (2 / 7) / 6 * 100
    )
    auc_ok = (
        abs(binary_auc([0.1, 0.6, 0.4, 0.9], [False, False, True, True]) - 0.75) <= 1e-9
    )
    scores = np.zeros((4, 6))
    scores[:, 1] = [0.1, 0.2, 0.8, 0.9]
    scores[:, 0] = 1 - scores[:, 1]
    auc_ok = auc_ok and abs(roc_auc_weighted(scores, [0, 0, 1, 1]) - 100.0) <= 1e-9

    rng = np.random.default_rng(7)
    jensen = all(
        mae(p, t) <= rmse(p, t) + 1e-12
        for p, t in (
            (rng.uniform(-5, 5, (8, 6)), rng.uniform(-5, 5, (8, 6)))
            for _ in range(1000)
        )
    )
    _report(7, "metric values match hand-computed oracles; MAE <= RMSE", exact and auc_ok and jensen)


def test_criterion_08_pipeline_leakage():
    days = 600
    values = np.zeros((days, 2))
    series = series_fixture(days=days, values=values, score_every=7, first_score_day=545)
    statics = statics_fixture()
    sentinel = 31337.0
    ok = True
    for idx in scored_days(series):
        series.measurements[idx:, :] = sentinel
        samples, _ = build_samples(series, statics)
        if (samples.x[samples.anchor == series.first_day[0] + idx] == sentinel).any():
            ok = False
        series.measurements[:] = 0.0

    t_idx = np.arange(days, dtype=float)
    series2 = series_fixture(days=days, values=np.stack([t_idx, -t_idx], axis=1),
                             score_every=7, first_score_day=545)
    samples, _ = build_samples(series2, statics)
    if not np.array_equal(samples.x[:, :, 2], samples.x[:, :, 0] - 365):
        ok = False
    if not np.array_equal(samples.x[:, :, 3], samples.x[:, :, 1] + 365):
        ok = False
    _report(8, "no anchor/future leakage; previous-year channels shift exactly 365 days", ok)


def test_criterion_09_tsne():
    started = time.monotonic()
    rng = RngState(71)
    n_per = 150
    a = rng.normal(0.0, 0.5, (n_per, 6)) + 8.0
    b = rng.normal(0.0, 0.5, (n_per, 6)) - 8.0
    points = np.concatenate([a, b])
    labels = np.array([0] * n_per + [1] * n_per)

    descent, kl_trace = tsne_kl_trace(points, perplexity=100, iterations=1000, seed=72)
    assert descent.perplexity_used == (len(points) - 1) / 3

    coords = descent.y
    d = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=2)
    same = labels[:, None] == labels[None, :]
    off_diag = ~np.eye(len(labels), dtype=bool)
    intra = d[same & off_diag].mean()
    inter = d[~same].mean()

    p_cond, _ = conditional_affinities(_pairwise_sq_dists(points), descent.perplexity_used)
    perp_ok = all(
        abs(np.log(row_perplexity(p_cond[i])) - np.log(descent.perplexity_used)) <= 1e-3
        for i in range(len(points))
    )
    kl_ok = kl_trace[999] <= kl_trace[299] + 1e-9
    elapsed = time.monotonic() - started
    _report(9, "t-SNE separates clusters, hits perplexity, KL decreases",
            intra < inter and perp_ok and kl_ok and elapsed < 120,
            f"intra {intra:.2f} < inter {inter:.2f}, {elapsed:.0f}s at N=300")


ACCEPTANCE_CONFIG = """
[data]
timeseries = {ts}
statics = {statics}
categorical_columns = soil_quality,texture
window_days = 20
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

[run]
seed = 23
"""


def test_criterion_10_determinism(tmp_path):
    ts, statics = make_dataset(tmp_path / "data", n_counties=4, days=540, channels=2, seed=81)
    config_path = tmp_path / "run.ini"
    config_path.write_text(ACCEPTANCE_CONFIG.format(ts=ts, statics=statics))

    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        for command in ("ingest", "train", "eval"):
            code = cli_main(["--config", str(config_path), "--out", str(out), command])
            assert code == 0, command
        outs.append(out)

    tracked = [
        "ingest/train.samples", "ingest/val.samples", "ingest/test.samples",
        "ingest/normalizer.csv", "ingest/categories.csv",
        "train/history.csv", "train/model.ckpt", "train/best.ckpt", "train/final.ckpt",
        "eval/weekly.csv", "eval/summary.csv",
    ]
    ok = all((outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes() for rel in tracked)
    _report(10, "two seeded runs agree byte-for-byte across all artifacts", ok,
            f"{len(tracked)} files compared")


def test_criterion_11_optimizer_identities():
    start = np.array([2.0, -1.5])
    p = Tensor(start.copy())
    model = Packed({"p": p})
    state = OptimizerState(weight_decay=0.01)
    expected = start.copy()
    n = 40
    for _ in range(n):
        p.grad[...] = np.zeros(2)
        adamw_step(model, state, lr=0.05)
        expected = expected - 0.05 * (0.01 * expected)
    decay_exact = np.array_equal(p.data, expected) and np.allclose(
        p.data, start * (1 - 0.05 * 0.01) ** n, rtol=1e-12
    )

    q = Tensor(np.array([1.0]))
    q_model = Packed({"q": q})
    q_state = OptimizerState(weight_decay=0.0)
    theta, m, v = 1.0, 0.0, 0.0
    recurrence_ok = True
    for t in range(1, 4):
        q.grad[...] = np.ones(1)
        adamw_step(q_model, q_state, lr=0.1)
        m = 0.9 * m + 0.1 * 1.0
        v = 0.999 * v + 0.001 * 1.0
        theta -= 0.1 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        if abs(float(q.data[0]) - theta) > 1e-12:
            recurrence_ok = False
    _report(11, "decoupled decay exact; 3-step Adam recurrence matches oracle to 1e-12",
            decay_exact and recurrence_ok)
