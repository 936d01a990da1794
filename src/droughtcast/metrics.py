"""Evaluation metrics and experiment statistics.

Regression errors (MAE/RMSE) are computed on the raw continuous scores;
classification metrics map scores to the six intensity categories by
round-half-up with clamping.  ROC-AUC scores a regression output through
triangular membership around the integer categories, and the paired t-test
uses an internally implemented Student-t CDF (regularized incomplete beta
via continued fraction) so results carry no dependency on an external
stats library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import TARGET_WEEKS, csv_text, kfold_split
from .errors import DataError, NumericError
from .model import HybridModel
from .pool import run_pool
# batch_from_samples stays importable here: perfbench/tracing.py wraps this lookup site
from .training import batch_from_samples, predict  # noqa: F401

N_CATEGORIES = 6
# the per-week columns of the wide CSVs, in the order of MetricsReport.weekly_cells
WEEKLY_COLUMNS = [f"week{w}_{metric}" for w in range(1, TARGET_WEEKS + 1)
                  for metric in ("mae", "f1")]


def _residual(pred, target) -> np.ndarray:
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise DataError(f"prediction shape {pred.shape} != target shape {target.shape}")
    if pred.size == 0:
        raise DataError("empty inputs")
    return pred - target


def mae(pred, target) -> float:
    return float(np.abs(_residual(pred, target)).mean())


def rmse(pred, target) -> float:
    return float(np.sqrt((_residual(pred, target) ** 2).mean()))


def score_to_category(scores) -> np.ndarray:
    """Map continuous drought scores to intensity categories 0..5 (round
    half up, then clamp), keeping their shape."""
    scores = np.asarray(scores, dtype=float)
    if np.isnan(scores).any():
        raise NumericError("cannot categorize NaN score")
    return np.clip(np.floor(scores + 0.5), 0, N_CATEGORIES - 1).astype(np.int64)


def macro_f1(pred_categories, target_categories) -> float:
    """Unweighted mean of per-class F1, in percent.

    Classes absent from both predictions and targets are excluded so the
    mean stays defined.
    """
    pred = np.asarray(pred_categories, dtype=np.int64).ravel()
    target = np.asarray(target_categories, dtype=np.int64).ravel()
    if pred.size == 0:
        raise DataError("empty inputs")
    if pred.shape != target.shape:
        raise DataError("length mismatch")
    scores = []
    for cls in range(N_CATEGORIES):
        tp = int(((pred == cls) & (target == cls)).sum())
        fp = int(((pred == cls) & (target != cls)).sum())
        fn = int(((pred != cls) & (target == cls)).sum())
        if tp + fp + fn == 0:
            continue
        scores.append(2 * tp / (2 * tp + fp + fn))
    if not scores:
        raise DataError("no classes present")
    return float(np.mean(scores) * 100.0)


def _midrank(values: np.ndarray) -> np.ndarray:
    """1-based ranks, each tie group sharing the mean of its positions."""
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    ends = np.r_[starts[1:], len(values)] - 1
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, ends - starts + 1)
    return ranks


def binary_auc(scores, positives) -> float:
    """Mann-Whitney AUC with midranks for ties, as a fraction in [0, 1];
    NaN when either side is empty."""
    scores = np.asarray(scores, dtype=float)
    positives = np.asarray(positives, dtype=bool)
    n_pos = int(positives.sum())
    n_neg = positives.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return math.nan
    ranks = _midrank(scores)
    rank_sum = ranks[positives].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def membership_scores(predictions) -> np.ndarray:
    """Per-category pseudo-probabilities for continuous predictions.

    Scores are clamped to the category range, then category k receives
    mass max(0, 1 - |score - k|), normalized per sample.
    """
    flat = np.clip(np.asarray(predictions, dtype=float).ravel(), 0.0, N_CATEGORIES - 1)
    cats = np.arange(N_CATEGORIES)
    raw = np.maximum(0.0, 1.0 - np.abs(flat[:, None] - cats[None, :]))
    return raw / raw.sum(axis=1, keepdims=True)


def roc_auc_weighted(class_scores, target_categories) -> float:
    """One-vs-rest AUC per present class, support-weighted, in percent;
    NaN when the targets hold fewer than two classes."""
    scores = np.asarray(class_scores, dtype=float)
    target = np.asarray(target_categories, dtype=np.int64).ravel()
    if scores.ndim != 2 or scores.shape[0] != target.size:
        raise DataError(f"class-score matrix {scores.shape} does not match {target.size} targets")
    present = [cls for cls in range(scores.shape[1]) if (target == cls).any()]
    if len(present) < 2:
        return math.nan
    total = 0.0
    weight_sum = 0
    for cls in present:
        support = int((target == cls).sum())
        total += support * binary_auc(scores[:, cls], target == cls)
        weight_sum += support
    return float(total / weight_sum * 100.0)


@dataclass
class MetricsReport:
    weekly_mae: list[float]
    weekly_f1: list[float]
    mae: float
    rmse: float
    f1: float
    roc_auc: float
    sample_count: int

    def weekly_csv(self) -> str:
        return csv_text([["week", "mae", "f1"],
                         *zip(range(1, TARGET_WEEKS + 1), self.weekly_mae, self.weekly_f1)])

    def summary_csv(self) -> str:
        return csv_text([["mae", "rmse", "f1", "roc_auc", "samples"],
                         [self.mae, self.rmse, self.f1, self.roc_auc, self.sample_count]])

    def weekly_cells(self) -> list[float]:
        """MAE then F1 of week 1, then of week 2, and so on."""
        return [value for week in zip(self.weekly_mae, self.weekly_f1) for value in week]

    def render_text(self) -> str:
        lines = [f"{'week':>6} {'MAE':>8} {'F1':>7}"]
        for w in range(TARGET_WEEKS):
            lines.append(f"{w + 1:>6} {self.weekly_mae[w]:>8.3f} {self.weekly_f1[w]:>7.1f}")
        lines.append(
            f"pooled MAE {self.mae:.3f}  RMSE {self.rmse:.3f}  "
            f"F1 {self.f1:.1f}  ROC-AUC {self.roc_auc:.1f}  n={self.sample_count}"
        )
        return "\n".join(lines) + "\n"


def report_from_predictions(pred, target) -> MetricsReport:
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.ndim != 2 or pred.shape[1] != TARGET_WEEKS:
        raise DataError(f"expected (N, {TARGET_WEEKS}) predictions, got {pred.shape}")
    weekly_mae = [mae(pred[:, w], target[:, w]) for w in range(TARGET_WEEKS)]
    pred_cats = score_to_category(pred)
    target_cats = score_to_category(target)
    weekly_f1 = [macro_f1(pred_cats[:, w], target_cats[:, w]) for w in range(TARGET_WEEKS)]
    return MetricsReport(
        weekly_mae=weekly_mae,
        weekly_f1=weekly_f1,
        mae=mae(pred, target),
        rmse=rmse(pred, target),
        f1=macro_f1(pred_cats, target_cats),
        roc_auc=roc_auc_weighted(membership_scores(pred), target_cats),
        sample_count=pred.shape[0],
    )


def evaluate(model: HybridModel, samples) -> tuple[MetricsReport, np.ndarray, np.ndarray | None]:
    """The full report of :func:`~droughtcast.training.predict` over the
    sample set, and what ``predict`` returned: the predictions (N, 6) and
    the attention weights (N, T), ``None`` without the attention path."""
    predictions, attention = predict(model, samples)
    return report_from_predictions(predictions, samples.y), predictions, attention


# Student-t distribution, implemented directly so significance results do
# not depend on an external statistics package.

def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz), two half-steps a term."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise NumericError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    if x < 0.0 or x > 1.0:
        raise NumericError(f"x={x} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return x
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_tailed_p(t: float, df: int) -> float:
    """P(|T_df| >= |t|) via I_{df/(df+t^2)}(df/2, 1/2)."""
    if df < 1:
        raise DataError(f"degrees of freedom must be >= 1, got {df}")
    x = df / (df + t * t)
    return regularized_incomplete_beta(df / 2.0, 0.5, x)


@dataclass
class PairedTestResult:
    mean_difference: float
    t_stat: float
    df: int
    p_value: float


# paired differences whose standard deviation is at most this multiple of the
# largest input magnitude differ only by the rounding of the inputs
ROUNDING_SPREAD = 4 * np.finfo(float).eps


def paired_t_test(a, b) -> PairedTestResult:
    """Two-tailed paired t-test of matched measurement vectors; ``t_stat``
    and ``p_value`` are NaN when the differences are degenerate: their
    sample standard deviation is at most ``ROUNDING_SPREAD`` times the
    largest magnitude in ``a`` or ``b``, rounding of the inputs."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise DataError("paired test needs two equal-length vectors")
    k = a.size
    if k < 2:
        raise DataError("paired test needs at least two pairs")
    d = a - b
    sd = d.std(ddof=1)
    if sd <= ROUNDING_SPREAD * max(np.abs(a).max(), np.abs(b).max()):
        return PairedTestResult(float(d.mean()), math.nan, k - 1, math.nan)
    t = float(d.mean() / (sd / math.sqrt(k)))
    return PairedTestResult(float(d.mean()), t, k - 1, student_t_two_tailed_p(t, k - 1))


@dataclass
class FoldResults:
    metric_names: list[str]
    folds: list[dict[str, float]]
    summary: dict[str, tuple[float, float]] = field(init=False)

    def __post_init__(self):
        self.summary = {name: summarize_folds([fold[name] for fold in self.folds])
                        for name in self.metric_names}

    def folds_csv(self) -> str:
        return csv_text([["fold", *self.metric_names]]
                        + [[i, *(fold[n] for n in self.metric_names)]
                           for i, fold in enumerate(self.folds, start=1)])

    def summary_csv(self) -> str:
        return csv_text([["metric", "mean", "std"]]
                        + [[name, *self.summary[name]] for name in self.metric_names])


def summarize_folds(values) -> tuple[float, float]:
    """Mean and sample standard deviation (n-1 denominator)."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise DataError("need at least two folds to summarize")
    return float(values.mean()), float(values.std(ddof=1))


def cross_validate(samples, k, trainers, cpus_per_job: int, seed: int = 0) -> list[FoldResults]:
    """Per trainer, MAE/RMSE/F1 per fold of the model that the trainer,
    called as ``train(train_samples, val_samples, fold_seed)``, returns,
    fresh and seeded per fold; every trainer's folds are the jobs of one
    :func:`~droughtcast.pool.run_pool` at ``cpus_per_job`` CPUs each."""
    def fold(job) -> dict[str, float]:
        train, i, (fit_rows, val_rows) = job
        model = train(samples[fit_rows], samples[val_rows], seed + 1000 * (i + 1))
        report = evaluate(model, samples[val_rows])[0]
        return {"mae": report.mae, "rmse": report.rmse, "f1": report.f1}

    splits = list(enumerate(kfold_split(len(samples), k=k, seed=seed)))
    results = run_pool(fold, [(train, *split) for train in trainers for split in splits],
                       cpus_per_job)
    return [FoldResults(["mae", "rmse", "f1"], [next(results) for _ in splits])
            for _ in trainers]


def relative_improvement(baseline: float, candidate: float, better: str = "lower") -> float:
    """Percent improvement of candidate over baseline; NaN over a zero
    baseline."""
    if better not in ("lower", "higher"):
        raise DataError(f"better must be 'lower' or 'higher', got {better!r}")
    if baseline == 0.0:
        return math.nan
    gain = baseline - candidate if better == "lower" else candidate - baseline
    return gain / baseline * 100.0


@dataclass
class LocationExperimentReport:
    """Specific-vs-agnostic training comparison across states.

    ``improvements`` holds, per candidate definition, the per-state relative
    improvement of agnostic training plus its average; the average is
    definition-dependent, so every candidate is labeled and reported.  A
    relative improvement over a zero baseline is undefined (NaN), and so is
    the average of a row holding one.  Each definition also has an
    ``<definition>_abs`` row: agnostic minus specific, per state and on
    average, which is defined for every baseline.
    """

    states: list[str]
    specific: dict[str, MetricsReport]
    agnostic: dict[str, MetricsReport]
    improvements: dict[str, tuple[dict[str, float], float]] = field(init=False)

    def __post_init__(self):
        self.improvements = {}
        defs = {
            "test_mae": (lambda r: r.mae, "lower"),
            "test_f1": (lambda r: r.f1, "higher"),
            "week_avg_mae": (lambda r: float(np.mean(r.weekly_mae)), "lower"),
            "week_avg_f1": (lambda r: float(np.mean(r.weekly_f1)), "higher"),
        }
        for name, (getter, better) in defs.items():
            relative, absolute = {}, {}
            for s in self.states:
                base, candidate = getter(self.specific[s]), getter(self.agnostic[s])
                relative[s] = relative_improvement(base, candidate, better)
                absolute[s] = candidate - base
            for key, per_state in ((name, relative), (f"{name}_abs", absolute)):
                self.improvements[key] = (per_state, float(np.mean(list(per_state.values()))))

    def _runs(self) -> list[tuple[str, str, MetricsReport]]:
        """(train, eval, report): each state-specific model, then the model
        trained on all states, evaluated per state."""
        return ([(s, s, self.specific[s]) for s in self.states]
                + [("all", s, self.agnostic[s]) for s in self.states])

    def weekly_csv(self) -> str:
        return csv_text([["train", "eval", *WEEKLY_COLUMNS]]
                        + [[train, s, *r.weekly_cells()] for train, s, r in self._runs()])

    def summary_csv(self) -> str:
        return csv_text([["train", "eval", "mae", "rmse", "f1"]]
                        + [[train, s, r.mae, r.rmse, r.f1] for train, s, r in self._runs()])

    def improvements_csv(self) -> str:
        rows = [[name, *(per_state[s] for s in self.states), avg]
                for name, (per_state, avg) in self.improvements.items()]
        return csv_text([["definition", *self.states, "average"]]
                        + [[name, *("undefined" if math.isnan(cell) else cell for cell in cells)]
                           for name, *cells in rows])


def location_experiment_report(specific: dict[str, MetricsReport],
                               agnostic: dict[str, MetricsReport]) -> LocationExperimentReport:
    states = sorted(specific)
    missing = set(states) ^ set(agnostic)
    if missing:
        raise DataError(f"missing specific/agnostic pair for states {sorted(missing)}")
    return LocationExperimentReport(states, specific, agnostic)
