import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droughtcast.errors import DataError, NumericError
from droughtcast.metrics import (
    FoldResults,
    MetricsReport,
    _midrank,
    binary_auc,
    location_experiment_report,
    macro_f1,
    mae,
    membership_scores,
    paired_t_test,
    relative_improvement,
    report_from_predictions,
    rmse,
    roc_auc_weighted,
    score_to_category,
    student_t_two_tailed_p,
    summarize_folds,
)

from conftest import claim_consistent, midrank_reference

# Reference 5-fold results used across the statistics tests (published
# benchmark values for the recurrent baseline vs the hybrid forecaster).
BASELINE_FOLD_MAE = [0.347, 0.365, 0.272, 0.332, 0.310]
HYBRID_FOLD_MAE = [0.244, 0.302, 0.254, 0.266, 0.299]
BASELINE_FOLD_RMSE = [0.553, 0.570, 0.444, 0.548, 0.504]
HYBRID_FOLD_RMSE = [0.433, 0.519, 0.404, 0.433, 0.502]
BASELINE_FOLD_F1 = [58.34, 42.79, 66.22, 44.82, 63.88]
HYBRID_FOLD_F1 = [60.22, 59.67, 75.22, 59.84, 71.06]


def test_mae_rmse_zero_on_perfect():
    pred = np.random.default_rng(0).uniform(0, 5, (4, 6))
    assert mae(pred, pred) == 0.0
    assert rmse(pred, pred) == 0.0


def test_mae_rmse_hand_values():
    target = np.zeros((1, 6))
    pred = np.array([[1.0, 0.0, 1.0, 2.0, 3.0, 4.0]])
    assert abs(mae(pred, target) - 11.0 / 6.0) < 1e-15
    assert abs(rmse(pred, target) - np.sqrt(31.0 / 6.0)) < 1e-15


def test_mae_week_selection():
    target = np.zeros((2, 6))
    pred = np.zeros((2, 6))
    pred[:, 2] = 3.0
    assert mae(pred[:, 2], target[:, 2]) == 3.0
    assert mae(pred[:, 0], target[:, 0]) == 0.0
    with pytest.raises(DataError):
        mae(pred[:, 0], target)


def test_mae_empty_is_error():
    with pytest.raises(DataError):
        mae(np.zeros((0, 6)), np.zeros((0, 6)))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**31))
def test_mae_never_exceeds_rmse(n, seed):
    rng = np.random.default_rng(seed)
    pred = rng.uniform(-5, 5, (n, 6))
    target = rng.uniform(-5, 5, (n, 6))
    assert mae(pred, target) <= rmse(pred, target) + 1e-12


def test_score_to_category_rules():
    assert score_to_category(0.0) == 0
    assert score_to_category(5.0) == 5
    assert score_to_category(1.5) == 2  # round half up
    assert score_to_category(5.7) == 5  # clamp
    assert score_to_category(-0.4) == 0
    np.testing.assert_array_equal(score_to_category([[0.49, 0.5], [np.inf, -3.0]]), [[0, 1], [5, 0]])
    with pytest.raises(NumericError):
        score_to_category(float("nan"))
    with pytest.raises(NumericError):
        score_to_category([1.0, float("nan")])


def test_macro_f1_perfect():
    cats = np.arange(6).repeat(3)
    assert macro_f1(cats, cats) == 100.0


def test_macro_f1_binary_fixture():
    # class 0: precision 1, recall 1/2 -> 2/3; class 1: 2/3, 1 -> 4/5
    value = macro_f1([0, 1, 1, 1], [0, 0, 1, 1])
    assert abs(value - (2 / 3 + 4 / 5) / 2 * 100) < 1e-12
    assert round(value, 2) == 73.33


def test_macro_f1_single_prediction_class_uniform_targets():
    targets = np.arange(6).repeat(4)
    preds = np.full_like(targets, 2)
    value = macro_f1(preds, targets)
    assert abs(value - (2 / 7) / 6 * 100) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.permutations(list(range(6))))
def test_macro_f1_relabeling_invariance(seed, relabel):
    rng = np.random.default_rng(seed)
    targets = rng.integers(0, 6, 40)
    preds = rng.integers(0, 6, 40)
    relabel = np.asarray(relabel)
    assert abs(macro_f1(preds, targets) - macro_f1(relabel[preds], relabel[targets])) < 1e-9


def test_binary_auc_perfect_and_uninformative():
    assert binary_auc([0.1, 0.2, 0.8, 0.9], [False, False, True, True]) == 1.0
    assert binary_auc([0.5, 0.5, 0.5, 0.5], [False, False, True, True]) == 0.5


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(-3, 3), st.floats(-1e6, 1e6)), max_size=80))
def test_midrank_matches_plain_python_reference(values):
    """Tie-heavy vectors: the small integers repeat, the floats mostly do not."""
    ranks = _midrank(np.array(values, dtype=float))
    assert ranks.tolist() == midrank_reference([float(v) for v in values])


def test_binary_auc_one_inversion():
    assert binary_auc([0.1, 0.6, 0.4, 0.9], [False, False, True, True]) == 0.75


def test_binary_auc_single_class_undefined():
    assert math.isnan(binary_auc([0.1, 0.2], [True, True]))
    assert math.isnan(binary_auc([0.1, 0.2], [False, False]))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_auc_invariant_under_monotone_transform(seed):
    rng = np.random.default_rng(seed)
    scores = rng.uniform(-3, 3, 30)
    positives = rng.integers(0, 2, 30).astype(bool)
    if positives.all() or not positives.any():
        positives[0] = True
        positives[1] = False
    base = binary_auc(scores, positives)
    assert abs(binary_auc(np.exp(scores), positives) - base) < 1e-12
    assert abs(binary_auc(3 * scores + 7, positives) - base) < 1e-12


def test_membership_scores_triangular():
    out = membership_scores([1.25])
    expected = np.zeros(6)
    expected[1] = 0.75
    expected[2] = 0.25
    np.testing.assert_allclose(out[0], expected / expected.sum())
    # outside the range clamps to the nearest category
    np.testing.assert_allclose(membership_scores([7.3])[0][5], 1.0)


def test_roc_auc_weighted_two_class():
    scores = np.zeros((4, 6))
    scores[:, 1] = [0.1, 0.2, 0.8, 0.9]
    scores[:, 0] = 1 - scores[:, 1]
    assert roc_auc_weighted(scores, [0, 0, 1, 1]) == 100.0
    flat = np.full((4, 6), 1 / 6)
    assert roc_auc_weighted(flat, [0, 0, 1, 1]) == 50.0
    assert math.isnan(roc_auc_weighted(scores, [1, 1, 1, 1]))


def test_report_from_constant_stub_predictions():
    target = np.full((5, 6), 2.0)
    report = report_from_predictions(target.copy(), target)
    assert report.mae == 0.0
    assert report.f1 == 100.0
    assert len(report.weekly_mae) == 6
    assert report.sample_count == 5


def test_report_aggregate_equals_week_mean():
    rng = np.random.default_rng(3)
    pred = rng.uniform(0, 5, (20, 6))
    target = rng.uniform(0, 5, (20, 6))
    report = report_from_predictions(pred, target)
    assert abs(report.mae - np.mean(report.weekly_mae)) < 1e-12
    assert "pooled MAE" in report.render_text()
    assert report.weekly_csv().count("\n") == 7


def test_student_t_tabulated_critical_value():
    # bisect the two-tailed CDF for p = 0.05 at 4 degrees of freedom
    lo, hi = 0.0, 10.0
    for _ in range(80):
        mid = (lo + hi) / 2
        if student_t_two_tailed_p(mid, 4) > 0.05:
            lo = mid
        else:
            hi = mid
    assert abs((lo + hi) / 2 - 2.776) < 1e-3


def test_student_t_known_values():
    assert abs(student_t_two_tailed_p(2.0, 10) - 0.073388034771) < 1e-10
    assert abs(student_t_two_tailed_p(1.0, 1) - 0.5) < 1e-10
    assert abs(student_t_two_tailed_p(0.0, 5) - 1.0) < 1e-12


def test_paired_t_test_reference_folds():
    r = paired_t_test(BASELINE_FOLD_MAE, HYBRID_FOLD_MAE)
    assert r.df == 4
    assert abs(r.t_stat - 3.0773) < 5e-4
    assert abs(r.p_value - 0.037) < 5e-4
    assert int(r.p_value * 100) / 100 == 0.03  # two-decimal truncation

    r = paired_t_test(BASELINE_FOLD_RMSE, HYBRID_FOLD_RMSE)
    assert abs(r.p_value - 0.045) < 5e-4
    assert int(r.p_value * 100) / 100 == 0.04

    r = paired_t_test(BASELINE_FOLD_F1, HYBRID_FOLD_F1)
    assert abs(r.p_value - 0.021) < 5e-4
    assert int(r.p_value * 100) / 100 == 0.02


def test_paired_t_test_antisymmetric():
    a = [1.0, 2.0, 3.0, 4.5]
    b = [0.5, 2.5, 2.0, 4.0]
    fwd = paired_t_test(a, b)
    rev = paired_t_test(b, a)
    assert fwd.t_stat == -rev.t_stat
    assert fwd.p_value == rev.p_value
    assert np.sign(fwd.t_stat) == np.sign(fwd.mean_difference)


def test_paired_t_test_degenerate():
    r = paired_t_test([1.0, 2.0, 3.0], [0.0, 1.0, 2.0])
    assert (r.mean_difference, r.df) == (1.0, 2)
    assert math.isnan(r.t_stat) and math.isnan(r.p_value)
    tied = paired_t_test([0.3, 0.2], [0.3, 0.2])
    assert (tied.mean_difference, tied.df) == (0.0, 1)
    assert math.isnan(tied.t_stat) and math.isnan(tied.p_value)


def test_fold_summaries_reproduce_reference_tables():
    mean, std = summarize_folds(BASELINE_FOLD_MAE)
    assert abs(mean - 0.325) <= 0.001
    assert abs(std - 0.036) <= 0.001
    mean, std = summarize_folds(HYBRID_FOLD_MAE)
    assert abs(mean - 0.273) <= 0.001
    assert abs(std - 0.026) <= 0.001
    mean, _ = summarize_folds(BASELINE_FOLD_F1)
    assert abs(mean - 55.2) <= 0.05
    mean, std = summarize_folds(HYBRID_FOLD_F1)
    assert abs(mean - 65.2) <= 0.05
    assert abs(std / 100 - 0.074) <= 0.0005  # fractional convention


def test_fold_results_summary_recomputes():
    folds = [{"mae": v, "rmse": v + 0.1, "f1": 50 + v} for v in HYBRID_FOLD_MAE]
    results = FoldResults(["mae", "rmse", "f1"], folds)
    mean, std = results.summary["mae"]
    ref_mean, ref_std = summarize_folds([f["mae"] for f in folds])
    assert mean == ref_mean and std == ref_std
    assert results.folds_csv().startswith("fold,mae,rmse,f1")
    assert results.summary_csv().count("\n") == 4


def test_summarize_identical_folds_zero_std():
    assert summarize_folds([0.3, 0.3, 0.3]) == (0.3, 0.0)


def test_relative_improvement_reference_values():
    f1 = relative_improvement(61.9, 67.3, better="higher")
    assert abs(f1 - 8.72) < 0.01
    assert claim_consistent(f1, 9.0)

    auc = relative_improvement(80.6, 85.9, better="higher")
    assert abs(auc - 6.58) < 0.01
    assert claim_consistent(auc, 7.0)

    mae_gain = relative_improvement(0.306, 0.218, better="lower")
    assert abs(mae_gain - 28.76) < 0.01
    assert not claim_consistent(mae_gain, 30.0)  # headline rounding disagrees


def test_relative_improvement_guards():
    assert math.isnan(relative_improvement(0.0, 1.0))
    assert math.isnan(relative_improvement(0.0, 1.0, better="higher"))
    with pytest.raises(DataError):
        relative_improvement(1.0, 1.0, better="sideways")
    with pytest.raises(DataError):
        relative_improvement(0.0, 1.0, better="sideways")


def _stub_report(mae_value, f1_value, rmse_value=0.4):
    return MetricsReport(
        weekly_mae=[mae_value] * 6,
        weekly_f1=[f1_value] * 6,
        mae=mae_value,
        rmse=rmse_value,
        f1=f1_value,
        roc_auc=80.0,
        sample_count=10,
    )


def test_location_report_reference_improvements():
    specific = {
        "IA": _stub_report(0.201, 73.8),
        "MT": _stub_report(0.301, 46.7),
        "OK": _stub_report(0.278, 63.1),
    }
    agnostic = {
        "IA": _stub_report(0.166, 76.6),
        "MT": _stub_report(0.200, 48.2),
        "OK": _stub_report(0.218, 67.3),
    }
    report = location_experiment_report(specific, agnostic)
    per_state, avg = report.improvements["test_mae"]
    assert abs(per_state["IA"] - 17.41) < 0.01
    assert abs(per_state["MT"] - 33.55) < 0.01
    assert abs(per_state["OK"] - 21.58) < 0.01
    assert abs(avg - 24.18) < 0.01

    per_state, avg = report.improvements["test_f1"]
    assert abs(per_state["IA"] - 3.79) < 0.01
    assert abs(per_state["MT"] - 3.21) < 0.01
    assert abs(per_state["OK"] - 6.66) < 0.01
    assert abs(avg - 4.55) < 0.01

    per_state, avg = report.improvements["test_mae_abs"]
    assert per_state == {"IA": 0.166 - 0.201, "MT": 0.200 - 0.301, "OK": 0.218 - 0.278}
    assert abs(avg - (-0.065333)) < 1e-6

    definitions = ["test_mae", "test_f1", "week_avg_mae", "week_avg_f1"]
    assert list(report.improvements) == [key for name in definitions
                                         for key in (name, f"{name}_abs")]
    assert report.summary_csv().count("\n") == 7
    assert report.weekly_csv().splitlines()[0].startswith("train,eval,week1_mae")


def test_location_report_identical_results_zero_improvement():
    reports = {s: _stub_report(0.3, 60.0) for s in ("IA", "MT")}
    out = location_experiment_report(reports, {s: _stub_report(0.3, 60.0) for s in ("IA", "MT")})
    for per_state, avg in out.improvements.values():
        assert avg == 0.0
        assert all(v == 0.0 for v in per_state.values())


def test_location_report_zero_baseline_is_undefined_next_to_its_difference():
    specific = {"IA": _stub_report(0.3, 0.0), "MT": _stub_report(0.4, 50.0)}
    agnostic = {"IA": _stub_report(0.2, 40.0), "MT": _stub_report(0.2, 55.0)}
    report = location_experiment_report(specific, agnostic)
    per_state, avg = report.improvements["test_f1"]
    assert list(per_state) == ["IA", "MT"]
    assert math.isnan(per_state["IA"]) and per_state["MT"] == 10.0
    assert math.isnan(avg)
    assert report.improvements["test_f1_abs"] == ({"IA": 40.0, "MT": 5.0}, 22.5)
    rows = {row.split(",")[0]: row for row in report.improvements_csv().splitlines()}
    assert rows["test_f1"] == "test_f1,undefined,10.0,undefined"
    assert rows["test_f1_abs"] == "test_f1_abs,40.0,5.0,22.5"
    assert "undefined" not in rows["test_mae"]


def test_location_report_missing_pair():
    with pytest.raises(DataError):
        location_experiment_report({"IA": _stub_report(0.2, 70.0)}, {})
