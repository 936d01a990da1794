import ast
import hashlib
import os
import re
import struct
import tracemalloc
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import droughtcast.data as data
from droughtcast.data import (
    CategoricalEncoder,
    EvalPredictions,
    Normalizer,
    SampleSet,
    build_samples,
    filter_by_state,
    fit_normalizer,
    kfold_split,
    load_samples,
    load_statics,
    load_timeseries,
    read_artifact,
    save_samples,
    split_fractions,
    write_artifact,
    write_file,
)
from droughtcast.errors import ConfigError, DataError, DroughtcastError, FormatError, SchemaError
from droughtcast.model import AblationConfig, HybridModel, ModelConfig
from droughtcast.synthetic import make_dataset
from droughtcast.training import load_checkpoint, predict, save_checkpoint

from conftest import (
    load_normalizer,
    scored_days,
    series_fixture,
    spy_opens,
    statics_fixture,
    window_set,
    write_timeseries_csv,
)


def test_load_timeseries_tiny_fixture(tiny_csv_dataset):
    series = load_timeseries(tiny_csv_dataset)
    assert series.fips.tolist() == ["19001", "30002"]
    assert series.channel_names == ["chan0", "chan1"]
    assert series.start.tolist() == [0, 3, 6]
    assert series.measurements[:3].shape == (3, 2)
    # scored only on the first day; empty cells parse as absent
    assert series.scores[:3][~np.isnan(series.scores[:3])].tolist() == [1.5]
    assert series.first_day[0] == np.datetime64(date(2020, 1, 1))


def test_load_timeseries_missing_column(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("fips,date,chan0\n19001,2020-01-01,1.0\n")
    with pytest.raises(SchemaError):
        load_timeseries(p)


def test_load_timeseries_duplicate_date(tmp_path):
    rows = [
        ("19001", "2020-01-01", (1.0, 2.0), ""),
        ("19001", "2020-01-01", (1.0, 2.0), ""),
    ]
    p = write_timeseries_csv(tmp_path / "dup.csv", rows)
    with pytest.raises(DataError, match=re.escape(
            f"{p}: line 3: county 19001: duplicate date 2020-01-01")):
        load_timeseries(p)


def test_load_timeseries_gapped_dates(tmp_path):
    rows = [
        ("19001", "2020-01-01", (1.0, 2.0), ""),
        ("19001", "2020-01-03", (1.0, 2.0), ""),
    ]
    p = write_timeseries_csv(tmp_path / "gap.csv", rows)
    with pytest.raises(DataError, match=re.escape(
            f"{p}: line 3: county 19001: gap between 2020-01-01 and 2020-01-03")):
        load_timeseries(p)


def test_load_timeseries_interpolates_missing_values(tmp_path):
    rows = [
        ("19001", "2020-01-01", (0.0, 1.0), ""),
        ("19001", "2020-01-02", ("", 1.0), ""),
        ("19001", "2020-01-03", (4.0, 1.0), ""),
    ]
    p = write_timeseries_csv(tmp_path / "nan.csv", rows)
    series = load_timeseries(p)
    np.testing.assert_allclose(series.measurements[:, 0], [0.0, 2.0, 4.0])


def test_load_timeseries_drops_long_gap_county(tmp_path):
    rows = []
    for d in range(30):
        day = (date(2020, 1, 1) + timedelta(days=d)).isoformat()
        cell = "" if 5 <= d < 25 else "1.0"
        rows.append(("19001", day, (cell, 1.0), ""))
        rows.append(("30002", day, (1.0, 1.0), ""))
    p = write_timeseries_csv(tmp_path / "long_gap.csv", rows)
    report = []
    series = load_timeseries(p, report=report)
    assert series.fips.tolist() == ["30002"]
    assert len(report) == 1 and "19001" in report[0]


def test_load_timeseries_score_range_guard(tmp_path):
    rows = [("19001", "2020-01-01", (1.0, 1.0), ""), ("19001", "2020-01-02", (1.0, 1.0), "5.5")]
    p = write_timeseries_csv(tmp_path / "range.csv", rows)
    with pytest.raises(DataError, match=re.escape(
            f"{p}: line 3: county 19001: score 5.5 outside [0, 5] at 2020-01-02")):
        load_timeseries(p)


def _fault_lines() -> list[str]:
    """A valid file: counties 30002 and 19001 interleaved day by day, so
    that file order differs from (county, date) order; header on line 1,
    30002's day d on line 2d, 19001's on line 2d + 1, every second day scored."""
    return ["fips,date,chan0,chan1,score"] + [
        f"{fips},2020-01-{day:02d},{day}.5,-{day},{'' if day % 2 else '1.5'}"
        for day in range(1, 7) for fips in ("30002", "19001")]


def _edit(line: int, column: int, text: str):
    """Set one cell of the (1-based) ``line``."""
    def edit(lines):
        cells = lines[line - 1].split(",")
        cells[column] = text
        lines[line - 1] = ",".join(cells)
    return edit


def _insert(line: int, *texts: str):
    """Insert ``texts`` as lines before ``line``."""
    def edit(lines):
        lines[line - 1:line - 1] = texts
    return edit


# (edits, error type, message after "<path>: "), recorded from the row-wise
# parse that the columnar one replaced
TIMESERIES_FAULTS = {
    "cell count after blank lines": (
        [_edit(7, 4, "1.5,9"), _insert(5, "", "")], SchemaError,
        "line 9 has 6 cells, the header has 5"),
    "after a quoted cell on two lines": (
        [_edit(6, 3, "wet"), _edit(3, 2, '"2.5\n"')], SchemaError,
        "line 7, column 'chan1': 'wet' is not a finite number"),
    "compact date": ([_edit(8, 1, "20150101")], SchemaError,
                     "line 8, column 'date': '20150101': not a YYYY-MM-DD date"),
    "no such day": ([_edit(8, 1, "2015-02-30")], SchemaError,
                    "line 8, column 'date': '2015-02-30': day is out of range for month"),
    "word in a channel": ([_edit(9, 3, "wet")], SchemaError,
                          "line 9, column 'chan1': 'wet' is not a finite number"),
    "nan channel": ([_edit(9, 2, "nan")], SchemaError,
                    "line 9, column 'chan0': 'nan' is not a finite number"),
    "inf channel": ([_edit(10, 3, "inf")], SchemaError,
                    "line 10, column 'chan1': 'inf' is not a finite number"),
    "nan score": ([_edit(11, 4, "nan")], SchemaError,
                  "line 11, column 'score': 'nan' is not a finite number"),
    "score above 5": ([_edit(5, 4, "5.5")], DataError,
                      "line 5: county 19001: score 5.5 outside [0, 5] at 2020-01-02"),
    "duplicate date": ([_edit(9, 1, "2020-01-03")], DataError,
                       "line 9: county 19001: duplicate date 2020-01-03"),
    "gap": ([_edit(11, 1, "2020-01-07")], DataError,
            "line 13: county 19001: gap between 2020-01-04 and 2020-01-06"),
    "every county dropped": (
        [_edit(line, 3, "") for line in range(2, 14)], DataError, "no usable counties"),
    # several faults (README, "Data formats"): a fault of the file's form comes
    # first, at the earliest line; so the date on line 12 beats the word on line 2
    "form before values": (
        [_edit(2, 2, "wet"), _edit(12, 1, "2020-13-01")], SchemaError,
        "line 12, column 'date': '2020-13-01': month must be in 1..12"),
    # then the counties in order of first appearance, and within one the
    # calendar, the channel cells, then the scores: 30002's cell on line 10
    # beats its score on line 4 and 19001's cell on line 3
    "values by county": (
        [_edit(4, 4, "9"), _edit(10, 2, "dry"), _edit(3, 2, "wet")], SchemaError,
        "line 10, column 'chan0': 'dry' is not a finite number"),
}


@pytest.mark.parametrize("case", TIMESERIES_FAULTS)
def test_load_timeseries_names_the_fault_and_its_line(tmp_path, case):
    edits, error, message = TIMESERIES_FAULTS[case]
    lines = _fault_lines()
    for edit in edits:
        edit(lines)
    path = tmp_path / "ts.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(error) as raised:
        load_timeseries(path)
    assert type(raised.value) is error
    assert str(raised.value) == f"{path}: {message}"


def test_load_timeseries_peak_memory_is_a_small_multiple_of_the_file(tmp_path):
    """40,000 rows: the parse holds one chunk of cells at a time, so its
    allocations peak below four times the file's size."""
    ts_path, _ = make_dataset(tmp_path, n_counties=50, days=800, channels=3, seed=1)
    tracemalloc.start()
    try:
        series = load_timeseries(ts_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.measurements.shape == (40_000, 3)
    assert peak < 4 * ts_path.stat().st_size


def test_load_statics_encoding(tmp_path):
    p = tmp_path / "statics.csv"
    p.write_text(
        "fips,elevation,quality\n"
        "19001,100.0,A\n"
        "30002,200.0,B\n"
        "40003,300.0,A\n"
    )
    statics, encoder = load_statics(p, ["quality"])
    assert statics.fips.tolist() == ["19001", "30002", "40003"]
    assert statics.codes[:, 0].tolist() == [1, 2, 1]
    assert encoder.vocab_sizes == [3]
    # f = f_n + f_d
    assert statics.numeric_names == ["elevation"]
    assert statics.numeric.shape[1] + statics.codes.shape[1] == 2


@pytest.mark.parametrize("rows, line, county", [
    (["19001,1.0", "30002,2.0", "19001,3.0"], 4, "19001"),
    (["40003,1.0", "30002,2.0", "30002,3.0", "40003,4.0"], 4, "30002"),
])
def test_duplicate_statics_row_names_file_and_later_line(tmp_path, rows, line, county):
    p = tmp_path / "statics.csv"
    p.write_text("fips,elevation\n" + "\n".join(rows) + "\n")
    with pytest.raises(DataError, match=re.escape(
            f"{p}: line {line}: duplicate statics row for county {county}")):
        load_statics(p, [])


def test_load_statics_unseen_label_maps_to_zero(tmp_path):
    p1 = tmp_path / "train.csv"
    p1.write_text("fips,quality\n19001,A\n")
    _, encoder = load_statics(p1, ["quality"])
    p2 = tmp_path / "new.csv"
    p2.write_text("fips,quality\n30002,Z\n")
    statics, _ = load_statics(p2, ["quality"], encoder=encoder)
    assert statics.codes[0, 0] == 0


def test_reordered_categorical_columns_rejected(tmp_path):
    p = tmp_path / "statics.csv"
    p.write_text("fips,quality,texture\n19001,A,clay\n")
    _, encoder = load_statics(p, ["quality", "texture"])
    with pytest.raises(ConfigError):
        load_statics(p, ["texture", "quality"], encoder=encoder)


def test_encoder_round_trips_through_file(tmp_path):
    p = tmp_path / "statics.csv"
    p.write_text("fips,quality,texture\n19001,A,clay\n30002,B,loam\n")
    _, encoder = load_statics(p, ["quality", "texture"])
    path = tmp_path / "dict.csv"
    encoder.save(path)
    loaded = CategoricalEncoder.load(path)
    assert loaded.labels == encoder.labels
    assert loaded.decode("quality", encoder.encode("quality", ["B"])[0]) == "B"


def test_build_samples_minimum_history_boundary():
    # scores at exactly the minimum-history anchor and its five successors
    days = 581
    series = series_fixture(days=days, score_every=7, first_score_day=545)
    statics = statics_fixture()
    samples, report = build_samples(series, statics)
    assert len(samples) == 1
    assert samples.x.shape == (1, 180, 4)
    assert report.dropped_missing_future == 5
    assert report.built + report.dropped == len(scored_days(series))


def test_build_samples_missing_week6_target():
    series = series_fixture(days=560, score_every=7, first_score_day=545)
    # only 3 score dates fit in 560 days from day 545
    statics = statics_fixture()
    samples, report = build_samples(series, statics)
    assert len(samples) == 0
    assert report.dropped_missing_future == len(scored_days(series))


def test_build_samples_from_fewer_days_than_a_window_is_empty():
    samples, report = build_samples(series_fixture(days=100), statics_fixture())
    assert samples.x.shape == (0, 180, 4)
    assert report.built == 0 and report.dropped == len(scored_days(series_fixture(days=100)))


def test_build_samples_previous_year_identity():
    days = 600
    t = np.arange(days, dtype=float)
    values = np.stack([t, 10 * t], axis=1)  # channel value == day index
    series = series_fixture(days=days, values=values, score_every=7, first_score_day=545)
    statics = statics_fixture()
    samples, _ = build_samples(series, statics)
    assert samples
    anchor_idx = (samples.anchor[0] - series.first_day[0]).astype(int)
    x = samples.x[0]
    np.testing.assert_array_equal(x[:, 0], np.arange(anchor_idx - 180, anchor_idx))
    np.testing.assert_array_equal(x[:, 2], x[:, 0] - 365)


def test_build_samples_never_reads_anchor_or_future():
    days = 600
    values = np.zeros((days, 2))
    series = series_fixture(days=days, values=values, score_every=7, first_score_day=545)
    statics = statics_fixture()
    sentinel = 12345.0
    for idx in scored_days(series):
        series.measurements[idx:, :] = sentinel
        samples, _ = build_samples(series, statics)
        assert not (samples.x[samples.anchor == series.first_day[0] + idx] == sentinel).any()
        series.measurements[:] = 0.0


def test_build_samples_next_phase_shifts_targets():
    series = series_fixture(days=620, score_every=7, first_score_day=540)
    statics = statics_fixture()
    anchor_samples, _ = build_samples(series, statics, target_phase="anchor")
    next_samples, _ = build_samples(series, statics, target_phase="next")
    by_date = dict(zip(next_samples.anchor.tolist(), next_samples.y))
    for anchor, y in zip(anchor_samples.anchor.tolist(), anchor_samples.y):
        shifted = by_date.get(anchor)
        if shifted is not None:
            np.testing.assert_array_equal(shifted[:5], y[1:])


def test_build_samples_missing_statics_is_error():
    series = series_fixture(days=600)
    with pytest.raises(DataError, match="static"):
        build_samples(series, statics_fixture("30002"))


def sample_set(x, s_n, s_d=None, y=None, fips=None):
    """A SampleSet around the given windows and numeric statics."""
    n = x.shape[0]
    return window_set(
        x, s_n,
        np.ones((n, 1), dtype=np.int64) if s_d is None else s_d,
        np.zeros((n, 6)) if y is None else y,
        np.array(fips if fips is not None else ["19001"] * n, dtype=str),
        np.full(n, np.datetime64("2020-01-01", "D")),
    )


def test_normalizer_two_point_channel():
    x = np.array([[0.0, 5.0, 0.0, 5.0], [2.0, 5.0, 2.0, 5.0]])
    s = sample_set(x[None], np.array([[1.0]]))
    norm = fit_normalizer(s, ["chan0", "chan1"], ["elev"])
    norm.apply(s)
    np.testing.assert_allclose(s.x[0, :, 0], [-1.0, 1.0])
    # constant channel untouched, std recorded as 1
    np.testing.assert_allclose(s.x[0, :, 1], [0.0, 0.0])
    assert norm.channel_std[1] == 1.0


def test_normalizer_train_stats_and_round_trip():
    """``apply`` normalizes the set's own day table and statics in place and
    leaves the targets and the other columns as they were."""
    rng = np.random.default_rng(0)
    samples = sample_set(rng.normal(2.0, 3.0, (20, 10, 6)), rng.normal(size=(20, 2)),
                         y=rng.uniform(0, 5, (20, 6)))
    days, s_n, s_d, y = samples.days, samples.s_n, samples.s_d, samples.y
    raw_x, raw_y, raw_s_d = samples.x, y.copy(), s_d.copy()
    norm = fit_normalizer(samples, ["chan0", "chan1", "chan2"], ["elev", "slope"])
    assert norm.apply(samples) is None
    assert all(a is b for a, b in zip((samples.days, samples.s_n, samples.s_d, samples.y),
                                      (days, s_n, s_d, y)))  # no new arrays
    x = samples.x
    pooled = x.reshape(20, 10, 2, 3).reshape(-1, 3)
    np.testing.assert_allclose(pooled.mean(axis=0), 0.0, atol=1e-9)
    np.testing.assert_allclose(pooled.std(axis=0), 1.0, atol=1e-6)
    np.testing.assert_allclose(s_n.mean(axis=0), 0.0, atol=1e-9)
    # targets and codes untouched
    np.testing.assert_array_equal(y, raw_y)
    np.testing.assert_array_equal(s_d, raw_s_d)
    round_trip = x.reshape(20, 10, 2, 3) * norm.channel_std + norm.channel_mean
    np.testing.assert_allclose(round_trip.reshape(20, 10, 6), raw_x, atol=1e-12)


def _pooled_statistics(x):
    """numpy's mean and std over one pooled copy of every current- and
    year-earlier row of the windows ``x`` (N, T, 2M); a zero std reads 1."""
    channels = x.shape[2] // 2
    pooled = np.concatenate([x[:, :, :channels], x[:, :, channels:]]).reshape(-1, channels)
    mean, std = pooled.mean(axis=0), pooled.std(axis=0)
    std[std == 0.0] = 1.0
    return mean, std


def _table_set(days, steps, start, seed=0):
    """A SampleSet of the windows at ``start`` (N, 2) over the table ``days``."""
    n = len(start)
    s_n = np.random.default_rng(seed).normal(size=(n, 2))
    return SampleSet(days, steps, start, s_n, np.ones((n, 1), dtype=np.int64), np.zeros((n, 6)),
                     np.array(["19001"] * n), np.full(n, np.datetime64("2020-01-01", "D")))


def _assert_pooled_statistics(norm, x):
    mean, std = _pooled_statistics(x)
    np.testing.assert_allclose(norm.channel_mean, mean, rtol=1e-12)
    np.testing.assert_allclose(norm.channel_std, std, rtol=1e-12)


@pytest.mark.parametrize("channels", [1, 3])
def test_normalizer_matches_the_pooled_copy_of_separate_windows(channels):
    """Several hundred samples with magnitudes from 1e-6 to 1e8, each
    window its own rows of the table, and a constant channel: the statistics
    are numpy's mean and std of one pooled copy, and the normalized windows
    that copy normalized, to 1e-12; the constant channel's std is 1."""
    rng = np.random.default_rng(9)
    n, steps = 7 * 64 + 13, 9
    x = rng.normal(3.0, 7.0, (n, steps, 2 * channels)) * rng.choice([1e-6, 1.0, 1e4, 1e8],
                                                                    (n, 1, 1))
    if channels > 1:
        x[:, :, [1, 1 + channels]] = 2.5
    samples = sample_set(x, rng.normal(size=(n, 2)))
    norm = fit_normalizer(samples, [f"chan{c}" for c in range(channels)], ["elev", "slope"])
    _assert_pooled_statistics(norm, x)
    if channels > 1:
        assert (norm.channel_mean[1], norm.channel_std[1]) == (2.5, 1.0)
    mean, std = _pooled_statistics(x)
    norm.apply(samples)
    expected = (x.reshape(n, steps, 2, channels) - mean) / std
    np.testing.assert_allclose(samples.x, expected.reshape(x.shape), rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("channels, steps", [(1, 1), (1, 40), (3, 1), (3, 40)])
def test_normalizer_matches_the_pooled_copy_of_overlapping_windows(channels, steps):
    """Windows that overlap, each other and their own year-earlier halves,
    and repeat, over one table: a day weighs as many times as windows cover
    it, as in the pooled copy of their rows, T=1 included."""
    rng = np.random.default_rng(steps * channels)
    days = rng.normal(-4.0, 3.0, (300, channels)) * rng.choice([1e-3, 1.0, 1e6], (300, 1))
    if channels > 1:
        days[:, 2] = 2.5
    start = rng.integers(0, 300 - steps + 1, (500, 2))
    start[::7] = start[1::7][:len(start[::7])]  # repeated samples
    samples = _table_set(days, steps, start)
    norm = fit_normalizer(samples, [f"chan{c}" for c in range(channels)], ["elev", "slope"])
    _assert_pooled_statistics(norm, samples.x)
    if channels > 1:
        assert (norm.channel_mean[2], norm.channel_std[2]) == (2.5, 1.0)
    np.testing.assert_array_equal(norm.static_mean, samples.s_n.mean(axis=0))


@pytest.mark.parametrize("channels", [1, 3])
def test_normalizer_statistics_ignore_the_rows_of_other_splits(channels):
    """Fitted on the training rows of a set that shares its table with the
    validation and test rows, the statistics are those of the training
    windows' pooled copy, and days that only the other rows' windows cover
    do not move them by a bit; normalizing the whole table, then selecting
    the training rows, gives their windows normalized."""
    rng = np.random.default_rng(11)
    steps = 7
    days = rng.normal(3.0, 7.0, (400, channels)) * rng.choice([1e-6, 1.0, 1e8], (400, 1))
    # training windows start in rows 0..243, held-out ones anywhere
    train, held_out = np.split(rng.permutation(320), [250])
    first = rng.integers(0, 400 - steps + 1, 320)
    first[train] = rng.integers(0, 250 - steps + 1, 250)
    samples = _table_set(days, steps, np.stack([first, np.maximum(first - 50, 0)], axis=1))
    names = [f"chan{c}" for c in range(channels)], ["elev", "slope"]
    norm = fit_normalizer(samples[train], *names)
    x = samples[train].x
    _assert_pooled_statistics(norm, x)
    np.testing.assert_array_equal(norm.static_mean, samples.s_n[train].mean(axis=0))

    covered = np.zeros(len(days), bool)
    for row in samples.start[train].ravel():
        covered[row:row + steps] = True
    assert np.isin(np.flatnonzero(~covered), samples[held_out].start[:, :, None]
                   + np.arange(steps)).sum() > 100  # days only held-out windows cover
    samples.days[~covered] = 1e12
    again = fit_normalizer(samples[train], *names)
    for field in ("channel_mean", "channel_std", "static_mean", "static_std"):
        np.testing.assert_array_equal(getattr(again, field), getattr(norm, field))

    norm.apply(samples)
    mean, std = _pooled_statistics(x)
    expected = (x.reshape(len(train), steps, 2, channels) - mean) / std
    np.testing.assert_allclose(samples[train].x, expected.reshape(x.shape), rtol=1e-9,
                               atol=1e-12)


def test_normalizer_save_load(tmp_path):
    x = np.array([[0.0, 5.0, 0.0, 5.0], [2.0, 6.0, 2.0, 6.0]])
    s = sample_set(x[None], np.array([[1.0, 4.0]]))
    norm = fit_normalizer(s, ["precip", "temp"], ["elev", "slope"])
    path = tmp_path / "stats.csv"
    norm.save(path)
    loaded = load_normalizer(path)
    np.testing.assert_array_equal(loaded.channel_mean, norm.channel_mean)
    np.testing.assert_array_equal(loaded.static_std, norm.static_std)
    assert loaded.channel_names == ["precip", "temp"]


def test_fit_normalizer_empty_is_error():
    with pytest.raises(DataError):
        fit_normalizer(sample_set(np.zeros((0, 4, 2)), np.zeros((0, 1))), ["chan0"], ["elev"])


def test_filter_by_state():
    fips = np.array(["19001", "30001", "19002"])
    assert filter_by_state(fips, ["19"]).tolist() == [0, 2]
    assert filter_by_state(fips, ["19", "30"]).tolist() == [0, 1, 2]
    assert filter_by_state(fips, []).size == 0
    assert filter_by_state(fips, ["48"]).size == 0


def test_kfold_partition_and_determinism():
    folds = kfold_split(10, k=5, seed=3)
    assert len(folds) == 5
    seen = []
    for train, val in folds:
        assert len(val) == 2
        assert len(train) == 8
        assert not set(train) & set(val)
        seen.extend(val.tolist())
    assert sorted(seen) == list(range(10))
    again = kfold_split(10, k=5, seed=3)
    for (t1, v1), (t2, v2) in zip(folds, again):
        np.testing.assert_array_equal(v1, v2)
        np.testing.assert_array_equal(t1, t2)


def test_kfold_leave_one_out_and_errors():
    folds = kfold_split(3, k=3, seed=0)
    assert all(len(v) == 1 for _, v in folds)
    with pytest.raises(ConfigError):
        kfold_split(3, k=4, seed=0)
    with pytest.raises(ConfigError):
        kfold_split(3, k=1, seed=0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=8, max_value=60), st.integers(min_value=2, max_value=8),
       st.integers(min_value=0, max_value=10_000))
def test_kfold_partition_property(n, k, seed):
    """Each fold's (train, val) pair, the validation folds together, and the
    holdout split each partition ``range(n)`` exactly."""
    folds = kfold_split(n, k=k, seed=seed)
    all_val = np.concatenate([val for _, val in folds])
    assert sorted(all_val.tolist()) == list(range(n))
    for train, val in folds:
        assert sorted(np.concatenate([train, val]).tolist()) == list(range(n))
    train, val, test = split_fractions(n, 0.2, 0.3, seed=seed)
    assert sorted(np.concatenate([train, val, test]).tolist()) == list(range(n))


def _cache_set(n, t=3, width=4, f_n=2, f_d=1, seed=0):
    rng = np.random.default_rng(seed)
    return window_set(
        rng.normal(size=(n, t, width)), rng.normal(size=(n, f_n)),
        rng.integers(0, 9, (n, f_d)), rng.uniform(0, 5, (n, 6)),
        np.array([f"{19000 + i}" if i % 3 else f"é{i},\"x\"" for i in range(n)], dtype=str),
        np.datetime64("2020-02-03", "D") + np.arange(n) * 7,
    )


def _assert_same_set(a, b):
    assert a.steps == b.steps
    for name in ("x", "days", "start", "s_n", "s_d", "y", "fips", "anchor"):
        left, right = getattr(a, name), getattr(b, name)
        assert left.shape == right.shape, name
        assert left.dtype.kind == right.dtype.kind, name
        np.testing.assert_array_equal(left, right, err_msg=name)


def test_sample_cache_round_trip(tmp_path):
    path = tmp_path / "cache.bin"
    for n in (0, 1, 5):  # an empty set keeps its column shapes
        samples = _cache_set(n, seed=n)
        save_samples(samples, path)
        loaded = load_samples(path)
        _assert_same_set(loaded, samples)
        loaded.y[...] = 1.0  # columns are writable, like freshly built ones
    blob = path.read_bytes()
    # magic, pad byte, a 56-byte header of seven uint64 (N, T, M, D, f_n, f_d,
    # the FIPS width), then the (D, M) day table from byte 72, then start (N, 2)
    assert blob[:16] == b"HMSAMP4\0" + struct.pack("<Q", 56)
    assert struct.unpack_from("<7Q", blob, 16) == (5, 3, 2, 30, 2, 1, 6)
    assert blob[72:72 + 8 * 60] == samples.days.astype("<f8").tobytes()
    assert blob[72 + 8 * 60:72 + 8 * 70] == samples.start.astype("<i8").tobytes()
    assert sorted(tmp_path.iterdir()) == [path]  # the temporary file was renamed into place
    assert loaded.fips[1] == "19001"
    assert loaded.anchor[0] == np.datetime64("2020-02-03")

    truncated = path.read_bytes()[:-5]
    bad = tmp_path / "bad.bin"
    bad.write_bytes(truncated)
    with pytest.raises(FormatError):
        load_samples(bad)


def test_sample_cache_of_a_selection_holds_its_rows_and_the_whole_table(tmp_path):
    """A selection of rows is written with the day table it shares, whole,
    and its own start rows; an empty selection with no row of the table."""
    samples = _cache_set(600, t=2)
    path = tmp_path / "selection"
    for index in (np.random.default_rng(3).permutation(600)[:5 * 64 + 5],
                  np.array([1, 2])):
        save_samples(samples[index], path)
        loaded = load_samples(path)
        _assert_same_set(loaded, samples[index])
        assert struct.unpack_from("<7Q", path.read_bytes(), 16)[:4] == (len(index), 2, 2, 2400)
    save_samples(samples[:0], path)
    assert struct.unpack_from("<7Q", path.read_bytes(), 16)[:4] == (0, 2, 2, 0)
    assert path.stat().st_size == 72  # the header alone
    _assert_same_set(load_samples(path), _cache_set(0, t=2))


def test_sample_cache_truncation_and_trailing_bytes(tmp_path):
    path = tmp_path / "c.samples"
    save_samples(_cache_set(2, t=2, width=2, f_n=1), path)
    blob = path.read_bytes()
    bad = tmp_path / "bad.samples"
    for cut in range(len(blob)):
        bad.write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            load_samples(bad)
    for extra in (b"\0", b"x"):
        bad.write_bytes(blob + extra)
        with pytest.raises(FormatError, match="trailing"):
            load_samples(bad)


@pytest.mark.parametrize("version", [b"HMSAMP1", b"HMSAMP2", b"HMSAMP3"])
def test_sample_cache_old_version_is_named(tmp_path, version):
    path = tmp_path / "c.samples"
    save_samples(_cache_set(2), path)
    old = tmp_path / "old.samples"
    old.write_bytes(version + path.read_bytes()[7:])
    with pytest.raises(FormatError, match=f"'{version.decode()}' is not supported "
                                          f".*HMSAMP4.*re-run ingest"):
        load_samples(old)


def _with_cache_header(blob: bytes, header: bytes) -> bytes:
    """A sample cache with its 56-byte header replaced by ``header``."""
    return blob[:8] + struct.pack("<Q", len(header)) + header + blob[72:]


# the cache of _cache_set(2): N=2, T=3, M=2, a 12-day table, f_n=2, f_d=1, six characters
@pytest.mark.parametrize("header, message", [
    (struct.pack("<6Q", 2, 3, 2, 12, 2, 1), "corrupt sample cache header \\(48 bytes\\)"),
    (struct.pack("<8Q", 2, 3, 2, 12, 2, 1, 6, 0), "corrupt sample cache header \\(64 bytes\\)"),
    (struct.pack("<7Q", 3, 3, 2, 12, 2, 1, 6), "truncated sample cache"),
    (struct.pack("<7Q", 2, 3, 2, 11, 2, 1, 6), "trailing bytes in sample cache"),
    (struct.pack("<7Q", 2, 3, 2, 12, 2, 1, 2 ** 40), "corrupt sample cache header"),
    (struct.pack("<7Q", 2, 0, 2, 12, 2, 1, 6), "corrupt sample cache header \\(T=0, M=2\\)"),
    (struct.pack("<7Q", 2, 3, 0, 12, 2, 1, 6), "corrupt sample cache header \\(T=3, M=0\\)"),
    (struct.pack("<7Q", 2, 13, 2, 12, 2, 1, 6), "a 13-day window leaves its 12-day table"),
])
def test_corrupt_sample_cache_header_raises_format_error(tmp_path, header, message):
    path = tmp_path / "c.samples"
    save_samples(_cache_set(2), path)
    bad = tmp_path / "bad.samples"
    bad.write_bytes(_with_cache_header(path.read_bytes(), header))
    with pytest.raises(FormatError, match=message):
        load_samples(bad)


@pytest.mark.parametrize("start", [-1, 10, 2 ** 40, -2 ** 63])
def test_sample_cache_window_outside_its_table_raises_format_error(tmp_path, start):
    """A start row that puts a window outside the day table (T=3 in a
    12-day table: rows 0..9 start one) is a ``FormatError``, not an
    ``IndexError`` or another sample's days; the last legal start loads."""
    path = tmp_path / "c.samples"
    samples = _cache_set(2)
    save_samples(samples, path)
    blob = bytearray(path.read_bytes())
    offset = 72 + samples.days.nbytes + 8 * 3  # start[1, 1]
    struct.pack_into("<q", blob, offset, 9)
    path.write_bytes(blob)
    assert load_samples(path).x.shape == (2, 3, 4)
    struct.pack_into("<q", blob, offset, start)
    path.write_bytes(blob)
    with pytest.raises(FormatError, match="a 3-day window leaves its 12-day table"):
        load_samples(path)


def _eval_predictions(n, t, seed=0):
    rng = np.random.default_rng(seed)
    return EvalPredictions(rng.uniform(0, 5, (n, 6)), rng.dirichlet(np.ones(t), n) if t else None,
                           bytes(range(32)), bytes(range(32, 64)))


@pytest.mark.parametrize("t", [7, 0])
def test_eval_predictions_round_trip(tmp_path, t):
    path = tmp_path / "predictions.bin"
    saved = _eval_predictions(5, t)
    saved.save(path)
    loaded = EvalPredictions.load(path)
    np.testing.assert_array_equal(loaded.predictions, saved.predictions)
    if t:
        np.testing.assert_array_equal(loaded.attention, saved.attention)
    else:
        assert loaded.attention is None
    assert (loaded.checkpoint_sha256, loaded.samples_sha256) == (bytes(range(32)),
                                                                 bytes(range(32, 64)))
    blob = path.read_bytes()
    # magic, pad byte, an 80-byte header (N, T, two digests), then the arrays from byte 96
    assert blob[:16] == b"HMPRED1\0" + struct.pack("<Q", 80)
    assert blob[16:96] == struct.pack("<2Q", 5, t) + bytes(range(64))
    arrays = saved.predictions.tobytes() + (saved.attention.tobytes() if t else b"")
    assert blob[96:] == arrays
    assert sorted(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("header, message", [
    (struct.pack("<2Q", 5, 7) + bytes(56), "corrupt eval predictions header \\(72 bytes\\)"),
    (struct.pack("<2Q", 5, 7) + bytes(72), "corrupt eval predictions header \\(88 bytes\\)"),
    (struct.pack("<2Q", 6, 7) + bytes(64), "truncated eval predictions"),
    (struct.pack("<2Q", 5, 0) + bytes(64), "trailing bytes in eval predictions"),
])
def test_corrupt_eval_predictions_header_raises_format_error(tmp_path, header, message):
    path = tmp_path / "predictions.bin"
    _eval_predictions(5, 7).save(path)
    blob = path.read_bytes()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(blob[:8] + struct.pack("<Q", len(header)) + header + blob[96:])
    with pytest.raises(FormatError, match=re.escape(str(bad)) + ": " + message):
        EvalPredictions.load(bad)


LOADERS = {b"HMSAMP4": load_samples, b"HMCKPT3": load_checkpoint,
           b"HMPRED1": EvalPredictions.load}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A directory holding one ~100 KB file of each binary format, named by
    its magic."""
    root = tmp_path_factory.mktemp("artifacts")
    save_samples(_cache_set(300, t=8), root / "HMSAMP4")
    config = ModelConfig(input_channels=4, numeric_static_count=2,
                         categorical_vocab_sizes=[3, 5], lstm_layers=2, hidden_size=16,
                         embed_dim=4, reduced_dim=2, mlp_layers=2, mlp_hidden=256)
    save_checkpoint(HybridModel.build(config, AblationConfig(), seed=1), root / "HMCKPT3")
    _eval_predictions(300, 40).save(root / "HMPRED1")
    return root


# a byte from anywhere, or one that keeps a text header's numbers numbers
HEADER_BYTES = st.one_of(st.integers(0, 255), st.sampled_from(b"0123456789"))


@settings(max_examples=60, deadline=None)
@given(magic=st.sampled_from(sorted(LOADERS)),
       edits=st.lists(st.tuples(st.floats(0, 1, exclude_max=True), HEADER_BYTES), max_size=4),
       length=st.one_of(st.none(), st.integers(0, 2 ** 64 - 1)), shift=st.integers(-16, 16))
def test_a_mutated_header_loads_or_raises_a_typed_error(artifacts, magic, edits, length, shift):
    """Header bytes overwritten, and the header length set to any uint64 or
    moved by up to 16 bytes: the load returns or raises a
    ``DroughtcastError``, and its allocations peak at a small multiple of
    the file size, so no header makes it allocate what the file does not
    hold."""
    blob = bytearray((artifacts / magic.decode()).read_bytes())
    (real,) = struct.unpack_from("<Q", blob, 8)
    for where, value in edits:
        blob[16 + int(where * real)] = value
    struct.pack_into("<Q", blob, 8, max(real + shift, 0) if length is None else length)
    path = artifacts / "mutated"
    path.write_bytes(blob)
    tracemalloc.start()
    try:
        LOADERS[magic](path)
    except DroughtcastError:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak <= 4 * len(blob)


@pytest.mark.parametrize("size", [0, 1, 4096, 3 * 4096 + 5])
def test_read_artifact_returns_the_digest_of_the_file_it_read_once(tmp_path, monkeypatch,
                                                                    size):
    """The digest of an artifact with a payload of any length is that of
    the whole file, taken from the one read that also yields the arrays."""
    path = tmp_path / "blob.bin"
    payload = np.frombuffer(np.random.default_rng(size).bytes(size), np.uint8)
    write_artifact(path, b"TESTFMT", b"head", [payload])
    expected = hashlib.sha256(path.read_bytes()).digest()
    opened = spy_opens(monkeypatch)
    header, read, sha256 = read_artifact(path, b"TESTFMT", "test artifact", "rewrite it")
    assert (header, sha256, opened) == (b"head", expected, [path])
    np.testing.assert_array_equal(read([("u1", (size,))])[0], payload)


@pytest.mark.parametrize("swapped_size", [3, 300])
def test_read_artifact_sizes_its_buffer_from_the_open_file(tmp_path, monkeypatch,
                                                           swapped_size):
    """A file of another size renamed into place (as ``write_file`` does)
    just before the open is read whole and digested as read, not sized by
    the path's old length."""
    path, swapped = tmp_path / "a.bin", tmp_path / "a.bin.tmp"
    write_artifact(path, b"TESTFMT", b"old", [np.arange(30.0)])
    write_artifact(swapped, b"TESTFMT", b"new", [np.arange(float(swapped_size))])
    expected = hashlib.sha256(swapped.read_bytes()).digest()

    def swap(opened):
        if opened == path:
            swapped.replace(path)

    spy_opens(monkeypatch, swap)
    header, read, sha256 = read_artifact(path, b"TESTFMT", "test artifact", "rewrite it")
    np.testing.assert_array_equal(read([("<f8", (swapped_size,))])[0], np.arange(swapped_size))
    assert (header, sha256) == (b"new", expected)


def test_read_artifact_raises_on_a_short_read(tmp_path, monkeypatch):
    """A file cut short between sizing the buffer and reading it raises
    ``FormatError`` instead of leaving zeros at the end of the buffer."""
    path = tmp_path / "a.bin"
    write_artifact(path, b"TESTFMT", b"head", [np.arange(30.0)])
    size = path.stat().st_size

    def cut_before_reading(fh):
        readinto = fh.readinto
        fh.readinto = lambda buffer: os.truncate(path, size - 8) or readinto(buffer)
        return fh

    spy_opens(monkeypatch, lambda opened: cut_before_reading)
    with pytest.raises(FormatError, match=re.escape(f"{path}: truncated test artifact")):
        read_artifact(path, b"TESTFMT", "test artifact", "rewrite it")


def test_artifact_write_that_fails_leaves_the_old_file(tmp_path):
    """A binary or a text write that fails part-way leaves the old file and
    no temporary file."""
    path = tmp_path / "a.bin"
    write_artifact(path, b"TESTFMT", b"old", [np.arange(3.0)])

    def columns():
        yield np.zeros(3)
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        write_artifact(path, b"TESTFMT", b"new", columns())
    assert sorted(tmp_path.iterdir()) == [path]  # the temporary file is gone
    header, read, _ = read_artifact(path, b"TESTFMT", "test artifact", "rewrite it")
    assert header == b"old"
    np.testing.assert_array_equal(read([("<f8", (3,))])[0], np.arange(3.0))

    text = tmp_path / "a.csv"
    write_file(text, ["label\nseñal\n"])
    with pytest.raises(UnicodeEncodeError):
        write_file(text, ["label\n", "\ud800\n"])  # a lone surrogate has no UTF-8
    assert sorted(tmp_path.iterdir()) == [path, text]
    assert text.read_bytes() == "label\nseñal\n".encode("utf-8")


def test_write_file_writes_text_as_utf8_and_bytes_unchanged(tmp_path):
    """Text is UTF-8 with its line ends kept (the ASCII-locale CLI chain in
    test_cli covers "whatever the locale"); bytes, arrays included, are
    written as given; the digest returned is that of the bytes written."""
    path = tmp_path / "mixed"
    digest = write_file(path, ["ñ,a\r\nb\n", b"\x00\xff", np.array([1], "<u2")])
    assert path.read_bytes() == b"\xc3\xb1,a\r\nb\n\x00\xff\x01\x00"
    assert digest == hashlib.sha256(path.read_bytes()).digest()


WRITE_METHODS = {"write_text", "write_bytes"}


def _open_mode(call: ast.Call) -> tuple[str | None, str]:
    """The mode of an ``open`` call ("r" when none is given) as a string,
    ``None`` when it is not a literal, and as written."""
    # Path.open(mode) takes the mode first, the builtin open(file, mode) second
    position = 0 if isinstance(call.func, ast.Attribute) else 1
    modes = [k.value for k in call.keywords if k.arg == "mode"] + call.args[position:position + 1]
    mode = modes[0] if modes else ast.Constant("r")
    literal = isinstance(mode, ast.Constant) and isinstance(mode.value, str)
    return mode.value if literal else None, ast.unparse(mode)


def _write_calls(tree: ast.AST):
    """(line, what) of every call in ``tree`` that writes a file by other
    means than ``write_file``: ``write_text``, ``write_bytes``, or an
    ``open`` whose mode is not a literal without "w", "a", "x" or "+"."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in WRITE_METHODS:
            yield node.lineno, name
        elif name == "open":
            mode, text = _open_mode(node)
            if mode is None or set(mode) & set("wax+"):
                yield node.lineno, f"open({text})"


def test_write_file_is_the_only_writer_in_the_package():
    """Every file the package writes goes through ``data.write_file``."""
    found = []
    for module in sorted(Path(data.__file__).parent.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        if module.name == "data.py":
            writer = next(node for node in tree.body
                          if isinstance(node, ast.FunctionDef) and node.name == "write_file")
            assert list(_write_calls(writer)) != []  # the guard sees its one open
            tree.body.remove(writer)
        found += [f"{module.name}:{line}: {what}" for line, what in _write_calls(tree)]
    assert found == []


def test_write_guard_flags_each_way_of_writing():
    source = """
path.write_text(text)
path.write_bytes(blob)
open(name, "w")
open(name, mode="ab")
path.open("r+b")
path.open(mode)
open(name)
path.open("rb")
open(name, "r", encoding="utf-8")
"""
    assert [line for line, _ in _write_calls(ast.parse(source))] == [2, 3, 4, 5, 6, 7]


def _byte_reads(node: ast.AST, scope: str = ""):
    """(enclosing def, line, kind, what) of every place under ``node`` that
    hashes (kind "hashlib": a call of a ``hashlib`` function, or an import
    from it) or reads a file's bytes (kind "read": ``read_bytes``, or an
    ``open`` whose mode is not a literal, or is binary and can read)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _byte_reads(child, f"{scope}.{child.name}".lstrip("."))
            continue
        if isinstance(child, ast.ImportFrom) and child.module == "hashlib":
            yield scope, child.lineno, "hashlib", "from hashlib import"
        elif isinstance(child, ast.Call):
            func = child.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "hashlib":
                yield scope, child.lineno, "hashlib", f"hashlib.{name}"
            elif name == "read_bytes":
                yield scope, child.lineno, "read", name
            elif name == "open":
                mode, text = _open_mode(child)
                if mode is None or "b" in mode and ("r" in mode or "+" in mode):
                    yield scope, child.lineno, "read", f"open({text})"
        yield from _byte_reads(child, scope)


# where each kind of byte read is allowed: the artifact reader, the writer's
# digest of the bytes it streams, and the RNG's stream keys
BYTE_READERS = {("data.py", "read_artifact"): {"hashlib", "read"},
                ("data.py", "write_file"): {"hashlib"},
                ("autodiff.py", "RngState.split"): {"hashlib"}}


def test_read_artifact_is_the_only_reader_of_bytes_in_the_package():
    """Every binary file the package reads is read, and digested, by
    ``data.read_artifact``; ``data.write_file`` digests the bytes it writes,
    so that a writer needs no read-back; the one other hash keys the RNG
    streams."""
    found, seen = [], set()
    for module in sorted(Path(data.__file__).parent.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        for scope, line, kind, what in _byte_reads(tree):
            if kind in BYTE_READERS.get((module.name, scope), ()):
                seen.add((module.name, scope, kind))
            else:
                found.append(f"{module.name}:{line}: {what} in {scope or 'module'}")
    assert found == []
    # the guard sees each allowed read
    assert seen == {(*where, kind) for where, kinds in BYTE_READERS.items() for kind in kinds}


def test_read_guard_flags_each_way_of_reading_or_hashing():
    source = """
hashlib.sha256(blob).digest()
from hashlib import sha256
path.read_bytes()
open(name, "rb")
path.open(mode="rb")
path.open(mode)
path.open("r+b")
class Reader:
    def load(self):
        return hashlib.md5()
path.open("wb")
open(name, "w+b")
open(name)
path.open("r", encoding="utf-8")
path.read_text()
import hashlib
"""
    assert [(scope, line) for scope, line, _, _ in _byte_reads(ast.parse(source))] == [
        ("", 2), ("", 3), ("", 4), ("", 5), ("", 6), ("", 7), ("", 8), ("Reader.load", 11),
        ("", 13)]


def test_sample_set_slicing_and_concatenation():
    samples = _cache_set(6)
    head, tail = samples[:2], samples[np.array([5, 3])]
    both = head + tail
    assert len(both) == 4
    np.testing.assert_array_equal(both.x, samples.x[[0, 1, 5, 3]])
    np.testing.assert_array_equal(both.fips, samples.fips[[0, 1, 5, 3]])
    with pytest.raises(TypeError):
        samples[0]


def test_joining_sets_with_their_own_tables_gathers_their_windows_in_order():
    """``a + b`` over two distinct tables gathers the windows of ``a``,
    then those of ``b``, and keeps every other column; sets of another
    window length or channel count do not join."""
    a, b = _cache_set(4, seed=1), _cache_set(3, t=3, seed=2)
    both = a + b
    assert len(both.days) == len(a.days) + len(b.days)
    np.testing.assert_array_equal(both.x, np.concatenate([a.x, b.x]))
    for name in ("s_n", "s_d", "y", "fips", "anchor"):
        np.testing.assert_array_equal(getattr(both, name),
                                      np.concatenate([getattr(a, name), getattr(b, name)]))
    np.testing.assert_array_equal((both + a[:0]).x, both.x)
    for other in (_cache_set(2, t=4), _cache_set(2, width=6)):
        with pytest.raises(DataError, match="cannot join"):
            a + other


def test_locexp_and_cv_selections_gather_the_rows_of_the_windows(tmp_path):
    """The per-state selection of ``locexp`` and the folds of ``cv``'s
    pooled train and validation sets gather the windows that the same
    index into the whole windows picks."""
    ts_path, statics_path = make_dataset(tmp_path, n_counties=4, days=700, channels=2, seed=6)
    statics, _ = load_statics(statics_path, ["soil_quality", "texture"])
    samples, _ = build_samples(load_timeseries(ts_path), statics, window_days=30)
    windows = samples.x
    states = sorted({code[:2] for code in samples.fips.tolist()})
    assert len(states) > 1
    for state in states:
        rows = filter_by_state(samples.fips, [state])
        np.testing.assert_array_equal(samples[rows].x, windows[rows])
    train, val = samples[::2], samples[1::2]
    pool = train + val
    pooled = np.concatenate([windows[::2], windows[1::2]])
    for fit_rows, val_rows in kfold_split(len(pool), k=3, seed=2):
        np.testing.assert_array_equal(pool[fit_rows].x, pooled[fit_rows])
        np.testing.assert_array_equal(pool[val_rows].x, pooled[val_rows])


def _traced_peak(action) -> int:
    """The tracemalloc peak, in bytes, of calling ``action()``."""
    tracemalloc.start()
    try:
        action()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_no_operation_materializes_every_window_of_a_set():
    """200,000 overlapping T=180 windows over a 2,000-day table, 1.15 GB as
    windows: length, slices, the checks, fitting and applying a normalizer
    and a prediction over a 256-row slice each allocate well under 10 MB,
    and joining two halves allocates their columns, not their windows."""
    rng = np.random.default_rng(5)
    n, steps = 200_000, 180
    samples = _table_set(rng.normal(size=(2_000, 2)), steps,
                         rng.integers(0, 2_000 - steps + 1, (n, 2)))
    assert n * steps * samples.width * 8 > 1.1e9
    config = ModelConfig(input_channels=4, numeric_static_count=2, categorical_vocab_sizes=[2],
                         hidden_size=4, embed_dim=2, reduced_dim=1, mlp_hidden=4)
    model = HybridModel(config, AblationConfig(), seed=0)
    norm = fit_normalizer(samples[:1000], ["chan0", "chan1"], ["elev", "slope"])
    for action in (lambda: len(samples), lambda: samples[n // 4:], lambda: samples[:256].x,
                   lambda: model.check(samples),
                   lambda: fit_normalizer(samples, ["chan0", "chan1"], ["elev", "slope"]),
                   lambda: norm.apply(samples),
                   lambda: predict(model, samples[1000:1256])):
        assert _traced_peak(action) < 10e6
    half = samples[:n // 2]
    columns = sum(column.nbytes for column in half._columns()) * 2
    assert _traced_peak(lambda: half + samples[n // 2:]) < columns + 2e6


def test_split_fractions_partition():
    train, val, test = split_fractions(20, 0.2, 0.2, seed=1)
    assert len(val) == 4 and len(test) == 4 and len(train) == 12
    assert sorted(np.concatenate([train, val, test]).tolist()) == list(range(20))


def test_synthetic_end_to_end(tmp_path):
    ts_path, statics_path = make_dataset(tmp_path, n_counties=4, days=700, channels=2, seed=5)
    series = load_timeseries(ts_path)
    statics, encoder = load_statics(statics_path, ["soil_quality", "texture"])
    samples, report = build_samples(series, statics)
    assert report.built == len(samples) > 0
    assert samples.x.shape[1:] == (180, 4)
    assert ((0.0 <= samples.y) & (samples.y <= 5.0)).all()
    assert encoder.vocab_sizes[0] >= 2


def test_build_samples_matches_per_sample_reference(tmp_path):
    ts_path, statics_path = make_dataset(tmp_path, n_counties=3, days=640, channels=2, seed=8)
    series = load_timeseries(ts_path)
    statics, _ = load_statics(statics_path, ["soil_quality", "texture"])
    for phase in ("anchor", "next"):
        samples, _ = build_samples(series, statics, window_days=20, target_phase=phase)
        rows = []
        for c, fips in enumerate(series.fips.tolist()):
            m = series.measurements[series.start[c]:series.start[c + 1]]
            scores = series.scores[series.start[c]:series.start[c + 1]]
            days = np.flatnonzero(~np.isnan(scores)).tolist()
            for pos, ti in enumerate(days):
                start = pos if phase == "anchor" else pos + 1
                targets = days[start:start + 6]
                if len(targets) < 6 or ti < 20 + 365:
                    continue
                x = np.concatenate([m[ti - 20:ti], m[ti - 20 - 365:ti - 365]], axis=1)
                anchor = series.first_day[c].item() + timedelta(days=ti)
                s_n = statics.numeric[statics.fips.tolist().index(fips)]
                rows.append((fips, anchor, x, [scores[d] for d in targets], s_n))
        assert samples.fips.tolist() == [r[0] for r in rows]
        assert samples.anchor.tolist() == [r[1] for r in rows]
        np.testing.assert_array_equal(samples.x, np.stack([r[2] for r in rows]))
        np.testing.assert_array_equal(samples.y, np.array([r[3] for r in rows]))
        np.testing.assert_array_equal(samples.s_n, np.stack([r[4] for r in rows]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(max_size=12), min_size=1, max_size=6, unique=True),
       st.text(min_size=1, max_size=8))
def test_dictionary_and_stats_files_round_trip_any_label(tmp_path_factory, labels, name):
    """Labels and header names with commas, quotes and line breaks survive."""
    tmp = tmp_path_factory.mktemp("rt")
    encoder = CategoricalEncoder({"texture": labels})
    encoder.save(tmp / "categories.csv")
    assert CategoricalEncoder.load(tmp / "categories.csv").labels == encoder.labels

    norm = Normalizer([name], np.array([0.1]), np.array([3.0]), [name + ","],
                      np.array([-2.5]), np.array([1e-300]))
    norm.save(tmp / "normalizer.csv")
    loaded = load_normalizer(tmp / "normalizer.csv")
    assert loaded.channel_names == [name] and loaded.static_names == [name + ","]
    np.testing.assert_array_equal(loaded.static_std, norm.static_std)


def test_plain_dictionary_file_bytes_unchanged(tmp_path):
    encoder = CategoricalEncoder({"soil": ["low", "high"], "texture": ["clay"]})
    encoder.save(tmp_path / "c.csv")
    assert (tmp_path / "c.csv").read_bytes() == (
        b"column,label,code\nsoil,low,1\nsoil,high,2\ntexture,clay,1\n")


@pytest.mark.parametrize("loader, text, message", [
    (CategoricalEncoder.load, "column,label,code\ntexture,loam, sandy,1\n",  # unquoted comma
     "line 2 has 4 cells"),
    (CategoricalEncoder.load, "column,label,code\ntexture,loam\n", "line 2 has 2 cells"),
    (CategoricalEncoder.load, "column,label,code\ntexture,loam,one\n",
     "line 2: code 'one' of texture='loam' is not 1"),
    (CategoricalEncoder.load,
     "column,label,code\ntexture,clay,1\ntexture,loam,1\ntexture,sand,7\nsoil,low,0\n",
     "line 3: code '1' of texture='loam' is not 2"),
    (CategoricalEncoder.load, "column,label,code\ntexture,clay,1\ntexture,sand,7\n",
     "line 3: code '7' of texture='sand' is not 2"),
    (CategoricalEncoder.load, "column,label,code\nsoil,low,0\n",
     "line 2: code '0' of soil='low' is not 1"),
    (CategoricalEncoder.load, "column,label,code\ntexture,clay,1\nsoil,low,1\ntexture,clay,2\n",
     "line 4: label 'clay' repeats in column 'texture'"),
])
def test_malformed_artifact_rows_raise_format_error(tmp_path, loader, text, message):
    path = tmp_path / "artifact.csv"
    path.write_text(text)
    with pytest.raises(FormatError, match=re.escape(f"{path}: {message}")):
        loader(path)


def test_dictionary_codes_may_interleave_columns(tmp_path):
    path = tmp_path / "categories.csv"
    path.write_text("column,label,code\ntexture,clay,1\nsoil,low,1\ntexture,loam,2\n")
    encoder = CategoricalEncoder.load(path)
    assert encoder.labels == {"texture": ["clay", "loam"], "soil": ["low"]}
    assert encoder.vocab_sizes == [3, 2]
    assert [encoder.decode("texture", code) for code in (0, 1, 2)] == ["<unknown>", "clay", "loam"]
    for code in (-1, 3):
        with pytest.raises(DataError, match=f"code {code} not present in column 'texture'"):
            encoder.decode("texture", code)
