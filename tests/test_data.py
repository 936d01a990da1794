from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droughtcast.data import (
    CategoricalEncoder,
    Normalizer,
    SampleSet,
    build_samples,
    filter_by_state,
    fit_normalizer,
    kfold_split,
    load_samples,
    load_statics,
    load_timeseries,
    save_samples,
    split_fractions,
)
from droughtcast.errors import ConfigError, DataError, FormatError, SchemaError
from droughtcast.synthetic import make_dataset

from conftest import load_normalizer, series_fixture, statics_fixture, write_timeseries_csv


def test_load_timeseries_tiny_fixture(tiny_csv_dataset):
    series = load_timeseries(tiny_csv_dataset)
    assert set(series) == {"19001", "30002"}
    assert series["19001"].measurements.shape == (3, 2)
    # scored only on the first day; empty cells parse as absent
    assert list(series["19001"].scores.values()) == [1.5]
    assert series["19001"].dates[0] == date(2020, 1, 1)


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
    with pytest.raises(DataError, match="duplicate"):
        load_timeseries(p)


def test_load_timeseries_gapped_dates(tmp_path):
    rows = [
        ("19001", "2020-01-01", (1.0, 2.0), ""),
        ("19001", "2020-01-03", (1.0, 2.0), ""),
    ]
    p = write_timeseries_csv(tmp_path / "gap.csv", rows)
    with pytest.raises(DataError, match="gap"):
        load_timeseries(p)


def test_load_timeseries_interpolates_missing_values(tmp_path):
    rows = [
        ("19001", "2020-01-01", (0.0, 1.0), ""),
        ("19001", "2020-01-02", ("", 1.0), ""),
        ("19001", "2020-01-03", (4.0, 1.0), ""),
    ]
    p = write_timeseries_csv(tmp_path / "nan.csv", rows)
    series = load_timeseries(p)
    np.testing.assert_allclose(series["19001"].measurements[:, 0], [0.0, 2.0, 4.0])


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
    assert set(series) == {"30002"}
    assert len(report) == 1 and "19001" in report[0]


def test_load_timeseries_score_range_guard(tmp_path):
    rows = [("19001", "2020-01-01", (1.0, 1.0), "5.5")]
    p = write_timeseries_csv(tmp_path / "range.csv", rows)
    with pytest.raises(DataError, match="outside"):
        load_timeseries(p)


def test_load_statics_encoding(tmp_path):
    p = tmp_path / "statics.csv"
    p.write_text(
        "fips,elevation,quality\n"
        "19001,100.0,A\n"
        "30002,200.0,B\n"
        "40003,300.0,A\n"
    )
    statics, encoder = load_statics(p, ["quality"])
    assert [statics[f].categorical[0] for f in ("19001", "30002", "40003")] == [1, 2, 1]
    assert encoder.vocab_sizes == [3]
    # f = f_n + f_d
    assert statics["19001"].numeric.size + statics["19001"].categorical.size == 2


def test_load_statics_unseen_label_maps_to_zero(tmp_path):
    p1 = tmp_path / "train.csv"
    p1.write_text("fips,quality\n19001,A\n")
    _, encoder = load_statics(p1, ["quality"])
    p2 = tmp_path / "new.csv"
    p2.write_text("fips,quality\n30002,Z\n")
    statics, _ = load_statics(p2, ["quality"], encoder=encoder)
    assert statics["30002"].categorical[0] == 0


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
    assert loaded.label_to_code == encoder.label_to_code
    assert loaded.decode("quality", encoder.encode("quality", "B")) == "B"


def test_build_samples_minimum_history_boundary():
    # scores at exactly the minimum-history anchor and its five successors
    days = 581
    series = series_fixture(days=days, score_every=7, first_score_day=545)
    statics = {"19001": statics_fixture()}
    samples, report = build_samples({"19001": series}, statics)
    assert len(samples) == 1
    assert samples.x.shape == (1, 180, 4)
    assert report.dropped_missing_future == 5
    assert report.built + report.dropped == len(series.scores)


def test_build_samples_missing_week6_target():
    series = series_fixture(days=560, score_every=7, first_score_day=545)
    # only 3 score dates fit in 560 days from day 545
    statics = {"19001": statics_fixture()}
    samples, report = build_samples({"19001": series}, statics)
    assert len(samples) == 0
    assert report.dropped_missing_future == len(series.scores)


def test_build_samples_previous_year_identity():
    days = 600
    t = np.arange(days, dtype=float)
    values = np.stack([t, 10 * t], axis=1)  # channel value == day index
    series = series_fixture(days=days, values=values, score_every=7, first_score_day=545)
    statics = {"19001": statics_fixture()}
    samples, _ = build_samples({"19001": series}, statics)
    assert samples
    anchor_idx = (samples.anchor[0].item() - series.dates[0]).days
    x = samples.x[0]
    np.testing.assert_array_equal(x[:, 0], np.arange(anchor_idx - 180, anchor_idx))
    np.testing.assert_array_equal(x[:, 2], x[:, 0] - 365)


def test_build_samples_never_reads_anchor_or_future():
    days = 600
    values = np.zeros((days, 2))
    series = series_fixture(days=days, values=values, score_every=7, first_score_day=545)
    statics = {"19001": statics_fixture()}
    sentinel = 12345.0
    for s_date in list(series.scores):
        idx = (s_date - series.dates[0]).days
        series.measurements[idx:, :] = sentinel
        samples, _ = build_samples({"19001": series}, statics)
        assert not (samples.x[samples.anchor == np.datetime64(s_date)] == sentinel).any()
        series.measurements[:] = 0.0


def test_build_samples_next_phase_shifts_targets():
    series = series_fixture(days=620, score_every=7, first_score_day=540)
    statics = {"19001": statics_fixture()}
    anchor_samples, _ = build_samples({"19001": series}, statics, target_phase="anchor")
    next_samples, _ = build_samples({"19001": series}, statics, target_phase="next")
    by_date = dict(zip(next_samples.anchor.tolist(), next_samples.y))
    for anchor, y in zip(anchor_samples.anchor.tolist(), anchor_samples.y):
        shifted = by_date.get(anchor)
        if shifted is not None:
            np.testing.assert_array_equal(shifted[:5], y[1:])


def test_build_samples_missing_statics_is_error():
    series = series_fixture(days=600)
    with pytest.raises(DataError, match="static"):
        build_samples({"19001": series}, {})


def sample_set(x, s_n, s_d=None, y=None, fips=None):
    """A SampleSet around the given windows and numeric statics."""
    n = x.shape[0]
    return SampleSet(
        x, s_n,
        np.ones((n, 1), dtype=np.int64) if s_d is None else s_d,
        np.zeros((n, 6)) if y is None else y,
        np.array(fips if fips is not None else ["19001"] * n, dtype=str),
        np.full(n, np.datetime64("2020-01-01", "D")),
    )


def test_normalizer_two_point_channel():
    x = np.array([[0.0, 5.0, 0.0, 5.0], [2.0, 5.0, 2.0, 5.0]])
    s = sample_set(x[None], np.array([[1.0]]))
    norm = fit_normalizer(s)
    out = norm.apply(s)
    np.testing.assert_allclose(out.x[0, :, 0], [-1.0, 1.0])
    # constant channel untouched, std recorded as 1
    np.testing.assert_allclose(out.x[0, :, 1], [0.0, 0.0])
    assert norm.channel_std[1] == 1.0


def test_normalizer_train_stats_and_round_trip():
    rng = np.random.default_rng(0)
    samples = sample_set(rng.normal(2.0, 3.0, (20, 10, 6)), rng.normal(size=(20, 2)))
    norm = fit_normalizer(samples)
    normalized = norm.apply(samples)
    pooled = normalized.x.reshape(20, 10, 2, 3).reshape(-1, 3)
    np.testing.assert_allclose(pooled.mean(axis=0), 0.0, atol=1e-9)
    np.testing.assert_allclose(pooled.std(axis=0), 1.0, atol=1e-6)
    # targets untouched
    np.testing.assert_array_equal(normalized.y, samples.y)
    round_trip = normalized.x.reshape(20, 10, 2, 3) * norm.channel_std + norm.channel_mean
    np.testing.assert_allclose(round_trip.reshape(20, 10, 6), samples.x, atol=1e-12)


def _per_sample_normalizer(samples):
    """Statistics and normalized windows computed one sample at a time."""
    c = samples.x.shape[2] // 2
    pooled = np.concatenate([np.concatenate([x[:, :c], x[:, c:]], axis=0) for x in samples.x])
    mean, std = pooled.mean(axis=0), pooled.std(axis=0)
    std[std == 0.0] = 1.0
    out = []
    for x in samples.x:
        x = x.copy()
        for block in (slice(0, c), slice(c, 2 * c)):
            x[:, block] = (x[:, block] - mean) / std
        out.append(x)
    return mean, std, np.stack(out)


def test_columnar_normalizer_matches_per_sample_bit_for_bit():
    rng = np.random.default_rng(4)
    samples = sample_set(rng.normal(3.0, 7.0, (37, 11, 6)), rng.normal(size=(37, 2)))
    norm = fit_normalizer(samples)
    mean, std, x = _per_sample_normalizer(samples)
    np.testing.assert_array_equal(norm.channel_mean, mean)
    np.testing.assert_array_equal(norm.channel_std, std)
    np.testing.assert_array_equal(norm.apply(samples).x, x)


def test_normalizer_save_load(tmp_path):
    x = np.array([[0.0, 5.0, 0.0, 5.0], [2.0, 6.0, 2.0, 6.0]])
    s = sample_set(x[None], np.array([[1.0, 4.0]]))
    norm = fit_normalizer(s, channel_names=["precip", "temp"], static_names=["elev", "slope"])
    path = tmp_path / "stats.csv"
    norm.save(path)
    loaded = load_normalizer(path)
    np.testing.assert_array_equal(loaded.channel_mean, norm.channel_mean)
    np.testing.assert_array_equal(loaded.static_std, norm.static_std)
    assert loaded.channel_names == ["precip", "temp"]


def test_fit_normalizer_empty_is_error():
    with pytest.raises(DataError):
        fit_normalizer(sample_set(np.zeros((0, 4, 2)), np.zeros((0, 1))))


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
    return SampleSet(
        rng.normal(size=(n, t, width)), rng.normal(size=(n, f_n)),
        rng.integers(0, 9, (n, f_d)), rng.uniform(0, 5, (n, 6)),
        np.array([f"{19000 + i}" if i % 3 else f"é{i},\"x\"" for i in range(n)], dtype=str),
        np.datetime64("2020-02-03", "D") + np.arange(n) * 7,
    )


def _assert_same_set(a, b):
    for name in ("x", "s_n", "s_d", "y", "fips", "anchor"):
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
    assert path.read_bytes().startswith(b"HMSAMP2")
    assert loaded.fips[1] == "19001"
    assert loaded.anchor[0] == np.datetime64("2020-02-03")

    truncated = path.read_bytes()[:-5]
    bad = tmp_path / "bad.bin"
    bad.write_bytes(truncated)
    with pytest.raises(FormatError):
        load_samples(bad)


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


def test_sample_cache_version_one_is_named(tmp_path):
    path = tmp_path / "old.samples"
    path.write_bytes(b"HMSAMP1" + bytes(4))
    with pytest.raises(FormatError, match="HMSAMP1"):
        load_samples(path)


def test_sample_set_slicing_and_concatenation():
    samples = _cache_set(6)
    head, tail = samples[:2], samples[np.array([5, 3])]
    both = head + tail
    assert len(both) == 4
    np.testing.assert_array_equal(both.x, samples.x[[0, 1, 5, 3]])
    np.testing.assert_array_equal(both.fips, samples.fips[[0, 1, 5, 3]])
    with pytest.raises(TypeError):
        samples[0]


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
        for fips in sorted(series):
            county = series[fips]
            index_of = {d: i for i, d in enumerate(county.dates)}
            dates = sorted(county.scores)
            for pos, anchor in enumerate(dates):
                start = pos if phase == "anchor" else pos + 1
                targets = dates[start:start + 6]
                ti = index_of[anchor]
                if len(targets) < 6 or ti < 20 + 365:
                    continue
                m = county.measurements
                x = np.concatenate([m[ti - 20:ti], m[ti - 20 - 365:ti - 365]], axis=1)
                rows.append((fips, anchor, x, [county.scores[d] for d in targets]))
        assert samples.fips.tolist() == [r[0] for r in rows]
        assert samples.anchor.tolist() == [r[1] for r in rows]
        np.testing.assert_array_equal(samples.x, np.stack([r[2] for r in rows]))
        np.testing.assert_array_equal(samples.y, np.array([r[3] for r in rows]))
        np.testing.assert_array_equal(samples.s_n[0], statics[rows[0][0]].numeric)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(max_size=12), min_size=1, max_size=6, unique=True),
       st.text(min_size=1, max_size=8))
def test_dictionary_and_stats_files_round_trip_any_label(tmp_path_factory, labels, name):
    """Labels and header names with commas, quotes and line breaks survive."""
    tmp = tmp_path_factory.mktemp("rt")
    encoder = CategoricalEncoder(["texture"], [], {"texture": {
        label: code for code, label in enumerate(labels, start=1)}})
    encoder.save(tmp / "categories.csv")
    assert CategoricalEncoder.load(tmp / "categories.csv").label_to_code == encoder.label_to_code

    norm = Normalizer([name], np.array([0.1]), np.array([3.0]), [name + ","],
                      np.array([-2.5]), np.array([1e-300]))
    norm.save(tmp / "normalizer.csv")
    loaded = load_normalizer(tmp / "normalizer.csv")
    assert loaded.channel_names == [name] and loaded.static_names == [name + ","]
    np.testing.assert_array_equal(loaded.static_std, norm.static_std)


def test_plain_dictionary_file_bytes_unchanged(tmp_path):
    encoder = CategoricalEncoder(["soil", "texture"], [], {
        "soil": {"low": 1, "high": 2}, "texture": {"clay": 1}})
    encoder.save(tmp_path / "c.csv")
    assert (tmp_path / "c.csv").read_bytes() == (
        b"column,label,code\nsoil,low,1\nsoil,high,2\ntexture,clay,1\n")


@pytest.mark.parametrize("loader, text", [
    (CategoricalEncoder.load, "column,label,code\ntexture,loam, sandy,1\n"),  # unquoted comma
    (CategoricalEncoder.load, "column,label,code\ntexture,loam\n"),
    (CategoricalEncoder.load, "column,label,code\ntexture,loam,one\n"),
])
def test_malformed_artifact_rows_raise_format_error(tmp_path, loader, text):
    path = tmp_path / "artifact.csv"
    path.write_text(text)
    with pytest.raises(FormatError):
        loader(path)
