"""Ingestion of county drought CSVs and construction of training samples.

Input formats
-------------
Time-series CSV: header ``fips,date,<channel...>,score`` with one row per
county per calendar day (``date`` is YYYY-MM-DD, an empty ``score`` cell
means no assessment was released that day).  Static-features CSV: header
``fips,<feature...>``; a configured subset of the feature columns is
treated as categorical and dictionary-encoded (code 0 is reserved for
labels unseen at fit time).  Every non-empty numeric cell must be a finite
number (an empty channel cell is a missing measurement); a malformed cell
or row raises ``SchemaError`` naming the file, line and column.

A sample is built for every score-bearing date with a full look-back
window (the preceding ``window_days`` days plus the same days one year
earlier, doubling the channel count) and a full six-week score future.
Candidates lacking either are dropped and counted, never fatal.

Samples travel as one :class:`SampleSet` of column arrays: the normalizer,
the splits (index arrays), the binary cache and mini-batching all work on
whole columns.
"""

from __future__ import annotations

import csv
import io
import math
import struct
from collections.abc import Iterator
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

import numpy as np

from .autodiff import RngState
from .errors import ConfigError, DataError, FormatError, SchemaError

WINDOW_DAYS = 180
YEAR_SHIFT_DAYS = 365
TARGET_WEEKS = 6
SCORE_MIN, SCORE_MAX = 0.0, 5.0


@dataclass
class CountyTimeSeries:
    fips: str
    dates: list[date]  # strictly increasing, one-day steps
    measurements: np.ndarray  # (P, M)
    scores: dict[date, float] = field(default_factory=dict)


@dataclass
class StaticFeatures:
    fips: str
    numeric: np.ndarray  # (f_n,)
    categorical: np.ndarray  # (f_d,) integer codes


@dataclass(eq=False)
class SampleSet:
    """N samples as column arrays; row i of every column is sample i.

    Indexing by a slice or an index array selects rows; ``a + b``
    concatenates two sets.
    """

    x: np.ndarray  # (N, T, 2M): current-year channels then previous-year channels
    s_n: np.ndarray  # (N, f_n)
    s_d: np.ndarray  # (N, f_d) int64 codes
    y: np.ndarray  # (N, 6)
    fips: np.ndarray  # (N,) str
    anchor: np.ndarray  # (N,) datetime64[D]

    def __post_init__(self):
        if len({column.shape[0] for column in self._columns()}) != 1:
            raise DataError("sample columns differ in length")

    def _columns(self) -> tuple[np.ndarray, ...]:
        return self.x, self.s_n, self.s_d, self.y, self.fips, self.anchor

    def __len__(self) -> int:
        return self.y.shape[0]

    def __getitem__(self, index) -> "SampleSet":
        if isinstance(index, (int, np.integer)):
            raise TypeError("index a SampleSet with a slice or an index array")
        return SampleSet(*(column[index] for column in self._columns()))

    def __add__(self, other: "SampleSet") -> "SampleSet":
        return SampleSet(*(np.concatenate([a, b])
                           for a, b in zip(self._columns(), other._columns())))


def csv_text(rows) -> str:
    """Rows as CSV text with "\\n" line ends; a non-text cell is written
    with ``str``.  The csv module quotes only the characters of its line
    terminator, so a row with a carriage return in a cell ends in "\\r\\n"
    instead, which gets that cell quoted."""
    buf = io.StringIO()
    plain = csv.writer(buf, lineterminator="\n")
    crlf = csv.writer(buf, lineterminator="\r\n")
    for row in rows:
        (crlf if any("\r" in str(cell) for cell in row) else plain).writerow(row)
    return buf.getvalue()


def write_csv(path, rows) -> None:
    """:func:`csv_text` of the rows as a UTF-8 file."""
    Path(path).write_text(csv_text(rows), encoding="utf-8", newline="")


def _csv_rows(path: Path, error: type[DataError]) -> Iterator[tuple[int, list[str]]]:
    """(line number, cells) of the header and then each non-blank row of a
    UTF-8 CSV, read as a stream; an unreadable or empty file, or a row
    whose cell count differs from the header's, raises ``error``."""
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise error(f"{path}: empty file")
            yield reader.line_num, header
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise error(f"{path}: line {reader.line_num} has {len(row)} cells, "
                                f"the header has {len(header)}")
                yield reader.line_num, row
    except (csv.Error, UnicodeDecodeError) as exc:
        raise error(f"{path}: unreadable CSV: {exc}") from None


@dataclass
class CategoricalEncoder:
    """Label <-> dense-code maps for the configured categorical columns."""

    columns: list[str]
    numeric_columns: list[str]
    label_to_code: dict[str, dict[str, int]]

    @property
    def vocab_sizes(self) -> list[int]:
        return [len(self.label_to_code[c]) + 1 for c in self.columns]

    def encode(self, column: str, label: str) -> int:
        return self.label_to_code[column].get(label, 0)

    def decode(self, column: str, code: int) -> str:
        if code == 0:
            return "<unknown>"
        for label, c in self.label_to_code[column].items():
            if c == code:
                return label
        raise DataError(f"code {code} not present in column {column!r}")

    def save(self, path) -> None:
        rows = [["column", "label", "code"]]
        for column in self.columns:
            for label, code in sorted(self.label_to_code[column].items(), key=lambda kv: kv[1]):
                rows.append([column, label, str(code)])
        write_csv(path, rows)

    @classmethod
    def load(cls, path, numeric_columns: list[str] | None = None) -> "CategoricalEncoder":
        rows = _csv_rows(Path(path), FormatError)
        if next(rows)[1] != ["column", "label", "code"]:
            raise FormatError(f"{path}: not a categorical dictionary file")
        mapping: dict[str, dict[str, int]] = {}
        for _, (column, label, code) in rows:
            try:
                mapping.setdefault(column, {})[label] = int(code)
            except ValueError:
                raise FormatError(f"{path}: code {code!r} of {column}={label!r} "
                                  f"is not an integer") from None
        return cls(list(mapping), numeric_columns or [], mapping)


def _parse_date(text: str) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError as exc:
        raise SchemaError(f"bad date {text!r}: {exc}") from None


def _cell_float(text: str, path: Path, line: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise SchemaError(f"{path}: line {line}, column {column!r}: "
                          f"{text!r} is not a finite number")
    return value


def _interpolate_column(values: np.ndarray, present: np.ndarray, max_gap: int,
                        fips: str, name: str) -> np.ndarray:
    """Linear interpolation over missing entries, edges filled flat."""
    if present.all():
        return values
    if not present.any():
        raise DataError(f"county {fips}: channel {name!r} entirely missing")
    idx = np.flatnonzero(present)
    gaps = np.diff(idx) - 1
    if gaps.size and gaps.max() > max_gap:
        raise DataError(
            f"county {fips}: channel {name!r} has a {int(gaps.max())}-day gap "
            f"(limit {max_gap})"
        )
    lead = idx[0]
    trail = values.size - 1 - idx[-1]
    if max(lead, trail) > max_gap:
        raise DataError(f"county {fips}: channel {name!r} missing edge run exceeds {max_gap} days")
    out = values.copy()
    out[~present] = np.interp(np.flatnonzero(~present), idx, values[idx])
    return out


def load_timeseries(path, max_gap_days: int = 14,
                    report: list[str] | None = None) -> dict[str, CountyTimeSeries]:
    """Parse the daily time-series CSV into per-county series.

    Channel names and count come from the header; per-county rows must form
    a contiguous daily calendar.  Counties whose measurement gaps exceed
    ``max_gap_days`` are dropped and reported.
    """
    path = Path(path)
    lines = _csv_rows(path, SchemaError)
    _, header = next(lines)
    required = {"fips", "date", "score"}
    missing = required - set(header)
    if missing:
        raise SchemaError(f"{path}: missing columns {sorted(missing)}")
    fips_col = header.index("fips")
    date_col = header.index("date")
    score_col = header.index("score")
    channel_cols = [i for i, name in enumerate(header)
                    if i not in (fips_col, date_col, score_col)]
    channel_names = [header[i] for i in channel_cols]

    rows: dict[str, list[tuple[date, list[str], str, int]]] = {}
    for line, row in lines:
        rows.setdefault(row[fips_col], []).append(
            (_parse_date(row[date_col]), [row[i] for i in channel_cols], row[score_col], line)
        )

    series: dict[str, CountyTimeSeries] = {}
    for fips, entries in rows.items():
        entries.sort(key=lambda e: e[0])
        dates = [e[0] for e in entries]
        for prev, cur in zip(dates, dates[1:]):
            if cur == prev:
                raise DataError(f"county {fips}: duplicate date {cur}")
            if (cur - prev).days != 1:
                raise DataError(f"county {fips}: gap between {prev} and {cur}")

        try:
            raw = np.array([[float(cell) if cell else np.nan for cell in cells]
                            for _, cells, _, _ in entries], dtype=np.float64)
        except ValueError:
            for _, cells, _, line in entries:  # find and name the bad cell
                for cell, name in zip(cells, channel_names):
                    if cell:
                        _cell_float(cell, path, line, name)
            raise
        for r, c in zip(*np.nonzero(~np.isfinite(raw))):  # only an empty cell is missing
            _, cells, _, line = entries[r]
            if cells[c]:
                _cell_float(cells[c], path, line, channel_names[c])
        present = ~np.isnan(raw)
        scores: dict[date, float] = {}
        for day, _, score_text, line in entries:
            if score_text != "":
                score = _cell_float(score_text, path, line, "score")
                if not SCORE_MIN <= score <= SCORE_MAX:
                    raise DataError(f"county {fips}: score {score} outside [0, 5] at {day}")
                scores[day] = score

        try:
            for c, name in enumerate(channel_names):
                raw[:, c] = _interpolate_column(raw[:, c], present[:, c], max_gap_days, fips, name)
        except DataError as exc:
            if report is not None:
                report.append(f"dropped county {fips}: {exc}")
            continue
        series[fips] = CountyTimeSeries(fips, dates, raw, scores)

    if not series:
        raise DataError(f"{path}: no usable counties")
    first = next(iter(series.values()))
    series_channels = first.measurements.shape[1]
    if series_channels == 0:
        raise SchemaError(f"{path}: no measurement channels")
    return series


def channel_names_of(path) -> list[str]:
    _, header = next(_csv_rows(Path(path), SchemaError))
    return [name for name in header if name not in ("fips", "date", "score")]


def load_statics(path, categorical_columns: list[str],
                 encoder: CategoricalEncoder | None = None,
                 ) -> tuple[dict[str, StaticFeatures], CategoricalEncoder]:
    """Parse the static-features CSV; returns per-county features plus the
    label dictionary used for encoding (fit here unless one is supplied)."""
    path = Path(path)
    rows = _csv_rows(path, SchemaError)
    _, header = next(rows)
    rows = list(rows)
    if "fips" not in header:
        raise SchemaError(f"{path}: missing fips column")
    missing = set(categorical_columns) - set(header)
    if missing:
        raise SchemaError(f"{path}: categorical columns {sorted(missing)} not present")
    fips_col = header.index("fips")
    cat_cols = [header.index(c) for c in categorical_columns]
    num_names = [name for i, name in enumerate(header)
                 if i != fips_col and i not in cat_cols]
    num_cols = [header.index(c) for c in num_names]

    if encoder is None:
        label_to_code: dict[str, dict[str, int]] = {}
        for name, col in zip(categorical_columns, cat_cols):
            labels = sorted({row[col] for _, row in rows})
            label_to_code[name] = {label: i + 1 for i, label in enumerate(labels)}
        encoder = CategoricalEncoder(list(categorical_columns), num_names, label_to_code)
    elif list(categorical_columns) != encoder.columns:
        raise ConfigError(
            f"categorical columns {list(categorical_columns)} do not match the "
            f"fitted dictionary order {encoder.columns}"
        )

    statics: dict[str, StaticFeatures] = {}
    for line, row in rows:
        fips = row[fips_col]
        if fips in statics:
            raise DataError(f"duplicate statics row for county {fips}")
        numeric = np.array([_cell_float(row[i], path, line, header[i]) for i in num_cols])
        codes = np.array(
            [encoder.encode(name, row[col]) for name, col in zip(categorical_columns, cat_cols)],
            dtype=np.int64,
        )
        statics[fips] = StaticFeatures(fips, numeric, codes)
    if not statics:
        raise DataError(f"{path}: no static rows")
    return statics, encoder


@dataclass
class BuildReport:
    built: int = 0
    dropped_missing_history: int = 0
    dropped_missing_future: int = 0

    @property
    def dropped(self) -> int:
        return self.dropped_missing_history + self.dropped_missing_future

    def describe(self) -> str:
        return (
            f"built {self.built} samples; dropped {self.dropped_missing_history} "
            f"without full history, {self.dropped_missing_future} without a full "
            f"{TARGET_WEEKS}-week future"
        )


def build_samples(series: dict[str, CountyTimeSeries],
                  statics: dict[str, StaticFeatures],
                  window_days: int = WINDOW_DAYS,
                  target_phase: str = "anchor",
                  ) -> tuple[SampleSet, BuildReport]:
    """One candidate per score-bearing date; the window covers the
    ``window_days`` days before the anchor (exclusive) plus the same
    calendar days shifted back one year.  Samples are ordered by county,
    then anchor date.

    ``target_phase``: "anchor" takes the anchor's own score as week 1;
    "next" starts the six targets at the following release.
    """
    if target_phase not in ("anchor", "next"):
        raise ConfigError(f"target_phase must be 'anchor' or 'next', got {target_phase!r}")
    if window_days < 1:
        raise ConfigError(f"window_days must be at least 1, got {window_days}")
    if not series:
        raise DataError("no county time series to build samples from")
    report = BuildReport()
    first_target = 0 if target_phase == "anchor" else 1
    daily = []  # every county's measurements, stacked in FIPS order
    offset = 0  # row of the current county's first day in that stack
    columns = []  # per county: each kept anchor's row in the stack, then s_n .. anchor
    for fips in sorted(series):
        county = series[fips]
        if fips not in statics:
            raise DataError(f"county {fips} has time series but no static features")
        score_dates = sorted(county.scores)
        rows = np.array([(d - county.dates[0]).days for d in score_dates], dtype=np.int64)
        scores = np.array([county.scores[d] for d in score_dates], dtype=np.float64)
        has_future = np.arange(rows.size) + first_target + TARGET_WEEKS <= rows.size
        has_history = rows >= window_days + YEAR_SHIFT_DAYS
        report.dropped_missing_future += int((~has_future).sum())
        report.dropped_missing_history += int((has_future & ~has_history).sum())
        keep = np.flatnonzero(has_future & has_history)
        columns.append((
            offset + rows[keep],
            np.tile(statics[fips].numeric, (keep.size, 1)),
            np.tile(statics[fips].categorical, (keep.size, 1)),
            scores[keep[:, None] + first_target + np.arange(TARGET_WEEKS)],
            np.full(keep.size, fips),
            np.datetime64(county.dates[0], "D") + rows[keep],
        ))
        daily.append(county.measurements)
        offset += len(county.measurements)
    anchor_rows, s_n, s_d, y, fips_column, anchor = (
        np.concatenate(pieces) for pieces in zip(*columns))
    # history checks keep every window, and its year-earlier copy, inside one county
    window = anchor_rows[:, None] + np.arange(-window_days, 0)
    stack = np.concatenate(daily)
    x = np.concatenate([stack[window], stack[window - YEAR_SHIFT_DAYS]], axis=2)
    report.built = len(anchor_rows)
    return SampleSet(x, s_n, s_d, y, fips_column, anchor), report


@dataclass
class Normalizer:
    """Per-channel z-score statistics fitted on a training split.

    Time-series stats pool a channel's current-year and previous-year
    columns; targets are never normalized.  Constant channels keep std 1.
    """

    channel_names: list[str]
    channel_mean: np.ndarray
    channel_std: np.ndarray
    static_names: list[str]
    static_mean: np.ndarray
    static_std: np.ndarray

    def apply(self, samples: SampleSet) -> SampleSet:
        n, steps, width = samples.x.shape
        channels = len(self.channel_names)
        if width != 2 * channels:
            raise DataError(f"samples have {width} columns, normalizer expects {2 * channels}")
        # (N, T, 2, M): the current- and previous-year blocks share statistics
        blocks = samples.x.reshape(n, steps, 2, channels)
        x = ((blocks - self.channel_mean) / self.channel_std).reshape(n, steps, width)
        s_n = (samples.s_n - self.static_mean) / self.static_std
        return SampleSet(x, s_n, samples.s_d, samples.y, samples.fips, samples.anchor)

    def save(self, path) -> None:
        rows = [["channel", "mean", "std"]]
        for name, m, s in zip(self.channel_names, self.channel_mean, self.channel_std):
            rows.append([f"ts.{name}", repr(float(m)), repr(float(s))])
        for name, m, s in zip(self.static_names, self.static_mean, self.static_std):
            rows.append([f"static.{name}", repr(float(m)), repr(float(s))])
        write_csv(path, rows)


def fit_normalizer(samples: SampleSet,
                   channel_names: list[str] | None = None,
                   static_names: list[str] | None = None) -> Normalizer:
    if not len(samples):
        raise DataError("cannot fit a normalizer on an empty sample set")
    channels = samples.x.shape[2] // 2
    channel_names = channel_names or [f"chan{i}" for i in range(channels)]
    static_names = static_names or [f"static{i}" for i in range(samples.s_n.shape[1])]

    # each sample's current-year rows, then its previous-year rows
    pooled = np.concatenate(
        [samples.x[:, :, :channels], samples.x[:, :, channels:]], axis=1
    ).reshape(-1, channels)
    mean = pooled.mean(axis=0)
    std = pooled.std(axis=0)
    std[std == 0.0] = 1.0

    s_mean = samples.s_n.mean(axis=0)
    s_std = samples.s_n.std(axis=0)
    s_std[s_std == 0.0] = 1.0
    return Normalizer(channel_names, mean, std, static_names, s_mean, s_std)


def filter_by_state(fips: np.ndarray, state_prefixes: list[str]) -> np.ndarray:
    """Indices, in order, of the FIPS codes that start with any of the
    2-character prefixes; empty when none matches."""
    return np.flatnonzero([code.startswith(tuple(state_prefixes)) for code in fips.tolist()])


def kfold_split(n: int, k: int = 5, seed: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """Seeded shuffle of ``range(n)`` into k folds; each (train, validation)
    index pair uses one fold as validation, and the validation folds
    partition the samples."""
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    if k > n:
        raise ConfigError(f"k={k} exceeds the {n} available samples")
    order = RngState(seed).split("kfold").permutation(n)
    folds = np.array_split(order, k)
    return [(np.concatenate(folds[:i] + folds[i + 1:]), folds[i]) for i in range(k)]


def split_fractions(n: int, val_fraction: float, test_fraction: float,
                    seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded random (train, val, test) index split of ``range(n)``, used
    when no explicit validation/test files exist."""
    if val_fraction < 0 or test_fraction < 0 or val_fraction + test_fraction >= 1:
        raise ConfigError("val/test fractions must be nonnegative and sum below 1")
    order = RngState(seed).split("holdout").permutation(n)
    n_val = int(round(n * val_fraction))
    n_test = int(round(n * test_fraction))
    return order[n_val + n_test:], order[:n_val], order[n_val:n_val + n_test]


_CACHE_MAGIC = b"HMSAMP2"
# magic, a pad byte, then N, T, 2M, f_n, f_d and the FIPS width in
# characters: 56 bytes, so every column after it starts 8-byte aligned
_CACHE_HEADER = struct.Struct("<7sx6Q")


def _cache_layout(n: int, steps: int, width: int, f_n: int, f_d: int,
                  chars: int) -> list[tuple[str, tuple[int, ...]]]:
    """(dtype, shape) of each cached column, in file order: x, s_n, s_d, y,
    anchor as days since 1970-01-01, FIPS as UTF-32 of fixed width >= 1."""
    return [("<f8", (n, steps, width)), ("<f8", (n, f_n)), ("<i8", (n, f_d)),
            ("<f8", (n, TARGET_WEEKS)), ("<i8", (n,)), (f"<U{max(chars, 1)}", (n,))]


def save_samples(samples: SampleSet, path) -> None:
    """Binary sample cache; little-endian, deterministic bytes."""
    chars = np.asarray(samples.fips, dtype=str).dtype.itemsize // 4
    header = (*samples.x.shape, samples.s_n.shape[1], samples.s_d.shape[1], chars)
    columns = (samples.x, samples.s_n, samples.s_d, samples.y,
               samples.anchor.astype("datetime64[D]").view(np.int64), samples.fips)
    with Path(path).open("wb") as fh:
        fh.write(_CACHE_HEADER.pack(_CACHE_MAGIC, *header))
        for column, (dtype, _) in zip(columns, _cache_layout(*header)):
            fh.write(np.ascontiguousarray(column, dtype=dtype))


def load_samples(path) -> SampleSet:
    """Read a cache written by :func:`save_samples`; the columns are views
    into one writable buffer."""
    path = Path(path)
    blob = bytearray(path.stat().st_size)
    with path.open("rb") as fh:
        fh.readinto(blob)
    if blob[:len(_CACHE_MAGIC)] != _CACHE_MAGIC:
        if blob.startswith(b"HMSAMP"):
            raise FormatError(f"{path}: sample-cache version {bytes(blob[:7]).decode()!r} is "
                              f"not supported (expected {_CACHE_MAGIC.decode()}); "
                              f"re-run ingest")
        raise FormatError(f"{path}: bad sample-cache magic")
    if len(blob) < _CACHE_HEADER.size:
        raise FormatError(f"{path}: truncated sample cache")
    layout = _cache_layout(*_CACHE_HEADER.unpack_from(blob)[1:])
    sizes = [np.dtype(dtype).itemsize * math.prod(shape) for dtype, shape in layout]
    expected = _CACHE_HEADER.size + sum(sizes)
    if len(blob) != expected:
        problem = "truncated" if len(blob) < expected else "trailing bytes in"
        raise FormatError(f"{path}: {problem} sample cache")
    columns = []
    offset = _CACHE_HEADER.size
    for (dtype, shape), size in zip(layout, sizes):
        columns.append(np.frombuffer(blob, dtype, math.prod(shape), offset).reshape(shape))
        offset += size
    x, s_n, s_d, y, days, fips = columns
    return SampleSet(x, s_n, s_d, y, fips, days.view("datetime64[D]"))
