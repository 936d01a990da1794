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
or row raises ``SchemaError`` naming the file, line and column, and a
header that repeats a column name raises it naming the file and the names.
Files are UTF-8; a leading byte-order mark is ignored.

A sample is built for every score-bearing date with a full look-back
window (the preceding ``window_days`` days plus the same days one year
earlier, doubling the channel count) and a full six-week score future.
Candidates lacking either are dropped and counted, never fatal.

Ingest works on columns from the parse on: one :class:`DailySeries` stacks
every county's days, one :class:`StaticTable` holds a row per county, and
:func:`build_samples` gathers one :class:`SampleSet` of column arrays out of
both with index arithmetic.  The normalizer, the splits (index arrays), the
binary cache and mini-batching all work on whole columns.
"""

from __future__ import annotations

import csv
import io
import math
import re
import struct
from collections.abc import Iterator
from dataclasses import dataclass
from datetime import date
from itertools import accumulate
from pathlib import Path

import numpy as np

from .autodiff import RngState
from .errors import ConfigError, DataError, FormatError, SchemaError

WINDOW_DAYS = 180
YEAR_SHIFT_DAYS = 365
TARGET_WEEKS = 6
SCORE_MIN, SCORE_MAX = 0.0, 5.0


@dataclass(eq=False)
class DailySeries:
    """Every county's days, stacked in FIPS order: county ``c`` owns rows
    ``start[c]:start[c+1]``, one per calendar day from ``first_day[c]``."""

    channel_names: list[str]
    fips: np.ndarray  # (C,) str, sorted
    first_day: np.ndarray  # (C,) datetime64[D]
    start: np.ndarray  # (C+1,) int64
    measurements: np.ndarray  # (D, M)
    scores: np.ndarray  # (D,) NaN on days without an assessment


@dataclass(eq=False)
class StaticTable:
    """One row of static features per county, in FIPS order."""

    fips: np.ndarray  # (C,) str, sorted
    numeric_names: list[str]
    numeric: np.ndarray  # (C, f_n)
    codes: np.ndarray  # (C, f_d) int64 categorical codes


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


_ARTIFACT_PREFIX = struct.Struct("<7sxQ")  # magic, a pad byte, the header length


def write_artifact(path, magic: bytes, header: bytes, arrays) -> None:
    """Binary artifact: the 7-byte ``magic``, a pad byte, the uint64 header
    length, the ``header`` zero-padded to 8 bytes, then the bytes of each
    array in C order, which the caller gives the dtype it will read, written
    to a temporary file that is renamed into place, or removed on failure."""
    tmp = Path(f"{path}.tmp")
    try:
        with tmp.open("wb") as fh:
            fh.write(_ARTIFACT_PREFIX.pack(magic, len(header)))
            fh.write(header + bytes(-len(header) % 8))
            for array in arrays:
                fh.write(np.ascontiguousarray(array))
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_artifact(path, magic: bytes, what: str, remedy: str):
    """The header of a :func:`write_artifact` file and ``read(layout)``,
    which maps the arrays, given as ``(dtype, shape)`` in file order, to
    views into one writable buffer.  Another magic, an older version of it
    (named with the ``remedy``), or a size other than the header and layout
    imply raise ``FormatError`` naming ``what``."""
    path = Path(path)
    blob = bytearray(path.stat().st_size)
    with path.open("rb") as fh:
        fh.readinto(blob)
    if blob[:len(magic)] != magic:
        if blob.startswith(magic[:-1]):
            version = bytes(blob[:len(magic)]).decode(errors="replace")
            raise FormatError(f"{path}: {what} version {version!r} is not "
                              f"supported (expected {magic.decode()}); {remedy}")
        raise FormatError(f"{path}: bad {what} magic")
    length = _ARTIFACT_PREFIX.unpack_from(blob)[1] if len(blob) >= _ARTIFACT_PREFIX.size else 0
    start = _ARTIFACT_PREFIX.size + length + -length % 8
    if len(blob) < start:
        raise FormatError(f"{path}: truncated {what}")

    def read(layout: list[tuple[str, tuple[int, ...]]]) -> list[np.ndarray]:
        try:
            sizes = [np.dtype(dtype).itemsize * math.prod(shape) for dtype, shape in layout]
        except TypeError:  # a header too large for a numpy dtype
            raise FormatError(f"{path}: corrupt {what} header") from None
        expected = start + sum(sizes)
        if len(blob) != expected:
            problem = "truncated" if len(blob) < expected else "trailing bytes in"
            raise FormatError(f"{path}: {problem} {what}")
        return [np.frombuffer(blob, dtype, math.prod(shape), offset).reshape(shape)
                for (dtype, shape), offset in zip(layout, accumulate(sizes, initial=start))]

    return bytes(blob[_ARTIFACT_PREFIX.size:_ARTIFACT_PREFIX.size + length]), read


def _csv_rows(path: Path, error: type[DataError]) -> Iterator[tuple[int, list[str]]]:
    """(line number, cells) of the header and then each non-blank row of a
    UTF-8 CSV, read as a stream, a leading byte-order mark dropped; an
    unreadable or empty file, a header naming a column twice, or a row
    whose cell count differs from the header's, raises ``error``."""
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise error(f"{path}: empty file")
            repeated = sorted({name for name in header if header.count(name) > 1})
            if repeated:
                raise error(f"{path}: header repeats column names {repeated}")
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
    """The label dictionary: ``labels[column][code - 1]`` is the label of
    ``code``, so a column's codes are 1..n in order; code 0 stands for a
    label unseen at fit time."""

    labels: dict[str, list[str]]

    @property
    def columns(self) -> list[str]:
        return list(self.labels)

    @property
    def vocab_sizes(self) -> list[int]:
        return [len(labels) + 1 for labels in self.labels.values()]

    def encode(self, column: str, labels) -> np.ndarray:
        """int64 codes of a sequence of ``column`` labels; 0 for an unseen label."""
        code = {label: i for i, label in enumerate(self.labels[column], start=1)}
        return np.array([code.get(label, 0) for label in labels], dtype=np.int64)

    def decode(self, column: str, code: int) -> str:
        labels = self.labels[column]
        if not 0 <= code <= len(labels):
            raise DataError(f"code {code} not present in column {column!r}")
        return labels[code - 1] if code else "<unknown>"

    def save(self, path) -> None:
        write_csv(path, [["column", "label", "code"]]
                  + [[column, label, str(code)] for column, labels in self.labels.items()
                     for code, label in enumerate(labels, start=1)])

    @classmethod
    def load(cls, path) -> "CategoricalEncoder":
        rows = _csv_rows(Path(path), FormatError)
        if next(rows)[1] != ["column", "label", "code"]:
            raise FormatError(f"{path}: not a categorical dictionary file")
        codes: dict[str, dict[str, int]] = {}
        for line, (column, label, code) in rows:
            known = codes.setdefault(column, {})
            if label in known:
                raise FormatError(f"{path}: line {line}: label {label!r} repeats in "
                                  f"column {column!r}")
            if code != str(len(known) + 1):
                raise FormatError(f"{path}: line {line}: code {code!r} of {column}={label!r} "
                                  f"is not {len(known) + 1}, the next code of the column")
            known[label] = len(known) + 1
        return cls({column: list(known) for column, known in codes.items()})


def _parse_date(text: str, path: Path, line: int) -> date:
    # the shape comes first: from Python 3.11 fromisoformat also reads 20150101 and 2015-W01-4
    try:
        if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", text):
            raise ValueError("not a YYYY-MM-DD date")
        return date.fromisoformat(text)
    except ValueError as exc:
        raise SchemaError(f"{path}: line {line}, column 'date': {text!r}: {exc}") from None


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
                    report: list[str] | None = None) -> DailySeries:
    """Parse the daily time-series CSV into one :class:`DailySeries`.

    Channel names and count come from the header; per-county rows must form
    a contiguous daily calendar.  Counties whose measurement gaps exceed
    ``max_gap_days`` are dropped and reported.
    """
    if max_gap_days < 0:
        raise ConfigError(f"max_gap_days must be >= 0, got {max_gap_days}")
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
    if not channel_names:
        raise SchemaError(f"{path}: no measurement channels")

    rows: dict[str, list[tuple[date, list[str], str, int]]] = {}
    days: dict[str, date] = {}  # each distinct date cell is parsed once
    for line, row in lines:
        text = row[date_col]
        if text not in days:
            days[text] = _parse_date(text, path, line)
        rows.setdefault(row[fips_col], []).append(
            (days[text], [row[i] for i in channel_cols], row[score_col], line))

    counties: dict[str, tuple[date, np.ndarray, np.ndarray]] = {}  # first day, (P, M), (P,)
    for fips, entries in rows.items():
        entries.sort(key=lambda e: e[0])
        for prev, cur in zip(entries, entries[1:]):
            if (cur[0] - prev[0]).days != 1:
                what = "duplicate date" if cur[0] == prev[0] else f"gap between {prev[0]} and"
                raise DataError(f"{path}: line {cur[3]}: county {fips}: {what} {cur[0]}")

        try:
            raw = np.array([[float(cell) if cell else np.nan for cell in cells]
                            for _, cells, _, _ in entries], dtype=np.float64)
        except ValueError:  # a cell is not a number: the scan of every cell names it
            suspects = np.ndindex(len(entries), len(channel_names))
        else:
            suspects = zip(*np.nonzero(~np.isfinite(raw)))
        for r, c in suspects:  # only an empty cell is missing
            _, cells, _, line = entries[r]
            if cells[c]:
                _cell_float(cells[c], path, line, channel_names[c])
        present = ~np.isnan(raw)
        scores = np.full(len(entries), np.nan)
        for r, (day, _, score_text, line) in enumerate(entries):
            if score_text != "":
                score = _cell_float(score_text, path, line, "score")
                if not SCORE_MIN <= score <= SCORE_MAX:
                    raise DataError(f"{path}: line {line}: county {fips}: score {score} "
                                    f"outside [0, 5] at {day}")
                scores[r] = score

        try:
            for c, name in enumerate(channel_names):
                raw[:, c] = _interpolate_column(raw[:, c], present[:, c], max_gap_days, fips, name)
        except DataError as exc:
            if report is not None:
                report.append(f"dropped county {fips}: {exc}")
            continue
        counties[fips] = (entries[0][0], raw, scores)

    if not counties:
        raise DataError(f"{path}: no usable counties")
    fips = sorted(counties)
    first_day, measurements, scores = zip(*(counties[f] for f in fips))
    return DailySeries(channel_names, np.array(fips), np.array(first_day, dtype="datetime64[D]"),
                       np.cumsum([0, *(len(s) for s in scores)]),
                       np.concatenate(measurements), np.concatenate(scores))


def load_statics(path, categorical_columns: list[str],
                 encoder: CategoricalEncoder | None = None,
                 ) -> tuple[StaticTable, CategoricalEncoder]:
    """Parse the static-features CSV; returns the county table plus the
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
        encoder = CategoricalEncoder({name: sorted({row[col] for _, row in rows})
                                      for name, col in zip(categorical_columns, cat_cols)})
    elif list(categorical_columns) != encoder.columns:
        raise ConfigError(
            f"categorical columns {list(categorical_columns)} do not match the "
            f"fitted dictionary order {encoder.columns}"
        )
    if not rows:
        raise DataError(f"{path}: no static rows")

    fips = np.array([row[fips_col] for _, row in rows])
    unique, order = np.unique(fips, return_index=True)  # each county's first row
    if unique.size < fips.size:
        r = np.setdiff1d(np.arange(fips.size), order)[0]
        raise DataError(f"{path}: line {rows[r][0]}: duplicate statics row for county {fips[r]}")
    numeric = np.array([[_cell_float(row[i], path, line, header[i]) for i in num_cols]
                        for line, row in rows], dtype=np.float64)
    codes = np.zeros((len(rows), len(cat_cols)), dtype=np.int64)
    for j, (name, col) in enumerate(zip(categorical_columns, cat_cols)):
        codes[:, j] = encoder.encode(name, [row[col] for _, row in rows])
    table = StaticTable(unique, num_names, numeric[order], codes[order])
    return table, encoder


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


def build_samples(series: DailySeries, statics: StaticTable,
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
    unmatched = series.fips[~np.isin(series.fips, statics.fips)]
    if unmatched.size:
        raise DataError(f"county {unmatched[0]} has time series but no static features")
    static_row = np.searchsorted(statics.fips, series.fips)
    first_target = 0 if target_phase == "anchor" else 1

    rows = np.flatnonzero(~np.isnan(series.scores))  # score-bearing days, by county then date
    county = np.searchsorted(series.start, rows, side="right") - 1
    # each score's rank among its county's scores, and how many that county has
    counts = np.bincount(county, minlength=len(series.fips))
    rank = np.arange(rows.size) - (np.cumsum(counts) - counts)[county]
    day = rows - series.start[county]
    has_future = rank + first_target + TARGET_WEEKS <= counts[county]
    has_history = day >= window_days + YEAR_SHIFT_DAYS
    keep = np.flatnonzero(has_future & has_history)
    report = BuildReport(built=keep.size,
                         dropped_missing_history=int((has_future & ~has_history).sum()),
                         dropped_missing_future=int((~has_future).sum()))

    # each day's channels beside those of the same day a year earlier; the
    # history check keeps every window, and its year-earlier copy, inside one county
    m = series.measurements
    x = np.concatenate([m, np.roll(m, YEAR_SHIFT_DAYS, axis=0)], axis=1)[
        rows[keep, None] + np.arange(-window_days, 0)]
    # the future check keeps all six targets among the county's own scores
    y = series.scores[rows[keep[:, None] + first_target + np.arange(TARGET_WEEKS)]]
    county = county[keep]
    anchor = series.first_day[county] + day[keep]
    own = static_row[county]
    return SampleSet(x, statics.numeric[own], statics.codes[own], y, series.fips[county],
                     anchor), report


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


def fit_normalizer(samples: SampleSet, channel_names: list[str],
                   static_names: list[str]) -> Normalizer:
    if not len(samples):
        raise DataError("cannot fit a normalizer on an empty sample set")
    channels = samples.x.shape[2] // 2

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
    if not (val_fraction >= 0 and test_fraction >= 0 and val_fraction + test_fraction < 1):
        raise ConfigError(f"val/test fractions must be nonnegative and sum below 1, "
                          f"got {val_fraction} and {test_fraction}")
    order = RngState(seed).split("holdout").permutation(n)
    n_val = int(round(n * val_fraction))
    n_test = int(round(n * test_fraction))
    return order[n_val + n_test:], order[:n_val], order[n_val:n_val + n_test]


_CACHE_MAGIC = b"HMSAMP3"
_CACHE_HEADER = struct.Struct("<6Q")  # N, T, 2M, f_n, f_d, the FIPS width in characters


def _cache_layout(n: int, steps: int, width: int, f_n: int, f_d: int,
                  chars: int) -> list[tuple[str, tuple[int, ...]]]:
    """(dtype, shape) of each cached column, in file order: x, s_n, s_d, y,
    anchor as days since 1970-01-01, FIPS as UTF-32 of fixed width >= 1."""
    return [("<f8", (n, steps, width)), ("<f8", (n, f_n)), ("<i8", (n, f_d)),
            ("<f8", (n, TARGET_WEEKS)), ("<i8", (n,)), (f"<U{max(chars, 1)}", (n,))]


def save_samples(samples: SampleSet, path) -> None:
    """Binary sample cache (:func:`write_artifact`); deterministic bytes."""
    chars = np.asarray(samples.fips, dtype=str).dtype.itemsize // 4
    header = (*samples.x.shape, samples.s_n.shape[1], samples.s_d.shape[1], chars)
    columns = (samples.x, samples.s_n, samples.s_d, samples.y,
               samples.anchor.astype("datetime64[D]").view(np.int64), samples.fips)
    write_artifact(path, _CACHE_MAGIC, _CACHE_HEADER.pack(*header),
                   (np.asarray(column, dtype) for column, (dtype, _)
                    in zip(columns, _cache_layout(*header))))


def load_samples(path) -> SampleSet:
    """Read a cache written by :func:`save_samples`; the columns are views
    into one writable buffer."""
    header, read = read_artifact(path, _CACHE_MAGIC, "sample cache", "re-run ingest")
    if len(header) != _CACHE_HEADER.size:
        raise FormatError(f"{path}: corrupt sample cache header ({len(header)} bytes)")
    x, s_n, s_d, y, days, fips = read(_cache_layout(*_CACHE_HEADER.unpack(header)))
    return SampleSet(x, s_n, s_d, y, fips, days.view("datetime64[D]"))
