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

Ingest works on columns from the parse on.  :func:`load_timeseries` reads
the CSV in chunks of rows and turns each chunk into arrays at once, so no
cell text outlives its chunk; one stable sort by (county, date) then makes
one :class:`DailySeries` of every county's days.  A fault of the file's
form (cell count, an unreadable file, a date) is named at its earliest
line; otherwise the first county in file order with a faulty value is
named, at its first calendar fault, else its first bad channel cell, else
its first bad score.  One :class:`StaticTable` holds a row per county, and
:func:`build_samples` makes one :class:`SampleSet` of column arrays out of
both.

A set holds no windows: it keeps the day table and, per sample, the first
rows of its current-year and year-earlier windows, and :attr:`SampleSet.x`
gathers the windows of the rows a batch or an eval block asks for.  A split
is a selection of start rows that shares the table; :meth:`Normalizer.apply`
normalizes the table in place, and :func:`save_samples` writes a split's
table and start rows.  Mini-batching works on whole columns.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
import re
import struct
from collections.abc import Iterator
from dataclasses import dataclass
from datetime import date
from itertools import accumulate, chain, compress, islice
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
    """N samples as column arrays over one day table; row i of every column
    is sample i.

    Sample i's windows are the ``steps`` table rows from ``start[i, 0]``
    (the current year) and from ``start[i, 1]`` (the same days a year
    earlier); :attr:`x` gathers them.  Indexing by a slice or an index array
    selects start rows and shares the table; ``a + b`` shares ``a``'s table
    when the two tables are equal, and otherwise stacks them and offsets
    ``b``'s start rows.
    """

    days: np.ndarray  # (D, M) the day table
    steps: int  # T, the window length
    start: np.ndarray  # (N, 2) int64 first table rows of the current- and year-earlier window
    s_n: np.ndarray  # (N, f_n)
    s_d: np.ndarray  # (N, f_d) int64 codes
    y: np.ndarray  # (N, 6)
    fips: np.ndarray  # (N,) str
    anchor: np.ndarray  # (N,) datetime64[D]
    sha256: bytes | None = None  # of the cache file loaded; a derived set has none

    def __post_init__(self):
        if len({column.shape[0] for column in self._columns()}) != 1:
            raise DataError("sample columns differ in length")

    def _columns(self) -> tuple[np.ndarray, ...]:
        return self.start, self.s_n, self.s_d, self.y, self.fips, self.anchor

    def __len__(self) -> int:
        return self.y.shape[0]

    @property
    def width(self) -> int:
        """2M, the channels of a window row: the current year's, then the
        year-earlier ones."""
        return 2 * self.days.shape[1]

    @property
    def x(self) -> np.ndarray:
        """(N, T, 2M) windows, gathered from the table at each access: row t
        of sample i is table row ``start[i, 0] + t`` beside row
        ``start[i, 1] + t``."""
        rows = self.start[:, None, :] + np.arange(self.steps)[:, None]  # (N, T, 2)
        return np.take(self.days, rows, axis=0).reshape(len(self), self.steps, self.width)

    def __getitem__(self, index) -> "SampleSet":
        if isinstance(index, (int, np.integer)):
            raise TypeError("index a SampleSet with a slice or an index array")
        return SampleSet(self.days, self.steps, *(column[index] for column in self._columns()))

    def __add__(self, other: "SampleSet") -> "SampleSet":
        if (self.steps, self.width) != (other.steps, other.width):
            raise DataError(f"cannot join sample sets of (T, 2M) {(self.steps, self.width)} "
                            f"and {(other.steps, other.width)}")
        shared = np.array_equal(self.days, other.days)
        start = np.concatenate([self.start, other.start + (0 if shared else len(self.days))])
        days = self.days if shared else np.concatenate([self.days, other.days])
        return SampleSet(days, self.steps, start,
                         *(np.concatenate([a, b])
                           for a, b in zip(self._columns()[1:], other._columns()[1:])))


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


def write_file(path, chunks) -> bytes:
    """The one way the package writes a file: the chunks go to ``<path>.tmp``,
    which is renamed into place, or removed on failure so that an existing
    ``path`` is left as it was; a ``str`` chunk as UTF-8 whatever the
    locale, "\\n" kept as is, and a bytes-like chunk unchanged.  Returns
    the sha256 of the bytes written."""
    tmp, digest = Path(f"{path}.tmp"), hashlib.sha256()
    try:
        with tmp.open("wb") as fh:
            for chunk in chunks:
                chunk = chunk.encode("utf-8") if isinstance(chunk, str) else chunk
                digest.update(chunk)
                fh.write(chunk)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return digest.digest()


_ARTIFACT_PREFIX = struct.Struct("<7sxQ")  # magic, a pad byte, the header length


def write_artifact(path, magic: bytes, header: bytes, arrays) -> bytes:
    """Binary artifact (:func:`write_file`, whose digest it returns): the
    7-byte ``magic``, a pad byte, the uint64 header length, the ``header``
    zero-padded to 8 bytes, then the bytes of each array in C order, which
    the caller gives the dtype it will read."""
    return write_file(path, chain([_ARTIFACT_PREFIX.pack(magic, len(header)), header,
                                   bytes(-len(header) % 8)], map(np.ascontiguousarray, arrays)))


def read_artifact(path, magic: bytes, what: str, remedy: str):
    """The header of a :func:`write_artifact` file; ``read(layout)``, which
    maps the arrays, given as ``(dtype, shape)`` in file order, to views into
    one writable buffer; and the sha256 of the bytes read.  Another magic, an
    older version of it (named with the ``remedy``), or a size other than the
    open file's, or than the header and layout imply, raise ``FormatError``."""
    path = Path(path)
    with path.open("rb") as fh:
        blob = bytearray(os.fstat(fh.fileno()).st_size)
        if fh.readinto(blob) != len(blob):
            raise FormatError(f"{path}: truncated {what}")
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

    return (bytes(blob[_ARTIFACT_PREFIX.size:_ARTIFACT_PREFIX.size + length]), read,
            hashlib.sha256(blob).digest())


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
        write_file(path, [csv_text([["column", "label", "code"]] + [
            [column, label, str(code)] for column, labels in self.labels.items()
            for code, label in enumerate(labels, start=1)])])

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


def _parse_date(text: str, path: Path, index: int) -> date:
    """The day that the date cell of data row ``index`` names."""
    # the shape comes first: from Python 3.11 fromisoformat also reads 20150101 and 2015-W01-4
    try:
        if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", text):
            raise ValueError("not a YYYY-MM-DD date")
        return date.fromisoformat(text)
    except ValueError as exc:
        line = _data_row(path, index)[0]
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


_CHUNK_ROWS = 512  # rows converted at a time: no cell string outlives its chunk
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


def _row_chunks(lines: Iterator[tuple[int, list[str]]], size: int) -> Iterator[list[list[str]]]:
    """The cells of :func:`_csv_rows`'s ``lines`` in lists of ``size`` rows,
    the last one shorter.  When reading a row raises ``SchemaError``, the rows
    read before it come first as a list of their own, so that a fault their
    conversion finds, at an earlier line, is the one named."""
    chunk = []
    try:
        for _, row in lines:
            chunk.append(row)
            if len(chunk) == size:
                yield chunk
                chunk = []
    except SchemaError:
        if chunk:
            yield chunk
        raise
    if chunk:
        yield chunk


def _number(text: str) -> float:
    """``float(text)``, or inf for a cell that is not a number."""
    try:
        return float(text)
    except ValueError:
        return math.inf


def _column_values(cells: tuple[str, ...]) -> np.ndarray:
    """float64 of one column of a chunk: NaN for an empty cell (missing), and
    inf for one that is not a finite number, a fault that :func:`_cell_float`
    names once the file is sorted.  The non-empty cells are converted with
    one ``np.array``, cell by cell only when one of them is not a number."""
    present = None
    if "" in cells:
        present = np.fromiter(map(bool, cells), bool, len(cells))
        cells = list(compress(cells, present))
    try:
        values = np.array(cells, dtype=np.float64)
    except ValueError:
        values = np.fromiter(map(_number, cells), np.float64, len(cells))
    values[~np.isfinite(values)] = math.inf
    if present is None:
        return values
    column = np.full(present.size, math.nan)
    column[present] = values
    return column


def _data_row(path: Path, index: int) -> tuple[int, list[str]]:
    """(line number, cells) of data row ``index`` (blank lines skipped), read
    again from the start: a fault found after the parse ends the command, so
    only its message pays for the second read."""
    rows = _csv_rows(path, SchemaError)
    try:
        return next(islice(rows, index + 1, None))
    finally:
        rows.close()


def load_timeseries(path, max_gap_days: int = 14,
                    report: list[str] | None = None) -> DailySeries:
    """Parse the daily time-series CSV into one :class:`DailySeries`.

    Channel names and count come from the header; per-county rows must form
    a contiguous daily calendar.  Counties whose measurement gaps exceed
    ``max_gap_days`` are dropped and reported.

    The rows are converted in chunks as they are read: FIPS codes to ids in
    order of first appearance, dates to day numbers (each distinct text
    parsed once), and each channel and the scores to floats.  One stable
    sort by (county, day) then groups every county's days; a fault is found
    on the sorted arrays and named with its line, read again from the file.
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

    county_of: dict[str, int] = {}  # FIPS -> id, in order of first appearance
    day_of: dict[str, int] = {}  # date text -> day number
    # per chunk; an empty first array lets a file without rows concatenate
    ids, days = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    measurements, scores = [np.empty((0, len(channel_names)))], [np.empty(0)]
    first = 0  # data row index of the chunk's first row
    for chunk in _row_chunks(lines, _CHUNK_ROWS):
        columns = list(zip(*chunk))
        county = list(map(county_of.get, columns[fips_col]))
        if None in county:
            county = [county_of.setdefault(text, len(county_of)) for text in columns[fips_col]]
        day = list(map(day_of.get, columns[date_col]))
        if None in day:
            for r, text in enumerate(columns[date_col], start=first):
                if text not in day_of:
                    day_of[text] = _parse_date(text, path, r).toordinal()
            day = [day_of[text] for text in columns[date_col]]
        ids.append(np.array(county, np.int64))
        days.append(np.array(day, np.int64))
        measurements.append(np.stack([_column_values(columns[i]) for i in channel_cols], axis=1))
        scores.append(_column_values(columns[score_col]))
        first += len(chunk)

    # each county's rows, counties in order of first appearance, then by
    # date; a stable sort keeps a repeated date's rows in file order
    county, day = np.concatenate(ids), np.concatenate(days)
    measurements, scores = np.concatenate(measurements), np.concatenate(scores)
    del ids, days  # free the chunks' arrays before the sorted copies are made
    order = np.lexsort((day, county))
    county = county[order]
    day = day[order]
    measurements = measurements[order]
    scores = scores[order]

    # the first county with a fault: its first calendar fault, else its
    # first bad channel cell, else its first bad score
    calendar = np.flatnonzero((county[1:] == county[:-1]) & (np.diff(day) != 1)) + 1
    cells = np.flatnonzero(np.isinf(measurements).any(axis=1))
    graded = np.flatnonzero(~(np.isnan(scores) | ((SCORE_MIN <= scores)
                                                   & (scores <= SCORE_MAX))))
    faults = [(county[rows[0]], kind, rows[0])
              for kind, rows in enumerate((calendar, cells, graded)) if rows.size]
    names = list(county_of)
    if faults:
        _, kind, r = min(faults)
        line, row = _data_row(path, int(order[r]))
        where = f"{path}: line {line}: county {names[county[r]]}:"
        today = date.fromordinal(int(day[r]))
        if kind == 0:
            what = ("duplicate date" if day[r] == day[r - 1]
                    else f"gap between {date.fromordinal(int(day[r - 1]))} and")
            raise DataError(f"{where} {what} {today}")
        if kind == 1:  # the row's first inf is a cell that _cell_float rejects
            c = int(np.argmax(np.isinf(measurements[r])))
            _cell_float(row[channel_cols[c]], path, line, channel_names[c])
        score = _cell_float(row[score_col], path, line, "score")
        raise DataError(f"{where} score {score} outside [0, 5] at {today}")

    start = np.concatenate([[0], np.cumsum(np.bincount(county, minlength=len(names)))])
    kept = []
    for c, name in enumerate(names):
        block = measurements[start[c]:start[c + 1]]
        present = ~np.isnan(block)
        try:
            for m, channel in enumerate(channel_names):
                block[:, m] = _interpolate_column(block[:, m], present[:, m], max_gap_days,
                                                  name, channel)
        except DataError as exc:
            if report is not None:
                report.append(f"dropped county {name}: {exc}")
        else:
            kept.append(c)
    if not kept:
        raise DataError(f"{path}: no usable counties")

    kept.sort(key=names.__getitem__)  # FIPS order
    rows = np.concatenate([np.arange(start[c], start[c + 1]) for c in kept])
    return DailySeries(channel_names, np.array([names[c] for c in kept]),
                       (day[start[kept]] - _EPOCH_ORDINAL).astype("datetime64[D]"),
                       np.concatenate([[0], np.cumsum(np.diff(start)[kept])]),
                       measurements[rows], scores[rows])


def load_statics(path, categorical_columns: list[str],
                 encoder: CategoricalEncoder | None = None,
                 ) -> tuple[StaticTable, CategoricalEncoder]:
    """Parse the static-features CSV; returns the county table plus the
    label dictionary used for encoding (fit here unless one is supplied)."""
    for i, name in enumerate(categorical_columns):
        if name in categorical_columns[:i]:
            raise ConfigError(f"categorical column {name!r} is listed twice")
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
    then anchor date.  The set's day table is ``series.measurements``
    itself, not a copy, so normalizing the set normalizes the series.

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

    # the history check keeps each window, and its year-earlier copy, inside
    # one county; the future check keeps all six targets among its own scores
    first = rows[keep] - window_days
    y = series.scores[rows[keep[:, None] + first_target + np.arange(TARGET_WEEKS)]]
    county = county[keep]
    anchor = series.first_day[county] + day[keep]
    own = static_row[county]
    return SampleSet(np.asarray(series.measurements, np.float64), window_days,
                     np.stack([first, first - YEAR_SHIFT_DAYS], axis=1),
                     statics.numeric[own], statics.codes[own], y, series.fips[county],
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

    def apply(self, samples: SampleSet) -> None:
        """Normalize the day table and the numeric statics of ``samples`` in
        place.  Each value is subtracted and divided on its own, so the
        windows gathered afterwards have the bits of normalized windows."""
        channels = len(self.channel_names)
        if samples.width != 2 * channels:
            raise DataError(f"samples have {samples.width} columns, "
                            f"normalizer expects {2 * channels}")
        # the current- and previous-year windows are rows of one table
        np.subtract(samples.days, self.channel_mean, out=samples.days)
        np.divide(samples.days, self.channel_std, out=samples.days)
        np.subtract(samples.s_n, self.static_mean, out=samples.s_n)
        np.divide(samples.s_n, self.static_std, out=samples.s_n)

    def save(self, path) -> None:
        rows = [["channel", "mean", "std"]]
        for name, m, s in zip(self.channel_names, self.channel_mean, self.channel_std):
            rows.append([f"ts.{name}", repr(float(m)), repr(float(s))])
        for name, m, s in zip(self.static_names, self.static_mean, self.static_std):
            rows.append([f"static.{name}", repr(float(m)), repr(float(s))])
        write_file(path, [csv_text(rows)])


def fit_normalizer(samples: SampleSet, channel_names: list[str],
                   static_names: list[str]) -> Normalizer:
    """Each channel's mean and standard deviation over the current- and
    year-earlier windows of the samples, pooled, without gathering one:
    each day of the table weighs as many times as those windows cover it,
    counted by a difference array (+1 where a window starts, -1 where it
    ends).  The weighted sums are taken by numpy, not BLAS, so their bits do
    not depend on the BLAS thread count."""
    if not len(samples):
        raise DataError("cannot fit a normalizer on an empty sample set")
    firsts, size = samples.start.ravel(), len(samples.days) + 1
    weight = np.cumsum(np.bincount(firsts, minlength=size)
                       - np.bincount(firsts + samples.steps, minlength=size))[:-1]
    total = weight.sum()
    mean = np.einsum("d,dm->m", weight, samples.days) / total
    deviation = samples.days - mean
    np.square(deviation, out=deviation)
    std = np.sqrt(np.einsum("d,dm->m", weight, deviation) / total)
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


_CACHE_MAGIC = b"HMSAMP4"
_CACHE_HEADER = struct.Struct("<7Q")  # N, T, M, D, f_n, f_d, the FIPS width in characters


def _cache_layout(n: int, steps: int, channels: int, table_days: int, f_n: int, f_d: int,
                  chars: int) -> list[tuple[str, tuple[int, ...]]]:
    """(dtype, shape) of each cached column, in file order: the day table,
    start, s_n, s_d, y, anchor as days since 1970-01-01, FIPS as UTF-32 of
    fixed width >= 1."""
    return [("<f8", (table_days, channels)), ("<i8", (n, 2)), ("<f8", (n, f_n)),
            ("<i8", (n, f_d)), ("<f8", (n, TARGET_WEEKS)), ("<i8", (n,)),
            (f"<U{max(chars, 1)}", (n,))]


def save_samples(samples: SampleSet, path) -> None:
    """Binary sample cache (:func:`write_artifact`) of ``samples``: its
    whole day table (none if empty) and its start rows; deterministic bytes."""
    chars = np.asarray(samples.fips, dtype=str).dtype.itemsize // 4
    days = samples.days if len(samples) else samples.days[:0]
    header = (len(samples), samples.steps, *days.shape[::-1], samples.s_n.shape[1],
              samples.s_d.shape[1], chars)
    columns = (days, samples.start, samples.s_n, samples.s_d, samples.y,
               samples.anchor.astype("datetime64[D]").view(np.int64), samples.fips)
    write_artifact(path, _CACHE_MAGIC, _CACHE_HEADER.pack(*header),
                   (np.asarray(column, dtype)
                    for column, (dtype, _) in zip(columns, _cache_layout(*header))))


def load_samples(path) -> SampleSet:
    """Read a cache written by :func:`save_samples`; the columns are views
    into one writable buffer, and ``sha256`` is the file's digest.  A window
    length or channel count below 1, or a window that leaves the day table,
    raises ``FormatError``."""
    header, read, sha256 = read_artifact(path, _CACHE_MAGIC, "sample cache", "re-run ingest")
    if len(header) != _CACHE_HEADER.size:
        raise FormatError(f"{path}: corrupt sample cache header ({len(header)} bytes)")
    n, steps, channels, table_days, *_ = sizes = _CACHE_HEADER.unpack(header)
    if steps < 1 or channels < 1:
        raise FormatError(f"{path}: corrupt sample cache header (T={steps}, M={channels})")
    days, start, s_n, s_d, y, anchor, fips = read(_cache_layout(*sizes))
    if n and not (start.min() >= 0 and start.max() <= table_days - steps):
        raise FormatError(f"{path}: corrupt sample cache: a {steps}-day window leaves "
                          f"its {table_days}-day table")
    return SampleSet(days, steps, start, s_n, s_d, y, fips, anchor.view("datetime64[D]"), sha256)


_PREDICTIONS_MAGIC = b"HMPRED1"
_PREDICTIONS_HEADER = struct.Struct("<2Q32s32s")  # N, T, the two sha256 digests


@dataclass(eq=False)
class EvalPredictions:
    """What the eval-mode forward returned over a test set: ``predictions``
    (N, 6) and ``attention`` (N, T), ``None`` when the model has no
    attention path; and the sha256 digests of the checkpoint and of the
    sample cache it read, as :func:`read_artifact` returned them."""

    predictions: np.ndarray
    attention: np.ndarray | None
    checkpoint_sha256: bytes
    samples_sha256: bytes

    def save(self, path) -> None:
        """:func:`write_artifact` file: a header of N and T (0 without
        attention) as uint64 and the two digests, then the predictions and
        the attention as float64."""
        arrays = [self.predictions] + ([] if self.attention is None else [self.attention])
        steps = 0 if self.attention is None else self.attention.shape[1]
        header = _PREDICTIONS_HEADER.pack(len(self.predictions), steps,
                                          self.checkpoint_sha256, self.samples_sha256)
        write_artifact(path, _PREDICTIONS_MAGIC, header,
                       (np.asarray(array, "<f8") for array in arrays))

    @classmethod
    def load(cls, path) -> "EvalPredictions":
        header, read, _ = read_artifact(path, _PREDICTIONS_MAGIC, "eval predictions",
                                        "re-run eval")
        if len(header) != _PREDICTIONS_HEADER.size:
            raise FormatError(f"{path}: corrupt eval predictions header ({len(header)} bytes)")
        n, steps, checkpoint, samples = _PREDICTIONS_HEADER.unpack(header)
        predictions, *attention = read([("<f8", (n, TARGET_WEEKS))]
                                       + ([("<f8", (n, steps))] if steps else []))
        return cls(predictions, attention[0] if attention else None, checkpoint, samples)
