"""In-memory representation of micro-randomized trial data plus CSV I/O.

A dataset is a rectangular panel: n subjects, each observed at decision
points t = 1..T.  Every decision point carries an availability
indicator, a treatment category in {0, .., K} (0 is the reference arm),
the K+1 randomization probabilities in effect at that point, a proximal
outcome, and arbitrary named real-valued features usable as moderator
or control columns.

Arrays are stored subject-major and are frozen after construction, so a
dataset can be shared freely across threads.  Construction validates the
panel, so a dataset that exists satisfies every invariant.
"""

from __future__ import annotations

import contextlib
import csv
import os
import stat
import threading
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice
from types import MappingProxyType
from typing import TextIO

import numpy as np

from .errors import DataValidationError, DegenerateArmError, PositivityError

__all__ = [
    "MrtDataset",
    "NumeratorPolicy",
    "load_csv",
    "write_csv",
    "fit_numerator_probs",
]

PROB_CLIP = 1e-6
PROB_SUM_TOL = 1e-8

# load_csv reads probability cells as bytes this wide.  repr() and numpy's
# default "%.18e" spell a probability in at most 24 characters; a cell
# that fills the field may have been cut.
_PROB_WIDTH = 25
# load_csv reads ids as bytes when no id in the first rows is longer than
# this, in a field twice as wide as the longest of them, plus 8 (80 for
# 36-character UUIDs).  An id that fills the field may have been cut.
_ID_LENGTH = 64
# The rows load_csv reads first to guess which columns to read as bytes
# or as integers.
_SAMPLE_ROWS = 4096
# The columns that hold integers, and the magnitude up to which f8 holds
# every integer exactly: a file with a larger one is left to the scanner,
# which reads an integer cell from its text.
_INTEGER_COLUMNS = ("t", "avail", "trt")
_EXACT_INT = 2**53
# The most bytes _repeats_by_t copies out of the record at a time.
_COMPARE_BYTES = 1 << 18
# The bytes _special_bytes reads from the file at a time.
_SCAN_BLOCK = 1 << 20
# Suffixes np.loadtxt decompresses when it opens a path.  A file named so
# is handed to it open, so that its bytes are read as they are.
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")
# csv.field_size_limit while the scanner reads rows: the largest value a
# 32-bit C long holds.  The limit is process-wide, so it is set and
# restored under the lock, which header reads also take.
_SCAN_FIELD_LIMIT = 2**31 - 1
_field_limit_lock = threading.Lock()


def _rejects_decimal_integers() -> bool:
    """Whether numpy's integer parser rejects an integer cell written
    as a decimal, such as 1.5.  Older numpy versions parse such a cell
    as a float and truncate it, with a DeprecationWarning that Python's
    default filters hide; load_csv then reads t, avail and trt as f8,
    whose values it checks."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            np.loadtxt(["1.5"], dtype="i8")
        except ValueError:
            return True
    return False


# Whether load_csv may read t, avail and trt as int64: numpy then
# rejects every cell that is not an integer, and the rows are read again.
_INT64_READS = _rejects_decimal_integers()

NUMERATOR_KINDS = (
    "match_randomization",
    "empirical_per_t",
    "empirical_pooled",
    "user_supplied",
)


@dataclass(frozen=True)
class NumeratorPolicy:
    """How the stabilizing numerator probabilities are chosen.

    kind is one of match_randomization (copy the randomization
    probabilities, which must then be identical across subjects at each
    decision point), empirical_per_t (arm frequencies among available
    records at each t), empirical_pooled (arm frequencies pooled over
    all t), or user_supplied (an explicit T x (K+1) table).

    table may be given as any array-like of finite positive entries.  It
    is stored as nested tuples of floats, a copy, so that policies
    compare and hash by value.
    """

    kind: str = "match_randomization"
    table: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in NUMERATOR_KINDS:
            raise DataValidationError(
                f"unknown numerator policy {self.kind!r}; expected one of {NUMERATOR_KINDS}"
            )
        if self.kind == "user_supplied" and self.table is None:
            raise DataValidationError("user_supplied numerator policy requires a table")
        if self.table is not None:
            table = np.asarray(self.table, dtype=float)
            if not np.isfinite(table).all() or (table <= 0).any():
                raise PositivityError("numerator table entries must be finite and positive")
            object.__setattr__(self, "table", _tuples(table.tolist()))


def _tuples(value):
    """value, a result of ndarray.tolist(), with every list made a tuple."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


class MrtDataset:
    """Rectangular MRT panel backed by dense arrays.

    Construction checks every dataset invariant and raises
    DataValidationError listing all the violations, so a dataset is
    analysis-ready by type.

    Attributes
    ----------
    n, t_points, k_arms : panel dimensions (subjects, decision points,
        active treatment arms; arm 0 is the reference).
    avail : (n, T) int array of availability indicators.
    trt : (n, T) int array of treatment categories in {0..K}.
    probs : (n, T, K+1) array of randomization probabilities.  When
        every subject's (T, K+1) table is bitwise the same, the dataset
        keeps one copy of it and probs is a read-only np.broadcast_to
        view of that copy, still (n, T, K+1); otherwise probs is a full
        copy.  Either way it holds the same values and bytes.
    outcome : (n, T) float array of proximal outcomes.
    features : read-only mapping of name -> (n, T) float array.
    subject_ids : tuple of n identifiers, in file order.
    """

    def __init__(
        self,
        subject_ids: tuple[str, ...],
        avail: np.ndarray,
        trt: np.ndarray,
        probs: np.ndarray,
        outcome: np.ndarray,
        features: dict[str, np.ndarray],
        k_arms: int,
    ) -> None:
        self.subject_ids = tuple(str(s) for s in subject_ids)
        # Copies, so that freezing below leaves the caller's arrays writable.
        self.avail = np.array(avail, dtype=np.int64)
        self.trt = np.array(trt, dtype=np.int64)
        probs = np.asarray(probs, dtype=float)
        self.outcome = np.array(outcome, dtype=float)
        self.features = MappingProxyType(
            {k: np.array(v, dtype=float) for k, v in features.items()}
        )
        self.k_arms = int(k_arms)
        if self.avail.ndim != 2:
            raise DataValidationError(
                f"availability array shape mismatch: expected (n, T), got {self.avail.shape}"
            )
        self.n, self.t_points = self.avail.shape
        if self.trt.shape != (self.n, self.t_points):
            raise DataValidationError("treatment array shape mismatch")
        if self.outcome.shape != (self.n, self.t_points):
            raise DataValidationError("outcome array shape mismatch")
        if probs.shape != (self.n, self.t_points, self.k_arms + 1):
            raise DataValidationError("probability array shape mismatch")
        self.probs = _copy_probs(probs)
        for name, arr in self.features.items():
            if arr.shape != (self.n, self.t_points):
                raise DataValidationError(f"feature {name!r} shape mismatch")
        for arr in (self.avail, self.trt, self.probs, self.outcome, *self.features.values()):
            arr.flags.writeable = False
        violations = validate(self)
        if violations:
            raise DataValidationError("; ".join(violations))

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(self.features.keys())


def _copy_probs(probs: np.ndarray) -> np.ndarray:
    """A copy of the (n, T, K+1) probs for a dataset to keep: a read-only
    broadcast of a copy of the first subject's table when every subject's
    is bitwise that table, else a copy of the whole array.  An array with
    a zero subject stride, a broadcast, is taken as shared unchecked."""
    if len(probs) and (
        probs.strides[0] == 0
        or (probs.view(np.uint64) == probs[:1].view(np.uint64)).all()
    ):
        return np.broadcast_to(probs[0].copy(), probs.shape)
    return np.array(probs)


def stored_probs(data: MrtDataset) -> np.ndarray:
    """data.probs as the dataset stores them: the (1, T, K+1) table that
    every subject shares, or the whole (n, T, K+1) array.  Either
    broadcasts to data.probs."""
    return data.probs[:1] if data.probs.strides[0] == 0 else data.probs


def _integer(text: str) -> int:
    """A t, avail or trt cell's integer: an integer literal exactly, else
    float()'s value; ValueError when that is no integer."""
    try:
        return int(text)
    except ValueError:
        value = float(text)
        if not value.is_integer():
            raise
        return int(value)


def _column(cells: list[str], integer: bool) -> tuple[np.ndarray, np.ndarray]:
    """Convert one CSV column; return (values, indices of bad cells).

    Each cell is stripped with str.strip first, which, like numpy's
    parser and unlike float(), also strips U+001C..U+001F.  An integer
    column is converted with _integer into int64, any other with
    float().  A cell is bad when the conversion rejects it or int64
    cannot hold its value.
    """
    convert, dtype = (_integer, np.int64) if integer else (float, np.float64)
    values = np.zeros(len(cells), dtype=dtype)
    bad = np.zeros(len(cells), dtype=bool)
    for index, raw in enumerate(cells):
        try:
            values[index] = convert(raw.strip())
        except (ValueError, OverflowError):
            bad[index] = True
    return values, np.flatnonzero(bad)


def _cell_message(path: str, raw: str, column: str, line: int) -> str:
    """Why _column rejected the cell raw, found on line `line` of path."""
    raw = raw.strip()
    where = f"{path}: line {line}"
    if raw == "":
        return f"{where}: empty value in column {column!r}"
    try:
        value = float(raw)
    except ValueError:
        return f"{where}: non-numeric value {raw!r} in column {column!r}"
    if value.is_integer():
        return f"{where}: integer value {raw!r} in column {column!r} is out of range"
    return f"{where}: column {column!r} must be an integer"


@dataclass(frozen=True)
class _Columns:
    """The columns of one file's header: the header itself, the
    probability columns prob_0..prob_K and the feature columns, which
    are all the columns the layout does not otherwise name."""

    header: tuple[str, ...]
    prob: tuple[str, ...]
    features: tuple[str, ...]

    @property
    def values(self) -> tuple[str, ...]:
        """The columns read as panel values, in the order bad cells are reported."""
        return ("avail", "trt", "outcome", *self.prob, *self.features)


def _csv_rows(path: str, reader) -> Iterator[list[str]]:
    """The rows of a csv.reader, with csv's own errors (such as a cell over
    its field size limit) raised as DataValidationError naming the line,
    and a byte that is not UTF-8 as one naming the file."""
    try:
        yield from reader
    except csv.Error as exc:
        raise DataValidationError(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _read_header(path: str, reader) -> _Columns:
    """Read the header row from reader and resolve its columns.

    Raises DataValidationError on an empty file or a header that does
    not fit the layout.
    """
    try:
        with _field_limit_lock:
            header = [h.strip() for h in next(_csv_rows(path, reader))]
    except StopIteration:
        raise DataValidationError(f"{path}: file is empty") from None
    col_index = {name: i for i, name in enumerate(header)}
    if len(col_index) != len(header):
        raise DataValidationError(f"{path}: duplicate column names in header")

    required = ("id", "t", "avail", "trt", "outcome")
    for name in required:
        if name not in col_index:
            raise DataValidationError(f"{path}: missing required column {name!r}")

    prob_columns = tuple(name for name in header if name.startswith("prob_"))
    expected = tuple(f"prob_{k}" for k in range(len(prob_columns)))
    if prob_columns != expected:
        raise DataValidationError(
            f"{path}: probability columns must be prob_0..prob_K in order, found {prob_columns}"
        )
    if len(prob_columns) < 2:
        raise DataValidationError(f"{path}: need at least prob_0 and prob_1 columns")

    claimed = set(required) | set(prob_columns)
    feature_columns = tuple(name for name in header if name not in claimed)
    return _Columns(tuple(header), prob_columns, feature_columns)


def load_csv(path: str) -> MrtDataset:
    """Read a rectangular MRT panel from CSV and validate it.

    The header names the columns id, t, avail, trt, prob_0..prob_K (in
    that order among themselves) and outcome, and every other column is
    a feature; this is the one layout load_csv reads.  t is 1-based in
    files.  Rows may come in any order; subjects keep the order in which
    their ids first appear.  Raises DataValidationError on structural
    problems (missing columns, ragged panels, duplicate rows) and on any
    dataset invariant violation.  A message about one cell names its
    file line; when several cells are bad, the first in (subject, t,
    column) order is reported.

    The header is read with csv.reader, and every row after it in one
    np.loadtxt call (numpy's C parser).  That call is given the path, so
    that numpy reads the file in blocks, unless the file holds both a CR
    and a double quote (numpy opens a path with universal newlines,
    which would turn a CR inside a quoted cell into LF) or its name ends
    in a suffix numpy decompresses (.gz, .bz2, .xz, .lzma); such a file
    is handed to it open.  Given the path, it is also given a bound on
    the rows, the file's LF count + 1, so that numpy allocates the
    record once instead of growing it as it reads, unless the file holds
    a CR (numpy would end a row at a lone CR too) or an empty line
    (numpy warns on one when given a bound).  What the first rows of the
    file show decides how the call reads each column:

    - t, avail and trt are parsed as int64 when numpy's integer parser
      takes every such cell there, and as f8 otherwise.  They are
      always parsed as f8 with a numpy whose integer parser truncates a
      decimal such as 1.5 instead of rejecting it.
    - A probability column whose cells repeat at each t there is read
      as bytes, and so are the ids when they are Latin-1 text of at
      most 64 characters there.
    - Every other column is parsed as f8.

    Rows in panel order are found by comparing the ids subject block by
    subject block, decoding only each block's first id; other rows are
    sorted by subject, then t, and every column is gathered into that
    order once.  Each bytes probability column is then compared, block
    by block, with the first subject's T cells: when it repeats them,
    only those are converted, with float(), else each cell is.  float()
    and numpy's parser round alike, so the values are the same either
    way.  When every probability column repeats, the dataset is given
    those T rows as one (T, K+1) table broadcast over the subjects and
    stores it once, so no (n, T, K+1) array is built; data.probs is
    still a read-only (n, T, K+1) array (see MrtDataset).

    When that read cannot decide, the rows are read again with the ids
    as str and every value column parsed as f8.  It cannot decide on a
    cell the integer parser rejects past the first rows (such as 1.0,
    1e0 or nan), an integer beyond 2**53 in magnitude, a bytes cell that
    fills its field or that float() rejects, a NUL in the file, or a
    cell numpy cannot store as bytes, such as an id outside Latin-1 past
    the first rows.  When the f8 read cannot decide either (a cell its
    parser rejects, a row of the wrong width, a whitespace-only line, no
    data rows, or a t/avail/trt value that is not an integer below 2**53
    in magnitude, which f8 may have rounded), a csv.reader scanner reads
    the rows again and words the error.  It converts each cell with
    float(), but an integer literal in t, avail or trt exactly, with
    int().  Every route gives the same dataset or the same message: the
    scanner also loads what float() accepts and numpy does not, such as
    digit separators (1_0).  The file must be UTF-8 text; a byte order
    mark at its start is skipped.

    The path must name a regular file, since the loader reads it more
    than once: a pipe, a FIFO or a directory raises DataValidationError
    before anything is opened, so a FIFO with no writer cannot block.
    """
    _check_regular(path)
    with open(path, newline="", encoding="utf-8-sig") as handle:
        # readline, not iteration, so that tell() can mark where the rows start
        lines = iter(handle.readline, "")
        reader = csv.reader(lines)
        columns = _read_header(path, reader)
        start = handle.tell()
        panel = None
        # loadtxt warns on a file without data rows; the scanner words that
        # case and non-UTF-8 bytes.  Lines, not csv rows: csv limits a cell.
        with contextlib.suppress(UnicodeDecodeError):
            if any(map(str.strip, lines)):
                panel = _read_panel(path, handle, start, reader.line_num, columns)
    if panel is None:
        return _scan_csv(path)
    return _to_dataset(path, columns, *panel)


def _check_regular(path: str) -> None:
    """Raise unless path names a regular file, before anything opens it."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise DataValidationError(
            f"{path}: not a regular file; the input must be written to a file first"
        )


def _read_columns(path: str) -> _Columns:
    """The columns of path's header, which load_csv would read: raises
    what load_csv raises on the path or the header, and reads no row,
    so that a caller can check names against them first."""
    _check_regular(path)
    with open(path, newline="", encoding="utf-8-sig") as handle:
        return _read_header(path, csv.reader(handle))


def _read_panel(
    path: str, handle: TextIO, start: int, header_lines: int, columns: _Columns
) -> tuple[tuple[str, ...], dict[str, np.ndarray], np.ndarray | None] | None:
    """The rows after the header, which spans header_lines lines and
    ends at file position start, read by np.loadtxt from path or handle.

    Returns what _parse_rows returns, reading as bytes or as integers
    the columns that look worth it, and reading again with every value
    column as f8 when they cannot decide.
    """
    handle.seek(start)
    dtypes = _repeating_columns(handle, columns)
    found, line_feeds, empty_line = _special_bytes(path)
    if b"\0" in found:
        dtypes = {}  # a bytes cell would lose a NUL at its end: read as f8
    if {b"\r", b'"'} <= found or os.path.splitext(path)[1] in _COMPRESSED:
        source, skiprows, max_rows = handle, 0, None
    else:
        # "./" before a relative path: numpy's opener never takes it for a URL
        source, skiprows = os.path.join(os.curdir, path), header_lines
        # a row bound, so that numpy allocates the record once: see _special_bytes
        max_rows = None if b"\r" in found or empty_line else line_feeds + 1
    handle.seek(start)
    panel = _parse_rows(path, source, skiprows, columns, dtypes, max_rows)
    if panel is None and dtypes:
        handle.seek(start)
        panel = _parse_rows(path, source, skiprows, columns, {}, max_rows)
    return panel


def _loadtxt(
    source,
    columns: _Columns,
    dtypes: dict[str, str],
    skiprows: int = 0,
    max_rows: int | None = None,
) -> dict[str, np.ndarray]:
    """The cells of source (a path, a file handle or a list of lines) by
    header column, from one np.loadtxt call that skips the first skiprows
    lines: the columns in dtypes with the numpy dtype it gives (bytes
    fields "S<width>" or "i8"), the id otherwise as str objects, every
    other column as f8.  The columns are fields of one record array.

    max_rows, when given, must be at least the number of rows: numpy
    then allocates the record at that size once, instead of growing it
    as it reads."""

    def cell(name: str):
        return dtypes.get(name, object if name == "id" else "f8")

    dtype = np.dtype([(f"f{j}", cell(name)) for j, name in enumerate(columns.header)])
    rows = np.loadtxt(
        source, dtype=dtype, delimiter=",", quotechar='"', comments=None,
        skiprows=skiprows, max_rows=max_rows, encoding="utf-8-sig", ndmin=1,
    )
    return {name: rows[f"f{j}"] for j, name in enumerate(columns.header)}


def _repeating_columns(handle: TextIO, columns: _Columns) -> dict[str, str]:
    """The columns to read other than as _loadtxt's default, with their
    dtypes: t, avail and trt as i8 when numpy's integer parser takes
    every such cell in the first rows from handle and rejects every
    cell that is not an integer (_INT64_READS); the probability
    columns whose cells there are the same at each t, and none fills
    the field, as bytes; and the id as bytes when every id there is
    Latin-1 text of at most _ID_LENGTH characters.

    A guess that only speed depends on: reading a column whose cells
    vary as bytes costs more than parsing it, and a cell the integer
    parser rejects past these rows (such as 1.0) costs a second full
    read.  _parse_rows checks every cell.
    """
    probs = dict.fromkeys(columns.prob, f"S{_PROB_WIDTH}")
    ints = dict.fromkeys(_INTEGER_COLUMNS, "i8") if _INT64_READS else {}
    try:
        sample = list(islice(filter(str.strip, iter(handle.readline, "")), _SAMPLE_ROWS))
        try:
            cells = _loadtxt(sample, columns, {**probs, **ints})
        except ValueError:
            ints = {}
            cells = _loadtxt(sample, columns, probs)
    except ValueError:  # including UnicodeDecodeError: the scanner words it
        return {}
    _, first, group = np.unique(cells["t"], return_index=True, return_inverse=True)
    dtypes = {
        name: dtype
        for name, dtype in probs.items()
        if not _fills(cells[name]) and (cells[name] == cells[name][first][group]).all()
    }
    longest = max(map(len, cells["id"]), default=0)
    if longest <= _ID_LENGTH and max("".join(cells["id"]), default="") <= "\xff":
        dtypes["id"] = f"S{2 * longest + 8}"
    return {**dtypes, **ints}


def _special_bytes(path: str) -> tuple[set[bytes], int, bool]:
    """Which of NUL, CR and the double quote the file holds, how many
    LFs it holds, and whether it holds an empty line: an LF at its start
    or right after another LF.

    The LF count + 1 bounds the rows np.loadtxt reads from the path
    when the file holds no CR and no empty line.  numpy opens a path
    with universal newlines, so a lone CR also ends a row there; and
    given a bound, it warns on each call that meets an empty line,
    which it skips either way.
    """
    found, line_feeds, empty_line, last = set(), 0, False, b"\n"
    with open(path, "rb") as raw:
        for block in iter(lambda: raw.read(_SCAN_BLOCK), b""):
            found.update(byte for byte in (b"\0", b"\r", b'"') if byte in block)
            lf = np.frombuffer(block, np.uint8) == ord("\n")
            line_feeds += int(np.count_nonzero(lf))
            pairs = last + block[:1] == b"\n\n" or (lf[1:] & lf[:-1]).any()
            empty_line = empty_line or bool(pairs)
            last = block[-1:]
    return found, line_feeds, empty_line


def _fills(cells: np.ndarray) -> bool:
    """Whether a cell of a bytes column fills its field: numpy pads a
    shorter cell with NULs, so its last byte is not NUL."""
    return bool(_byte_rows(cells)[:, -1].any())


def _byte_rows(cells: np.ndarray) -> np.ndarray:
    """The bytes cells as rows of uint8, a view: comparing those costs
    less than comparing the cells."""
    return cells.view(np.dtype([("b", np.uint8, (cells.dtype.itemsize,))]))["b"]


def _parse_rows(
    path: str,
    source,
    skiprows: int,
    columns: _Columns,
    dtypes: dict[str, str],
    max_rows: int | None,
) -> tuple[tuple[str, ...], dict[str, np.ndarray], np.ndarray | None] | None:
    """Every data row from source in one np.loadtxt call, given the row
    bound max_rows, grouped into subjects by _subjects, which raises on
    a row set that is no panel.

    Returns (subject ids, {value column: values in panel order}, table),
    or None when the cells cannot decide: see load_csv.  table is the
    (T, K+1) probabilities every subject shares when each probability
    column was read as bytes that repeat at each t, and the value
    columns then leave the probability columns out; else it is None.
    """
    try:
        cells = _loadtxt(source, columns, dtypes, skiprows, max_rows)
    except ValueError:
        return None
    as_bytes = {name for name, dtype in dtypes.items() if dtype.startswith("S")}
    # Copies, so that the record array is freed on return.
    values = {
        name: np.ascontiguousarray(cells[name])
        for name in ("t", *columns.values)
        if name not in as_bytes
    }
    if not all(_exact_integers(values[name]) for name in _INTEGER_COLUMNS):
        return None
    if "id" in as_bytes and _fills(cells["id"]):
        return None
    subject_ids, order = _subjects(path, cells["id"], values.pop("t"))
    prob_cells = {name: cells[name] for name in columns.prob if name in as_bytes}
    if order is not None:
        values = {name: column[order] for name, column in values.items()}
        prob_cells = {name: column[order] for name, column in prob_cells.items()}
    t_points = len(cells["t"]) // len(subject_ids)
    per_t = {}  # column -> its T floats, when its cells repeat at each t
    for name, column in prob_cells.items():
        repeats = _repeats_by_t(column, t_points)
        if repeats:
            column = column[:t_points]
        floats = None if _fills(column) else _floats(column)
        if floats is None:
            return None
        (per_t if repeats else values)[name] = floats
    if len(per_t) == len(columns.prob):
        return subject_ids, values, np.column_stack(list(per_t.values()))
    values.update((name, np.tile(floats, len(subject_ids))) for name, floats in per_t.items())
    return subject_ids, values, None


def _exact_integers(values: np.ndarray) -> bool:
    """Whether a t, avail or trt column holds what every route reads
    alike, integers f8 holds exactly: of magnitude at most 2**53 read as
    i8, and below it read as f8, which may have rounded a larger one."""
    if values.dtype.kind == "i":
        return bool(((values >= -_EXACT_INT) & (values <= _EXACT_INT)).all())
    return bool(((values == np.trunc(values)) & (np.abs(values) < _EXACT_INT)).all())


def _repeats_by_t(cells: np.ndarray, t_points: int) -> bool:
    """Whether the bytes cells, in panel order, repeat the first
    subject's T cells byte for byte in every subject.

    Each chunk of whole subjects is copied out (at most _COMPARE_BYTES
    at a time) and compared with as many copies of the first subject's
    cells, with no gather.
    """
    step = max(1, _COMPARE_BYTES // (t_points * cells.dtype.itemsize)) * t_points
    expected = cells[:t_points].tobytes() * (step // t_points)
    chunks = (cells[s : s + step].tobytes() for s in range(0, len(cells), step))
    return all(chunk == expected[: len(chunk)] for chunk in chunks)


def _floats(cells: np.ndarray) -> np.ndarray | None:
    """float() of each bytes cell, or None when it rejects one.

    float() of bytes strips only ASCII whitespace, which numpy's parser
    strips too, and rejects every other byte outside the number, so it
    takes no cell that numpy's parser reads otherwise.  What it takes
    and numpy's parser does not, digit separators (1_0), the scanner
    takes too.
    """
    try:
        return np.array([float(cell) for cell in cells.tolist()])
    except ValueError:
        return None


def _scan_csv(path: str) -> MrtDataset:
    """load_csv's fallback, a complete loader on csv.reader and float().

    It loads the file or raises the error a reader going through it
    meets first, naming the file line of a bad cell.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        columns = _read_header(path, reader)
        rows: list[list[str]] = []
        lines: list[int] = []
        with _field_limit_lock:
            limit = csv.field_size_limit(_SCAN_FIELD_LIMIT)
            try:
                for row in _csv_rows(path, reader):
                    if any(map(str.strip, row)):
                        rows.append(row)
                        lines.append(reader.line_num)
            finally:
                csv.field_size_limit(limit)

    # Row checks, in file order: cell count, then t, then (id, t) seen
    # before.  The earliest failing row decides the message, so each check
    # looks only at the rows before the first failure of the ones above.
    width = len(columns.header)
    stop = next((i for i, row in enumerate(rows) if len(row) != width), len(rows))
    error = None
    if stop < len(rows):
        error = f"{path}: line {lines[stop]} has {len(rows[stop])} cells, header has {width}"
    if stop == 0:
        raise DataValidationError(error or f"{path}: no data rows")
    index = {name: j for j, name in enumerate(columns.header)}
    text = {
        name: [row[index[name]] for row in rows[:stop]]
        for name in ("id", "t", *columns.values)
    }
    del rows  # free the parsed rows; the columns keep only the cells needed

    t_values, bad = _column(text["t"], integer=True)
    if bad.size:
        stop = int(bad[0])
        error = _cell_message(path, text["t"][stop], "t", lines[stop])
    id_cells = np.array(text["id"][:stop], dtype=object)
    subject_ids, order = _subjects(path, id_cells, t_values[:stop], error)

    # Every row is in the panel: put them in panel order, convert the
    # value columns and report the bad cell a reader going subject by
    # subject, t by t and column by column would meet first.
    if order is not None:
        order = order.tolist()
        lines = [lines[i] for i in order]
        text = {name: [text[name][i] for i in order] for name in columns.values}
    values, failures = {}, []
    for rank, name in enumerate(columns.values):
        values[name], bad = _column(text[name], integer=name in ("avail", "trt"))
        if bad.size:
            failures.append((int(bad[0]), rank, name))
    if failures:
        row, _, name = min(failures)
        raise DataValidationError(_cell_message(path, text[name][row], name, lines[row]))
    return _to_dataset(path, columns, subject_ids, values)


def _subjects(
    path: str, cells: np.ndarray, t_values: np.ndarray, error: str | None = None
) -> tuple[tuple[str, ...], np.ndarray | None]:
    """Group rows by subject and check that they form a complete panel.

    cells holds each row's id cell as read: see _id_text.  Returns the
    subject ids in order of first appearance and the row order that
    sorts the rows by subject, then t, or None for rows in that order
    already.  error, a message about the row just past the ones given,
    is raised unless one of them repeats an earlier (id, t).
    """
    subject_ids = _ordered_subjects(cells, t_values)
    if subject_ids is not None:  # a panel already, and no (id, t) repeats
        if error is not None:
            raise DataValidationError(error)
        return subject_ids, None

    id_cells = _id_text(cells)
    # id -> subject index, in order of first appearance
    ids = {sid: i for i, sid in enumerate(dict.fromkeys(id_cells))}
    subject = np.fromiter(map(ids.__getitem__, id_cells), np.int64, len(id_cells))
    order = np.lexsort((t_values, subject))  # panel order: subject, then t
    repeat = (np.diff(subject[order]) == 0) & (np.diff(t_values[order]) == 0)
    if repeat.any():
        row = int(order[1:][repeat].min())
        error = f"{path}: duplicate (id, t) = ({id_cells[row]!r}, {int(t_values[row])})"
    if error is not None:
        raise DataValidationError(error)

    subject_ids = tuple(ids)
    n = len(subject_ids)
    counts = np.bincount(subject, minlength=n)
    t_points = int(counts[0])
    sorted_t = t_values[order]
    starts = np.cumsum(counts) - counts
    expected_t = np.arange(len(id_cells)) - np.repeat(starts, counts) + 1
    gapped = np.bincount(subject[order], weights=sorted_t != expected_t, minlength=n) > 0
    bad_subjects = np.flatnonzero((counts != t_points) | gapped)
    if bad_subjects.size:
        i = int(bad_subjects[0])
        sid = subject_ids[i]
        if counts[i] != t_points:
            raise DataValidationError(
                f"{path}: ragged panel; subject {sid!r} has {counts[i]} points, "
                f"subject {subject_ids[0]!r} has {t_points}"
            )
        points = [int(t) for t in sorted_t[starts[i] : starts[i] + counts[i]][:5]]
        raise DataValidationError(
            f"{path}: subject {sid!r} decision points are not 1..T (got {points}...)"
        )
    return subject_ids, order


def _ordered_subjects(cells: np.ndarray, t_values: np.ndarray) -> tuple[str, ...] | None:
    """The subject ids when the rows are in panel order already, else None.

    Panel order is blocks of T rows with one id each and t = 1..T in
    each, no id heading two blocks, which is how write_csv writes a
    file.  Such rows form a complete panel with no (id, t) repeated.
    The t test runs first and costs one pass over t; a failed test
    ends the check.  Only the block heads are stripped: a block whose
    cells differ in padding alone is not taken for one subject here,
    and _subjects sorts its rows.
    """
    if not len(cells):
        return None
    t_points = int(t_values[-1])  # the last row is t = T
    if t_points < 1 or len(cells) % t_points:
        return None
    if not (t_values.reshape(-1, t_points) == np.arange(1, t_points + 1)).all():
        return None
    blocks = cells.reshape(-1, t_points)
    heads = _id_text(blocks[:, 0])
    if len(set(heads)) < len(heads):
        return None
    if blocks.dtype.kind == "S":
        blocks = _byte_rows(blocks)
    if not (blocks == blocks[:, :1]).all():
        return None
    return tuple(heads)


def _id_text(cells: np.ndarray) -> list[str]:
    """The ids in an array of id cells, stripped: the cells are str, or
    bytes holding Latin-1 text."""
    if cells.dtype.kind == "S":
        return [cell.decode("latin-1").strip() for cell in cells.tolist()]
    return [cell.strip() for cell in cells.tolist()]


def _to_dataset(
    path: str,
    columns: _Columns,
    subject_ids: tuple[str, ...],
    values: dict[str, np.ndarray],
    table: np.ndarray | None = None,
) -> MrtDataset:
    """Arrange the value columns, in panel order, into the validated
    panel.  table, when given, is the (T, K+1) probabilities every
    subject shares, and values then has no probability column."""
    shape = (len(subject_ids), len(values["avail"]) // len(subject_ids))
    panel = {name: column.reshape(shape) for name, column in values.items()}
    if table is None:
        probs = np.stack([panel[name] for name in columns.prob], axis=2)
    else:
        probs = np.broadcast_to(table, (*shape, len(columns.prob)))
    try:
        return MrtDataset(
            subject_ids=subject_ids,
            avail=panel["avail"],
            trt=panel["trt"],
            probs=probs,
            outcome=panel["outcome"],
            features={name: panel[name] for name in columns.features},
            k_arms=len(columns.prob) - 1,
        )
    except DataValidationError as exc:
        raise DataValidationError(f"{path}: {exc}") from None


def write_csv(data: MrtDataset, path: str) -> None:
    """Write a dataset in the canonical column layout (t 1-based)."""
    header = (
        ["id", "t", "avail", "trt"]
        + [f"prob_{k}" for k in range(data.k_arms + 1)]
        + ["outcome"]
        + list(data.feature_names)
    )
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for i, sid in enumerate(data.subject_ids):
            for t in range(data.t_points):
                row = [sid, t + 1, int(data.avail[i, t]), int(data.trt[i, t])]
                row += [repr(float(x)) for x in data.probs[i, t]]
                row.append(repr(float(data.outcome[i, t])))
                row += [repr(float(data.features[name][i, t])) for name in data.feature_names]
                writer.writerow(row)


def validate(data: MrtDataset) -> tuple[str, ...]:
    """MrtDataset's checker: the dataset invariants data violates, worded.

    An empty tuple means the dataset is analysis-ready: availability is
    binary, unavailable points carry the reference arm, treatments lie
    in {0..K}, probability vectors are nonnegative and sum to one, the
    realized arm always has positive probability at available points,
    and all outcomes and features are finite.  The benchmark's traced
    mode times it under this name.
    """
    avail, trt, k_arms = data.avail, data.trt, data.k_arms
    # probabilities every subject shares are checked once, as subject 0's
    probs = stored_probs(data)

    def first(mask: np.ndarray) -> tuple[int, str, int]:
        """Subject index, subject id and 1-based t of the first hit."""
        i, t = np.argwhere(mask)[0]
        return i, data.subject_ids[i], t + 1

    bad: list[str] = []
    if data.n < 1:
        bad.append("dataset has no subjects")
    bad_avail = (avail != 0) & (avail != 1)
    if bad_avail.any():
        _, sid, t = first(bad_avail)
        bad.append(f"availability must be 0 or 1 (subject {sid!r}, t={t})")
    in_range = ((trt >= 0) & (trt <= k_arms)).all()
    if not in_range:
        i, sid, t = first((trt < 0) | (trt > k_arms))
        bad.append(f"treatment {int(trt[i, t - 1])} outside 0..{k_arms} (subject {sid!r}, t={t})")
    forced = (avail == 0) & (trt != 0)
    if forced.any():
        _, sid, t = first(forced)
        bad.append(f"unavailable point carries active treatment (subject {sid!r}, t={t})")
    if not np.isfinite(probs).all():
        bad.append("non-finite randomization probability")
    else:
        if (probs < 0).any():
            bad.append("negative randomization probability")
        sums = probs.sum(axis=2)
        off = np.abs(sums - 1.0) > PROB_SUM_TOL
        if off.any():
            i, sid, t = first(off)
            bad.append(
                "probabilities do not sum to 1 "
                f"(subject {sid!r}, t={t}, sum={float(sums[i, t - 1])!r})"
            )
        if in_range:
            realized = np.take_along_axis(probs, trt[..., None], axis=2)[..., 0]
            zero_prob = (avail == 1) & (realized <= 0.0)
            if zero_prob.any():
                i, sid, t = first(zero_prob)
                bad.append(
                    f"realized arm has zero probability "
                    f"(subject {sid!r}, t={t}, arm {int(trt[i, t - 1])})"
                )
    if not np.isfinite(data.outcome).all():
        bad.append("missing or non-finite outcome value")
    for name, arr in data.features.items():
        if not np.isfinite(arr).all():
            bad.append(f"non-finite value in feature {name!r}")
    return tuple(bad)


def _clip_renormalize(table: np.ndarray) -> np.ndarray:
    clipped = np.clip(table, PROB_CLIP, 1.0 - PROB_CLIP)
    return clipped / clipped.sum(axis=-1, keepdims=True)


def fit_numerator_probs(data: MrtDataset, policy: NumeratorPolicy) -> np.ndarray:
    """Resolve the numerator probabilities to a T x (K+1) table.

    All rows are clipped to [1e-6, 1 - 1e-6] and renormalized so weights
    stay finite even when empirical frequencies hit the boundary.
    """
    tables, errors = numerator_tables(
        data.avail[None], data.trt[None], stored_probs(data)[None], policy, data.k_arms
    )
    if errors[0] is not None:
        raise errors[0]
    return tables[0]


def numerator_tables(
    avail: np.ndarray,
    trt: np.ndarray,
    probs: np.ndarray,
    policy: NumeratorPolicy,
    k_arms: int,
) -> tuple[np.ndarray, list]:
    """fit_numerator_probs for R panels at once.

    avail and trt are (R, n, T); probs broadcasts to (R, n, T, K+1).
    Returns the (R, T, K+1) tables, or one (1, T, K+1) table when it is
    the same for every panel (user_supplied, or match_randomization on
    shared probs), and per panel the exception fit_numerator_probs
    raises on it, or None.
    """
    t_points, width = probs.shape[2], k_arms + 1
    count = avail.shape[0]
    errors: list = [None] * count

    if policy.kind == "match_randomization":
        same = np.isclose(probs, probs[:, :1], rtol=0.0, atol=1e-9)
        varies = ~same.all(axis=(1, 3))
        for r in np.flatnonzero(varies.any(axis=1)):
            errors[r] = DataValidationError(
                f"match_randomization requires probabilities constant across subjects; "
                f"they vary at t={int(np.argmax(varies[r])) + 1}"
            )
        table = probs[:, 0]
    elif policy.kind in ("empirical_per_t", "empirical_pooled"):
        chosen = (trt[..., None] == np.arange(width)) & (avail[..., None] == 1)
        if policy.kind == "empirical_per_t":
            counts = chosen.sum(axis=1).astype(float)  # (R, T, K+1)
        else:
            counts = chosen.sum(axis=(1, 2)).astype(float)[:, None, :]
        totals = counts.sum(axis=2, keepdims=True)
        for r in np.flatnonzero((counts == 0).any(axis=(1, 2))):
            if policy.kind == "empirical_per_t":
                t = int(np.argmax((counts[r] == 0).any(axis=1)))
                where = f" at t={t + 1}"
                empty = f"no available records{where}"
            else:
                t, where, empty = 0, "", "no available records in the dataset"
            if totals[r, t, 0] == 0:
                errors[r] = DegenerateArmError(empty)
            else:
                arm = int(np.flatnonzero(counts[r, t] == 0)[0])
                errors[r] = DegenerateArmError(
                    f"arm {arm} never observed among available records{where}"
                )
        with np.errstate(invalid="ignore", divide="ignore"):
            table = np.broadcast_to(counts / totals, (count, t_points, width))
    else:  # user_supplied; kind and entries already validated by NumeratorPolicy
        table = np.asarray(policy.table, dtype=float)
        if table.shape != (t_points, width):
            error = DataValidationError(
                f"numerator table shape {table.shape} does not match (T, K+1) = {(t_points, width)}"
            )
            return np.ones((1, t_points, width)) / width, [error] * count
        table = table[None]

    return _clip_renormalize(table), errors
