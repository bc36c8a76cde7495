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

import csv
from collections.abc import Iterator
from dataclasses import dataclass
from types import MappingProxyType
from typing import TextIO

import numpy as np

from .errors import DataValidationError, DegenerateArmError, PositivityError

__all__ = [
    "MrtDataset",
    "NumeratorPolicy",
    "CsvSchema",
    "ValidationReport",
    "load_csv",
    "write_csv",
    "validate",
    "fit_numerator_probs",
]

PROB_CLIP = 1e-6
PROB_SUM_TOL = 1e-8

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
    """

    kind: str = "match_randomization"
    table: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in NUMERATOR_KINDS:
            raise DataValidationError(
                f"unknown numerator policy {self.kind!r}; expected one of {NUMERATOR_KINDS}"
            )
        if self.kind == "user_supplied" and self.table is None:
            raise DataValidationError("user_supplied numerator policy requires a table")


class MrtDataset:
    """Rectangular MRT panel backed by dense arrays.

    Construction checks every invariant validate() checks and raises
    DataValidationError listing all the violations, so a dataset is
    analysis-ready by type.

    Attributes
    ----------
    n, t_points, k_arms : panel dimensions (subjects, decision points,
        active treatment arms; arm 0 is the reference).
    avail : (n, T) int array of availability indicators.
    trt : (n, T) int array of treatment categories in {0..K}.
    probs : (n, T, K+1) array of randomization probabilities.
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
        self.probs = np.array(probs, dtype=float)
        self.outcome = np.array(outcome, dtype=float)
        self.features = MappingProxyType(
            {k: np.array(v, dtype=float) for k, v in features.items()}
        )
        self.k_arms = int(k_arms)
        self.n, self.t_points = self.avail.shape
        if self.trt.shape != (self.n, self.t_points):
            raise DataValidationError("treatment array shape mismatch")
        if self.outcome.shape != (self.n, self.t_points):
            raise DataValidationError("outcome array shape mismatch")
        if self.probs.shape != (self.n, self.t_points, self.k_arms + 1):
            raise DataValidationError("probability array shape mismatch")
        for name, arr in self.features.items():
            if arr.shape != (self.n, self.t_points):
                raise DataValidationError(f"feature {name!r} shape mismatch")
        for arr in (self.avail, self.trt, self.probs, self.outcome, *self.features.values()):
            arr.flags.writeable = False
        report = validate(self)
        if not report.ok:
            raise DataValidationError("; ".join(report.violations))

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(self.features.keys())


@dataclass(frozen=True)
class CsvSchema:
    """Column-name mapping for load_csv.

    prob_columns lists the K+1 probability column names in arm order; as
    an alternative, const_probs supplies one fixed probability vector
    applied to every row (for constant-randomization trials whose files
    omit probability columns).  feature_columns defaults to every column
    not otherwise claimed.
    """

    id: str = "id"
    t: str = "t"
    avail: str = "avail"
    trt: str = "trt"
    outcome: str = "outcome"
    prob_columns: tuple[str, ...] | None = None
    const_probs: tuple[float, ...] | None = None
    feature_columns: tuple[str, ...] | None = None


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _integral(values: np.ndarray) -> np.ndarray:
    """Which values are integers in the int64 range."""
    return (values == np.trunc(values)) & (values >= -(2.0**63)) & (values < 2.0**63)


def _column(cells: list[str], integer: bool) -> tuple[np.ndarray, np.ndarray]:
    """Convert one CSV column with float(); return (values, indices of bad cells).

    A cell is bad when float() rejects it or, in an integer column, when
    its value is not an integer in the int64 range.  Cells float()
    rejects read as NaN.
    """
    values = np.full(len(cells), np.nan)
    bad = np.zeros(len(cells), dtype=bool)
    for index, raw in enumerate(cells):
        try:
            values[index] = float(raw)
        except ValueError:
            bad[index] = True
    if integer:
        bad |= ~_integral(values)
    return values, np.flatnonzero(bad)


def _cell_message(raw: str, column: str, line: int) -> str:
    """Why _column rejected the cell raw, found on file line `line`."""
    raw = raw.strip()
    if raw == "":
        return f"line {line}: empty value in column {column!r}"
    try:
        value = float(raw)
    except ValueError:
        return f"line {line}: non-numeric value {raw!r} in column {column!r}"
    if value.is_integer():
        return f"line {line}: integer value {raw!r} in column {column!r} is out of range"
    return f"line {line}: column {column!r} must be an integer"


@dataclass(frozen=True)
class _Columns:
    """Where load_csv finds each field, resolved once from the header and schema."""

    header: tuple[str, ...]
    schema: CsvSchema
    prob: tuple[str, ...]
    features: tuple[str, ...]
    k_arms: int

    @property
    def values(self) -> tuple[str, ...]:
        """The columns read as panel values, in the order bad cells are reported."""
        s = self.schema
        return (s.avail, s.trt, s.outcome, *self.prob, *self.features)


def _read_header(path: str, reader: Iterator[list[str]], schema: CsvSchema) -> _Columns:
    """Read the header row from reader and resolve the schema's columns in it.

    Raises DataValidationError on an empty file or a header that does
    not fit the schema.
    """
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise DataValidationError(f"{path}: file is empty") from None
    col_index = {name: i for i, name in enumerate(header)}
    if len(col_index) != len(header):
        raise DataValidationError(f"{path}: duplicate column names in header")

    required = [schema.id, schema.t, schema.avail, schema.trt, schema.outcome]
    for name in required:
        if name not in col_index:
            raise DataValidationError(f"{path}: missing required column {name!r}")

    if schema.prob_columns is not None and schema.const_probs is not None:
        raise DataValidationError("schema cannot set both prob_columns and const_probs")
    if schema.const_probs is not None:
        prob_columns: tuple[str, ...] = ()
        k_arms = len(schema.const_probs) - 1
        if k_arms < 1:
            raise DataValidationError("const_probs must list at least two arms")
    else:
        if schema.prob_columns is not None:
            prob_columns = schema.prob_columns
        else:
            prob_columns = tuple(
                name for name in header if name.startswith("prob_")
            )
            expected = tuple(f"prob_{k}" for k in range(len(prob_columns)))
            if prob_columns != expected:
                raise DataValidationError(
                    f"{path}: probability columns must be prob_0..prob_K in order, found {prob_columns}"
                )
        if len(prob_columns) < 2:
            raise DataValidationError(f"{path}: need at least prob_0 and prob_1 columns")
        for name in prob_columns:
            if name not in col_index:
                raise DataValidationError(f"{path}: missing probability column {name!r}")
        k_arms = len(prob_columns) - 1

    claimed = set(required) | set(prob_columns)
    if schema.feature_columns is not None:
        feature_columns = schema.feature_columns
        for name in feature_columns:
            if name not in col_index:
                raise DataValidationError(f"{path}: missing feature column {name!r}")
    else:
        feature_columns = tuple(name for name in header if name not in claimed)
    return _Columns(tuple(header), schema, tuple(prob_columns), tuple(feature_columns), k_arms)


def load_csv(path: str, schema: CsvSchema | None = None) -> MrtDataset:
    """Read a rectangular MRT panel from CSV and validate it.

    The canonical header is id,t,avail,trt,prob_0..prob_K,outcome plus
    any number of feature columns; t is 1-based in files.  Rows may come
    in any order; subjects keep the order in which their ids first
    appear.  Raises DataValidationError on structural problems (missing
    columns, ragged panels, duplicate rows) and on any dataset invariant
    violation.  A message about one cell names its file line; when
    several cells are bad, the first in (subject, t, column) order is
    reported.

    The header is read with csv.reader, and every row after it in one
    np.loadtxt call (numpy's C parser).  When that call cannot decide on
    its own (a cell its parser rejects, a row of the wrong width, a
    whitespace-only line, no data rows, or a t/avail/trt value that is
    not an integer in the int64 range), the rows are read again by a
    csv.reader scanner that converts each cell with float() and words
    the error.  Both give the same dataset or the same message: the
    scanner also loads what float() accepts and numpy does not, such as
    digit separators (1_0).
    """
    schema = schema or CsvSchema()
    with open(path, newline="", encoding="utf-8") as handle:
        # readline, not iteration, so that tell() can mark where the rows start
        reader = csv.reader(iter(handle.readline, ""))
        columns = _read_header(path, reader, schema)
        start = handle.tell()
        rows = None
        # loadtxt warns on a file without data rows; the scanner words that case
        if any(any(map(str.strip, row)) for row in reader):
            handle.seek(start)
            rows = _parse_rows(handle, columns)
    if rows is None:
        return _scan_csv(path, schema)
    id_cells, t_values, values = rows
    subject_ids, order = _subjects(path, id_cells, t_values)
    return _to_dataset(path, columns, subject_ids, order, values)


def _parse_rows(
    handle: TextIO, columns: _Columns
) -> tuple[list[str], np.ndarray, dict[str, np.ndarray]] | None:
    """Every data row from handle in one np.loadtxt call.

    Returns (stripped ids, t values, {value column: values}) in file
    order, or None when the scanner must read the file instead.
    """
    schema = columns.schema
    numeric = {schema.t, *columns.values}
    if schema.id in numeric:  # one column cannot be read both as text and as numbers
        return None
    dtype = np.dtype(
        [(f"f{j}", "f8" if name in numeric else object) for j, name in enumerate(columns.header)]
    )
    try:
        rows = np.loadtxt(
            handle, dtype=dtype, delimiter=",", quotechar='"', comments=None, ndmin=1
        )
    except ValueError:
        return None
    field = {name: rows[f"f{j}"] for j, name in enumerate(columns.header)}
    if not all(_integral(field[name]).all() for name in (schema.t, schema.avail, schema.trt)):
        return None
    id_cells = list(map(str.strip, field[schema.id]))
    return id_cells, field[schema.t], {name: field[name] for name in columns.values}


def _scan_csv(path: str, schema: CsvSchema) -> MrtDataset:
    """load_csv's fallback, a complete loader on csv.reader and float().

    It loads the file or raises the error a reader going through it
    meets first, naming the file line of a bad cell.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        columns = _read_header(path, reader, schema)
        rows: list[list[str]] = []
        lines: list[int] = []
        for row in reader:
            if any(map(str.strip, row)):
                rows.append(row)
                lines.append(reader.line_num)

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
        for name in (schema.id, schema.t, *columns.values)
    }
    del rows  # free the parsed rows; the columns keep only the cells needed

    t_values, bad = _column(text[schema.t], integer=True)
    if bad.size:
        stop = int(bad[0])
        error = _cell_message(text[schema.t][stop], schema.t, lines[stop])
    id_cells = list(map(str.strip, text[schema.id][:stop]))
    subject_ids, order = _subjects(path, id_cells, t_values[:stop], error)

    # No error so far, so every row is in the panel: convert the value
    # columns and report the bad cell a reader going subject by subject,
    # t by t and column by column would meet first.
    position = np.empty(stop, dtype=np.int64)
    position[order] = np.arange(stop)
    values = {}
    failures = []
    for rank, name in enumerate(columns.values):
        values[name], bad = _column(text[name], integer=name in (schema.avail, schema.trt))
        if bad.size:
            row = int(bad[np.argmin(position[bad])])
            message = _cell_message(text[name][row], name, lines[row])
            failures.append((position[row], rank, message))
    if failures:
        raise DataValidationError(min(failures)[2])
    return _to_dataset(path, columns, subject_ids, order, values)


def _subjects(
    path: str, id_cells: list[str], t_values: np.ndarray, error: str | None = None
) -> tuple[tuple[str, ...], np.ndarray]:
    """Group rows by subject and check that they form a complete panel.

    Returns the subject ids in order of first appearance and the row
    order that sorts the rows by subject, then t.  error, a message
    about the row just past the ones given, is raised unless one of
    them repeats an earlier (id, t).
    """
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


def _to_dataset(
    path: str,
    columns: _Columns,
    subject_ids: tuple[str, ...],
    order: np.ndarray,
    values: dict[str, np.ndarray],
) -> MrtDataset:
    """Arrange the value columns, in file row order, into the validated panel."""
    shape = (len(subject_ids), len(order) // len(subject_ids))
    panel = {name: values[name][order].reshape(shape) for name in columns.values}
    schema = columns.schema
    if schema.const_probs is not None:
        probs = np.broadcast_to(schema.const_probs, (*shape, columns.k_arms + 1))
    else:
        probs = np.stack([panel[name] for name in columns.prob], axis=2)
    try:
        return MrtDataset(
            subject_ids=subject_ids,
            avail=panel[schema.avail],
            trt=panel[schema.trt],
            probs=probs,
            outcome=panel[schema.outcome],
            features={name: panel[name] for name in columns.features},
            k_arms=columns.k_arms,
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


def validate(data: MrtDataset) -> ValidationReport:
    """Check every dataset invariant; returns a report, never raises.

    An empty report means the dataset is analysis-ready: availability is
    binary, unavailable points carry the reference arm, treatments lie
    in {0..K}, probability vectors are nonnegative and sum to one, the
    realized arm always has positive probability at available points,
    and all outcomes and features are finite.  MrtDataset runs it on
    construction, so every dataset in hand has an empty report.
    """
    avail, trt, probs, k_arms = data.avail, data.trt, data.probs, data.k_arms

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
    return ValidationReport(violations=tuple(bad))


def _clip_renormalize(table: np.ndarray) -> np.ndarray:
    clipped = np.clip(table, PROB_CLIP, 1.0 - PROB_CLIP)
    return clipped / clipped.sum(axis=-1, keepdims=True)


def fit_numerator_probs(data: MrtDataset, policy: NumeratorPolicy) -> np.ndarray:
    """Resolve the numerator probabilities to a T x (K+1) table.

    All rows are clipped to [1e-6, 1 - 1e-6] and renormalized so weights
    stay finite even when empirical frequencies hit the boundary.
    """
    tables, errors = numerator_tables(
        data.avail[None], data.trt[None], data.probs[None], policy, data.k_arms
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
    else:  # user_supplied; kind already validated by NumeratorPolicy
        table = np.asarray(policy.table, dtype=float)
        error = None
        if table.shape != (t_points, width):
            error = DataValidationError(
                f"numerator table shape {table.shape} does not match (T, K+1) = {(t_points, width)}"
            )
        elif not np.isfinite(table).all() or (table <= 0).any():
            error = PositivityError("numerator table entries must be finite and positive")
        if error is not None:
            return np.ones((1, t_points, width)) / width, [error] * count
        table = table[None]

    return _clip_renormalize(table), errors
