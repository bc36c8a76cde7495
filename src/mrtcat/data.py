"""In-memory representation of micro-randomized trial data plus CSV I/O.

A dataset is a rectangular panel: n subjects, each observed at decision
points t = 1..T.  Every decision point carries an availability
indicator, a treatment category in {0, .., K} (0 is the reference arm),
the K+1 randomization probabilities in effect at that point, a proximal
outcome, and arbitrary named real-valued features usable as moderator
or control columns.

Arrays are stored subject-major and are frozen after construction, so a
dataset can be shared freely across threads.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass

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

    Attributes
    ----------
    n, t_points, k_arms : panel dimensions (subjects, decision points,
        active treatment arms; arm 0 is the reference).
    avail : (n, T) int array of availability indicators.
    trt : (n, T) int array of treatment categories in {0..K}.
    probs : (n, T, K+1) array of randomization probabilities.
    outcome : (n, T) float array of proximal outcomes.
    features : dict of name -> (n, T) float array.
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
        self.features = {k: np.array(v, dtype=float) for k, v in features.items()}
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


def _column(cells: list[str], integer: bool) -> tuple[np.ndarray, np.ndarray]:
    """Convert one CSV column to floats; return (values, indices of bad cells).

    A cell is bad when float() rejects it or, in an integer column, when
    its value is not a finite integer.  Cells float() rejects read as
    NaN.  The cell-by-cell pass runs only when converting the whole
    column at once fails.
    """
    try:
        values = np.fromiter(map(float, cells), float, len(cells))
        bad = np.zeros(len(cells), dtype=bool)
    except ValueError:
        values = np.empty(len(cells))
        bad = np.zeros(len(cells), dtype=bool)
        for index, raw in enumerate(cells):
            try:
                values[index] = float(raw)
            except ValueError:
                values[index] = np.nan
                bad[index] = True
    if integer:
        bad |= ~(np.isfinite(values) & (values == np.trunc(values)))
    return values, np.flatnonzero(bad)


def _cell_message(raw: str, column: str, line: int) -> str:
    """Why _column rejected the cell raw, found on file line `line`."""
    raw = raw.strip()
    if raw == "":
        return f"line {line}: empty value in column {column!r}"
    try:
        float(raw)
    except ValueError:
        return f"line {line}: non-numeric value {raw!r} in column {column!r}"
    return f"line {line}: column {column!r} must be an integer"


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
    """
    schema = schema or CsvSchema()
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataValidationError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        # Every kept cell in one flat list, row after row, and per row its
        # cell count and file line: no per-row objects outlive the loop,
        # because large panels hold hundreds of thousands of rows.
        cells: list[str] = []
        widths = array("q")
        lines = array("q")
        for row in reader:
            if any(map(str.strip, row)):
                cells.extend(row)
                widths.append(len(row))
                lines.append(reader.line_num)

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

    # Row checks, in file order: cell count, then t, then (id, t) seen
    # before.  The earliest failing row decides the message, so each check
    # looks only at the rows before the first failure of the ones above.
    width = len(header)
    uneven = np.flatnonzero(np.frombuffer(widths, dtype=np.int64) != width)
    stop = int(uneven[0]) if uneven.size else len(widths)
    error = None
    if uneven.size:
        error = f"{path}: line {lines[stop]} has {widths[stop]} cells, header has {width}"
    if stop == 0:
        raise DataValidationError(error or f"{path}: no data rows")
    # Every row before the first uneven one has `width` cells, so column
    # j is every width-th cell from j.
    columns = {name: cells[j : stop * width : width] for j, name in enumerate(header)}
    del cells

    t_values, bad = _column(columns[schema.t], integer=True)
    if bad.size:
        stop = int(bad[0])
        error = _cell_message(columns[schema.t][stop], schema.t, lines[stop])
    id_cells = list(map(str.strip, columns[schema.id][:stop]))
    # id -> subject index, in order of first appearance
    ids = {sid: i for i, sid in enumerate(dict.fromkeys(id_cells))}
    subject = np.fromiter(map(ids.__getitem__, id_cells), np.int64, stop)
    t_values = t_values[:stop]
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
    expected_t = np.arange(stop) - np.repeat(starts, counts) + 1
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

    # Every row now has its panel slot; convert the value columns and
    # report the bad cell a reader going subject by subject, t by t and
    # column by column would meet first.
    position = np.empty(stop, dtype=np.int64)
    position[order] = np.arange(stop)
    value_columns = (schema.avail, schema.trt, schema.outcome, *prob_columns, *feature_columns)
    panel = {}
    failures = []
    for rank, name in enumerate(value_columns):
        values, bad = _column(columns[name], integer=name in (schema.avail, schema.trt))
        if bad.size:
            row = int(bad[np.argmin(position[bad])])
            failures.append((position[row], rank, row, name))
        panel[name] = values[order].reshape(n, t_points)
    if failures:
        _, _, row, name = min(failures)
        raise DataValidationError(_cell_message(columns[name][row], name, lines[row]))

    del columns  # free the parsed text before the dataset copies the arrays
    if schema.const_probs is not None:
        probs = np.broadcast_to(schema.const_probs, (n, t_points, k_arms + 1))
    else:
        probs = np.stack([panel[name] for name in prob_columns], axis=2)
    data = MrtDataset(
        subject_ids=subject_ids,
        avail=panel[schema.avail],
        trt=panel[schema.trt],
        probs=probs,
        outcome=panel[schema.outcome],
        features={name: panel[name] for name in feature_columns},
        k_arms=k_arms,
    )
    report = validate(data)
    if not report.ok:
        raise DataValidationError(f"{path}: " + "; ".join(report.violations))
    return data


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
    and all outcomes and features are finite.
    """
    bad: list[str] = []
    if data.n < 1:
        bad.append("dataset has no subjects")

    ok_avail = np.isin(data.avail, (0, 1))
    if not ok_avail.all():
        i, t = np.argwhere(~ok_avail)[0]
        bad.append(f"availability must be 0 or 1 (subject {data.subject_ids[i]!r}, t={t + 1})")

    in_range = (data.trt >= 0) & (data.trt <= data.k_arms)
    if not in_range.all():
        i, t = np.argwhere(~in_range)[0]
        bad.append(
            f"treatment {int(data.trt[i, t])} outside 0..{data.k_arms} "
            f"(subject {data.subject_ids[i]!r}, t={t + 1})"
        )

    forced = (data.avail == 0) & (data.trt != 0)
    if forced.any():
        i, t = np.argwhere(forced)[0]
        bad.append(
            f"unavailable point carries active treatment "
            f"(subject {data.subject_ids[i]!r}, t={t + 1})"
        )

    if not np.isfinite(data.probs).all():
        bad.append("non-finite randomization probability")
    else:
        if (data.probs < 0).any():
            bad.append("negative randomization probability")
        sums = data.probs.sum(axis=2)
        off = np.abs(sums - 1.0) > PROB_SUM_TOL
        if off.any():
            i, t = np.argwhere(off)[0]
            bad.append(
                f"probabilities do not sum to 1 (subject {data.subject_ids[i]!r}, "
                f"t={t + 1}, sum={sums[i, t]!r})"
            )
        if in_range.all():
            realized = np.take_along_axis(data.probs, data.trt[:, :, None], axis=2)[:, :, 0]
            viol = (data.avail == 1) & (realized <= 0.0)
            if viol.any():
                i, t = np.argwhere(viol)[0]
                bad.append(
                    f"realized arm has zero probability "
                    f"(subject {data.subject_ids[i]!r}, t={t + 1}, arm {int(data.trt[i, t])})"
                )

    if not np.isfinite(data.outcome).all():
        bad.append("missing or non-finite outcome value")
    for name, arr in data.features.items():
        if not np.isfinite(arr).all():
            bad.append(f"non-finite value in feature {name!r}")

    return ValidationReport(violations=tuple(bad))


def _clip_renormalize(table: np.ndarray) -> np.ndarray:
    clipped = np.clip(table, PROB_CLIP, 1.0 - PROB_CLIP)
    return clipped / clipped.sum(axis=1, keepdims=True)


def fit_numerator_probs(data: MrtDataset, policy: NumeratorPolicy) -> np.ndarray:
    """Resolve the numerator probabilities to a T x (K+1) table.

    All rows are clipped to [1e-6, 1 - 1e-6] and renormalized so weights
    stay finite even when empirical frequencies hit the boundary.
    """
    t_points, width = data.t_points, data.k_arms + 1

    if policy.kind == "match_randomization":
        same = np.isclose(data.probs, data.probs[:1], rtol=0.0, atol=1e-9)
        varies = ~same.all(axis=(0, 2))
        if varies.any():
            raise DataValidationError(
                f"match_randomization requires probabilities constant across subjects; "
                f"they vary at t={int(np.argmax(varies)) + 1}"
            )
        table = data.probs[0]
    elif policy.kind == "empirical_per_t":
        table = np.empty((t_points, width))
        for t in range(t_points):
            mask = data.avail[:, t] == 1
            if not mask.any():
                raise DegenerateArmError(f"no available records at t={t + 1}")
            counts = np.bincount(data.trt[mask, t], minlength=width).astype(float)
            if (counts == 0).any():
                arm = int(np.flatnonzero(counts == 0)[0])
                raise DegenerateArmError(
                    f"arm {arm} never observed among available records at t={t + 1}"
                )
            table[t] = counts / counts.sum()
    elif policy.kind == "empirical_pooled":
        mask = data.avail == 1
        if not mask.any():
            raise DegenerateArmError("no available records in the dataset")
        counts = np.bincount(data.trt[mask], minlength=width).astype(float)
        if (counts == 0).any():
            arm = int(np.flatnonzero(counts == 0)[0])
            raise DegenerateArmError(f"arm {arm} never observed among available records")
        table = np.tile(counts / counts.sum(), (t_points, 1))
    else:  # user_supplied; kind already validated by NumeratorPolicy
        table = np.asarray(policy.table, dtype=float)
        if table.shape != (t_points, width):
            raise DataValidationError(
                f"numerator table shape {table.shape} does not match (T, K+1) = {(t_points, width)}"
            )
        if not np.isfinite(table).all() or (table <= 0).any():
            raise PositivityError("numerator table entries must be finite and positive")

    return _clip_renormalize(table)
