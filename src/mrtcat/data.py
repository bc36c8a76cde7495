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


def _parse_float(raw: str, column: str, line: int) -> float:
    raw = raw.strip()
    if raw == "":
        raise DataValidationError(f"line {line}: empty value in column {column!r}")
    try:
        return float(raw)
    except ValueError as exc:
        raise DataValidationError(
            f"line {line}: non-numeric value {raw!r} in column {column!r}"
        ) from exc


def _parse_int(raw: str, column: str, line: int) -> int:
    value = _parse_float(raw, column, line)
    if value != int(value):
        raise DataValidationError(f"line {line}: column {column!r} must be an integer")
    return int(value)


def load_csv(path: str, schema: CsvSchema | None = None) -> MrtDataset:
    """Read a rectangular MRT panel from CSV and validate it.

    The canonical header is id,t,avail,trt,prob_0..prob_K,outcome plus
    any number of feature columns; t is 1-based in files.  Raises
    DataValidationError on structural problems (missing columns, ragged
    panels, duplicate rows) and on any dataset invariant violation.
    """
    schema = schema or CsvSchema()
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataValidationError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        rows = []
        # File line of each kept row; a compact array, not per-row tuples,
        # because large panels hold hundreds of thousands of rows.
        lines = array("q")
        for row in reader:
            if row and any(cell.strip() for cell in row):
                rows.append(row)
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

    # Group rows by subject, preserving first-appearance order of ids.
    by_subject: dict[str, dict[int, int]] = {}
    order: list[str] = []
    for index, row in enumerate(rows):
        lineno = lines[index]
        if len(row) != len(header):
            raise DataValidationError(
                f"{path}: line {lineno} has {len(row)} cells, header has {len(header)}"
            )
        sid = row[col_index[schema.id]].strip()
        t = _parse_int(row[col_index[schema.t]], schema.t, lineno)
        if sid not in by_subject:
            by_subject[sid] = {}
            order.append(sid)
        if t in by_subject[sid]:
            raise DataValidationError(f"{path}: duplicate (id, t) = ({sid!r}, {t})")
        by_subject[sid][t] = index

    if not order:
        raise DataValidationError(f"{path}: no data rows")
    t_points = len(by_subject[order[0]])
    for sid in order:
        points = sorted(by_subject[sid])
        if len(points) != t_points:
            raise DataValidationError(
                f"{path}: ragged panel; subject {sid!r} has {len(points)} points, "
                f"subject {order[0]!r} has {t_points}"
            )
        if points != list(range(1, t_points + 1)):
            raise DataValidationError(
                f"{path}: subject {sid!r} decision points are not 1..T (got {points[:5]}...)"
            )

    n = len(order)
    avail = np.zeros((n, t_points), dtype=np.int64)
    trt = np.zeros((n, t_points), dtype=np.int64)
    probs = np.zeros((n, t_points, k_arms + 1), dtype=float)
    outcome = np.zeros((n, t_points), dtype=float)
    features = {name: np.zeros((n, t_points), dtype=float) for name in feature_columns}

    for i, sid in enumerate(order):
        for t in range(1, t_points + 1):
            index = by_subject[sid][t]
            row, lineno = rows[index], lines[index]
            j = t - 1
            avail[i, j] = _parse_int(row[col_index[schema.avail]], schema.avail, lineno)
            trt[i, j] = _parse_int(row[col_index[schema.trt]], schema.trt, lineno)
            outcome[i, j] = _parse_float(
                row[col_index[schema.outcome]], schema.outcome, lineno
            )
            if schema.const_probs is not None:
                probs[i, j] = schema.const_probs
            else:
                for k, name in enumerate(prob_columns):
                    probs[i, j, k] = _parse_float(row[col_index[name]], name, lineno)
            for name in feature_columns:
                features[name][i, j] = _parse_float(row[col_index[name]], name, lineno)

    del rows, by_subject  # free the parsed text before the dataset copies the arrays
    data = MrtDataset(
        subject_ids=tuple(order),
        avail=avail,
        trt=trt,
        probs=probs,
        outcome=outcome,
        features=features,
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
        table = np.empty((t_points, width))
        for t in range(t_points):
            block = data.probs[:, t, :]
            if not np.allclose(block, block[0], rtol=0.0, atol=1e-9):
                raise DataValidationError(
                    f"match_randomization requires probabilities constant across subjects; "
                    f"they vary at t={t + 1}"
                )
            table[t] = block[0]
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
