"""Trial design: power, sample size, and effect-size parameterizations.

The target alternative is expressed through standardized per-arm effect
curves.  Everything funnels into the matrix

    V = sum_t tau(t) * kron(P_t, f_t f_t'),     P_t = diag(p_t) - p_t p_t',

whose inverse is (up to the standardized-out noise scale) the
asymptotic covariance of the effect coefficients.  The noncentrality of
the Wald statistic under the alternative gamma is

    lambda(n) = n * (Lt g)' (Lt V^{-1} Lt')^{-1} (Lt g),   Lt = L kron I_p,

and the required sample size is the smallest n whose scaled-F test has
the requested power.  Inside the power evaluation the noncentrality is
taken at the denominator degrees of freedom n - q - l rather than n,
which matches the small-sample behavior the critical value is
calibrated to.

DesignInputs builds V (one einsum over t), checks it and computes
lambda(n) / n once, on construction, so a singular V or a null contrast
fails there; the functions below read the stored values.  The build
(_prepare) works on a stack of design points.  The points with one K, T
and p that hold the same rand_probs, tau and f arrays share one row of
a stack per field (the points of a sweep share the arrays its key does
not enter): each range check is one reduction over the rows, V is one
einsum per T over the rows, and the points that also share L share one
contrast, one stacked solve of their distinct V matrices and one of
their contrast grams.  Each point gets its own copies of its row and of
V.  A single DesignInputs is that build on a stack of one, so a sweep
point is bitwise the point built alone and fails with the error it gets
alone.

A config is read by a table of steps (_CONFIG_STEPS: K, T and p, tau,
f, gamma, L, and q, eta and power), each with the keys it reads.  A
sweep is its base config plus one key (_inputs_from_sweep): its points
are read whole until one reads without error, and every later point
runs only the steps that read the key.

The search for n (_size_stack) also works on a stack: it seeds each
point by inverting the power in the noncentrality and computes the
first powers of every point with one fdtri and one ncfdtr call; the few
points whose seed is not the answer finish alone.  required_sample_size
is that search on a stack of one.

The pattern builders translate interpretable knobs (time-averaged
levels plus a shape parameter) into availability, expected-outcome, and
effect curves.  Each shape constraint is an endpoint or midpoint ratio;
they are solved in cross-multiplied linear form so flat shapes
(parameter zero) degrade gracefully.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np
from scipy.special import chdtri, chndtrinc, fdtri, ncfdtr, ncfdtrinc

from .errors import (
    ConvergenceError,
    DataValidationError,
    NullContrastError,
    NumericalError,
    SingularSystemError,
)
from .inference import ContrastSpec, build_contrast, parse_contrast_text
from .numerics import f_quantile, noncentral_f_cdf, solve_spd_stack
from ._kvconfig import get_float, get_int, get_floats

__all__ = [
    "DesignInputs",
    "SampleSizeResult",
    "build_v",
    "power_at_n",
    "required_sample_size",
    "tau_pattern",
    "eo_pattern",
    "mee_pattern",
    "inputs_from_config",
]

SEARCH_CAP_DEFAULT = 1_000_000


@dataclass(frozen=True, eq=False)
class DesignInputs:
    """Inputs of the sample-size calculation.

    rand_probs holds the active-arm probabilities p_t(1..K) per decision
    point (the reference-arm probability is implied); a single K-vector
    is broadcast over t.  gamma stacks the K per-arm coefficient vectors
    in the f basis.  q is the dimension of the control basis the
    analysis will use.  The arrays are copied.  Construction also builds
    contrast (l_matrix lifted to the f basis), V with its 1-norm
    condition number, and lambda_rate = lambda(n) / n; it raises
    DataValidationError for a field out of range (NaN and infinite
    entries included), SingularSystemError for a singular V and
    NullContrastError for a null contrast of gamma.
    """

    k_arms: int
    t_points: int
    rand_probs: np.ndarray
    tau: np.ndarray
    f: np.ndarray
    gamma: np.ndarray
    q: int
    l_matrix: np.ndarray
    eta: float = 0.05
    power_target: float = 0.8
    contrast: ContrastSpec = field(init=False, repr=False)
    v_matrix: np.ndarray = field(init=False, repr=False)
    v_condition: float = field(init=False, repr=False)
    lambda_rate: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        error = _prepare([self])[0]
        if error is not None:
            raise error

    @classmethod
    def _stack(cls, fields: list[dict]) -> tuple[list[DesignInputs], list]:
        """DesignInputs(**kwargs) for every kwargs in fields (each naming
        all ten constructor fields), built as one stack by _prepare.
        Returns the instances and errors, where errors[i] is the exception
        that constructing instance i alone raises (it is then unusable),
        or None."""
        points = [object.__new__(cls) for _ in fields]
        for point, kwargs in zip(points, fields):
            vars(point).update(kwargs)
        return points, _prepare(points)

    @property
    def p(self) -> int:
        return self.f.shape[1]

    @property
    def rank_l(self) -> int:
        return self.contrast.rank_l


def _shaped(point: DesignInputs) -> tuple[list[np.ndarray], Exception | None]:
    """The scalar and shape checks of one point.

    Returns rand_probs, tau, f, gamma and l_matrix as float arrays, in
    that order up to the first whose shape is wrong, and the exception of
    the first failing scalar or shape check, or None.  rand_probs comes
    back (T, K), or (1, K) for a K-vector, which broadcasts over t; the
    other arrays may be the caller's.
    """
    arrays: list[np.ndarray] = []
    try:
        k_arms, t_points = point.k_arms, point.t_points
        if k_arms < 1:
            raise DataValidationError("k_arms must be >= 1")
        if t_points < 1:
            raise DataValidationError("t_points must be >= 1")
        probs = np.asarray(point.rand_probs, dtype=float)
        shape = probs.shape
        if probs.ndim == 1:
            # the shape np.tile(probs, (t_points, 1)) has, or its TypeError
            probs, shape = probs[None], (operator.index(t_points), len(probs))
        if shape != (t_points, k_arms):
            raise DataValidationError(
                f"rand_probs must be (T, K) = {(t_points, k_arms)}, got {shape}"
            )
        arrays.append(probs)
        tau = np.asarray(point.tau, dtype=float)
        if tau.shape != (t_points,):
            raise DataValidationError(f"tau must have length T={t_points}")
        arrays.append(tau)
        f = np.asarray(point.f, dtype=float)
        if f.ndim < 2:
            # np.atleast_2d: a row
            f = f.reshape(1, -1)
        if f.shape[0] != t_points:
            raise DataValidationError(f"f must be (T, p) with T={t_points}")
        arrays.append(f)
        gamma = np.asarray(point.gamma, dtype=float)
        if gamma.shape != (k_arms * f.shape[1],):
            raise DataValidationError(f"gamma must have length K*p = {k_arms * f.shape[1]}")
        arrays.append(gamma)
        l_matrix = np.array(point.l_matrix, dtype=float, ndmin=2)
        if l_matrix.shape[1] != k_arms:
            raise DataValidationError(f"l_matrix must have K={k_arms} columns")
        arrays.append(l_matrix)
        if point.q < 1:
            raise DataValidationError("q must be >= 1")
        if not (0.0 < point.eta < 1.0):
            raise DataValidationError("eta must lie in (0, 1)")
        if 1.0 - point.eta == 1.0:
            raise DataValidationError("eta is too small: 1 - eta rounds to 1")
        if not (0.0 <= point.power_target < 1.0):
            raise DataValidationError("power_target must lie in [0, 1)")
    except (TypeError, ValueError) as exc:
        return arrays, exc
    return arrays, None


#: The range check of rand_probs, tau, f and gamma, in that order: its
#: message, and a reduction over an (S, ...) stack of the field that is
#: True where a point's field is in range.  Each test is written so that
#: NaN fails it (min, max and sum carry a NaN through).
_RANGE_CHECKS = (
    (
        "active-arm probabilities must be positive with row sums < 1",
        lambda probs: (probs.min(axis=(1, 2)) > 0) & (probs.sum(axis=2).max(axis=1) < 1.0),
    ),
    ("tau values must lie in (0, 1]", lambda tau: (tau.min(axis=1) > 0) & (tau.max(axis=1) <= 1)),
    ("f must be finite", lambda f: np.isfinite(f).reshape(len(f), -1).all(axis=1)),
    ("gamma must be finite", lambda gamma: np.isfinite(gamma).all(axis=1)),
)


def _range_errors(stacks: list[np.ndarray], rows: list[int]) -> list:
    """The DataValidationError of the first range check each of S points
    fails, or None.  stacks holds the points' first len(stacks) fields:
    rand_probs, tau and f as (D, ...) stacks of their distinct values, of
    which point j holds row rows[j], and gamma as an (S, ...) stack."""
    passed = [check(stack) for (_, check), stack in zip(_RANGE_CHECKS, stacks)]
    if len(stacks[0]) < len(rows):
        passed[:3] = (ok[rows] for ok in passed[:3])
    passed = np.array(passed)
    errors: list = [None] * len(rows)
    if not passed.all():
        for j in np.flatnonzero(~passed.all(axis=0)).tolist():
            errors[j] = DataValidationError(_RANGE_CHECKS[passed[:, j].argmin()][0])
    return errors


def _null_contrasts(lg: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Whether each row's contrast lg = Lt gamma is null:
    |lg| <= 1e-12 * max(1, |gamma|), with the norms np.linalg.norm takes.

    Where |gamma| overflows, both rows are first scaled by the power of two
    that brings the largest |gamma| entry below 1; scaling is exact, so
    the decision is the one the exact norms give.  Call under
    np.errstate(over="ignore").
    """
    gamma_norm = _row_norms(gamma)
    null = _row_norms(lg) <= 1e-12 * np.maximum(1.0, gamma_norm)
    huge = np.isinf(gamma_norm)
    if huge.any():
        scale = np.ldexp(1.0, -np.frexp(np.abs(gamma[huge]).max(axis=1))[1])[:, None]
        null[huge] = _row_norms(lg[huge] * scale) <= 1e-12 * _row_norms(gamma[huge] * scale)
    return null


def _row_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of x: the square root of its dot product."""
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


def _prepare(points: list[DesignInputs]) -> list:
    """Check and build DesignInputs in place, as one stack.

    Returns errors, where errors[i] is the exception that building
    points[i] alone raises, or None (then its copies and derived fields
    are set).  The scalar and shape checks run per point (_shaped).  The
    points whose fields all have their shapes are grouped by K, p and L,
    and within that by T.  In a T group, the points that hold the same
    rand_probs, tau and f objects (the points of a sweep share those its
    key does not enter) share one row of a stack of their values: each
    range check of those fields is one reduction over the rows, and V is
    one _v_matrix call over the rows that some point passing its checks
    holds.  gamma is stacked per point.  A point gets the error of its
    first failing check in the order _shaped and _RANGE_CHECKS list them.
    The points of one K, p and L share one ContrastSpec, one
    solve_spd_stack over their distinct V matrices and one over their
    contrast grams (_solve_group), and each gets its own copy of its row.
    Every slice of a stack computes as a stack of one, so each value is
    bitwise the one the point gets alone.
    """
    errors: list = [None] * len(points)
    arrays: list[list[np.ndarray]] = []
    families: dict[tuple, dict[tuple, list[int]]] = {}
    for i, point in enumerate(points):
        shaped, errors[i] = _shaped(point)
        arrays.append(shaped)
        if len(shaped) < 4:
            # a field failed its shape check: the range checks of the
            # fields before it still come first
            if shaped:
                errors[i] = _range_errors([a[None] for a in shaped], [0])[0] or errors[i]
            continue
        probs, _, f, _, *l_matrix = shaped
        l_key = (l_matrix[0].shape, l_matrix[0].tobytes()) if l_matrix else None
        family = families.setdefault((probs.shape[1], f.shape[1:], l_key), {})
        family.setdefault(f.shape, []).append(i)
    for (k_arms, p_shape, _), by_shape in families.items():
        kept: list[tuple] = []
        v_parts, gamma_parts = [], []
        for f_shape, group in by_shape.items():
            # a row per distinct (rand_probs, tau, f) objects, with its
            # first point
            distinct: dict[tuple, tuple[int, int]] = {}
            rows = [
                distinct.setdefault(
                    (id(points[i].rand_probs), id(points[i].tau), id(points[i].f)),
                    (len(distinct), i),
                )[0]
                for i in group
            ]
            # rand_probs given as K-vectors, (1, K), stay one row over t:
            # their range check and P_t run on the row, not T copies
            t_probs = max(arrays[i][0].shape[0] for _, i in distinct.values())
            probs, tau, f = stacks = (
                np.empty((len(distinct), t_probs, k_arms)),
                np.empty((len(distinct), f_shape[0])),
                np.empty((len(distinct), *f_shape)),
            )
            for d, (_, i) in enumerate(distinct.values()):
                probs[d], tau[d], f[d] = arrays[i][:3]
            gamma = np.array([arrays[i][3] for i in group])
            ok = []
            for j, (i, error) in enumerate(zip(group, _range_errors([*stacks, gamma], rows))):
                if error is not None:
                    errors[i] = error
                elif errors[i] is None:
                    ok.append(j)
            if not ok:
                continue
            if len(ok) < len(group):
                # V only of the rows that a point passing its checks holds
                rows = [rows[j] for j in ok]
                used = sorted(set(rows))
                if len(used) < len(distinct):
                    probs, tau, f = (stack[used] for stack in stacks)
                    position = {row: r for r, row in enumerate(used)}
                    rows = [position[row] for row in rows]
            offset = sum(map(len, v_parts))
            v_parts.append(_v_matrix(probs, tau, f))
            gamma_parts.append(gamma[ok])
            kept += [
                (group[j], offset + r, probs[r], tau[r], f[r], arrays[group[j]][4])
                for j, r in zip(ok, rows)
            ]
        if kept:
            _solve_group(
                points, errors, kept, p_shape[0],
                v_parts[0] if len(v_parts) == 1 else np.concatenate(v_parts),
                gamma_parts[0] if len(gamma_parts) == 1 else np.concatenate(gamma_parts),
            )
    return errors


def _solve_group(
    points: list, errors: list, kept: list[tuple], p: int, vs: np.ndarray, gammas: np.ndarray
) -> None:
    """The contrast, V solves, null-contrast test and lambda_rate of
    points that share one K, p and L, for _prepare.

    kept holds (i, row, rand_probs, tau, f, l_matrix) of each point, where
    vs[row] is its V among the group's distinct V matrices, and gammas
    stacks the points' gammas.  V's solve and contrast gram are computed
    once per distinct V; Lt gamma, the null test and lambda_rate per
    point, as stacks.  Sets errors[i], or the fields of points[i]; points
    that share a V get their own copies of it and of its rand_probs, tau
    and f.
    """
    try:
        contrast = build_contrast(kept[0][5], p)
    except DataValidationError as exc:
        for i, *_ in kept:
            errors[i] = exc
        return
    reduced = contrast.row_basis
    # a huge gamma overflows Lt gamma, the contrast solve or lambda_rate
    # without a numpy warning; the solve or the search then fails with
    # one error
    with np.errstate(over="ignore", invalid="ignore"):
        solved = solve_spd_stack(vs, np.broadcast_to(reduced.T, (len(vs), *reduced.T.shape)))
        grams, conditions, v_errors = reduced @ solved.solution, solved.condition, solved.errors
        shared = len(vs) < len(kept)
        if shared:
            rows = [row for _, row, *_ in kept]
            vs, grams, conditions = vs[rows], grams[rows], conditions[rows]
            v_errors = [v_errors[row] for row in rows]
        lgs = (reduced @ gammas[:, :, None])[:, :, 0]
        null = _null_contrasts(lgs, gammas).tolist()
        ready = [j for j, error in enumerate(v_errors) if error is None and not null[j]]
        if ready:
            lgs = lgs[ready]
            rates = solve_spd_stack(grams[ready], lgs)
            lambda_rates = (lgs[:, None, :] @ rates.solution[:, :, None])[:, 0, 0].tolist()
    for (i, *_), error, is_null in zip(kept, v_errors, null):
        if isinstance(error, SingularSystemError):
            errors[i] = SingularSystemError(
                f"design matrix V is singular; the f basis is likely rank deficient: {error}"
            )
            errors[i].__cause__ = error
        elif error is not None:
            errors[i] = error
        elif is_null:
            errors[i] = NullContrastError("contrast of target alternative is null")
    if not ready:
        return
    conditions = conditions.tolist()
    for j, error, rate in zip(ready, rates.errors, lambda_rates):
        i, _, probs, tau, f, l_matrix = kept[j]
        errors[i] = error
        if error is None:
            if shared:
                tau, f = tau.copy(), f.copy()
            rand_probs = np.empty((len(tau), probs.shape[1]))
            rand_probs[...] = probs
            vars(points[i]).update(
                rand_probs=rand_probs, tau=tau, f=f, gamma=gammas[j], l_matrix=l_matrix,
                contrast=contrast, v_matrix=vs[j], v_condition=conditions[j], lambda_rate=rate,
            )


@dataclass(frozen=True, eq=False)
class SampleSizeResult:
    """A sizing, with V's condition number and the search's power evaluations."""

    n: int
    achieved_power: float
    lambda_per_n: float
    v_matrix: np.ndarray
    v_condition: float
    power_evals: int


def _v_matrix(probs: np.ndarray, tau: np.ndarray, f: np.ndarray) -> np.ndarray:
    """V = sum_t tau(t) kron(P_t, f_t f_t') for (..., T, K) probs (or
    (..., 1, K), the same p_t at every t), (..., T) tau and (..., T, p) f,
    over any leading stack axes.

    Without einsum's optimize, each term is the product of the operands
    from left to right, ((tau(t) P_t[k, l]) f_t[i]) f_t[j], and the sum
    over t runs in the order of a loop over t.  So V is bitwise the
    loop's when f is all ones, each slice of a stack is bitwise V of that
    slice alone, and forming tau(t) P_t first, as here, gives the bits of
    the four-operand einsum with three operands, which is faster.
    """
    k_arms, p = probs.shape[-1], f.shape[-1]
    # P_t = diag(p_t) - p_t p_t' with the bits of eye(K) * p_t - p_t p_t':
    # 0 - x is -x off the diagonal and 1 * p is p on it (written through
    # einsum's strided view of the diagonal)
    pt = probs[..., :, None] * -probs[..., None, :]
    np.einsum("...ii->...i", pt)[...] = probs - probs * probs
    v = np.einsum("...tkl,...ti,...tj->...kilj", tau[..., None, None] * pt, f, f)
    return v.reshape(*v.shape[:-4], k_arms * p, k_arms * p)


def build_v(inputs: DesignInputs) -> np.ndarray:
    """V = sum_t tau(t) kron(P_t, f_t f_t'), checked on construction to be nonsingular."""
    return inputs.v_matrix


def power_at_n(inputs: DesignInputs, n: int) -> float:
    """Power of the scaled-F test with n subjects under the alternative."""
    q, l = inputs.q, inputs.rank_l
    if n <= q + l + 1:
        raise DataValidationError(f"need n > q + l + 1 (n={n}, q={q}, l={l})")
    df2 = n - q - l
    critical = f_quantile(l, df2, 1.0 - inputs.eta)
    lam = df2 * inputs.lambda_rate
    try:
        return 1.0 - noncentral_f_cdf(l, df2, lam, critical)
    except ConvergenceError:
        if _cdf_negligible(l, df2, lam, critical):
            return 1.0
        raise


def _cdf_negligible(l: float, df2: float, lam: float, critical: float) -> bool:
    """Whether the noncentral F CDF at critical is below 2^-54, so that
    the power 1 - CDF rounds to exactly 1.0.

    This is for a noncentrality at which ncfdtr returned no finite value:
    scipy 1.17's returns NaN for lam in roughly (1390, 1550), and a CDF
    of 0 or about 1e-291 either side.  The CDF does not increase in lam,
    so its value at the first of lam / 2, lam / 4, ... where ncfdtr is
    finite bounds it from above.  ncfdtr also returns NaN for every lam
    above about 1e19, at the cost of a full call each, so a lam above
    2^63 starts from its largest lam * 2^-j below 2^62 instead of
    halving once per call: at most about 62 calls, not up to 1,000.  An
    infinite lam has no such bound.
    """
    if 0.0 < lam < math.inf:
        lam = math.ldexp(lam, min(0, 63 - math.frexp(lam)[1]))
    while 0.0 < lam < math.inf:
        lam /= 2.0
        cdf = float(ncfdtr(l, df2, lam, critical))
        if math.isfinite(cdf):
            return cdf < 2.0**-54
    return False


def _powers(points: list[DesignInputs], ns: list[int]) -> list:
    """power_at_n(points[i], ns[i]) for every i, with one fdtri and one
    ncfdtr call over all of them.

    Item i is bitwise the float power_at_n returns, or the
    ConvergenceError it raises; every ns[i] must exceed q + l + 1.  An
    element the two calls leave without a finite positive critical value
    or a finite CDF is computed again by power_at_n itself.
    """
    df2s = [n - point.q - point.rank_l for point, n in zip(points, ns)]
    # the noncentrality is the Python product power_at_n forms, which
    # overflows to inf without a numpy warning
    l, df2, level, lam = np.array([
        (point.rank_l, df2, 1.0 - point.eta, df2 * point.lambda_rate)
        for point, df2 in zip(points, df2s)
    ]).T
    critical = fdtri(l, df2, level)
    cdf = ncfdtr(l, df2, lam, critical)
    powers = (1.0 - cdf).tolist()
    good = np.isfinite(cdf) & (critical > 0.0) & (critical < np.inf)
    if not good.all():
        for i in np.flatnonzero(~good).tolist():
            try:
                powers[i] = power_at_n(points[i], ns[i])
            except ConvergenceError as exc:
                powers[i] = exc
    return powers


def _seeds(points: list[DesignInputs], starts: list[int], cap: int) -> list[int]:
    """Where the search for each point's n starts looking.

    The chi-square approximation gives the noncentrality lam0 at which
    the power reaches the target; the noncentral F then gives lam1 at the
    denominator degrees of freedom lam0 implies, and the seed is the
    smallest n with (n - q - l) * lambda_rate >= lam1, clamped to
    [start, cap + 1].  A seed that does not come out finite is the start.
    lam0 depends only on (l, eta, power_target), which the points of a
    sweep mostly share, so it is computed once per distinct triple.
    """
    keys = [(point.rank_l, point.eta, point.power_target) for point in points]
    index = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    l, eta, target, ql, rate, low = np.array([
        (*key, point.q + point.rank_l, point.lambda_rate, start)
        for key, point, start in zip(keys, points, starts)
    ]).T
    with np.errstate(all="ignore"):
        distinct_l, distinct_eta, distinct_target = np.array(list(index)).T
        lam0 = chndtrinc(chdtri(distinct_l, distinct_eta), distinct_l, 1.0 - distinct_target)
        lam0 = lam0[[index[key] for key in keys]]
        df2 = np.minimum(np.maximum(np.ceil(lam0 / rate), low - ql), cap + 1 - ql)
        lam1 = ncfdtrinc(l, df2, 1.0 - target, fdtri(l, df2, 1.0 - eta))
        raw = np.ceil(lam1 / rate) + ql
    return [
        int(min(seed, cap + 1)) if seed > start else start
        for seed, start in zip(raw.tolist(), starts)
    ]


def _search(point, start: int, cap: int, probe: tuple, powers: list) -> SampleSizeResult:
    """The search for one point's n, given the powers at the n of its
    first round, probe: the seed and, above the start, seed - 1 (the
    start alone for a zero power target, which every power reaches).

    powers[i] is the power at probe[i] (a float, or the exception
    computing it raised).  The search keeps lo < hi, the power below the
    target at lo (lo = start - 1 before any is seen) and reaching it at
    hi (hi = None before any is seen).  From the seed it gallops down
    while the power reaches the target, or up while it does not, one
    power at a time, then bisects, and returns the hi where hi - lo = 1.
    """
    target = point.power_target
    lo, hi, hi_power = start - 1, None, None
    evals, step = len(probe), 1
    while True:
        for n, power in zip(probe, powers):
            if isinstance(power, Exception):
                raise power
            if power < target:
                lo = n
                break
            hi, hi_power = n, power
        if hi is not None and hi - lo == 1:
            break
        if hi is None:
            if lo > cap:
                raise NumericalError(
                    f"effect too small: sample size exceeds cap {cap} "
                    f"(power at {lo} still below {target})"
                )
            probe = (min(lo + step, cap + 1),)
        elif lo < start:
            probe = (max(hi - step, start),)
        else:
            probe = ((lo + hi) // 2,)
        step *= 2
        powers = _powers([point], list(probe))
        evals += 1
    if hi > cap:
        raise NumericalError(f"effect too small: required sample size exceeds cap {cap}")
    return SampleSizeResult(
        hi, hi_power, point.lambda_rate, point.v_matrix, point.v_condition, evals
    )


def _size_stack(points: list, cap: int) -> list:
    """required_sample_size(points[i], cap) for every i.

    Item i is the SampleSizeResult, or the exception that call raises; an
    item of points that is an exception is passed through.  The first
    round of every search (only the search start for a zero power
    target) is computed with one _powers call; a seed is usually the
    answer, so most points finish there, and _search finishes the rest.
    """
    results = list(points)
    ready, starts = [], []
    for i, point in enumerate(points):
        if isinstance(point, Exception):
            continue
        start = max(10, point.q + point.rank_l + 2)
        if cap < start:
            results[i] = DataValidationError(
                f"search cap {cap} is below the search start {start} = max(10, q + l + 2) "
                f"(q={point.q}, l={point.rank_l})"
            )
        elif not math.isfinite((start - point.q - point.rank_l) * point.lambda_rate):
            results[i] = NumericalError(
                f"effect too large to size: the noncentrality at the search start "
                f"n={start} is not finite"
            )
        else:
            ready.append(i)
            starts.append(start)
    if not ready:
        return results
    probes = [
        (start,) if points[i].power_target == 0.0
        else (seed, seed - 1) if seed > start else (seed,)
        for i, start, seed in zip(ready, starts, _seeds([points[i] for i in ready], starts, cap))
    ]
    asked = [(i, n) for i, probe in zip(ready, probes) for n in probe]
    powers = iter(_powers([points[i] for i, _ in asked], [n for _, n in asked]))
    for i, start, probe in zip(ready, starts, probes):
        try:
            results[i] = _search(points[i], start, cap, probe, [next(powers) for _ in probe])
        except NumericalError as exc:
            results[i] = exc
    return results


def required_sample_size(
    inputs: DesignInputs, cap: int = SEARCH_CAP_DEFAULT
) -> SampleSizeResult:
    """Smallest n whose power reaches the target.

    The search starts at max(10, q + l + 2); a cap below that start
    raises DataValidationError before any power is computed, and so does
    a noncentrality (n - q - l) * lambda_rate that is not finite at the
    start, as NumericalError (the effect is too large to size).  It looks
    first at a seed that inverts the power in the noncentrality (see
    _seeds), which is usually the answer or a few above it, and confirms
    it by the powers at the seed and one below.  Otherwise it gallops
    down from the seed while the power reaches the target, or up while it
    does not, and bisects; n is the smallest integer at the boundary it
    finds, whose power reaches the target and whose predecessor's does
    not (or the start).  achieved_power is the power computed at n and
    power_evals counts every power the search computed.  A design needing
    more than cap subjects raises NumericalError (the effect is too small
    to power within the cap), which names cap + 1 when the power there is
    still below the target.  A sweep sizes its points with the same
    search, computing the first powers of a whole block in one call
    (_size_stack).
    """
    result = _size_stack([inputs], cap)[0]
    if isinstance(result, Exception):
        raise result
    return result


def tau_pattern(kind: str, aa: float, theta_tau: float, t_points: int) -> np.ndarray:
    """Availability curve with time average aa.

    constant: tau(t) = aa.  linear: endpoints aa + theta_tau down to
    aa - theta_tau, interpolated so the time average stays aa.
    """
    if t_points < 1:
        raise DataValidationError("t_points must be >= 1")
    if kind == "constant":
        tau = np.full(t_points, float(aa))
    elif kind == "linear":
        if t_points == 1:
            if theta_tau != 0.0:
                raise DataValidationError("linear tau with T=1 requires theta_tau=0")
            tau = np.full(1, float(aa))
        else:
            t = np.arange(1, t_points + 1, dtype=float)
            tau = aa + theta_tau * (t_points + 1.0 - 2.0 * t) / (t_points - 1.0)
    else:
        raise DataValidationError(f"unknown tau pattern kind {kind!r}")
    if not ((tau > 0) & (tau <= 1)).all():
        raise DataValidationError(
            f"tau pattern leaves (0, 1]: range [{tau.min():.4g}, {tau.max():.4g}]"
        )
    return tau


def _solve_pattern(system: np.ndarray, rhs: np.ndarray, label: str) -> np.ndarray:
    try:
        return np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"{label} pattern system is singular: {exc}") from exc


def _ratio_line(
    theta: float, level: float, s0: float, s1: float, t_points: int, label: str
) -> np.ndarray:
    """(a, b) of the line a + b t with endpoint ratio (a + b) / (a + b T) =
    (1 + theta) / (1 - theta) and tau-weighted average level, where s0 and
    s1 are sum(tau) and sum(tau t)."""
    system = np.array([[-2.0 * theta, (1.0 - theta) - t_points * (1.0 + theta)], [s0, s1]])
    return _solve_pattern(system, np.array([0.0, level * s0]), label)


def eo_pattern(
    kind: str, theta_g: float, aeo: float, tau: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Expected-outcome curve with availability-weighted average aeo.

    Shapes: constant; linear with endpoint ratio
    EO(1)/EO(T) = (1 + theta_g)/(1 - theta_g); quadratic with equal
    endpoints and the same ratio between the midpoint and endpoint.
    Returns (polynomial coefficients in t, curve values at t = 1..T).
    """
    tau = np.asarray(tau, dtype=float)
    t_points = tau.shape[0]
    if not (-1.0 < theta_g < 1.0):
        raise DataValidationError("theta_g must lie in (-1, 1)")
    t = np.arange(1, t_points + 1, dtype=float)
    s0 = float(tau.sum())
    s1 = float((tau * t).sum())
    s2 = float((tau * t * t).sum())
    if kind == "constant":
        coeffs = np.array([float(aeo)])
        return coeffs, np.full(t_points, float(aeo))
    if kind == "linear":
        coeffs = _ratio_line(theta_g, aeo, s0, s1, t_points, "expected-outcome")
        return coeffs, coeffs[0] + coeffs[1] * t
    if kind == "quadratic":
        mid = (t_points + 1.0) / 2.0
        system = np.array(
            [
                [0.0, 1.0 - t_points, 1.0 - t_points**2],
                [
                    -2.0 * theta_g,
                    mid * (1.0 - theta_g) - (1.0 + theta_g),
                    mid * mid * (1.0 - theta_g) - (1.0 + theta_g),
                ],
                [s0, s1, s2],
            ]
        )
        coeffs = _solve_pattern(
            system, np.array([0.0, 0.0, aeo * s0]), "expected-outcome"
        )
        return coeffs, coeffs[0] + coeffs[1] * t + coeffs[2] * t * t
    raise DataValidationError(f"unknown expected-outcome pattern kind {kind!r}")


def mee_pattern(
    kind: str,
    theta_f1: float,
    theta_f2: float,
    sate: tuple[float, float],
    tau: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Two-arm standardized effect curves with weighted averages sate.

    constant: flat curves at sate_k, gamma = (sate_1, sate_2) in the
    intercept-only basis.  linear: arm 1 follows an endpoint-ratio line
    with parameter theta_f1; arm 2 adds a second line whose slope gap is
    governed by theta_f2, with the weighted average pinned at sate_2.
    Returns (gamma in the per-arm (1, t) basis, T x 2 curve matrix).
    """
    tau = np.asarray(tau, dtype=float)
    t_points = tau.shape[0]
    gamma, lines = _mee_gamma(kind, theta_f1, theta_f2, sate, tau)
    if lines is None:
        return gamma, np.column_stack([np.full(t_points, gamma[0]), np.full(t_points, gamma[1])])
    b12, b34, t = lines
    curve1 = b12[0] + b12[1] * t
    return gamma, np.column_stack([curve1, curve1 + b34[0] + b34[1] * t])


def _mee_gamma(
    kind: str, theta_f1: float, theta_f2: float, sate: tuple[float, float], tau: np.ndarray
) -> tuple[np.ndarray, tuple | None]:
    """gamma of mee_pattern, and for a linear kind its two lines and the
    times t = 1..T (None for constant, which does not read tau)."""
    sate1, sate2 = float(sate[0]), float(sate[1])
    if kind == "constant":
        return np.array([sate1, sate2]), None
    if kind != "linear":
        raise DataValidationError(f"unknown effect pattern kind {kind!r}")
    for name, theta in (("theta_f1", theta_f1), ("theta_f2", theta_f2)):
        if not (-1.0 < theta < 1.0):
            raise DataValidationError(f"{name} must lie in (-1, 1)")
    t_points = tau.shape[0]
    t = np.arange(1, t_points + 1, dtype=float)
    s0 = float(tau.sum())
    s1 = float((tau * t).sum())
    b12 = _ratio_line(theta_f1, sate1, s0, s1, t_points, "effect")
    b34 = _ratio_line(theta_f2, sate2 - sate1, s0, s1, t_points, "effect")
    gamma = np.array([b12[0], b12[1], b12[0] + b34[0], b12[1] + b34[1]])
    return gamma, (b12, b34, t)


def inputs_from_config(cfg: dict[str, str]) -> DesignInputs:
    """Build DesignInputs from a flat key=value mapping.

    Recognized keys: K, T, p (K+1 comma probabilities including the
    reference arm), tau_kind, AA, theta_tau, f_kind (constant | linear),
    theta_f1, theta_f2, sate1, sate2, q, L (preset name or rows), eta,
    power.  The effect curves come from the two-arm pattern builder, so
    K must be 2.
    """
    return DesignInputs(**_config_fields(cfg))


def _inputs_from_sweep(cfg: dict[str, str], key: str, texts: list[str]) -> list:
    """inputs_from_config({**cfg, key: text}) for every text, built as one
    stack.

    Item i is that DesignInputs, or the DataValidationError or
    NumericalError that call raises.  The points are read whole until one
    reads without error.  That point is the base of every later one,
    which runs only the _CONFIG_STEPS that read key (_config_fields): so
    a point still fails with its first error in step order, and holds
    the base's rand_probs, tau and f wherever key does not enter them.
    """
    built: list = []
    base = None
    for text in texts:
        try:
            built.append(_config_fields({**cfg, key: text}, base, key))
        except (DataValidationError, NumericalError) as exc:
            built.append(exc)
        else:
            base = base or built[-1]
    parsed = [i for i, item in enumerate(built) if isinstance(item, dict)]
    points, errors = DesignInputs._stack([built[i] for i in parsed])
    for i, point, error in zip(parsed, points, errors):
        built[i] = point if error is None else error
    return built


def _two_arms(cfg: dict[str, str], fields: dict) -> dict:
    """Key K, which must be 2."""
    if get_int(cfg, "K", 2) != 2:
        raise DataValidationError(
            "config-driven sample sizing supports K=2 (the pattern builders are two-arm); "
            "build DesignInputs directly for other K"
        )
    return {"k_arms": 2}


#: The steps of reading a design config, in the order a config reports
#: its first error.  Each row names the keys its step reads, directly or
#: through an earlier step's fields, and the step, which returns its
#: fields from the config and the fields before it.  gamma's row names
#: every tau key, which only a linear gamma reads, so that no row
#: depends on f_kind.
_CONFIG_STEPS: tuple = (
    (("K",), _two_arms),
    (("T", "p"), lambda cfg, _: dict(zip(("t_points", "rand_probs"), _config_probs(cfg)))),
    (("T", "tau_kind", "AA", "theta_tau"), lambda cfg, fields: {
        "tau": _config_tau(cfg, fields["t_points"]),
    }),
    (("T", "f_kind"), lambda cfg, fields: {"f": _f_basis(cfg, fields["t_points"])}),
    (("f_kind", "theta_f1", "theta_f2", "sate1", "sate2", "T", "tau_kind", "AA", "theta_tau"),
     lambda cfg, fields: {"gamma": _config_gamma(cfg, fields["tau"])}),
    (("L",), lambda cfg, _: {"l_matrix": parse_contrast_text(cfg.get("L", "pairwise(1,2)"), 2)}),
    (("q", "eta", "power"), lambda cfg, _: {
        "q": get_int(cfg, "q", 1), "eta": get_float(cfg, "eta", 0.05),
        "power_target": get_float(cfg, "power", 0.8),
    }),
)


def _config_fields(cfg: dict[str, str], base: dict | None = None, key: str = "") -> dict:
    """The DesignInputs fields of inputs_from_config(cfg), read by the
    _CONFIG_STEPS in order.  Given base, the fields of a config that
    differs from cfg at key only, it runs only the steps that read key
    and keeps base's other fields, the same objects (DesignInputs copies
    them)."""
    fields = {} if base is None else dict(base)
    for keys, step in _CONFIG_STEPS:
        if base is None or key in keys:
            fields.update(step(cfg, fields))
    return fields


# The parts of a config that sample sizing and n = auto simulation share.


def _config_probs(
    cfg: dict[str, str],
    count_message: str = "key 'p' must list K+1=3 probabilities including the reference arm",
) -> tuple[int, np.ndarray]:
    """Key T, and the active-arm probabilities of key 'p' (three, reference
    arm first; count_message words any other count)."""
    t_points = get_int(cfg, "T")
    probs_full = get_floats(cfg, "p")
    if len(probs_full) != 3:
        raise DataValidationError(count_message)
    if not abs(sum(probs_full) - 1.0) <= 1e-8:
        raise DataValidationError("key 'p' probabilities must sum to 1")
    return t_points, np.array(probs_full[1:])


def _config_tau(cfg: dict[str, str], t_points: int) -> np.ndarray:
    """The availability curve of keys tau_kind, AA and theta_tau."""
    return tau_pattern(
        cfg.get("tau_kind", "constant"),
        get_float(cfg, "AA"),
        get_float(cfg, "theta_tau", 0.0),
        t_points,
    )


def _config_gamma(cfg: dict[str, str], tau: np.ndarray) -> np.ndarray:
    """gamma of the two-arm effect pattern of key f_kind, from keys
    theta_f1, theta_f2, sate1 and sate2."""
    thetas = get_float(cfg, "theta_f1", 0.0), get_float(cfg, "theta_f2", 0.0)
    sate = get_float(cfg, "sate1"), get_float(cfg, "sate2")
    return _mee_gamma(cfg.get("f_kind", "constant"), *thetas, sate, tau)[0]


def _f_basis(cfg: dict[str, str], t_points: int) -> np.ndarray:
    """The f basis of key f_kind at T = t_points, constant or linear: (1)
    or (1, t)."""
    f = np.ones((t_points, 1))
    if cfg.get("f_kind", "constant") == "linear":
        f = np.column_stack([f, np.arange(1, t_points + 1, dtype=float)])
    return f


def _design_fields(
    cfg: dict[str, str], probs: np.ndarray, tau: np.ndarray,
    gamma: np.ndarray, q: int, l_matrix: np.ndarray, eta: float,
) -> dict:
    """The fields of a two-arm DesignInputs in the f basis of key f_kind,
    with the power target of key 'power'."""
    return dict(
        k_arms=2, t_points=tau.shape[0], rand_probs=probs, tau=tau, f=_f_basis(cfg, tau.shape[0]),
        gamma=gamma, q=q, l_matrix=l_matrix, eta=eta, power_target=get_float(cfg, "power", 0.8),
    )
