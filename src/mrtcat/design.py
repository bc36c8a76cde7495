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
(_prepare) works on a stack of design points: the points of a sample
size sweep share one contrast and solve V and the contrast gram in two
stacked solves, and a single DesignInputs is that build on a stack of
one, so a sweep point is bitwise the point built alone.

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
            for name, value in kwargs.items():
                object.__setattr__(point, name, value)
        return points, _prepare(points)

    def _checked_arrays(self) -> dict[str, np.ndarray]:
        """Copies of rand_probs (as a (T, K) array), tau, f, gamma and
        l_matrix by name; raises DataValidationError for the first field
        out of range.  Every range test is written so that NaN fails it."""
        if self.k_arms < 1:
            raise DataValidationError("k_arms must be >= 1")
        if self.t_points < 1:
            raise DataValidationError("t_points must be >= 1")
        probs = np.array(self.rand_probs, dtype=float)
        if probs.ndim == 1:
            probs = np.tile(probs, (self.t_points, 1))
        if probs.shape != (self.t_points, self.k_arms):
            raise DataValidationError(
                f"rand_probs must be (T, K) = {(self.t_points, self.k_arms)}, got {probs.shape}"
            )
        if not ((probs > 0).all() and (probs.sum(axis=1) < 1.0).all()):
            raise DataValidationError(
                "active-arm probabilities must be positive with row sums < 1"
            )
        tau = np.array(self.tau, dtype=float)
        if tau.shape != (self.t_points,):
            raise DataValidationError(f"tau must have length T={self.t_points}")
        if not ((tau > 0) & (tau <= 1)).all():
            raise DataValidationError("tau values must lie in (0, 1]")
        f = np.array(self.f, dtype=float, ndmin=2)
        if f.shape[0] != self.t_points:
            raise DataValidationError(f"f must be (T, p) with T={self.t_points}")
        if not np.isfinite(f).all():
            raise DataValidationError("f must be finite")
        gamma = np.array(self.gamma, dtype=float)
        if gamma.shape != (self.k_arms * f.shape[1],):
            raise DataValidationError(
                f"gamma must have length K*p = {self.k_arms * f.shape[1]}"
            )
        if not np.isfinite(gamma).all():
            raise DataValidationError("gamma must be finite")
        l_matrix = np.array(self.l_matrix, dtype=float, ndmin=2)
        if l_matrix.shape[1] != self.k_arms:
            raise DataValidationError(f"l_matrix must have K={self.k_arms} columns")
        if self.q < 1:
            raise DataValidationError("q must be >= 1")
        if not (0.0 < self.eta < 1.0):
            raise DataValidationError("eta must lie in (0, 1)")
        if not (0.0 <= self.power_target < 1.0):
            raise DataValidationError("power_target must lie in [0, 1)")
        return dict(rand_probs=probs, tau=tau, f=f, gamma=gamma, l_matrix=l_matrix)

    @property
    def p(self) -> int:
        return self.f.shape[1]

    @property
    def rank_l(self) -> int:
        return self.contrast.rank_l


def _prepare(points: list[DesignInputs]) -> list:
    """Check and build DesignInputs in place, as one stack.

    Returns errors, where errors[i] is the exception that building
    points[i] alone raises, or None (then its copies and derived fields
    are set).  The field checks, V and the null-contrast test run per
    point.  Points with the same L and basis dimension p share one
    ContrastSpec, one solve_spd_stack over their V matrices and one over
    their contrast grams; every slice of a stack solves as a stack of
    one, so each value is bitwise the one the point gets alone.
    """
    errors: list = [None] * len(points)
    checked: dict[int, dict] = {}
    groups: dict[tuple, list[int]] = {}
    for i, point in enumerate(points):
        try:
            arrays = checked[i] = point._checked_arrays()
        except DataValidationError as exc:
            errors[i] = exc
            continue
        l_matrix, p = arrays["l_matrix"], arrays["f"].shape[1]
        groups.setdefault((l_matrix.shape, l_matrix.tobytes(), p), []).append(i)
    for (_, _, p), members in groups.items():
        try:
            contrast = build_contrast(checked[members[0]]["l_matrix"], p)
        except DataValidationError as exc:
            for i in members:
                errors[i] = exc
            continue
        reduced = contrast.row_basis
        vs = _v_stack([checked[i] for i in members])
        solved = solve_spd_stack(vs, np.broadcast_to(reduced.T, (len(vs), *reduced.T.shape)))
        ready, lgs = [], []
        for j, i in enumerate(members):
            gamma = checked[i]["gamma"]
            lg = reduced @ gamma
            error = solved.errors[j]
            if isinstance(error, SingularSystemError):
                errors[i] = SingularSystemError(
                    f"design matrix V is singular; the f basis is likely rank deficient: {error}"
                )
                errors[i].__cause__ = error
            elif error is not None:
                errors[i] = error
            elif float(np.linalg.norm(lg)) <= 1e-12 * max(1.0, float(np.linalg.norm(gamma))):
                errors[i] = NullContrastError("contrast of target alternative is null")
            else:
                ready.append(j)
                lgs.append(lg)
        if not ready:
            continue
        rates = solve_spd_stack(reduced @ solved.solution[ready], np.stack(lgs))
        for j, lg, x, error in zip(ready, lgs, rates.solution, rates.errors):
            i = members[j]
            errors[i] = error
            if error is None:
                for name, value in (
                    *checked[i].items(), ("contrast", contrast), ("v_matrix", vs[j]),
                    ("v_condition", float(solved.condition[j])),
                    ("lambda_rate", float(lg @ x)),
                ):
                    object.__setattr__(points[i], name, value)
    return errors


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
    """V = sum_t tau(t) kron(P_t, f_t f_t') for (..., T, K) probs,
    (..., T) tau and (..., T, p) f, over any leading stack axes.

    Without einsum's optimize, the sum over t runs in the order of a loop
    over t, so V is bitwise the loop's when f is all ones, and each slice
    of a stack is bitwise V of that slice alone.
    """
    k_arms, p = probs.shape[-1], f.shape[-1]
    # P_t = diag(p_t) - p_t p_t' with the bits of eye(K) * p_t - p_t p_t':
    # 0 - x is -x off the diagonal and 1 * p is p on it
    pt = probs[..., :, None] * -probs[..., None, :]
    arms = np.arange(k_arms)
    pt[..., arms, arms] = probs - probs * probs
    v = np.einsum("...t,...tkl,...ti,...tj->...kilj", tau, pt, f, f)
    return v.reshape(*v.shape[:-4], k_arms * p, k_arms * p)


def _v_stack(arrays: list[dict]) -> np.ndarray:
    """V of every point in arrays (_checked_arrays dicts of one K and p) as
    an (S, Kp, Kp) stack, with one _v_matrix call per number of decision
    points."""
    if len(arrays) == 1:
        # a single DesignInputs: skips the stacking and the scattered
        # write, about 25 µs of a 400 µs build
        return _v_matrix(arrays[0]["rand_probs"], arrays[0]["tau"], arrays[0]["f"])[None]
    by_t: dict[int, list[int]] = {}
    for j, point in enumerate(arrays):
        by_t.setdefault(len(point["tau"]), []).append(j)
    kp = arrays[0]["rand_probs"].shape[1] * arrays[0]["f"].shape[1]
    vs = np.empty((len(arrays), kp, kp))
    for js in by_t.values():
        stacked = (np.stack([arrays[j][name] for j in js]) for name in ("rand_probs", "tau", "f"))
        vs[js] = _v_matrix(*stacked)
    return vs


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
    finite bounds it from above.  An infinite lam has no such bound.
    """
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
    raises DataValidationError before any power is computed.  It looks
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
    t = np.arange(1, t_points + 1, dtype=float)
    s0 = float(tau.sum())
    s1 = float((tau * t).sum())
    sate1, sate2 = float(sate[0]), float(sate[1])
    if kind == "constant":
        gamma = np.array([sate1, sate2])
        curves = np.column_stack([np.full(t_points, sate1), np.full(t_points, sate2)])
        return gamma, curves
    if kind != "linear":
        raise DataValidationError(f"unknown effect pattern kind {kind!r}")
    for name, theta in (("theta_f1", theta_f1), ("theta_f2", theta_f2)):
        if not (-1.0 < theta < 1.0):
            raise DataValidationError(f"{name} must lie in (-1, 1)")
    b12 = _ratio_line(theta_f1, sate1, s0, s1, t_points, "effect")
    b34 = _ratio_line(theta_f2, sate2 - sate1, s0, s1, t_points, "effect")
    curve1 = b12[0] + b12[1] * t
    curve2 = curve1 + b34[0] + b34[1] * t
    gamma = np.array([b12[0], b12[1], b12[0] + b34[0], b12[1] + b34[1]])
    return gamma, np.column_stack([curve1, curve2])


def inputs_from_config(cfg: dict[str, str]) -> DesignInputs:
    """Build DesignInputs from a flat key=value mapping.

    Recognized keys: K, T, p (K+1 comma probabilities including the
    reference arm), tau_kind, AA, theta_tau, f_kind (constant | linear),
    theta_f1, theta_f2, sate1, sate2, q, L (preset name or rows), eta,
    power.  The effect curves come from the two-arm pattern builder, so
    K must be 2.
    """
    return DesignInputs(**_config_fields(cfg))


def _inputs_from_configs(cfgs: list[dict[str, str]]) -> list:
    """inputs_from_config over a list of configs, built as one stack.

    Item i is inputs_from_config(cfgs[i]), or the DataValidationError or
    NumericalError that call raises.
    """
    built: list = []
    for cfg in cfgs:
        try:
            built.append(_config_fields(cfg))
        except (DataValidationError, NumericalError) as exc:
            built.append(exc)
    parsed = [i for i, item in enumerate(built) if isinstance(item, dict)]
    points, errors = DesignInputs._stack([built[i] for i in parsed])
    for i, point, error in zip(parsed, points, errors):
        built[i] = point if error is None else error
    return built


# The parts of a config that sample sizing and n = auto simulation share.


def _config_fields(cfg: dict[str, str]) -> dict:
    """The DesignInputs fields of inputs_from_config(cfg)."""
    k_arms = get_int(cfg, "K", 2)
    if k_arms != 2:
        raise DataValidationError(
            "config-driven sample sizing supports K=2 (the pattern builders are two-arm); "
            "build DesignInputs directly for other K"
        )
    probs, tau = _config_probs_tau(
        cfg, f"key 'p' must list K+1={k_arms + 1} probabilities including the reference arm"
    )
    f_kind = cfg.get("f_kind", "constant")
    gamma = _config_gamma(cfg, f_kind, tau)
    l_matrix = parse_contrast_text(cfg.get("L", "pairwise(1,2)"), k_arms)
    return _design_fields(
        cfg, probs, tau, f_kind, gamma, get_int(cfg, "q", 1), l_matrix, get_float(cfg, "eta", 0.05)
    )


def _config_probs_tau(cfg: dict[str, str], count_message: str) -> tuple[np.ndarray, np.ndarray]:
    """The active-arm probabilities of key 'p' (three, reference arm first;
    count_message words any other count) and the curve of keys T, tau_kind,
    AA and theta_tau."""
    t_points = get_int(cfg, "T")
    probs_full = get_floats(cfg, "p")
    if len(probs_full) != 3:
        raise DataValidationError(count_message)
    if not abs(sum(probs_full) - 1.0) <= 1e-8:
        raise DataValidationError("key 'p' probabilities must sum to 1")
    tau = tau_pattern(
        cfg.get("tau_kind", "constant"),
        get_float(cfg, "AA"),
        get_float(cfg, "theta_tau", 0.0),
        t_points,
    )
    return np.array(probs_full[1:]), tau


def _config_gamma(cfg: dict[str, str], f_kind: str, tau: np.ndarray) -> np.ndarray:
    """gamma of the two-arm effect pattern f_kind, from keys theta_f1,
    theta_f2, sate1 and sate2."""
    thetas = get_float(cfg, "theta_f1", 0.0), get_float(cfg, "theta_f2", 0.0)
    return mee_pattern(f_kind, *thetas, (get_float(cfg, "sate1"), get_float(cfg, "sate2")), tau)[0]


def _design_fields(
    cfg: dict[str, str], probs: np.ndarray, tau: np.ndarray, f_kind: str,
    gamma: np.ndarray, q: int, l_matrix: np.ndarray, eta: float,
) -> dict:
    """The fields of a two-arm DesignInputs in the f basis of a constant
    or linear f_kind, (1) or (1, t), with the power target of key 'power'."""
    t_points = tau.shape[0]
    f = np.ones((t_points, 1))
    if f_kind == "linear":
        f = np.column_stack([f, np.arange(1, t_points + 1, dtype=float)])
    return dict(
        k_arms=2, t_points=t_points, rand_probs=probs, tau=tau, f=f, gamma=gamma, q=q,
        l_matrix=l_matrix, eta=eta, power_target=get_float(cfg, "power", 0.8),
    )
