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

The pattern builders translate interpretable knobs (time-averaged
levels plus a shape parameter) into availability, expected-outcome, and
effect curves.  Each shape constraint is an endpoint or midpoint ratio;
they are solved in cross-multiplied linear form so flat shapes
(parameter zero) degrade gracefully.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
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
        vs = [
            _v_matrix(checked[i]["rand_probs"], checked[i]["tau"], checked[i]["f"])
            for i in members
        ]
        solved = solve_spd_stack(
            np.stack(vs), np.broadcast_to(reduced.T, (len(vs), *reduced.T.shape))
        )
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
    """V = sum_t tau(t) kron(P_t, f_t f_t') for (T, K) probs and (T, p) f.

    Without einsum's optimize, the sum over t runs in the order of a loop
    over t, so V is bitwise the loop's when f is all ones.
    """
    k_arms, p = probs.shape[1], f.shape[1]
    pt = np.eye(k_arms) * probs[:, None, :] - probs[:, :, None] * probs[:, None, :]
    return np.einsum("t,tkl,ti,tj->kilj", tau, pt, f, f).reshape(k_arms * p, k_arms * p)


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
    return 1.0 - noncentral_f_cdf(l, df2, df2 * inputs.lambda_rate, critical)


def required_sample_size(
    inputs: DesignInputs, cap: int = SEARCH_CAP_DEFAULT
) -> SampleSizeResult:
    """Smallest n whose power reaches the target.

    The search doubles an upper bracket, bisects, then walks downward so
    the returned n is the smallest integer meeting the target even if
    the power curve has a local flat spot.  The search starts at
    max(10, q + l + 2); a cap below that start raises DataValidationError
    before any power is computed.  Exceeding the cap raises
    NumericalError (the effect is too small to power within the cap).
    """
    start = max(10, inputs.q + inputs.rank_l + 2)
    if cap < start:
        raise DataValidationError(
            f"search cap {cap} is below the search start {start} = max(10, q + l + 2) "
            f"(q={inputs.q}, l={inputs.rank_l})"
        )
    evals = 0

    def power(n: int) -> float:
        nonlocal evals
        evals += 1
        return power_at_n(inputs, n)

    def result(n: int) -> SampleSizeResult:
        achieved = power(n)
        return SampleSizeResult(
            n, achieved, inputs.lambda_rate, inputs.v_matrix, inputs.v_condition, evals
        )

    if inputs.power_target == 0.0:
        return result(start)

    hi = start
    while power(hi) < inputs.power_target:
        if hi > cap:
            raise NumericalError(
                f"effect too small: sample size exceeds cap {cap} "
                f"(power at {hi} still below {inputs.power_target})"
            )
        hi = min(hi * 2, cap + 1)
    lo = start
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if power(mid) >= inputs.power_target:
            hi = mid
        else:
            lo = mid
    n = hi
    while n - 1 >= start and power(n - 1) >= inputs.power_target:
        n -= 1
    if n > cap:
        raise NumericalError(f"effect too small: required sample size exceeds cap {cap}")
    return result(n)


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
