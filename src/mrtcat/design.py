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
from .numerics import f_quantile, noncentral_f_cdf, solve_spd
from ._kvconfig import get_float, get_int, get_floats

__all__ = [
    "DesignInputs",
    "EffectSummary",
    "SampleSizeResult",
    "build_pt",
    "build_v",
    "noncentrality",
    "power_at_n",
    "required_sample_size",
    "tau_pattern",
    "eo_pattern",
    "mee_pattern",
    "summarize_effects",
    "inputs_from_config",
]

SEARCH_CAP_DEFAULT = 1_000_000


@dataclass(frozen=True)
class DesignInputs:
    """Inputs of the sample-size calculation.

    rand_probs holds the active-arm probabilities p_t(1..K) per decision
    point (the reference-arm probability is implied); a single K-vector
    is broadcast over t.  gamma stacks the K per-arm coefficient vectors
    in the f basis.  q is the dimension of the control basis the
    analysis will use.  contrast is l_matrix lifted to the f basis,
    built once on construction.
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
    contrast: ContrastSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.k_arms < 1:
            raise DataValidationError("k_arms must be >= 1")
        if self.t_points < 1:
            raise DataValidationError("t_points must be >= 1")
        probs = np.asarray(self.rand_probs, dtype=float)
        if probs.ndim == 1:
            probs = np.tile(probs, (self.t_points, 1))
        if probs.shape != (self.t_points, self.k_arms):
            raise DataValidationError(
                f"rand_probs must be (T, K) = {(self.t_points, self.k_arms)}, got {probs.shape}"
            )
        if (probs <= 0).any() or (probs.sum(axis=1) >= 1.0).any():
            raise DataValidationError(
                "active-arm probabilities must be positive with row sums < 1"
            )
        tau = np.asarray(self.tau, dtype=float)
        if tau.shape != (self.t_points,):
            raise DataValidationError(f"tau must have length T={self.t_points}")
        if (tau <= 0).any() or (tau > 1).any():
            raise DataValidationError("tau values must lie in (0, 1]")
        f = np.atleast_2d(np.asarray(self.f, dtype=float))
        if f.shape[0] != self.t_points:
            raise DataValidationError(f"f must be (T, p) with T={self.t_points}")
        gamma = np.asarray(self.gamma, dtype=float)
        if gamma.shape != (self.k_arms * f.shape[1],):
            raise DataValidationError(
                f"gamma must have length K*p = {self.k_arms * f.shape[1]}"
            )
        l_matrix = np.atleast_2d(np.asarray(self.l_matrix, dtype=float))
        if l_matrix.shape[1] != self.k_arms:
            raise DataValidationError(f"l_matrix must have K={self.k_arms} columns")
        if self.q < 1:
            raise DataValidationError("q must be >= 1")
        if not (0.0 < self.eta < 1.0):
            raise DataValidationError("eta must lie in (0, 1)")
        if not (0.0 <= self.power_target < 1.0):
            raise DataValidationError("power_target must lie in [0, 1)")
        object.__setattr__(self, "rand_probs", probs)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "l_matrix", l_matrix)
        object.__setattr__(self, "contrast", build_contrast(l_matrix, f.shape[1]))

    @property
    def p(self) -> int:
        return self.f.shape[1]

    @property
    def rank_l(self) -> int:
        return self.contrast.rank_l


@dataclass(frozen=True)
class EffectSummary:
    sate: np.ndarray
    delta_sate: np.ndarray
    aeo: float
    aa: float


@dataclass(frozen=True)
class SampleSizeResult:
    n: int
    achieved_power: float
    lambda_per_n: float
    v_matrix: np.ndarray


def build_pt(probs: np.ndarray) -> np.ndarray:
    """Randomization covariance block diag(p) - p p' for the active arms."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise DataValidationError("build_pt expects a K-vector of probabilities")
    if (p <= 0).any() or p.sum() >= 1.0:
        raise DataValidationError("active-arm probabilities must be positive, summing < 1")
    return np.diag(p) - np.outer(p, p)


def build_v(inputs: DesignInputs) -> np.ndarray:
    """V = sum_t tau(t) kron(P_t, f_t f_t'), checked to be nonsingular."""
    kp = inputs.k_arms * inputs.p
    v = np.zeros((kp, kp))
    for t in range(inputs.t_points):
        ft = inputs.f[t][:, None]
        v += inputs.tau[t] * np.kron(build_pt(inputs.rand_probs[t]), ft @ ft.T)
    try:
        solve_spd(v, np.eye(kp))
    except SingularSystemError as exc:
        raise SingularSystemError(
            f"design matrix V is singular; the f basis is likely rank deficient: {exc}"
        ) from exc
    return v


def _lambda_rate(inputs: DesignInputs, v: np.ndarray) -> float:
    """lambda(n) / n for the configured contrast and alternative."""
    reduced = inputs.contrast.row_basis
    lg = reduced @ inputs.gamma
    if float(np.linalg.norm(lg)) <= 1e-12 * max(1.0, float(np.linalg.norm(inputs.gamma))):
        raise NullContrastError("contrast of target alternative is null")
    vinv_lt = solve_spd(v, reduced.T).solution
    gram = reduced @ vinv_lt
    return float(lg @ solve_spd(gram, lg).solution)


def noncentrality(n: int, inputs: DesignInputs) -> float:
    """lambda(n) = n (Lt g)' (Lt V^{-1} Lt')^{-1} (Lt g)."""
    if n < 1:
        raise DataValidationError("n must be >= 1")
    return n * _lambda_rate(inputs, build_v(inputs))


def _power(rate: float, n: int, q: int, l: int, eta: float) -> float:
    df2 = n - q - l
    lam = df2 * rate
    critical = f_quantile(l, df2, 1.0 - eta)
    return 1.0 - noncentral_f_cdf(l, df2, lam, critical)


def power_at_n(inputs: DesignInputs, n: int) -> float:
    """Power of the scaled-F test with n subjects under the alternative."""
    l = inputs.rank_l
    if n <= inputs.q + l + 1:
        raise DataValidationError(
            f"need n > q + l + 1 (n={n}, q={inputs.q}, l={l})"
        )
    rate = _lambda_rate(inputs, build_v(inputs))
    return _power(rate, n, inputs.q, l, inputs.eta)


def required_sample_size(
    inputs: DesignInputs, cap: int = SEARCH_CAP_DEFAULT
) -> SampleSizeResult:
    """Smallest n whose power reaches the target.

    The search doubles an upper bracket, bisects, then walks downward so
    the returned n is the smallest integer meeting the target even if
    the power curve has a local flat spot.  Exceeding the cap raises
    NumericalError (the effect is too small to power within the cap).
    """
    v = build_v(inputs)
    rate = _lambda_rate(inputs, v)
    l = inputs.rank_l
    q = inputs.q
    start = max(10, q + l + 2)

    def power(n: int) -> float:
        return _power(rate, n, q, l, inputs.eta)

    if inputs.power_target == 0.0:
        return SampleSizeResult(
            n=start, achieved_power=power(start), lambda_per_n=rate, v_matrix=v
        )

    hi = start
    while power(hi) < inputs.power_target:
        if hi > cap:
            raise NumericalError(
                f"effect too small: sample size exceeds cap {cap} "
                f"(power at {cap} still below {inputs.power_target})"
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
    return SampleSizeResult(
        n=n, achieved_power=power(n), lambda_per_n=rate, v_matrix=v
    )


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
    if (tau <= 0).any() or (tau > 1).any():
        raise DataValidationError(
            f"tau pattern leaves (0, 1]: range [{tau.min():.4g}, {tau.max():.4g}]"
        )
    return tau


def _solve_pattern(system: np.ndarray, rhs: np.ndarray, label: str) -> np.ndarray:
    try:
        return np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"{label} pattern system is singular: {exc}") from exc


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
        system = np.array(
            [
                [-2.0 * theta_g, (1.0 - theta_g) - t_points * (1.0 + theta_g)],
                [s0, s1],
            ]
        )
        coeffs = _solve_pattern(system, np.array([0.0, aeo * s0]), "expected-outcome")
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

    def ratio_row(theta: float) -> list[float]:
        return [-2.0 * theta, (1.0 - theta) - t_points * (1.0 + theta)]

    b12 = _solve_pattern(
        np.array([ratio_row(theta_f1), [s0, s1]]),
        np.array([0.0, sate1 * s0]),
        "effect",
    )
    b34 = _solve_pattern(
        np.array([ratio_row(theta_f2), [s0, s1]]),
        np.array([0.0, (sate2 - sate1) * s0]),
        "effect",
    )
    curve1 = b12[0] + b12[1] * t
    curve2 = curve1 + b34[0] + b34[1] * t
    gamma = np.array([b12[0], b12[1], b12[0] + b34[0], b12[1] + b34[1]])
    return gamma, np.column_stack([curve1, curve2])


def summarize_effects(
    smee: np.ndarray, eo: np.ndarray, tau: np.ndarray, l_matrix: np.ndarray
) -> EffectSummary:
    """Availability-weighted averages: sATE per arm, their contrast, AEO, AA."""
    smee = np.atleast_2d(np.asarray(smee, dtype=float))
    eo = np.asarray(eo, dtype=float)
    tau = np.asarray(tau, dtype=float)
    l_matrix = np.atleast_2d(np.asarray(l_matrix, dtype=float))
    t_points = tau.shape[0]
    if smee.shape[0] != t_points or eo.shape != (t_points,):
        raise DataValidationError("smee and eo must have T rows")
    if l_matrix.shape[1] != smee.shape[1]:
        raise DataValidationError("l_matrix columns must match the number of arms")
    wsum = float(tau.sum())
    sate = (smee * tau[:, None]).sum(axis=0) / wsum
    aeo = float((eo * tau).sum() / wsum)
    aa = float(tau.mean())
    return EffectSummary(sate=sate, delta_sate=l_matrix @ sate, aeo=aeo, aa=aa)


def inputs_from_config(cfg: dict[str, str]) -> DesignInputs:
    """Build DesignInputs from a flat key=value mapping.

    Recognized keys: K, T, p (K+1 comma probabilities including the
    reference arm), tau_kind, AA, theta_tau, f_kind (constant | linear),
    theta_f1, theta_f2, sate1, sate2, q, L (preset name or rows), eta,
    power.  The effect curves come from the two-arm pattern builder, so
    K must be 2.
    """
    k_arms = get_int(cfg, "K", 2)
    if k_arms != 2:
        raise DataValidationError(
            "config-driven sample sizing supports K=2 (the pattern builders are two-arm); "
            "build DesignInputs directly for other K"
        )
    t_points = get_int(cfg, "T")
    probs_full = get_floats(cfg, "p")
    if len(probs_full) != k_arms + 1:
        raise DataValidationError(
            f"key 'p' must list K+1={k_arms + 1} probabilities including the reference arm"
        )
    if abs(sum(probs_full) - 1.0) > 1e-8:
        raise DataValidationError("key 'p' probabilities must sum to 1")
    tau = tau_pattern(
        cfg.get("tau_kind", "constant"),
        get_float(cfg, "AA"),
        get_float(cfg, "theta_tau", 0.0),
        t_points,
    )
    f_kind = cfg.get("f_kind", "constant")
    gamma, _ = mee_pattern(
        f_kind,
        get_float(cfg, "theta_f1", 0.0),
        get_float(cfg, "theta_f2", 0.0),
        (get_float(cfg, "sate1"), get_float(cfg, "sate2")),
        tau,
    )
    t = np.arange(1, t_points + 1, dtype=float)
    if f_kind == "constant":
        f = np.ones((t_points, 1))
    elif f_kind == "linear":
        f = np.column_stack([np.ones(t_points), t])
    else:
        raise DataValidationError(f"unknown f_kind {cfg.get('f_kind')!r}")
    l_matrix = parse_contrast_text(cfg.get("L", "pairwise(1,2)"), k_arms)
    return DesignInputs(
        k_arms=k_arms,
        t_points=t_points,
        rand_probs=np.array(probs_full[1:]),
        tau=tau,
        f=f,
        gamma=gamma,
        q=get_int(cfg, "q", 1),
        l_matrix=l_matrix,
        eta=get_float(cfg, "eta", 0.05),
        power_target=get_float(cfg, "power", 0.8),
    )
