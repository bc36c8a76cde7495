"""Weighted and centered least squares for categorical treatments.

Fits the linear model

    Y_t  ~  g_t' alpha  +  sum_k C_k(A_t) f_t' beta_k

over all decision points whose excursion window fits inside the panel,
with per-point weights

    w_t = I_t * [ptilde_t(A_t) / p_t(A_t | H_t)]
              * prod_{j=t+1}^{t+delta-1} 1(A_j = 0) / p_j(0 | H_j)

and centered arm indicators C_k(A_t) = 1(A_t = k) - ptilde_t(k).  The
estimating function is linear in (alpha, beta), so the fit is one
weighted least-squares solve.  The covariance of beta_hat is the robust
sandwich built from per-subject score sums, optionally with the
hat-matrix small-sample residual adjustment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import MrtDataset, NumeratorPolicy, fit_numerator_probs, validate
from .errors import (
    DataValidationError,
    DegenerateArmError,
    PositivityError,
    SingularSystemError,
)
from .numerics import solve_spd

__all__ = [
    "ModelSpec",
    "FitResult",
    "fit_wcls",
]

CORRECTIONS = ("none", "mancl_derouen")

#: A subject leverage h with 1 - h at or below this counts as one: the
#: hat-matrix correction then uses a pseudo-inverse for that subject and
#: counts it in FitResult.md_fallbacks.
LEVERAGE_TOL = 1e-8


@dataclass(frozen=True)
class ModelSpec:
    """Analysis model: moderator basis f, control basis g, window, weights.

    f_columns and g_columns name feature columns of the dataset; an
    intercept is prepended to each basis unless the corresponding toggle
    is off.  delta is the excursion window length (proximal outcome
    horizon).  correction selects the small-sample residual adjustment
    applied inside the sandwich covariance.
    """

    f_columns: tuple[str, ...] = ()
    g_columns: tuple[str, ...] = ()
    f_intercept: bool = True
    g_intercept: bool = True
    delta: int = 1
    numerator: NumeratorPolicy = field(default_factory=NumeratorPolicy)
    correction: str = "mancl_derouen"

    def __post_init__(self) -> None:
        if self.delta < 1:
            raise DataValidationError("delta must be >= 1")
        if self.correction not in CORRECTIONS:
            raise DataValidationError(
                f"unknown correction {self.correction!r}; expected one of {CORRECTIONS}"
            )
        if self.p == 0:
            raise DataValidationError("moderator basis f is empty")
        if self.q == 0:
            raise DataValidationError("control basis g is empty")

    @property
    def p(self) -> int:
        return int(self.f_intercept) + len(self.f_columns)

    @property
    def q(self) -> int:
        return int(self.g_intercept) + len(self.g_columns)

    @property
    def f_names(self) -> tuple[str, ...]:
        return (("intercept",) if self.f_intercept else ()) + self.f_columns

    @property
    def g_names(self) -> tuple[str, ...]:
        return (("intercept",) if self.g_intercept else ()) + self.g_columns


@dataclass(frozen=True)
class FitResult:
    alpha_hat: np.ndarray
    beta_hat: np.ndarray
    cov_beta: np.ndarray
    n: int
    t_points: int
    k_arms: int
    p: int
    q: int
    residuals: np.ndarray
    delta: int
    correction: str
    md_fallbacks: int
    numerator_table: np.ndarray
    f_names: tuple[str, ...]
    g_names: tuple[str, ...]

    @property
    def beta_names(self) -> tuple[str, ...]:
        return tuple(
            f"arm{k}:{name}" for k in range(1, self.k_arms + 1) for name in self.f_names
        )


def _basis_matrix(
    data: MrtDataset, columns: tuple[str, ...], intercept: bool, t_used: int, label: str
) -> np.ndarray:
    parts = []
    if intercept:
        parts.append(np.ones((data.n, t_used)))
    for name in columns:
        if name not in data.features:
            raise DataValidationError(
                f"{label} column {name!r} not in dataset features {sorted(data.features)}"
            )
        parts.append(data.features[name][:, :t_used])
    return np.stack(parts, axis=2)


def _build_arrays(data: MrtDataset, spec: ModelSpec):
    """Assemble weights, centered indicators, and stacked design blocks.

    Returns (W, Dfull, Y, t_used, ptilde) where W is (n, t_used),
    Dfull is (n, t_used, q + K p) and Y is (n, t_used).  Decision
    points with t + delta - 1 > T are dropped because their proximal
    outcome window extends past the panel.
    """
    n, big_t, k = data.n, data.t_points, data.k_arms
    t_used = big_t - spec.delta + 1
    if t_used < 1:
        raise DataValidationError(
            f"delta={spec.delta} leaves no usable decision points in a panel with T={big_t}"
        )
    ptilde = fit_numerator_probs(data, spec.numerator)

    trt = data.trt[:, :t_used]
    avail = data.avail[:, :t_used]
    realized = np.take_along_axis(data.probs[:, :t_used], trt[:, :, None], axis=2)[:, :, 0]
    if ((avail == 1) & (realized <= 0.0)).any():
        raise PositivityError("realized arm has zero randomization probability")

    ptilde_realized = ptilde[np.arange(t_used)[None, :], trt]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(avail == 1, ptilde_realized / np.where(realized > 0, realized, 1.0), 0.0)
    weights = ratio
    # Trailing excursion factor: reference arm held for delta - 1 points.
    # Unavailable interim points deliver arm 0 deterministically, so the
    # conditional probability there is 1, not the recorded prob_0.
    for offset in range(1, spec.delta):
        idx = np.arange(t_used) + offset
        a_j = data.trt[:, idx]
        i_j = data.avail[:, idx]
        p0_j = data.probs[:, idx, 0]
        factor = np.where(a_j == 0, np.where(i_j == 1, 1.0 / np.maximum(p0_j, 1e-300), 1.0), 0.0)
        weights = weights * factor

    f_mat = _basis_matrix(data, spec.f_columns, spec.f_intercept, t_used, "moderator")
    g_mat = _basis_matrix(data, spec.g_columns, spec.g_intercept, t_used, "control")
    centered = (trt[:, :, None] == np.arange(1, k + 1)[None, None, :]).astype(float)
    centered -= ptilde[None, :t_used, 1:]

    dim = spec.q + k * spec.p
    d_full = np.empty((n, t_used, dim))
    d_full[:, :, : spec.q] = g_mat
    for arm in range(k):
        lo = spec.q + arm * spec.p
        d_full[:, :, lo : lo + spec.p] = centered[:, :, arm, None] * f_mat

    return weights, d_full, data.outcome[:, :t_used].copy(), t_used, ptilde


def _check_arms_observed(data: MrtDataset, t_used: int) -> None:
    seen = np.unique(data.trt[:, :t_used][data.avail[:, :t_used] == 1])
    missing = [k for k in range(1, data.k_arms + 1) if k not in seen]
    if missing:
        raise DegenerateArmError(
            f"declared arm(s) {missing} never observed among available decision points; "
            f"the design is singular (reduce k_arms or supply data covering every arm)"
        )


def _sandwich_core(
    design: np.ndarray,
    resid: np.ndarray,
    gram: np.ndarray,
    q: int,
    correction: str,
) -> tuple[np.ndarray, int]:
    """Robust covariance of beta_hat from per-subject score sums.

    design is the (n, rows, q + Kp) design D and resid the (n, rows)
    residuals e, both scaled by sqrt(w); gram = sum_i D_i' W_i D_i is
    the normal matrix B.  The beta block is everything past q.

    With the hat-matrix correction each subject's residual vector e_i is
    replaced by (I - H_i)^{-1} e_i, where H_i = D_i B^{-1} D_i' W_i is
    that subject's block of the weighted hat matrix on the full
    (alpha, beta) design.  Only the score D_i' W_i (I - H_i)^{-1} e_i is
    needed, and the Woodbury identity turns it into a q + Kp system:
    with B = L L', M_i = D_i' W_i D_i and g_i = D_i' W_i e_i it equals
    L (I - S_i)^{-1} L^{-1} g_i, where S_i = L^{-1} M_i L^{-T}.  The
    eigenvalues of S_i are the subject's leverages, in [0, 1].  A
    leverage with 1 - h <= LEVERAGE_TOL makes I - H_i numerically
    singular; its eigenvector is dropped from (I - S_i)^{-1}, which is
    the pseudo-inverse of the symmetric I - W_i^{1/2} D_i B^{-1} D_i'
    W_i^{1/2} on that subspace.  Returns (cov_beta, number of subjects
    with such a leverage).
    """
    scores = np.einsum("itr,it->ir", design, resid)
    fallbacks = 0
    if correction == "mancl_derouen":
        factor = np.linalg.cholesky(gram)
        factor_inv = np.linalg.inv(factor)
        per_subject = np.matmul(design.transpose(0, 2, 1), design)
        leverage, basis = np.linalg.eigh(factor_inv @ per_subject @ factor_inv.T)
        singular = 1.0 - leverage <= LEVERAGE_TOL
        fallbacks = int(singular.any(axis=1).sum())
        gain = 1.0 / np.where(singular, np.inf, 1.0 - leverage)
        # g_i -> L Q_i diag(gain_i) Q_i' L^{-1} g_i, with S_i = Q_i diag(leverage_i) Q_i'
        coords = np.einsum("irk,ir->ik", basis, scores @ factor_inv.T) * gain
        scores = np.einsum("irk,ik->ir", basis, coords) @ factor.T

    beta_scores = scores[:, q:]
    sigma_sum = beta_scores.T @ beta_scores
    m_sum = gram[q:, q:]
    # cov = M^{-1} Sigma M^{-1}; the 1/n factors of the per-subject
    # averages cancel when raw sums are used throughout.
    left = solve_spd(m_sum, sigma_sum).solution
    cov = solve_spd(m_sum, left.T).solution.T
    cov = 0.5 * (cov + cov.T)
    return cov, fallbacks


def fit_wcls(data: MrtDataset, spec: ModelSpec) -> FitResult:
    """Solve the weighted-centered least-squares estimating equation.

    The root is exact (one linear solve).  cov_beta is the sandwich
    covariance of beta_hat with the configured small-sample correction.
    Raises DegenerateArmError when a declared arm is never observed,
    SingularSystemError when the normal matrix is singular anyway, and
    DataValidationError when there are too few subjects for the
    covariance to make sense.
    """
    report = validate(data)
    if not report.ok:
        raise DataValidationError("; ".join(report.violations))

    weights, d_full, outcome, t_used, ptilde = _build_arrays(data, spec)
    _check_arms_observed(data, t_used)

    dim = spec.q + data.k_arms * spec.p
    if data.n <= dim:
        raise DataValidationError(
            f"n={data.n} subjects cannot support a sandwich covariance for "
            f"q + K*p = {dim} coefficients; need n > {dim}"
        )

    root_w = np.sqrt(weights)
    design = d_full * root_w[:, :, None]
    rows = design.reshape(-1, dim)
    normal = rows.T @ rows
    rhs = rows.T @ (root_w * outcome).ravel()
    try:
        theta = solve_spd(normal, rhs).solution
    except SingularSystemError as exc:
        raise SingularSystemError(f"normal matrix is singular: {exc}") from exc

    resid = outcome - d_full @ theta
    cov_beta, md_fallbacks = _sandwich_core(
        design, root_w * resid, normal, spec.q, spec.correction
    )

    return FitResult(
        alpha_hat=theta[: spec.q].copy(),
        beta_hat=theta[spec.q :].copy(),
        cov_beta=cov_beta,
        n=data.n,
        t_points=data.t_points,
        k_arms=data.k_arms,
        p=spec.p,
        q=spec.q,
        residuals=resid,
        delta=spec.delta,
        correction=spec.correction,
        md_fallbacks=md_fallbacks,
        numerator_table=ptilde,
        f_names=spec.f_names,
        g_names=spec.g_names,
    )
