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
from typing import NamedTuple

import numpy as np

from .data import MrtDataset, NumeratorPolicy, fit_numerator_probs, numerator_tables
from .errors import DataValidationError, DegenerateArmError, SingularSystemError
from .numerics import SpdStack, solve_spd_stack

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


def usable_points(t_points: int, delta: int) -> int:
    """Decision points whose excursion window of length delta fits in T."""
    t_used = t_points - delta + 1
    if t_used < 1:
        raise DataValidationError(
            f"delta={delta} leaves no usable decision points in a panel with T={t_points}"
        )
    return t_used


def check_dims(n: int, spec: ModelSpec, k_arms: int) -> None:
    """Raise unless n subjects can support a sandwich covariance."""
    dim = spec.q + k_arms * spec.p
    if n <= dim:
        raise DataValidationError(
            f"n={n} subjects cannot support a sandwich covariance for "
            f"q + K*p = {dim} coefficients; need n > {dim}"
        )


def _build_arrays(data: MrtDataset, spec: ModelSpec):
    """Assemble weights, centered indicators, and stacked design blocks.

    Returns (W, Dfull, Y, t_used, ptilde) where W is (n, t_used),
    Dfull is (n, t_used, q + K p) and Y is (n, t_used).  Decision
    points with t + delta - 1 > T are dropped because their proximal
    outcome window extends past the panel.
    """
    ptilde = fit_numerator_probs(data, spec.numerator)
    weights, d_full, outcome, t_used = design_stack(
        data.avail[None],
        data.trt[None],
        data.probs[None],
        data.outcome[None],
        {name: arr[None] for name, arr in data.features.items()},
        data.k_arms,
        spec,
        ptilde[None],
    )
    return weights[0], np.moveaxis(d_full[0], 0, -1), outcome[0], t_used, ptilde


def design_stack(
    avail: np.ndarray,
    trt: np.ndarray,
    probs: np.ndarray,
    outcome: np.ndarray,
    features: dict[str, np.ndarray],
    k_arms: int,
    spec: ModelSpec,
    ptilde: np.ndarray,
):
    """_build_arrays for R panels at once, with the numerator tables given.

    avail, trt and outcome are (R, n, T); probs broadcasts to (R, n, T,
    K+1), each feature to (R, n, T) and ptilde to (R, T, K+1).  Returns
    (W, Dfull, Y, t_used) with W and Y (R, n, t_used) and Dfull
    column-major, (R, q + Kp, n, t_used), so that each design column is
    one contiguous panel.
    """
    count, n, big_t = avail.shape
    t_used = usable_points(big_t, spec.delta)
    trt_used = trt[..., :t_used]
    avail_used = avail[..., :t_used]
    probs_used = probs[..., :t_used, :]

    # ptilde_t(A_t) / p_t(A_t), divided per table entry and then looked up
    with np.errstate(divide="ignore", invalid="ignore"):
        quotient = ptilde[:, None, :t_used, :] / np.where(probs_used > 0, probs_used, 1.0)
    weights = np.take_along_axis(quotient, trt_used[..., None], axis=3)[..., 0]
    weights[avail_used != 1] = 0.0
    # Trailing excursion factor: reference arm held for delta - 1 points.
    # Unavailable interim points deliver arm 0 deterministically, so the
    # conditional probability there is 1, not the recorded prob_0.
    for offset in range(1, spec.delta):
        idx = np.arange(t_used) + offset
        a_j = trt[..., idx]
        i_j = avail[..., idx]
        p0_j = probs[..., idx, 0]
        factor = np.where(a_j == 0, np.where(i_j == 1, 1.0 / np.maximum(p0_j, 1e-300), 1.0), 0.0)
        weights = weights * factor

    def basis(columns: tuple[str, ...], intercept: bool, label: str) -> list:
        parts: list = [1.0] if intercept else []
        for name in columns:
            if name not in features:
                raise DataValidationError(
                    f"{label} column {name!r} not in dataset features {sorted(features)}"
                )
            parts.append(features[name][..., :t_used])
        return parts

    f_parts = basis(spec.f_columns, spec.f_intercept, "moderator")
    g_parts = basis(spec.g_columns, spec.g_intercept, "control")
    d_full = np.empty((count, spec.q + k_arms * spec.p, n, t_used))
    for j, part in enumerate(g_parts):
        d_full[:, j] = part
    for arm in range(k_arms):
        centered = (trt_used == arm + 1).astype(float)
        centered -= ptilde[:, None, :t_used, arm + 1]
        lo = spec.q + arm * spec.p
        for j, part in enumerate(f_parts):
            d_full[:, lo + j] = centered * part

    return weights, d_full, outcome[..., :t_used], t_used


def missing_arms(avail: np.ndarray, trt: np.ndarray, t_used: int, k_arms: int) -> np.ndarray:
    """(R, K) flags: arm k + 1 is never observed at an available point of panel r."""
    available = avail[..., :t_used] == 1
    trt_used = trt[..., :t_used]
    return np.column_stack(
        [~((trt_used == k) & available).any(axis=(1, 2)) for k in range(1, k_arms + 1)]
    )


def _degenerate_arms(missing: np.ndarray) -> DegenerateArmError | None:
    if not missing.any():
        return None
    return DegenerateArmError(
        f"declared arm(s) {[int(k) + 1 for k in np.flatnonzero(missing)]} never observed "
        f"among available decision points; the design is singular (reduce k_arms or "
        f"supply data covering every arm)"
    )


def keep_first_errors(errors: list, new) -> None:
    """Fill the empty slots of errors from new: a list with one entry per
    slot, or one exception (or None) that every slot shares."""
    for r, exc in enumerate(new if isinstance(new, list) else [new] * len(errors)):
        if errors[r] is None:
            errors[r] = exc


class FitStack(NamedTuple):
    """fit_stack's results, each with a leading panel axis.

    theta stacks (alpha, beta); resid is the unweighted residual panel
    over the usable decision points; tables are the numerator tables,
    one (1, T, K+1) table when they do not depend on the data.
    errors[r] is the exception fit_wcls raises on panel r, or None; the
    other entries of a failed panel are meaningless.
    """

    theta: np.ndarray
    resid: np.ndarray
    cov_beta: np.ndarray
    md_fallbacks: np.ndarray
    tables: np.ndarray
    errors: list


def fit_stack(
    avail: np.ndarray,
    trt: np.ndarray,
    probs: np.ndarray,
    outcome: np.ndarray,
    features: dict[str, np.ndarray],
    k_arms: int,
    spec: ModelSpec,
) -> FitStack:
    """fit_wcls on R panels at once, with fit_wcls's error for each panel.

    avail, trt and outcome are (R, n, T); probs broadcasts to (R, n, T,
    K+1) and each feature to (R, n, T), so arrays every panel shares
    are passed once.  Every panel must satisfy the MrtDataset
    invariants.  The checks run in fit_wcls's order (window, numerator
    table, design columns, arms observed, subject count, solves) and
    each panel keeps the first error it meets.  A failed panel is still
    fitted, but its values stay in its own slices: the solves and the
    sandwich set aside a slice that is not finite or not positive
    definite.

    The normal matrix of each panel is the sum of its subjects' blocks
    D_i' W_i D_i, which the hat-matrix correction needs too.  Every
    product with W is one einsum pass, so no weighted copy of the
    design is made.
    """
    count, n, big_t = avail.shape
    dim = spec.q + k_arms * spec.p
    tables, table_errors = numerator_tables(avail, trt, probs, spec.numerator, k_arms)
    errors: list = [None] * count
    try:
        usable_points(big_t, spec.delta)  # its error precedes the tables
        keep_first_errors(errors, table_errors)
        weights, d_full, y, t_used = design_stack(
            avail, trt, probs, outcome, features, k_arms, spec, tables
        )
        keep_first_errors(
            errors, [_degenerate_arms(m) for m in missing_arms(avail, trt, t_used, k_arms)]
        )
        check_dims(n, spec, k_arms)
    except DataValidationError as exc:  # a check every panel shares
        keep_first_errors(errors, exc)
    if all(exc is not None for exc in errors):
        zeros = np.zeros((count, dim - spec.q, dim - spec.q))
        return FitStack(
            np.zeros((count, dim)), np.zeros((count, n, 0)), zeros,
            np.zeros(count, dtype=np.int64), tables, errors,
        )

    per_subject = np.einsum("rait,rit,rbit->riab", d_full, weights, d_full)
    normal = per_subject.sum(axis=1)
    rows = d_full.reshape(count, dim, -1)
    rhs = np.einsum("rai,ri->ra", rows, (weights * y).reshape(count, -1))
    solve = solve_spd_stack(normal, rhs)
    keep_first_errors(
        errors,
        [
            SingularSystemError(f"normal matrix is singular: {exc}")
            if isinstance(exc, SingularSystemError)
            else exc
            for exc in solve.errors
        ],
    )
    resid = (solve.solution[:, None, :] @ rows).reshape(y.shape)
    np.subtract(y, resid, out=resid)
    cov_beta, md_fallbacks = _sandwich_core(
        d_full, weights * resid, per_subject, normal, solve, spec.q, spec.correction, errors
    )
    return FitStack(solve.solution, resid, cov_beta, md_fallbacks, tables, errors)


def _sandwich_core(
    design: np.ndarray,
    weighted_resid: np.ndarray,
    per_subject: np.ndarray,
    gram: np.ndarray,
    normal_solve: SpdStack,
    q: int,
    correction: str,
    errors: list,
) -> tuple[np.ndarray, np.ndarray]:
    """Robust covariance of beta_hat from per-subject score sums.

    design is the column-major (R, q + Kp, n, rows) design D and
    weighted_resid the (R, n, rows) weighted residuals W e; per_subject
    holds the (R, n) blocks M_i = D_i' W_i D_i, gram = sum_i M_i is the
    normal matrix B, and normal_solve its factorization.  The beta block
    is everything past q.

    With the hat-matrix correction each subject's residual vector e_i is
    replaced by (I - H_i)^{-1} e_i, where H_i = D_i B^{-1} D_i' W_i is
    that subject's block of the weighted hat matrix on the full
    (alpha, beta) design.  Only the score D_i' W_i (I - H_i)^{-1} e_i is
    needed, and the Woodbury identity turns it into a q + Kp system:
    with B = L L' and g_i = D_i' W_i e_i it equals
    L (I - S_i)^{-1} L^{-1} g_i, where S_i = L^{-1} M_i L^{-T}.  The
    eigenvalues of S_i are the subject's leverages, in [0, 1].  A
    leverage with 1 - h <= LEVERAGE_TOL makes I - H_i numerically
    singular; its eigenvector is dropped from (I - S_i)^{-1}, which is
    the pseudo-inverse of the symmetric I - W_i^{1/2} D_i B^{-1} D_i'
    W_i^{1/2} on that subspace.  Returns (cov_beta, number of subjects
    with such a leverage), per replicate; the first error of a
    replicate not already failed goes into errors.
    """
    scores = np.einsum("rait,rit->ria", design, weighted_resid)
    fallbacks = np.zeros(len(errors), dtype=np.int64)
    if correction == "mancl_derouen":
        lower, lower_inv = normal_solve.factor, normal_solve.factor_inv
        failed = np.array([exc is not None for exc in errors])
        if failed.any():  # a failed replicate's factors need not be finite
            eye = np.eye(gram.shape[1])
            lower = np.where(failed[:, None, None], eye, lower)
            lower_inv = np.where(failed[:, None, None], eye, lower_inv)
            per_subject = np.where(failed[:, None, None, None], 0.0, per_subject)
        lower, lower_inv = lower[:, None], lower_inv[:, None]
        leverage, basis = np.linalg.eigh(lower_inv @ per_subject @ lower_inv.swapaxes(-1, -2))
        singular = 1.0 - leverage <= LEVERAGE_TOL
        fallbacks = singular.any(axis=2).sum(axis=1)
        gain = 1.0 / np.where(singular, np.inf, 1.0 - leverage)
        # g_i -> L Q_i diag(gain_i) Q_i' L^{-1} g_i, with S_i = Q_i diag(leverage_i) Q_i'
        coords = basis.swapaxes(-1, -2) @ (lower_inv @ scores[..., None])
        scores = (lower @ (basis @ (coords * gain[..., None])))[..., 0]

    beta_scores = scores[..., q:]
    sigma_sum = beta_scores.transpose(0, 2, 1) @ beta_scores
    m_sum = gram[:, q:, q:]
    # cov = M^{-1} Sigma M^{-1}; the 1/n factors of the per-subject
    # averages cancel when raw sums are used throughout.
    left = solve_spd_stack(m_sum, sigma_sum)
    right = solve_spd_stack(m_sum, left.solution.transpose(0, 2, 1))
    keep_first_errors(errors, [a or b for a, b in zip(left.errors, right.errors)])
    cov = right.solution.transpose(0, 2, 1)
    cov = 0.5 * (cov + cov.transpose(0, 2, 1))
    return cov, fallbacks


def fit_wcls(data: MrtDataset, spec: ModelSpec) -> FitResult:
    """Solve the weighted-centered least-squares estimating equation.

    The root is exact (one linear solve).  cov_beta is the sandwich
    covariance of beta_hat with the configured small-sample correction.
    Raises DegenerateArmError when a declared arm is never observed,
    SingularSystemError when the normal matrix is singular anyway, and
    DataValidationError when there are too few subjects for the
    covariance to make sense.  The work is fit_stack on a stack of one.
    """
    fit = fit_stack(
        data.avail[None],
        data.trt[None],
        data.probs[None],
        data.outcome[None],
        {name: arr[None] for name, arr in data.features.items()},
        data.k_arms,
        spec,
    )
    if fit.errors[0] is not None:
        raise fit.errors[0]
    theta = fit.theta[0]
    return FitResult(
        alpha_hat=theta[: spec.q].copy(),
        beta_hat=theta[spec.q :].copy(),
        cov_beta=fit.cov_beta[0],
        n=data.n,
        t_points=data.t_points,
        k_arms=data.k_arms,
        p=spec.p,
        q=spec.q,
        residuals=fit.resid[0],
        delta=spec.delta,
        correction=spec.correction,
        md_fallbacks=int(fit.md_fallbacks[0]),
        numerator_table=fit.tables[0],
        f_names=spec.f_names,
        g_names=spec.g_names,
    )
