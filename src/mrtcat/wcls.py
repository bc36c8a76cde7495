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

import math
import mmap
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .data import MrtDataset, NumeratorPolicy, numerator_tables, stored_probs
from .errors import DataValidationError, DegenerateArmError, SingularSystemError
from .numerics import SpdStack, apply_spd_inverse, solve_spd_stack

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

    f_columns and g_columns name feature columns of the dataset; each
    basis is an intercept followed by its columns.  delta is the
    excursion window length (proximal outcome horizon).  correction
    selects the small-sample residual adjustment applied inside the
    sandwich covariance.
    """

    f_columns: tuple[str, ...] = ()
    g_columns: tuple[str, ...] = ()
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

    @property
    def p(self) -> int:
        return 1 + len(self.f_columns)

    @property
    def q(self) -> int:
        return 1 + len(self.g_columns)

    @property
    def f_names(self) -> tuple[str, ...]:
        return ("intercept", *self.f_columns)

    @property
    def g_names(self) -> tuple[str, ...]:
        return ("intercept", *self.g_columns)


@dataclass(frozen=True, eq=False)
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


def check_model(n: int, t_points: int, feature_names, spec: ModelSpec, k_arms: int) -> None:
    """Raise what fit_wcls rejects in every panel of n subjects, t_points
    decision points and these feature columns, whatever its values: a
    window of length delta that leaves no usable decision point, a model
    column not among the features, or too few subjects for a sandwich
    covariance."""
    if spec.delta > t_points:
        raise DataValidationError(
            f"delta={spec.delta} leaves no usable decision points in a panel with T={t_points}"
        )
    _check_columns(feature_names, spec.f_columns, spec.g_columns)
    dim = spec.q + k_arms * spec.p
    if n <= dim:
        raise DataValidationError(
            f"n={n} subjects cannot support a sandwich covariance for "
            f"q + K*p = {dim} coefficients; need n > {dim}"
        )


def _check_columns(feature_names, f_columns, g_columns) -> None:
    """Raise when a moderator or control column is not among the
    feature_names."""
    for columns, label in ((f_columns, "moderator"), (g_columns, "control")):
        for name in columns:
            if name not in feature_names:
                raise DataValidationError(
                    f"{label} column {name!r} not in dataset features {sorted(feature_names)}"
                )


def scratch(workspace: dict | None, name: str, shape: tuple, dtype=float) -> np.ndarray:
    """An uninitialized array of this shape and dtype.

    Without a workspace it is np.empty.  A workspace is a dict that
    keeps, under each name, an array whose leading (panel) axis is at
    least as long as any asked for: the result is the leading slice of
    that array, which is allocated again only when it is too short or
    of another shape.  So the chunks of one Monte Carlo worker reuse the
    same memory instead of freeing it and faulting it in again.  A
    caller overwrites every element before reading it and keeps no
    scratch array past its chunk.

    A workspace's arrays are anonymous memory maps, so an array that is
    dropped from a workspace gives its pages back to the OS at once; a
    heap block would stay resident while anything allocated after it
    lives.
    """
    if workspace is None:
        return np.empty(shape, dtype)
    array = workspace.get(name)
    if array is None or array.shape[1:] != shape[1:] or len(array) < shape[0]:
        count = math.prod(shape)
        pages = mmap.mmap(-1, max(1, count * np.dtype(dtype).itemsize))
        array = workspace[name] = np.frombuffer(pages, dtype, count).reshape(shape)
    return array[: shape[0]]


def weight_lookup(ptilde: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The quotient table ptilde_t(a) / p_t(a) that design_stack looks the
    weights up in, as (quotients, row_starts).

    ptilde is (R, T, K+1) and probs broadcasts to (R, n, T, K+1), so the
    table has one row of K+1 quotients per decision point of that
    broadcast shape.  quotients holds the rows flattened after one zero,
    and row_starts (of the broadcast shape without the arm axis) the
    index of each row's first entry.  A table every panel shares, such as
    a match_randomization table with the probabilities, is built once
    and passed to every call.
    """
    numerator = ptilde[:, None]
    shape = np.broadcast_shapes(numerator.shape, probs.shape)
    quotients = np.empty(1 + math.prod(shape))
    quotients[0] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(numerator, np.where(probs > 0, probs, 1.0), out=quotients[1:].reshape(shape))
    return quotients, np.arange(1, quotients.size, shape[-1]).reshape(shape[:-1])


def design_stack(
    avail: np.ndarray,
    trt: np.ndarray,
    probs: np.ndarray,
    outcome: np.ndarray,
    features: dict[str, np.ndarray],
    k_arms: int,
    spec: ModelSpec,
    ptilde: np.ndarray,
    workspace: dict | None = None,
    lookup: tuple[np.ndarray, np.ndarray] | None = None,
):
    """Weights, centered indicators and stacked design blocks of R panels,
    with the numerator tables given.

    avail, trt and outcome are (R, n, T); probs broadcasts to (R, n, T,
    K+1), each feature to (R, n, T) and ptilde to (R, T, K+1); lookup,
    when given, is weight_lookup(ptilde, probs).  Returns (W, Dfull, Y,
    t_used) with W and Y (R, n, t_used) and Dfull column-major, (R,
    q + Kp, n, t_used), so that each design column is one contiguous
    panel, and W is C-ordered like those panels, whatever the layout of
    trt, so that products of the two run at unit stride.  W and Dfull are
    scratch arrays of the workspace (see scratch).  Decision points with
    t + delta - 1 > T are dropped because their proximal outcome window
    extends past the panel.  The window and the model columns must pass
    check_model.
    """
    count, n, big_t = avail.shape
    t_used = big_t - spec.delta + 1
    trt_used = trt[..., :t_used]

    # ptilde_t(A_t) / p_t(A_t), divided per table entry and then looked up:
    # entry A_t of the point's row of the quotient table, which starts
    # after one zero.  An unavailable point's index is multiplied by
    # I_t = 0 and reads that zero, so its weight is an exact 0 even where
    # its quotient overflows.
    quotients, row_starts = weight_lookup(ptilde, probs) if lookup is None else lookup
    index = scratch(workspace, "index", (count, n, t_used), np.intp)
    np.add(row_starts[..., :t_used], trt_used, out=index)
    index *= avail[..., :t_used]
    weights = scratch(workspace, "weights", (count, n, t_used))
    np.take(quotients, index, out=weights, mode="clip")
    # Trailing excursion factor: reference arm held for delta - 1 points.
    # Unavailable interim points deliver arm 0 deterministically, so the
    # conditional probability there is 1, not the recorded prob_0.
    for offset in range(1, spec.delta):
        idx = np.arange(t_used) + offset
        a_j = trt[..., idx]
        i_j = avail[..., idx]
        p0_j = probs[..., idx, 0]
        factor = np.where(a_j == 0, np.where(i_j == 1, 1.0 / np.maximum(p0_j, 1e-300), 1.0), 0.0)
        weights *= factor

    f_parts = [1.0, *(features[name][..., :t_used] for name in spec.f_columns)]
    g_parts = [1.0, *(features[name][..., :t_used] for name in spec.g_columns)]
    d_full = scratch(workspace, "d_full", (count, spec.q + k_arms * spec.p, n, t_used))
    for j, part in enumerate(g_parts):
        d_full[:, j] = part
    # Arm k's block starts with the centered indicator itself, whose f
    # part is the intercept: the (R, K, n, t_used) columns q, q + p, ...
    centered = d_full[:, spec.q :: spec.p]
    arms = np.arange(1, k_arms + 1, dtype=trt.dtype)[:, None, None]
    np.subtract(
        trt_used[:, None] == arms, ptilde[:, None, :t_used, 1:].transpose(0, 3, 1, 2),
        out=centered,
    )
    for j, part in enumerate(f_parts[1:], start=1):
        part = part[:, None] if part.ndim == 3 else part  # a panel axis, then arms
        np.multiply(centered, part, out=d_full[:, spec.q + j :: spec.p])

    return weights, d_full, outcome[..., :t_used], t_used


def _degenerate_arms(trt: np.ndarray, t_used: int, k_arms: int) -> list:
    """Per panel of the (R, n, T) trt, the DegenerateArmError for the arms
    it never gives at a usable point, or None.  An unavailable point
    carries arm 0 (an MrtDataset invariant), so a point that gives an
    active arm is available."""
    arms = np.arange(1, k_arms + 1, dtype=trt.dtype)[:, None, None]
    # (K, R) flags, each arm's points one contiguous run per panel
    given = (trt[..., :t_used].reshape(len(trt), -1) == arms).any(axis=2)
    errors: list = [None] * len(trt)
    if given.all():
        return errors
    for r in np.flatnonzero(~given.all(axis=0)):
        missing = [int(k) + 1 for k in np.flatnonzero(~given[:, r])]
        errors[r] = DegenerateArmError(
            f"declared arm(s) {missing} never observed among available decision points; "
            f"the design is singular (reduce k_arms or supply data covering every arm)"
        )
    return errors


def keep_first_errors(errors: list, new: list) -> None:
    """Fill the empty slots of errors from new, which has one entry (an
    exception or None) per slot."""
    for r, exc in enumerate(new):
        if errors[r] is None:
            errors[r] = exc


class FitStack(NamedTuple):
    """fit_stack's results, each with a leading panel axis.

    theta stacks (alpha, beta); resid is the unweighted residual panel
    over the usable decision points; tables are the numerator tables,
    one (1, T, K+1) table when they do not depend on the data.
    m and sigma are the (R, Kp, Kp) sandwich sums (M, Sigma) that
    covariance_stack turns into the covariance of beta_hat.
    errors[r] is the exception fit_wcls raises on panel r, or None; the
    other entries of a failed panel are meaningless.
    """

    theta: np.ndarray
    resid: np.ndarray
    m: np.ndarray
    sigma: np.ndarray
    md_fallbacks: np.ndarray
    tables: np.ndarray
    errors: list


# Outcomes near the float limit overflow here; the per-panel checks report it.
@np.errstate(over="ignore", invalid="ignore")
def fit_stack(
    avail: np.ndarray,
    trt: np.ndarray,
    probs: np.ndarray,
    outcome: np.ndarray,
    features: dict[str, np.ndarray],
    k_arms: int,
    spec: ModelSpec,
    workspace: dict | None = None,
    tables: tuple | None = None,
) -> FitStack:
    """fit_wcls on R panels at once, with fit_wcls's error for each panel.

    avail, trt and outcome are (R, n, T); probs broadcasts to (R, n, T,
    K+1) and each feature to (R, n, T), so arrays every panel shares
    are passed once.  tables, when given, is the (table, lookup) pair of
    a valid (1, T, K+1) numerator table that cannot depend on the panels
    and its weight_lookup with probs; without it the tables are computed
    here.  Every panel must satisfy the MrtDataset invariants.

    check_model raises what the panels share, before any other work.
    The other checks run in fit_wcls's order (numerator table, arms
    observed, normal solve), and each panel keeps the first error it
    meets.  A failed panel is still fitted, but its values stay in its
    own slices: the solves and the sandwich set aside a slice that is
    not finite or not positive definite.  The fit stops at each panel's
    sandwich sums (M, Sigma), leaving the covariance solves, the last
    step of fit_wcls, to the caller's covariance_stack call.  The design
    arrays and resid are scratch arrays of the workspace (see scratch),
    so a caller that passes one must not keep resid past its next call.

    The normal matrix of each panel is the sum of its subjects' blocks
    D_i' W_i D_i, which the hat-matrix correction needs too.  They are
    one einsum pass over the design and one weighted copy W D, which
    also gives the right-hand side D' W y, as one matmul over the long
    point axis, and the sandwich's score sums.
    """
    count, n, big_t = avail.shape
    dim = spec.q + k_arms * spec.p
    check_model(n, big_t, features, spec, k_arms)
    if tables is None:
        tables, errors = numerator_tables(avail, trt, probs, spec.numerator, k_arms)
        lookup = None
    else:
        (tables, lookup), errors = tables, [None] * count
    weights, d_full, y, t_used = design_stack(
        avail, trt, probs, outcome, features, k_arms, spec, tables, workspace, lookup
    )
    keep_first_errors(errors, _degenerate_arms(trt, t_used, k_arms))

    weighted = scratch(workspace, "weighted", d_full.shape)
    np.multiply(d_full, weights[:, None], out=weighted)
    per_subject = np.einsum("rait,rbit->riab", weighted, d_full)
    normal = per_subject.sum(axis=1)
    rows = d_full.reshape(count, dim, -1)
    rhs = (weighted.reshape(count, dim, -1) @ y.reshape(count, -1, 1))[..., 0]
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
    resid = scratch(workspace, "resid", y.shape)
    np.matmul(solve.solution[:, None, :], rows, out=resid.reshape(count, 1, -1))
    np.subtract(y, resid, out=resid)
    m_sum, sigma_sum, md_fallbacks = _sandwich_core(
        weighted, resid, per_subject, normal, solve, spec.q, spec.correction, errors
    )
    return FitStack(solve.solution, resid, m_sum, sigma_sum, md_fallbacks, tables, errors)


def _solve_certified(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve a x = b over the leading axes of a (..., d, d) stack a and a
    (..., d) stack b by Gaussian elimination without pivoting, and flag
    the blocks with lambda_min(a) > 2 * LEVERAGE_TOL.

    a is meant to be I - S_i, symmetric up to rounding.  The same steps
    eliminate a - 2 * LEVERAGE_TOL * I, concatenated to a along the
    stack axis, which is moved last so that each step runs over
    contiguous rows; b rides along as one more column, so each step
    updates both.  By Sylvester's law of inertia the pivots of an
    unpivoted symmetric elimination have the signs of the eigenvalues,
    so a block is certified when every pivot of its shifted copy is
    positive and finite.  Finite pivots mean a finite block: a
    non-finite entry reaches a pivot, since the steps only multiply,
    subtract and divide by pivots.  Elimination without pivoting is
    backward stable on a certified, hence positive definite, block; the
    x of any other block is meaningless.
    """
    shape, dim = b.shape, b.shape[-1]
    count = math.prod(shape[:-1])
    work = np.empty((dim, dim + 1, 2 * count))
    work[:, :dim, :count] = a.reshape(count, dim, dim).transpose(1, 2, 0)
    work[:, dim, :count] = b.reshape(count, dim).T
    work[..., count:] = work[..., :count]
    # the diagonal rows of the (dim * (dim + 1), 2 * count) view, shifted half
    work.reshape(dim * (dim + 1), -1)[:: dim + 2, count:] -= 2.0 * LEVERAGE_TOL
    x = work[:, dim, :count]
    # zero pivots of blocks that are not certified
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(dim - 1):
            factor = work[k + 1 :, k] / work[k, k]
            work[k + 1 :, k + 1 :] -= factor[:, None] * work[k, k + 1 :]
        x[dim - 1] /= work[dim - 1, dim - 1, :count]
        for k in reversed(range(dim - 1)):
            x[k] -= (work[k, k + 1 : dim, :count] * x[k + 1 :]).sum(axis=0)
            x[k] /= work[k, k, :count]
    pivots = work.reshape(dim * (dim + 1), -1)[:: dim + 2, count:]
    certified = ((pivots > 0.0) & (pivots < math.inf)).all(axis=0)
    return x.T.reshape(shape), certified.reshape(shape[:-1])


def _sandwich_core(
    weighted_design: np.ndarray,
    resid: np.ndarray,
    per_subject: np.ndarray,
    gram: np.ndarray,
    normal_solve: SpdStack,
    q: int,
    correction: str,
    errors: list,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sums of the robust covariance of beta_hat: the beta block M of
    the normal matrix and the sum Sigma of the subjects' beta-score outer
    products, for covariance_stack.

    weighted_design is the column-major (R, q + Kp, n, rows) product
    W D of the weights and the design and resid the (R, n, rows)
    residuals e; per_subject holds the (R, n) blocks M_i = D_i' W_i D_i,
    gram = sum_i M_i is the normal matrix B, and normal_solve its
    factorization.  The beta block is everything past q.

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
    W_i^{1/2} on that subspace.

    One _solve_certified call over the whole stack certifies the
    subjects with lambda_min(I - S_i) > 2 * LEVERAGE_TOL and solves
    (I - S_i)^{-1} L^{-1} g_i for them.  Rounding cannot move a decision
    across the tolerance: the elimination's backward error is about
    d * eps * ||I - S_i||, with ||I - S_i|| <= 1, and S_i is symmetric
    only up to rounding of that size, both far below the margin
    LEVERAGE_TOL between the certificate's bound and the tolerance.  So
    no certified subject holds a leverage that eigh would drop.  The
    other subjects, including any with a non-finite entry, take the
    eigendecomposition, and every fallback decision is the one eigh
    makes.

    Kernels: numpy's matmul on stacked float64 operands calls BLAS once
    per d x d slice, one call per subject, while einsum makes one pass
    over the whole (R, n) stack.  So S_i, L^{-1} g_i and the
    back-transform L x are einsum passes.  The subjects that are not
    certified form S_i, L^{-1} g_i and L x with matmul, as the
    eigendecomposition reference in the tests does: a stack with no
    certified subject gives bitwise that reference's sums.

    Returns (M, Sigma, number of subjects with a dropped leverage), per
    replicate.  errors marks the replicates already failed, whose factors
    the correction does not use; it is not changed here.
    """
    scores = np.einsum("rait,rit->ria", weighted_design, resid)
    fallbacks = np.zeros(len(errors), dtype=np.int64)
    if correction == "mancl_derouen":
        lower, lower_inv = normal_solve.factor, normal_solve.factor_inv
        failed = [exc is not None for exc in errors]
        if any(failed):  # a failed replicate's factors need not be finite
            failed = np.array(failed)
            eye = np.eye(gram.shape[1])
            lower = np.where(failed[:, None, None], eye, lower)
            lower_inv = np.where(failed[:, None, None], eye, lower_inv)
            per_subject = np.where(failed[:, None, None, None], 0.0, per_subject)
        hat = np.einsum("rax,rixb->riab", lower_inv, per_subject)
        hat = np.einsum("riab,rdb->riad", hat, lower_inv)
        coords = np.einsum("rab,rib->ria", lower_inv, scores)
        coords, certified = _solve_certified(np.eye(gram.shape[1]) - hat, coords)
        corrected = np.einsum("rab,rib->ria", lower, coords)
        if not certified.all():
            pick = ~certified
            lower, lower_inv = (
                np.broadcast_to(factor[:, None], per_subject.shape)[pick]
                for factor in (lower, lower_inv)
            )
            leverage, basis = np.linalg.eigh(
                lower_inv @ per_subject[pick] @ lower_inv.swapaxes(-1, -2)
            )
            singular = 1.0 - leverage <= LEVERAGE_TOL
            dropped = np.zeros_like(certified)
            dropped[pick] = singular.any(axis=-1)
            fallbacks = dropped.sum(axis=1)
            gain = 1.0 / np.where(singular, np.inf, 1.0 - leverage)
            # with S_i = Q_i diag(leverage_i) Q_i', apply Q_i diag(gain_i) Q_i'
            rotated = basis.swapaxes(-1, -2) @ (lower_inv @ scores[pick][..., None])
            corrected[pick] = (lower @ (basis @ (rotated * gain[..., None])))[..., 0]
        scores = corrected

    beta_scores = scores[..., q:]
    return gram[:, q:, q:], beta_scores.transpose(0, 2, 1) @ beta_scores, fallbacks


# Score sums near the float limit overflow here; the solves report it.
@np.errstate(over="ignore", invalid="ignore")
def covariance_stack(m: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, list]:
    """The sandwich covariance M^{-1} Sigma M^{-1} of (R, Kp, Kp) stacks of
    beta-block normal matrices M and score sums Sigma, symmetrized, and
    per slice the error of its solves, or None.

    The 1/n factors of the per-subject averages cancel when raw sums are
    used throughout.  The second product reuses the first solve's factor
    of M.  Each slice's arithmetic is its own, so a slice gets the same
    bits in any stack.
    """
    left = solve_spd_stack(m, sigma)
    right, right_errors = apply_spd_inverse(left, left.solution.transpose(0, 2, 1))
    cov = right.transpose(0, 2, 1)
    return 0.5 * (cov + cov.transpose(0, 2, 1)), [
        a or b for a, b in zip(left.errors, right_errors)
    ]


def fit_wcls(data: MrtDataset, spec: ModelSpec) -> FitResult:
    """Solve the weighted-centered least-squares estimating equation.

    The root is exact (one linear solve).  cov_beta is the sandwich
    covariance of beta_hat with the configured small-sample correction.
    Raises DegenerateArmError when a declared arm is never observed,
    SingularSystemError when the normal matrix is singular anyway, and
    DataValidationError when there are too few subjects for the
    covariance to make sense.  The work is fit_stack on a stack of one,
    then covariance_stack on its sums.  Probabilities that every subject
    shares, which the dataset stores once, go to fit_stack as one
    (1, 1, T, K+1) table, so the numerator table and the weight quotients
    are computed on T rows, not n * T.
    """
    fit = fit_stack(
        data.avail[None],
        data.trt[None],
        stored_probs(data)[None],
        data.outcome[None],
        {name: arr[None] for name, arr in data.features.items()},
        data.k_arms,
        spec,
    )
    error = fit.errors[0]
    if error is None:
        cov_beta, (error,) = covariance_stack(fit.m, fit.sigma)
    if error is not None:
        raise error
    theta = fit.theta[0]
    return FitResult(
        alpha_hat=theta[: spec.q].copy(),
        beta_hat=theta[spec.q :].copy(),
        cov_beta=cov_beta[0],
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
