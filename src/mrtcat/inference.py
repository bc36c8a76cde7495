"""Linear contrasts, the scaled-F Wald test, and confidence intervals.

A hypothesis about the K arm effects is a nu x K matrix L acting on the
stacked coefficient vector through L_tilde = L kron I_p.  The Wald
statistic

    T = (L_tilde b)' (L_tilde C L_tilde')^{-1} (L_tilde b)

is compared, after the small-sample scaling, against an F distribution
with (l, n - q - l) degrees of freedom, where l = rank(L).  The scaling
factor (n - q - l) / (l (n - q - l)) reduces to 1/l, but the code keeps
the paper's expression, which fixes every statistic's rounding.
Intervals use the t-like quantile, the square root of the (1, n - q - 1)
F quantile.

wald_stack and interval_stack decide this reference for a stack of R
fits of n subjects: they raise what every fit shares (the level, the
widths, too few subjects, the F quantile's error) and return one error
slot per fit.  wald_test and confidence_intervals are stacks of one, and
the Monte Carlo engine calls the two on a whole run's replicates, after
raising check_wald's errors before its first replicate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError, NullContrastError, SingularSystemError
from .numerics import f_cdf, f_quantile, solve_spd_stack
from .wcls import FitResult
from ._kvconfig import parse_rows

__all__ = [
    "ContrastSpec",
    "TestResult",
    "CiRow",
    "build_contrast",
    "contrast_preset",
    "parse_contrast_text",
    "wald_test",
    "confidence_intervals",
]

_RANK_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ContrastSpec:
    """A contrast L, its lift L_tilde = L kron I_p, rank(L), and row_basis:
    a full-row-rank matrix with L_tilde's row space, which gives the
    same Wald statistic.  The arrays are read-only, and l_matrix is a
    copy of the caller's L."""

    l_matrix: np.ndarray
    p: int
    l_tilde: np.ndarray
    rank_l: int
    row_basis: np.ndarray


@dataclass(frozen=True)
class TestResult:
    statistic: float
    scaled_statistic: float
    df1: int
    df2: int
    p_value: float
    reject: bool
    critical_value: float


@dataclass(frozen=True)
class CiRow:
    estimate: float
    se: float
    lower: float
    upper: float
    p_value: float


def build_contrast(l_matrix: np.ndarray, p: int) -> ContrastSpec:
    """Lift an arm-level contrast L to coefficient space via L kron I_p.

    L_tilde is the broadcast product L[i, j] * I_p[k, l], bitwise
    np.kron(L, I_p).  Its singular values are L's, each repeated p times,
    so one SVD of L_tilde gives rank(L) and the row basis.
    """
    l_matrix = np.array(l_matrix, dtype=float, ndmin=2)
    if p < 1:
        raise DataValidationError("moderator dimension p must be >= 1")
    if not np.isfinite(l_matrix).all():
        raise DataValidationError("contrast matrix must be finite")
    eye = np.eye(p)
    l_tilde = (l_matrix[:, None, :, None] * eye[:, None, :]).reshape(
        len(l_matrix) * len(eye), l_matrix.shape[1] * len(eye)
    )
    _, svals, vt = np.linalg.svd(l_tilde, full_matrices=False)
    if not np.isfinite(svals).all():
        raise DataValidationError("contrast matrix entries are too large: its norm overflows")
    scale = svals[0] if svals.size else 0.0
    if scale == 0.0:
        raise NullContrastError("contrast matrix is zero")
    rank = int(np.sum(svals > _RANK_TOL * scale))
    row_basis = svals[:rank, None] * vt[:rank]
    for array in (l_matrix, l_tilde, row_basis):
        array.flags.writeable = False
    return ContrastSpec(
        l_matrix=l_matrix,
        p=int(p),
        l_tilde=l_tilde,
        rank_l=rank // len(eye),
        row_basis=row_basis,
    )


def contrast_preset(name: str, k_arms: int) -> np.ndarray:
    """Expand a named contrast: 'all-null' or 'pairwise(j,k)' (1-based arms)."""
    if name == "all-null":
        return np.eye(k_arms)
    match = re.fullmatch(r"pairwise\((\d+),\s*(\d+)\)", name.strip())
    if match:
        j, k = int(match.group(1)), int(match.group(2))
        if not (1 <= j <= k_arms and 1 <= k <= k_arms) or j == k:
            raise DataValidationError(
                f"pairwise arms must be distinct and within 1..{k_arms}, got ({j},{k})"
            )
        row = np.zeros((1, k_arms))
        row[0, j - 1] = 1.0
        row[0, k - 1] = -1.0
        return row
    raise DataValidationError(
        f"unknown contrast preset {name!r}; expected 'all-null' or 'pairwise(j,k)'"
    )


def parse_contrast_text(text: str, k_arms: int) -> np.ndarray:
    """Parse a contrast given as a preset name or semicolon-separated rows."""
    text = text.strip()
    if text == "all-null" or text.startswith("pairwise"):
        return contrast_preset(text, k_arms)
    mat = np.array(parse_rows(text.split(";"), f"contrast {text!r}"), dtype=float)
    if mat.ndim != 2 or mat.shape[1] != k_arms:
        raise DataValidationError(
            f"contrast rows must have {k_arms} entries, got shape {mat.shape}"
        )
    return mat


def check_wald(contrast: ContrastSpec, width: int, n: int, q: int, eta: float) -> None:
    """Raise what wald_test rejects in its arguments for every fit of
    width coefficients and n subjects: an eta outside (0, 1) or whose
    1 - eta rounds to 1, a contrast of another width, or n <= q + l + 1."""
    if not (0.0 < eta < 1.0):
        raise DataValidationError("eta must lie in (0, 1)")
    if 1.0 - eta == 1.0:
        raise DataValidationError("eta is too small: 1 - eta rounds to 1")
    if contrast.l_tilde.shape[1] != width:
        raise DataValidationError(
            f"contrast expects {contrast.l_tilde.shape[1]} coefficients, fit has {width}"
        )
    l = contrast.rank_l
    if n <= q + l + 1:
        raise DataValidationError(
            f"need n > q + l + 1 for the scaled-F test (n={n}, q={q}, l={l})"
        )


def wald_stack(
    beta: np.ndarray, cov_beta: np.ndarray, contrast: ContrastSpec, n: int, q: int, eta: float
) -> tuple[np.ndarray, np.ndarray, float, list]:
    """Scaled-F Wald statistics of R fits of n subjects against one contrast.

    beta is (R, Kp) and cov_beta (R, Kp, Kp).  Raises what every fit
    shares: check_wald's errors, then the critical value's.  Returns the
    (R,) statistics and scaled statistics, the (l, n - q - l) critical
    value at level eta, and, per fit, the exception wald_test raises or
    None.
    """
    check_wald(contrast, beta.shape[1], n, q, eta)
    l = contrast.rank_l
    critical = f_quantile(l, n - q - l, 1.0 - eta)
    reduced = contrast.row_basis
    v = beta @ reduced.T
    solve = solve_spd_stack(reduced @ cov_beta @ reduced.T, v)
    statistic = np.maximum(np.einsum("rl,rl->r", v, solve.solution), 0.0)
    errors = [
        SingularSystemError(f"contrasted covariance is singular: {exc}")
        if isinstance(exc, SingularSystemError)
        else exc
        for exc in solve.errors
    ]
    return statistic, statistic * (n - q - l) / (l * (n - q - l)), critical, errors


def wald_test(fit: FitResult, contrast: ContrastSpec, eta: float = 0.05) -> TestResult:
    """Scaled-F Wald test of H0: L_tilde beta = 0 at level eta, against
    an F reference with (l, n - q - l) degrees of freedom."""
    n, q, l = fit.n, fit.q, contrast.rank_l
    statistics, scaled, critical, errors = wald_stack(
        fit.beta_hat[None], fit.cov_beta[None], contrast, n, q, eta
    )
    if errors[0] is not None:
        raise errors[0]
    scaled = float(scaled[0])
    return TestResult(
        statistic=float(statistics[0]),
        scaled_statistic=scaled,
        df1=l,
        df2=n - q - l,
        p_value=1.0 - f_cdf(l, n - q - l, scaled),
        reject=bool(scaled > critical),
        critical_value=critical,
    )


def interval_stack(
    beta: np.ndarray, cov_beta: np.ndarray, rows: np.ndarray, n: int, q: int, level: float
) -> tuple[np.ndarray, ...]:
    """(estimate, se, lower, upper) of every row c' beta for R fits of n
    subjects, each (R, rows), at the given confidence level.

    Raises what every fit shares: rows of another width, a level outside
    (0, 1), n <= q + 2, a zero row, or the quantile's error.  The
    half-width is se times the t-like quantile, the square root of the
    (1, n - q - 1) F quantile.
    """
    if rows.shape[1] != beta.shape[1]:
        raise DataValidationError(f"contrast rows must have {beta.shape[1]} entries")
    if not (0.0 < level < 1.0):
        raise DataValidationError("confidence level must lie in (0, 1)")
    if n <= q + 2:
        raise DataValidationError(f"need n > q + 2 for intervals (n={n}, q={q})")
    if not rows.any(axis=1).all():
        raise NullContrastError("zero contrast row")
    quant = float(np.sqrt(f_quantile(1, n - q - 1, level)))
    estimate = beta @ rows.T
    se = np.sqrt(np.maximum(np.einsum("mi,rij,mj->rm", rows, cov_beta, rows), 0.0))
    return estimate, se, estimate - quant * se, estimate + quant * se


def confidence_intervals(
    fit: FitResult, rows: np.ndarray, level: float = 0.95
) -> list[CiRow]:
    """Estimate, SE, CI, and p-value for each linear combination c' beta.

    rows is a sequence of Kp-vectors.  The interval half-width uses the
    t-like quantile sqrt of the (1, n - q - 1) F quantile at the given
    confidence level, matching the single-row Wald test.  Every field
    is a plain float.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    stacked = interval_stack(fit.beta_hat[None], fit.cov_beta[None], rows, fit.n, fit.q, level)
    df2 = fit.n - fit.q - 1
    out = []
    for estimate, se, lower, upper in zip(*(a[0].tolist() for a in stacked)):
        if se > 0.0:
            p_value = 1.0 - f_cdf(1, df2, (estimate / se) ** 2)
        else:
            p_value = 1.0 if estimate == 0.0 else 0.0
        out.append(CiRow(estimate=estimate, se=se, lower=lower, upper=upper, p_value=p_value))
    return out
