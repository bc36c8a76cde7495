"""Linear contrasts, the scaled-F Wald test, and confidence intervals.

A hypothesis about the K arm effects is a nu x K matrix L acting on the
stacked coefficient vector through L_tilde = L kron I_p.  The Wald
statistic

    T = (L_tilde b)' (L_tilde C L_tilde')^{-1} (L_tilde b)

is compared, after the small-sample scaling, against an F distribution
with (l, n - q - l) degrees of freedom, where l = rank(L).  The scaling
factor (n - q - l) / (l (n - q - l)) reduces to 1/l, but the code keeps
the paper's expression, which fixes every statistic's rounding.
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
    same Wald statistic."""

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
    """Lift an arm-level contrast L to coefficient space via L kron I_p."""
    l_matrix = np.atleast_2d(np.asarray(l_matrix, dtype=float))
    if p < 1:
        raise DataValidationError("moderator dimension p must be >= 1")
    if not np.isfinite(l_matrix).all():
        raise DataValidationError("contrast matrix must be finite")
    svals = np.linalg.svd(l_matrix, compute_uv=False)
    scale = svals[0] if svals.size else 0.0
    if scale == 0.0:
        raise NullContrastError("contrast matrix is zero")
    rank = int(np.sum(svals > _RANK_TOL * scale))
    l_tilde = np.kron(l_matrix, np.eye(p))
    return ContrastSpec(
        l_matrix=l_matrix,
        p=int(p),
        l_tilde=l_tilde,
        rank_l=rank,
        row_basis=_row_space_basis(l_tilde),
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


def _row_space_basis(l_tilde: np.ndarray) -> np.ndarray:
    """Full-row-rank matrix with the same row space (and same statistic)."""
    u, s, vt = np.linalg.svd(l_tilde, full_matrices=False)
    rank = int(np.sum(s > _RANK_TOL * s[0]))
    if rank == 0:
        raise NullContrastError("contrast matrix is zero")
    return s[:rank, None] * vt[:rank]


def check_wald(n: int, q: int, contrast: ContrastSpec, n_coeffs: int, eta: float) -> None:
    """Raise unless wald_test can run: eta in (0, 1), matching
    dimensions and enough subjects for the F reference."""
    if not (0.0 < eta < 1.0):
        raise DataValidationError("eta must lie in (0, 1)")
    if contrast.l_tilde.shape[1] != n_coeffs:
        raise DataValidationError(
            f"contrast expects {contrast.l_tilde.shape[1]} coefficients, "
            f"fit has {n_coeffs}"
        )
    l = contrast.rank_l
    if n <= q + l + 1:
        raise DataValidationError(
            f"need n > q + l + 1 for the scaled-F test (n={n}, q={q}, l={l})"
        )


def scale_statistic(statistic, n: int, q: int, l: int):
    """The small-sample scaling of the Wald statistic (scalar or array)."""
    return statistic * (n - q - l) / (l * (n - q - l))


def wald_stack(
    beta: np.ndarray, cov_beta: np.ndarray, reduced: np.ndarray
) -> tuple[np.ndarray, list]:
    """Wald statistics of R fits against one full-row-rank contrast.

    beta is (R, Kp), cov_beta (R, Kp, Kp) and reduced the contrast's
    row_basis.  Returns the (R,) statistics and, per fit, the exception
    wald_test raises or None.
    """
    v = beta @ reduced.T
    gram = reduced @ cov_beta @ reduced.T
    solve = solve_spd_stack(gram, v)
    statistic = np.maximum(np.einsum("rl,rl->r", v, solve.solution), 0.0)
    errors = [
        SingularSystemError(f"contrasted covariance is singular: {exc}")
        if isinstance(exc, SingularSystemError)
        else exc
        for exc in solve.errors
    ]
    return statistic, errors


def wald_test(fit: FitResult, contrast: ContrastSpec, eta: float = 0.05) -> TestResult:
    """Scaled-F Wald test of H0: L_tilde beta = 0 at level eta, against
    an F reference with (l, n - q - l) degrees of freedom."""
    check_wald(fit.n, fit.q, contrast, fit.beta_hat.shape[0], eta)
    n, q, l = fit.n, fit.q, contrast.rank_l
    statistics, errors = wald_stack(fit.beta_hat[None], fit.cov_beta[None], contrast.row_basis)
    if errors[0] is not None:
        raise errors[0]
    statistic = float(statistics[0])
    scaled = scale_statistic(statistic, n, q, l)
    df2 = n - q - l
    critical = f_quantile(l, df2, 1.0 - eta)
    p_value = 1.0 - f_cdf(l, df2, scaled)
    return TestResult(
        statistic=statistic,
        scaled_statistic=scaled,
        df1=l,
        df2=df2,
        p_value=p_value,
        reject=bool(scaled > critical),
        critical_value=critical,
    )


def check_intervals(n: int, q: int, rows: np.ndarray, n_coeffs: int, level: float) -> None:
    """Raise unless confidence_intervals can run on these rows."""
    if rows.shape[1] != n_coeffs:
        raise DataValidationError(f"contrast rows must have {n_coeffs} entries")
    if not (0.0 < level < 1.0):
        raise DataValidationError("confidence level must lie in (0, 1)")
    if n <= q + 2:
        raise DataValidationError(f"need n > q + 2 for intervals (n={n}, q={q})")
    if not rows.any(axis=1).all():
        raise NullContrastError("zero contrast row")


def interval_stack(
    beta: np.ndarray, cov_beta: np.ndarray, rows: np.ndarray, quant: float
) -> tuple[np.ndarray, ...]:
    """(estimate, se, lower, upper) of every row c' beta for R fits, each (R, rows)."""
    estimate = beta @ rows.T
    se = np.sqrt(np.maximum(np.einsum("mi,rij,mj->rm", rows, cov_beta, rows), 0.0))
    return estimate, se, estimate - quant * se, estimate + quant * se


def interval_quantile(n: int, q: int, level: float) -> float:
    """The t-like interval quantile: sqrt of the (1, n - q - 1) F quantile."""
    return float(np.sqrt(f_quantile(1, n - q - 1, level)))


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
    check_intervals(fit.n, fit.q, rows, fit.beta_hat.shape[0], level)
    df2 = fit.n - fit.q - 1
    quant = interval_quantile(fit.n, fit.q, level)
    stacked = interval_stack(fit.beta_hat[None], fit.cov_beta[None], rows, quant)
    out = []
    for estimate, se, lower, upper in zip(*(a[0].tolist() for a in stacked)):
        if se > 0.0:
            p_value = 1.0 - f_cdf(1, df2, (estimate / se) ** 2)
        else:
            p_value = 1.0 if estimate == 0.0 else 0.0
        out.append(CiRow(estimate=estimate, se=se, lower=lower, upper=upper, p_value=p_value))
    return out
