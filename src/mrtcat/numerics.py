"""Dense SPD solves and F-distribution functions.

The statistical code in this package needs two things beyond plain
arithmetic: solves against symmetric positive definite matrices with a
condition diagnostic, and the central / noncentral F distribution
functions.  Everything here is deterministic and validates its inputs
eagerly.

solve_spd factors with numpy's Cholesky and inverts the triangular
factor once; that inverse yields both the solution and the exact 1-norm
condition number.  The F functions are thin wrappers over the
scipy.special kernels fdtr (central CDF), fdtri (its inverse in p) and
ncfdtr (noncentral CDF).  The wrappers own the domain checks, the
closed-form endpoints x <= 0 and x = inf, and the guarantee that a
non-finite kernel result surfaces as ConvergenceError rather than as a
NaN flowing into a test decision or a sample size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import fdtr, fdtri, ncfdtr

from .errors import ConvergenceError, NumericalError, SingularSystemError

__all__ = [
    "SpdSolveReport",
    "solve_spd",
    "f_cdf",
    "f_quantile",
    "noncentral_f_cdf",
]

#: Condition numbers above this raise SingularSystemError.
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class SpdSolveReport:
    """Result of a symmetric positive definite solve.

    condition_estimate is the exact 1-norm condition number
    ||a||_1 ||a^{-1}||_1, with a^{-1} formed from the inverse Cholesky
    factor.
    """

    solution: np.ndarray
    condition_estimate: float


def solve_spd(a: np.ndarray, rhs: np.ndarray) -> SpdSolveReport:
    """Solve a @ x = rhs for symmetric positive definite a.

    rhs may be a vector or a matrix of stacked right-hand sides.
    Raises NumericalError on non-finite entries and SingularSystemError
    when the Cholesky factorization fails or the 1-norm condition
    number exceeds CONDITION_LIMIT.
    """
    a = np.asarray(a, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(a)) or not np.all(np.isfinite(rhs)):
        raise NumericalError("solve_spd requires finite entries")
    if rhs.shape[0] != a.shape[0]:
        raise ValueError("right-hand side has incompatible leading dimension")
    try:
        factor = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"matrix of size {a.shape[0]} is not positive definite: {exc}"
        ) from exc
    # a = L L' so a^{-1} = L^{-T} L^{-1}; overflow in the inverse shows
    # up as an infinite condition number.
    with np.errstate(over="ignore", invalid="ignore"):
        factor_inv = np.linalg.inv(factor)
        a_inv = factor_inv.T @ factor_inv
        condition = float(np.linalg.norm(a, 1) * np.linalg.norm(a_inv, 1))
    if not condition <= CONDITION_LIMIT:
        raise SingularSystemError(
            f"matrix condition number {condition:.3e} exceeds {CONDITION_LIMIT:.1e}"
        )
    x = factor_inv.T @ (factor_inv @ rhs)
    return SpdSolveReport(solution=x, condition_estimate=condition)


def _check_dfs(d1: float, d2: float) -> tuple[float, float]:
    d1 = float(d1)
    d2 = float(d2)
    if not (d1 > 0.0 and d2 > 0.0):
        raise ValueError("degrees of freedom must be positive")
    return d1, d2


def _check_x(x: float) -> float:
    x = float(x)
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    return x


def _finite(value: float, kernel: str, *args: float) -> float:
    """Pass a scipy.special result through, or raise if it is not finite."""
    value = float(value)
    if not math.isfinite(value):
        raise ConvergenceError(
            f"scipy.special.{kernel}{args} returned {value}; no accurate value available"
        )
    return value


def f_cdf(d1: float, d2: float, x: float) -> float:
    """CDF of the central F distribution with (d1, d2) degrees of freedom."""
    d1, d2 = _check_dfs(d1, d2)
    x = _check_x(x)
    if x <= 0.0:
        return 0.0
    if math.isinf(x):
        return 1.0
    return _finite(fdtr(d1, d2, x), "fdtr", d1, d2, x)


def f_quantile(d1: float, d2: float, p: float) -> float:
    """Quantile of the central F distribution.

    p must lie in [0, 1); p = 0 returns 0.
    """
    d1, d2 = _check_dfs(d1, d2)
    p = float(p)
    if not (0.0 <= p < 1.0):
        raise ValueError("p must lie in [0, 1)")
    if p == 0.0:
        return 0.0
    return _finite(fdtri(d1, d2, p), "fdtri", d1, d2, p)


def noncentral_f_cdf(d1: float, d2: float, lam: float, x: float) -> float:
    """CDF of the noncentral F distribution with noncentrality lam.

    lam = 0 is the central distribution.
    """
    d1, d2 = _check_dfs(d1, d2)
    lam = float(lam)
    if not lam >= 0.0:
        raise ValueError("noncentrality must be nonnegative")
    x = _check_x(x)
    if x <= 0.0:
        return 0.0
    if math.isinf(x):
        return 1.0
    return _finite(ncfdtr(d1, d2, lam, x), "ncfdtr", d1, d2, lam, x)
