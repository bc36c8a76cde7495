"""Independent reference implementations used to check the library.

Everything here is deliberately written the slow, obvious way: explicit
loops, textbook formulas, numpy.linalg solves.  None of it shares code
with the package under test, except two functions at the end:
design_arrays only unpacks the package's own design arrays for one panel
so that tests can hold them to the loops, and sample_size_bisection
searches with the package's power_at_n, so that tests can hold the
seeded search to the plain one.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ncfdtr

from mrtcat.data import numerator_tables
from mrtcat.design import SampleSizeResult, power_at_n
from mrtcat.errors import DataValidationError, NullContrastError, NumericalError
from mrtcat.wcls import design_stack


def kron_loops(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    r1, c1 = a.shape
    r2, c2 = b.shape
    out = np.zeros((r1 * r2, c1 * c2))
    for i in range(r1):
        for j in range(c1):
            for k in range(r2):
                for l in range(c2):
                    out[i * r2 + k, j * c2 + l] = a[i, j] * b[k, l]
    return out


def contrast_two_svds(l_matrix, p: int) -> tuple[np.ndarray, int, np.ndarray]:
    """(L kron I_p, rank(L), row basis) as build_contrast computed them
    with np.kron and two SVDs: rank(L) from L's singular values, and the
    row basis, s[:r, None] * vt[:r], from the SVD of L kron I_p with its
    own rank r.  Raises build_contrast's errors, with its messages."""
    l_matrix = np.array(l_matrix, dtype=float, ndmin=2)
    if p < 1:
        raise DataValidationError("moderator dimension p must be >= 1")
    if not np.isfinite(l_matrix).all():
        raise DataValidationError("contrast matrix must be finite")
    svals = np.linalg.svd(l_matrix, compute_uv=False)
    if not np.isfinite(svals).all():
        raise DataValidationError("contrast matrix entries are too large: its norm overflows")
    scale = svals[0] if svals.size else 0.0
    if scale == 0.0:
        raise NullContrastError("contrast matrix is zero")
    rank = int(np.sum(svals > 1e-10 * scale))
    l_tilde = np.kron(l_matrix, np.eye(p))
    _, s, vt = np.linalg.svd(l_tilde, full_matrices=False)
    rank_tilde = int(np.sum(s > 1e-10 * s[0]))
    if rank_tilde == 0:
        raise NullContrastError("contrast matrix is zero")
    return l_tilde, rank, s[:rank_tilde, None] * vt[:rank_tilde]


def design_v_loops(probs: np.ndarray, tau: np.ndarray, f: np.ndarray) -> np.ndarray:
    """V = sum_t tau(t) kron(diag(p_t) - p_t p_t', f_t f_t'), one t at a time."""
    kp = probs.shape[1] * f.shape[1]
    v = np.zeros((kp, kp))
    for t in range(tau.shape[0]):
        pt = np.diag(probs[t]) - np.outer(probs[t], probs[t])
        ft = f[t][:, None]
        v += tau[t] * np.kron(pt, ft @ ft.T)
    return v


def design_v_einsum(probs: np.ndarray, tau: np.ndarray, f: np.ndarray) -> np.ndarray:
    """V as design._v_matrix formed it with one four-operand einsum over
    (T, K) probs, P_t's diagonal written by fancy indexing: the bits that
    the sizing's golden files record."""
    k_arms, p = probs.shape[-1], f.shape[-1]
    pt = probs[..., :, None] * -probs[..., None, :]
    arms = np.arange(k_arms)
    pt[..., arms, arms] = probs - probs * probs
    v = np.einsum("...t,...tkl,...ti,...tj->...kilj", tau, pt, f, f)
    return v.reshape(*v.shape[:-4], k_arms * p, k_arms * p)


def _simpson(f, lo, hi):
    mid = 0.5 * (lo + hi)
    return (hi - lo) / 6.0 * (f(lo) + 4.0 * f(mid) + f(hi)), mid


def _adaptive_simpson(f, lo, hi, whole, tol, depth):
    mid = 0.5 * (lo + hi)
    left, _ = _simpson(f, lo, mid)
    right, _ = _simpson(f, mid, hi)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return _adaptive_simpson(f, lo, mid, left, tol / 2.0, depth - 1) + _adaptive_simpson(
        f, mid, hi, right, tol / 2.0, depth - 1
    )


def quad_reg_inc_beta(a: float, b: float, x: float, tol: float = 1e-13) -> float:
    """Regularized incomplete beta via adaptive Simpson quadrature."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(u: float) -> float:
        if u <= 0.0 or u >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1.0) * math.log(u) + (b - 1.0) * math.log1p(-u))

    whole, _ = _simpson(density, 0.0, x)
    return _adaptive_simpson(density, 0.0, x, whole, tol, 60)


def numerator_table_loops(data, kind: str) -> np.ndarray:
    """Per-t numerator probabilities by explicit counting/copying."""
    t_points, width = data.t_points, data.k_arms + 1
    table = np.zeros((t_points, width))
    if kind == "match_randomization":
        for t in range(t_points):
            table[t] = data.probs[0, t]
    elif kind == "empirical_per_t":
        for t in range(t_points):
            counts = np.zeros(width)
            for i in range(data.n):
                if data.avail[i, t] == 1:
                    counts[data.trt[i, t]] += 1
            table[t] = counts / counts.sum()
    elif kind == "empirical_pooled":
        counts = np.zeros(width)
        for i in range(data.n):
            for t in range(t_points):
                if data.avail[i, t] == 1:
                    counts[data.trt[i, t]] += 1
        table[:] = counts / counts.sum()
    else:
        raise ValueError(kind)
    clipped = np.clip(table, 1e-6, 1 - 1e-6)
    return clipped / clipped.sum(axis=1, keepdims=True)


def weight_loops(data, ptilde: np.ndarray, delta: int) -> np.ndarray:
    """Per-(i, t) weights I_t * J_t over the usable decision points."""
    t_used = data.t_points - delta + 1
    w = np.zeros((data.n, t_used))
    for i in range(data.n):
        for t in range(t_used):
            if data.avail[i, t] == 0:
                continue
            a = data.trt[i, t]
            value = ptilde[t, a] / data.probs[i, t, a]
            for j in range(t + 1, t + delta):
                if data.trt[i, j] != 0:
                    value = 0.0
                    break
                # availability is part of the history: an unavailable
                # point delivers arm 0 with probability one
                if data.avail[i, j] == 1:
                    value /= data.probs[i, j, 0]
            w[i, t] = value
    return w


def design_matrices_loops(data, ptilde: np.ndarray, f_cols, g_cols, delta: int):
    """Stacked (g; C_1 f; ...; C_K f) design per (i, t), plus outcomes.

    f_cols and g_cols are feature names; an intercept is always the
    first entry of each basis, mirroring the CLI conventions.
    """
    t_used = data.t_points - delta + 1
    k = data.k_arms
    p = 1 + len(f_cols)
    q = 1 + len(g_cols)
    dim = q + k * p
    x = np.zeros((data.n, t_used, dim))
    y = np.zeros((data.n, t_used))
    for i in range(data.n):
        for t in range(t_used):
            f_t = [1.0] + [data.features[c][i, t] for c in f_cols]
            g_t = [1.0] + [data.features[c][i, t] for c in g_cols]
            row = list(g_t)
            for arm in range(1, k + 1):
                c_k = (1.0 if data.trt[i, t] == arm else 0.0) - ptilde[t, arm]
                row.extend(c_k * v for v in f_t)
            x[i, t] = row
            y[i, t] = data.outcome[i, t]
    return x, y, p, q


def wcls_fit_loops(data, ptilde: np.ndarray, f_cols, g_cols, delta: int):
    """Brute-force weighted least squares plus plain sandwich pieces.

    Returns a dict with theta, alpha, beta, residuals (n, t_used),
    weights, and the design tensor, so variance oracles can reuse them.
    """
    w = weight_loops(data, ptilde, delta)
    x, y, p, q = design_matrices_loops(data, ptilde, f_cols, g_cols, delta)
    dim = x.shape[2]
    normal = np.zeros((dim, dim))
    rhs = np.zeros(dim)
    for i in range(data.n):
        for t in range(x.shape[1]):
            normal += w[i, t] * np.outer(x[i, t], x[i, t])
            rhs += w[i, t] * x[i, t] * y[i, t]
    theta = np.linalg.solve(normal, rhs)
    resid = np.zeros_like(y)
    for i in range(data.n):
        for t in range(x.shape[1]):
            resid[i, t] = y[i, t] - x[i, t] @ theta
    return {
        "theta": theta,
        "alpha": theta[:q],
        "beta": theta[q:],
        "resid": resid,
        "w": w,
        "x": x,
        "p": p,
        "q": q,
    }


def sandwich_loops(fit: dict, correction: str) -> np.ndarray:
    """Sandwich covariance of beta via explicit per-subject double loops."""
    x, w, resid, q = fit["x"], fit["w"], fit["resid"], fit["q"]
    n, t_used, dim = x.shape
    kp = dim - q
    d_beta = x[:, :, q:]

    m = np.zeros((kp, kp))
    for i in range(n):
        for t in range(t_used):
            m += w[i, t] * np.outer(d_beta[i, t], d_beta[i, t])

    if correction == "mancl_derouen":
        b = np.zeros((dim, dim))
        for i in range(n):
            for t in range(t_used):
                b += w[i, t] * np.outer(x[i, t], x[i, t])
        b_inv = np.linalg.inv(b)

    sigma = np.zeros((kp, kp))
    for i in range(n):
        if correction == "mancl_derouen":
            hat = x[i] @ b_inv @ x[i].T @ np.diag(w[i])
            e_i = np.linalg.solve(np.eye(t_used) - hat, resid[i])
        else:
            e_i = resid[i]
        u = np.zeros(kp)
        for t in range(t_used):
            u += w[i, t] * e_i[t] * d_beta[i, t]
        sigma += np.outer(u, u)

    m_inv = np.linalg.inv(m)
    return m_inv @ sigma @ m_inv.T


def max_leverage_loops(fit: dict) -> float:
    """Largest eigenvalue of any subject's block of the weighted hat matrix."""
    x, w = fit["x"], fit["w"]
    b_inv = np.linalg.inv(sum(x[i].T @ np.diag(w[i]) @ x[i] for i in range(x.shape[0])))
    return max(
        np.linalg.eigvals(x[i] @ b_inv @ x[i].T @ np.diag(w[i])).real.max()
        for i in range(x.shape[0])
    )


def pinv_sandwich_loops(fit: dict, tol: float) -> tuple[np.ndarray, int]:
    """Mancl-DeRouen sandwich with a per-subject pseudo-inverse, by loops.

    Each subject's score is X_i' W_i^{1/2} (I - P_i)^+ W_i^{1/2} e_i with
    the symmetric P_i = W_i^{1/2} X_i B^{-1} X_i' W_i^{1/2}; eigenvalues
    of I - P_i at or below tol are dropped from the inverse.  A subject
    with none dropped solves I - P_i directly, which keeps the relative
    error near eps / (1 - h) when a leverage h is close to one, where
    the explicit inverse from the eigenvectors loses more.  Returns
    (cov_beta, number of subjects with a dropped eigenvalue).
    """
    x, w, resid, q = fit["x"], fit["w"], fit["resid"], fit["q"]
    n, t_used, dim = x.shape
    b = sum(x[i].T @ np.diag(w[i]) @ x[i] for i in range(n))
    b_inv = np.linalg.inv(b)
    sigma = np.zeros((dim - q, dim - q))
    dropped = 0
    for i in range(n):
        root = np.diag(np.sqrt(w[i]))
        a = root @ x[i]
        gap = np.eye(t_used) - a @ b_inv @ a.T
        vals, vecs = np.linalg.eigh(gap)
        keep = vals > tol
        if keep.all():
            adjusted = np.linalg.solve(gap, root @ resid[i])
        else:
            dropped += 1
            adjusted = (vecs[:, keep] / vals[keep]) @ (vecs[:, keep].T @ (root @ resid[i]))
        u = (a.T @ adjusted)[q:]
        sigma += np.outer(u, u)
    m_inv = np.linalg.inv(b[q:, q:])
    return m_inv @ sigma @ m_inv.T, dropped


def estimating_equation_norm(fit: dict) -> float:
    """Max-norm of the mean estimating function at the fitted parameters."""
    x, w, resid = fit["x"], fit["w"], fit["resid"]
    n = x.shape[0]
    total = np.zeros(x.shape[2])
    for i in range(n):
        for t in range(x.shape[1]):
            total += w[i, t] * resid[i, t] * x[i, t]
    return float(np.max(np.abs(total / n)))


def _basis_values_loops(kind, coeffs, t, z, n):
    if kind == "constant":
        return np.full(n, coeffs[0])
    if kind == "linear":
        return np.full(n, coeffs[0] + coeffs[1] * t)
    if kind == "quadratic":
        return np.full(n, coeffs[0] + coeffs[1] * t + coeffs[2] * t * t)
    if kind == "z":
        return coeffs[0] + coeffs[1] * z[:, t - 1]
    # zcat: one level per Z value
    return coeffs[z[:, t - 1].astype(int)]


def simulate_trial_loops(config, n: int, seed: int) -> dict:
    """The trial generator one decision point at a time, as a dict of arrays.

    Draw order: eps (n, T+1), then Z when a Z basis is in play, then per
    t the availability uniforms and the arm uniforms.  Returns avail,
    trt, outcome, Z (or None) and clipped.  The gm_ev scale factors come
    from mrtcat.gm_ev_scales, a closed form with its own tests.
    """
    from mrtcat import gm_ev_scales

    rng = np.random.default_rng(int(seed))
    t_points = config.t_points
    probs_active = config.rand_probs
    p0 = 1.0 - probs_active.sum(axis=1)
    probs_full = np.column_stack([p0, probs_active])

    eps = rng.standard_normal((n, t_points + 1))
    z = None
    if config.needs_z:
        z = rng.integers(0, config.z_levels, size=(n, t_points)).astype(float)

    nu0 = math.sqrt(1.0 - config.nu1 * config.nu1)
    avail = np.zeros((n, t_points), dtype=np.int64)
    trt = np.zeros((n, t_points), dtype=np.int64)
    outcome = np.zeros((n, t_points))
    clipped = 0

    for t in range(1, t_points + 1):
        j = t - 1
        if config.family == "gm_ea" and t >= 2:
            a_prev = trt[:, j - 1]
            p_prev = probs_active[j - 1]
            drift = (a_prev == 1).astype(float) - p_prev[0]
            drift += (a_prev == 2).astype(float) - p_prev[1]
            pi = (
                config.tau_curve[j - 1]
                + config.nu2 * drift
                + config.nu3 * np.clip(eps[:, j], -1.0, 1.0)
            )
            bad = (pi < 0.0) | (pi > 1.0)
            clipped += int(bad.sum())
            pi = np.clip(pi, 0.0, 1.0)
        else:
            pi = np.full(n, config.tau_curve[j])

        avail_t = (rng.random(n) < pi).astype(np.int64)
        cum = np.cumsum(probs_full[j])
        arm = np.minimum(np.searchsorted(cum, rng.random(n), side="right"), config.k_arms)
        a_t = np.where(avail_t == 1, arm, 0)

        base = _basis_values_loops(config.eo_basis, config.eo_coeffs, t, z, n)
        eff1 = _basis_values_loops(config.mee_basis, config.mee_coeffs[0], t, z, n)
        eff2 = _basis_values_loops(config.mee_basis, config.mee_coeffs[1], t, z, n)

        if config.family == "gm_ev":
            r_t, s_arms = gm_ev_scales(
                config.theta_r, config.theta_s, probs_active[j], t, t_points
            )
            noise = r_t * s_arms[a_t] * eps[:, t]
        elif config.family == "gm_sc":
            noise = config.nu1 * eps[:, t - 1] + nu0 * eps[:, t]
        else:
            noise = eps[:, t]

        avail[:, j] = avail_t
        trt[:, j] = a_t
        outcome[:, j] = base + (a_t == 1) * eff1 + (a_t == 2) * eff2 + noise

    return {"avail": avail, "trt": trt, "outcome": outcome, "Z": z, "clipped": clipped}


def design_arrays(data, spec):
    """The package's weights, design rows, outcomes and t_used for one panel.

    wcls.design_stack with R = 1, on the numerator table of spec's policy:
    W and Y are (n, t_used) and Dfull is (n, t_used, q + Kp), one row of
    (g; C_1 f; ...; C_K f) per decision point.
    """
    tables, errors = numerator_tables(
        data.avail[None], data.trt[None], data.probs[None], spec.numerator, data.k_arms
    )
    if errors[0] is not None:
        raise errors[0]
    weights, d_full, outcome, t_used = design_stack(
        data.avail[None], data.trt[None], data.probs[None], data.outcome[None],
        {name: arr[None] for name, arr in data.features.items()}, data.k_arms, spec, tables,
    )
    return weights[0], np.moveaxis(d_full[0], 0, -1), outcome[0], t_used


def sample_size_bisection(inputs, cap: int):
    """required_sample_size by doubling an upper bracket from the search
    start, bisecting and walking down, one power_at_n call per power.

    This is the package's search before it was seeded, with the same cap
    rules and messages.  power_evals counts its own evaluations, including
    the power at n, which it computes again for the result.
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


def cdf_negligible_halving(l: float, df2: float, lam: float, critical: float) -> bool:
    """Whether the noncentral F CDF at critical is below 2^-54, bounded by
    its value at the first of lam / 2, lam / 4, ... where ncfdtr is
    finite: one halving per ncfdtr call, as design._cdf_negligible did
    before it skipped the noncentralities where ncfdtr is always NaN."""
    while 0.0 < lam < math.inf:
        lam /= 2.0
        cdf = float(ncfdtr(l, df2, lam, critical))
        if math.isfinite(cdf):
            return cdf < 2.0**-54
    return False
