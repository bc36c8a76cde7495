"""Synthetic two-arm MRT generators and the Monte Carlo harness.

Four generative families share one mean structure and differ in their
noise and availability mechanisms:

    gm0    independent N(0, 1) noise, availability Bernoulli(tau(t));
    gm_ev  noise r(t) s(A_t) eps_t, time- and arm-dependent scale with
           unit average variance;
    gm_sc  noise nu1 eps_{t-1} + nu0 eps_t with nu0 = sqrt(1 - nu1^2),
           serially correlated with unit marginal variance;
    gm_ea  gm0 noise, but availability depends on the previous
           treatment and noise (endogenous availability).

Outcomes are Y_t = base(t) + 1(A=1) e1(t) + 1(A=2) e2(t) + noise, where
base comes from the expected-outcome coefficients and e1, e2 from the
per-arm effect coefficients, each evaluated in a small basis (constant,
polynomial in t, or the categorical covariate Z_t).

Monte Carlo replicates are embarrassingly parallel: every replicate
derives its own seed from (master seed, index) with an avalanche mix.
run_monte_carlo simulates and fits chunks of consecutive replicates as
stacked arrays, one chunk per task, and no replicate's bits depend on
its chunk, so summaries are byte-identical for any thread count.  The
generator draws each replicate's random numbers in a fixed order and is
elementwise over decision points except for gm_ea's availability
recursion.
"""

from __future__ import annotations

import os
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from .data import MrtDataset, NumeratorPolicy, numerator_tables
from .design import (
    DesignInputs,
    _config_gamma,
    _config_probs,
    _config_tau,
    _design_fields,
    eo_pattern,
    required_sample_size,
)
from .errors import DataValidationError, NumericalError
from .inference import (
    ContrastSpec,
    build_contrast,
    check_wald,
    interval_stack,
    parse_contrast_text,
    wald_stack,
)
from .wcls import (
    ModelSpec,
    check_model,
    covariance_stack,
    fit_stack,
    keep_first_errors,
    scratch,
    weight_lookup,
)
from ._kvconfig import get_float, get_int, get_floats, parse_rows

__all__ = [
    "GenerativeConfig",
    "McSummary",
    "Scenario",
    "gm_ev_scales",
    "simulate_trial",
    "derive_replicate_seed",
    "run_monte_carlo",
    "scenario_from_config",
]

FAMILIES = ("gm0", "gm_ev", "gm_sc", "gm_ea")

_EO_BASES = {"constant": 1, "linear": 2, "quadratic": 3, "z": 2, "zcat": None}
_MEE_BASES = {"constant": 1, "linear": 2, "z": 2}

_MASK64 = (1 << 64) - 1
THREADS_ENV = "MRTCAT_THREADS"


@dataclass(frozen=True, eq=False)
class GenerativeConfig:
    """Complete parameterization of one synthetic trial family (K = 2).

    rand_probs gives the active-arm probabilities p_t(1), p_t(2); a
    single pair is broadcast over t.  eo_coeffs parameterizes the
    no-treatment outcome level in the eo_basis; mee_coeffs has one row
    of effect coefficients per arm in the mee_basis.  Basis 'z' means
    (1, Z_t) with Z_t uniform on {0..z_levels-1}; 'zcat' means one
    level per Z value.

    The arrays are read-only copies.  Construction also builds the
    generator's per-t tables: probs_full (T, 3) with the reference arm
    first, its row-wise cumsum cum, t_grid = 1..T as floats, the
    gm_ev_scales factors noise_r (T,) and noise_s (T, 3) (None unless
    gm_ev), and mean_terms, the outcome level and the two arm effects
    evaluated at t_grid, each (T,), or None where its basis reads Z.
    """

    family: str
    t_points: int
    rand_probs: np.ndarray
    tau_curve: np.ndarray
    eo_basis: str = "constant"
    eo_coeffs: np.ndarray = field(default_factory=lambda: np.zeros(1))
    mee_basis: str = "constant"
    mee_coeffs: np.ndarray = field(default_factory=lambda: np.zeros((2, 1)))
    theta_r: float = 0.0
    theta_s: float = 0.0
    nu1: float = 0.0
    nu2: float = 0.0
    nu3: float = 0.0
    z_levels: int = 3
    probs_full: np.ndarray = field(init=False, repr=False)
    cum: np.ndarray = field(init=False, repr=False)
    t_grid: np.ndarray = field(init=False, repr=False)
    noise_r: np.ndarray | None = field(init=False, repr=False)
    noise_s: np.ndarray | None = field(init=False, repr=False)
    mean_terms: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise DataValidationError(f"unknown family {self.family!r}; expected {FAMILIES}")
        if self.t_points < 1:
            raise DataValidationError("t_points must be >= 1")
        probs = np.array(self.rand_probs, dtype=float)
        if probs.ndim == 1:
            probs = np.tile(probs, (self.t_points, 1))
        if probs.shape != (self.t_points, 2):
            raise DataValidationError("rand_probs must be (T, 2) active-arm probabilities")
        if not ((probs > 0).all() and (probs.sum(axis=1) < 1.0).all()):
            raise DataValidationError("active-arm probabilities must be positive, sums < 1")
        tau = np.array(self.tau_curve, dtype=float)
        if tau.shape != (self.t_points,):
            raise DataValidationError(f"tau_curve must have length T={self.t_points}")
        if not ((tau > 0) & (tau <= 1)).all():
            raise DataValidationError("tau_curve values must lie in (0, 1]")
        if self.eo_basis not in _EO_BASES:
            raise DataValidationError(f"unknown eo_basis {self.eo_basis!r}")
        if self.mee_basis not in _MEE_BASES:
            raise DataValidationError(f"unknown mee_basis {self.mee_basis!r}")
        if self.z_levels < 2:
            raise DataValidationError("z_levels must be >= 2")
        eo = np.array(self.eo_coeffs, dtype=float).ravel()
        eo_dim = _EO_BASES[self.eo_basis] or self.z_levels
        if eo.shape != (eo_dim,):
            raise DataValidationError(
                f"eo_coeffs must have {eo_dim} entries for basis {self.eo_basis!r}"
            )
        mee = np.array(self.mee_coeffs, dtype=float, ndmin=2)
        mee_dim = _MEE_BASES[self.mee_basis]
        if mee.shape != (2, mee_dim):
            raise DataValidationError(
                f"mee_coeffs must be 2 x {mee_dim} for basis {self.mee_basis!r}"
            )
        for name, value in (
            ("eo_coeffs", eo), ("mee_coeffs", mee), ("theta_r", self.theta_r),
            ("theta_s", self.theta_s), ("nu2", self.nu2), ("nu3", self.nu3),
        ):
            if not np.isfinite(value).all():
                raise DataValidationError(f"{name} must be finite")
        if not (-1.0 < self.nu1 < 1.0):
            raise DataValidationError("nu1 must lie in (-1, 1)")
        for name, value in (("nu2", self.nu2), ("nu3", self.nu3)):
            if abs(value) > 0.2:
                raise DataValidationError(f"{name} must lie in [-0.2, 0.2]")
        noise_r = noise_s = None
        if self.family == "gm_ev":
            r, s = zip(*(
                gm_ev_scales(self.theta_r, self.theta_s, probs[t - 1], t, self.t_points)
                for t in range(1, self.t_points + 1)
            ))
            noise_r, noise_s = np.array(r), np.array(s)
        probs_full = np.column_stack([1.0 - probs.sum(axis=1), probs])
        t_grid = np.arange(1, self.t_points + 1, dtype=float)
        mean_terms = tuple(
            None if kind in ("z", "zcat") else _basis_values(kind, coeffs, t_grid, None)
            for kind, coeffs in (
                (self.eo_basis, eo), (self.mee_basis, mee[0]), (self.mee_basis, mee[1])
            )
        )
        for name, value in (
            ("rand_probs", probs), ("tau_curve", tau), ("eo_coeffs", eo), ("mee_coeffs", mee),
            ("probs_full", probs_full), ("cum", np.cumsum(probs_full, axis=1)),
            ("t_grid", t_grid), ("noise_r", noise_r), ("noise_s", noise_s),
        ):
            if value is not None:
                value.flags.writeable = False
            object.__setattr__(self, name, value)
        for value in mean_terms:
            if value is not None:
                value.flags.writeable = False
        object.__setattr__(self, "mean_terms", mean_terms)

    @property
    def k_arms(self) -> int:
        return 2

    @property
    def needs_z(self) -> bool:
        return self.eo_basis in ("z", "zcat") or self.mee_basis == "z"


@dataclass(frozen=True, eq=False)
class McSummary:
    """Aggregate of a Monte Carlo run; per-parameter vectors follow the
    stacked beta order (arm 1 block, then arm 2)."""

    replicates: int
    completed: int
    failures: int
    seed: int
    param_names: tuple[str, ...]
    bias: tuple[float, ...]
    rmse: tuple[float, ...]
    mean_se: tuple[float, ...]
    coverage: tuple[float, ...]
    rejection_rate: float
    clipped_availability: int
    records: tuple[dict, ...] | None = None

    def to_dict(self) -> dict:
        def clean(values):
            return [None if np.isnan(v) else float(v) for v in values]

        return {
            "replicates": self.replicates,
            "completed": self.completed,
            "failures": self.failures,
            "seed": self.seed,
            "param_names": list(self.param_names),
            "bias": clean(self.bias),
            "rmse": clean(self.rmse),
            "mean_se": clean(self.mean_se),
            "coverage": clean(self.coverage),
            "rejection_rate": float(self.rejection_rate),
            "clipped_availability": self.clipped_availability,
        }


def gm_ev_scales(
    theta_r: float, theta_s: float, probs: np.ndarray, t: int, t_points: int
) -> tuple[float, np.ndarray]:
    """Time factor r(t) and per-arm factors s(0..2) of the gm_ev noise.

    The arm factors satisfy sum_k p(k) s(k)^2 = 1 and the time factors
    average r(t)^2 to 1, so the overall average noise variance is 1.
    """
    probs = np.asarray(probs, dtype=float)
    p1, p2 = float(probs[0]), float(probs[1])
    b = -((p1 - 1.0) / (p2 - 1.0)) * theta_s
    a0 = 1.0 - theta_s - b
    radicands = np.array([a0, a0 + theta_s, a0 + b])
    if (radicands < -1e-12).any():
        raise DataValidationError(
            f"gm_ev arm variance radicands {radicands} negative for theta_s={theta_s}"
        )
    s = np.sqrt(np.maximum(radicands, 0.0))
    if t_points == 1:
        if theta_r != 0.0:
            raise DataValidationError("theta_r must be 0 when T=1")
        r = 1.0
    else:
        rad = 1.0 + theta_r * (t_points + 1.0 - 2.0 * t) / (t_points - 1.0)
        if rad < -1e-12:
            raise DataValidationError(
                f"gm_ev time variance radicand {rad} negative at t={t} for theta_r={theta_r}"
            )
        r = sqrt(max(rad, 0.0))
    return r, s


def _basis_values(kind: str, coeffs: np.ndarray, t: np.ndarray, z: np.ndarray | None):
    """A basis evaluated at every decision point: (T,) for the polynomial
    bases, (R, n, T) for the Z bases; t holds 1..T as floats."""
    if kind == "constant":
        return np.full(t.shape, coeffs[0])
    if kind == "linear":
        return coeffs[0] + coeffs[1] * t
    if kind == "quadratic":
        return coeffs[0] + coeffs[1] * t + coeffs[2] * t * t
    if kind == "z":
        return coeffs[0] + coeffs[1] * z
    # zcat: one level per Z value
    return coeffs[z.astype(int)]


def derive_replicate_seed(master: int, index: int) -> int:
    """Avalanche-mix (master, index) into an independent 64-bit seed.

    Distinct indices map to distinct seeds for any fixed master: the
    index stride is odd (hence invertible mod 2^64) and the finalizer
    is a bijection.
    """
    x = (int(master) + int(index) * 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def _draws(config: GenerativeConfig, seeds: list[int], n: int, workspace: dict | None = None):
    """(eps, z, u) for one replicate per seed, each from its own stream.

    The order is the generator's contract: per replicate, the noise
    innovations eps (n, T+1), then Z (n, T) when a Z basis is in play
    (z is None otherwise), then per decision point n availability
    uniforms and n arm uniforms; u is (T, 2, n), so one call reads them
    in that order.  The arrays are scratch arrays of the workspace.
    """
    count, t_points = len(seeds), config.t_points
    eps = scratch(workspace, "eps", (count, n, t_points + 1))
    z = scratch(workspace, "z", (count, n, t_points)) if config.needs_z else None
    u = scratch(workspace, "u", (count, t_points, 2, n))
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        rng.standard_normal(out=eps[i])
        if z is not None:
            z[i] = rng.integers(0, config.z_levels, size=(n, t_points))
        rng.random(out=u[i])
    return eps, z, u


# Huge finite coefficients overflow here; the finiteness checks report it.
@np.errstate(over="ignore", invalid="ignore")
def _generate(config: GenerativeConfig, eps, z, u, workspace: dict | None = None):
    """Turn R replicates' draws into (avail, trt, outcome, clipped).

    eps is (R, n, T+1), z (R, n, T) or None and u (R, T, 2, n).  Every
    step is elementwise over t except gm_ea's availability, which
    depends on the previous treatment and so loops over t.  clipped
    counts, per replicate, the gm_ea availability probabilities clipped
    into [0, 1].  avail, trt and outcome are scratch arrays of the
    workspace; avail and trt are uint8, which every comparison writes
    through a bool view of the same bytes, so no step casts a flag.
    """
    count, n, _ = eps.shape
    t_points = config.t_points
    shape = (count, n, t_points)
    u_avail = u[:, :, 0, :].transpose(0, 2, 1)
    u_arm = u[:, :, 1, :].transpose(0, 2, 1)
    # min(searchsorted(cum_t, u, side="right"), K): how many of the first
    # K cumulative probabilities lie at or below u
    arm = scratch(workspace, "arm", shape, np.uint8)
    np.greater_equal(u_arm, config.cum[:, 0], out=arm.view(bool))
    flag = scratch(workspace, "flag", shape, np.uint8)
    for k in range(1, config.k_arms):
        np.greater_equal(u_arm, config.cum[:, k], out=flag.view(bool))
        arm += flag

    clipped = np.zeros(count, dtype=np.int64)
    avail = scratch(workspace, "avail", shape, np.uint8)
    trt = scratch(workspace, "trt", shape, np.uint8)
    if config.family == "gm_ea":
        for j in range(t_points):
            if j == 0:
                pi = config.tau_curve[0]
            else:
                a_prev = trt[..., j - 1]
                p_prev = config.rand_probs[j - 1]
                drift = (a_prev == 1).astype(float) - p_prev[0]
                drift += (a_prev == 2).astype(float) - p_prev[1]
                pi = (
                    config.tau_curve[j - 1]
                    + config.nu2 * drift
                    + config.nu3 * np.clip(eps[..., j], -1.0, 1.0)
                )
                bad = (pi < 0.0) | (pi > 1.0)
                clipped += bad.sum(axis=1)
                pi = np.clip(pi, 0.0, 1.0)
            np.less(u_avail[..., j], pi, out=avail[..., j].view(bool))
            np.multiply(arm[..., j], avail[..., j], out=trt[..., j])
    else:
        np.less(u_avail, config.tau_curve, out=avail.view(bool))
        np.multiply(arm, avail, out=trt)

    base, eff1, eff2 = (
        _basis_values(kind, coeffs, config.t_grid, z) if values is None else values
        for values, kind, coeffs in zip(
            config.mean_terms,
            (config.eo_basis, config.mee_basis, config.mee_basis),
            (config.eo_coeffs, *config.mee_coeffs),
        )
    )
    # outcome = ((base + 1(A=1) e1) + 1(A=2) e2) + noise, in that order
    outcome = scratch(workspace, "outcome", shape)
    term = scratch(workspace, "term", shape)
    np.multiply(trt == 1, eff1, out=outcome)
    np.add(base, outcome, out=outcome)
    np.multiply(trt == 2, eff2, out=term)
    outcome += term
    if config.family == "gm_ev":
        np.multiply(config.noise_r, config.noise_s[np.arange(t_points), trt], out=term)
        term *= eps[..., 1:]
        outcome += term
    elif config.family == "gm_sc":
        nu0 = sqrt(1.0 - config.nu1 * config.nu1)
        np.multiply(config.nu1, eps[..., :-1], out=term)
        term += nu0 * eps[..., 1:]
        outcome += term
    else:
        outcome += eps[..., 1:]
    return avail, trt, outcome, clipped


def check_subjects(n: int) -> None:
    """Raise unless simulate_trial can draw a trial of n subjects."""
    if n < 1:
        raise DataValidationError("n must be >= 1")


def simulate_trial(config: GenerativeConfig, n: int, seed: int) -> MrtDataset:
    """Generate one synthetic trial of n subjects.

    The returned dataset carries feature columns 'time' (the decision
    point t), 'time2' (t squared) and, when a Z basis is in play, 'Z', so
    fitted models can use polynomial or covariate bases.  The time
    features are not named 't', which is the CSV index column, so
    write_csv output loads back.  The count of availability
    probabilities clipped into [0, 1] (possible under gm_ea) is exposed
    as the dataset's clipped_availability attribute.
    """
    check_subjects(n)
    if not (0 <= int(seed) < 2**64):
        raise DataValidationError("seed must be a 64-bit unsigned integer")
    eps, z, u = _draws(config, [int(seed)], n)
    avail, trt, outcome, clipped = _generate(config, eps, z, u)
    time = np.broadcast_to(config.t_grid, (n, config.t_points))
    features = {"time": time, "time2": time * time}
    if z is not None:
        features["Z"] = z[0]

    data = MrtDataset(
        subject_ids=tuple(str(i + 1) for i in range(n)),
        avail=avail[0],
        trt=trt[0],
        probs=np.broadcast_to(config.probs_full, (n, config.t_points, 3)),
        outcome=outcome[0],
        features=features,
        k_arms=2,
    )
    data.clipped_availability = int(clipped[0])
    return data


def _resolve_threads(threads: int | None) -> int:
    if threads is None:
        raw = os.environ.get(THREADS_ENV, "1")
        try:
            threads = int(raw)
        except ValueError as exc:
            raise DataValidationError(f"{THREADS_ENV} must be an integer, got {raw!r}") from exc
    if threads < 1:
        raise DataValidationError("threads must be >= 1")
    return threads


#: Replicates are fitted in chunks of consecutive indices, enough decision
#: points (R * n * T) to amortize numpy's per-call cost over several
#: replicates.  A chunk's arrays (the draws, the generated panels, the
#: weights, design, W D and residuals: 13 arrays, 116 bytes per decision
#: point) live in one workspace per thread, sized for a full chunk and
#: reused by every chunk: freed after each chunk, they would be handed
#: back to the OS and page-faulted in again by the next one.  A run's
#: budget is two chunks of about this many points: a run with two or more
#: workers gives each worker a chunk of that size, and a run with one
#: worker takes the whole budget as one chunk of twice as many
#: replicates, so it holds no more chunk memory than a two-worker run and
#: pays the fixed work of each chunk half as often.  The calling thread
#: keeps its workspace from one one-worker run to the next, which saves
#: the faults once per run, not per replicate.  It keeps at most one
#: one-worker chunk, the budget as _chunk_replicates rounds it to whole
#: replicates, and nothing when one replicate is larger than the budget.
#: A run of another (n, T, Z) shape drops what was kept before it
#: allocates anything, and so does a run with two or more workers, whose
#: pool threads' workspaces end with them; a dropped array goes back to
#: the OS at once (see wcls.scratch).
_CHUNK_POINTS = 20_000


def _chunk_replicates(points: int, workers: int) -> int:
    """Replicates per chunk for replicates of this many decision points
    (see _CHUNK_POINTS)."""
    size = max(1, round(_CHUNK_POINTS / max(1, points)))
    return 2 * size if workers == 1 else size


# Each thread's workspace (see _CHUNK_POINTS): a threading.local's
# attributes are per thread.
_workspaces = threading.local()


def run_monte_carlo(
    config: GenerativeConfig,
    n: int,
    replicates: int,
    spec: ModelSpec,
    contrast: ContrastSpec | np.ndarray,
    eta: float = 0.05,
    seed: int = 0,
    true_beta: np.ndarray | None = None,
    threads: int | None = None,
    collect_replicates: bool = False,
) -> McSummary:
    """Simulate, fit, and test `replicates` times; aggregate the results.

    Bias, RMSE, and coverage are reported against true_beta when given
    (NaN otherwise); rejection_rate is the fraction of completed
    replicates rejecting the contrast null at level eta.  Replicates
    that fail to fit are excluded and counted; more than 1% failures
    aborts the run, with the failures counted by exception class.
    With collect_replicates, per-replicate estimates are kept on the
    summary's records field (they do not enter to_dict()).  The master
    seed must lie in [0, 2**64), as simulate_trial's does.

    Before the first chunk, every error that all the replicates share
    raises, as DataValidationError, in the order of simulate_trial ->
    fit_wcls -> wald_test: check_subjects's, then check_model's, then
    the shared numerator table's, then check_wald's.  A replicate then
    fails only for what its own draws cause, with the first error of
    those public calls on its own seed: fit_stack is fit_wcls's own
    routine, and wald_stack and interval_stack are wald_test and
    confidence_intervals on a stack of replicates.  The numerator table
    and its weight lookup are built once when they cannot depend on the
    draws (match_randomization on the shared probabilities, or
    user_supplied).

    Replicates run in chunks of consecutive indices, each simulated and
    fitted as one stack of arrays; the threads map over chunks, and a
    single thread takes chunks twice as long (see _CHUNK_POINTS).
    Replicate r always draws from derive_replicate_seed(seed, r), so
    results are independent of the thread count.  Row r of the result
    table (beta, m, sigma, se, lower, upper, reject, clipped, errors) is
    replicate r; errors[r] is the exception its public calls raise, or
    None, and the rest of a failed row is meaningless.  Chunks write
    disjoint rows, so pool threads share the table with no lock; each
    thread keeps its scratch arrays in its own workspace (see
    wcls.scratch).  A one-worker run leaves the calling thread's
    workspace to its next run, which then does not fault the same memory
    in again: the saving is per run, not per replicate.  A thread keeps
    at most one one-worker chunk's arrays, and none after a run whose
    replicate alone is larger than the budget (see _CHUNK_POINTS).  A
    run of another (n, T, Z) shape, or with two or more workers, first
    drops what the calling thread kept; pool threads' workspaces end
    with the pool.  Once every chunk is done,
    the covariances, Wald tests and intervals of all the replicates are
    each one stack.
    """
    # This thread's kept arrays go, unless this run can reuse them, before the
    # run allocates anything, so that they never add to its peak memory.
    workers = _resolve_threads(threads)
    kept = vars(_workspaces)
    keep = workers == 1 and n * config.t_points < 2 * _CHUNK_POINTS
    if not keep or "eps" in kept and (
        kept["eps"].shape[1:] != (n, config.t_points + 1) or ("z" in kept) != config.needs_z
    ):
        kept.clear()
    if replicates < 1:
        raise DataValidationError("replicates must be >= 1")
    if not (0 <= int(seed) < 2**64):
        raise DataValidationError("seed must be a 64-bit unsigned integer")
    if not isinstance(contrast, ContrastSpec):
        contrast = build_contrast(contrast, spec.p)
    kp = config.k_arms * spec.p
    if true_beta is not None:
        true_beta = np.asarray(true_beta, dtype=float)
        if true_beta.shape != (kp,):
            raise DataValidationError(f"true_beta must have length K*p = {kp}")

    check_subjects(n)
    time_features = {"time": config.t_grid, "time2": config.t_grid * config.t_grid}
    features = [*time_features, "Z"] if config.needs_z else [*time_features]
    check_model(n, config.t_points, features, spec, config.k_arms)
    probs = config.probs_full[None, None]
    tables = None
    if spec.numerator.kind in ("match_randomization", "user_supplied"):
        # one panel without subjects: these kinds read only the probabilities
        empty = np.zeros((1, 0, config.t_points), dtype=np.int64)
        table, (error,) = numerator_tables(empty, empty, probs, spec.numerator, config.k_arms)
        if error is not None:
            raise error
        tables = (table, weight_lookup(table, probs))
    check_wald(contrast, kp, n, spec.q, eta)

    beta, se, lower, upper = np.zeros((4, replicates, kp))
    m, sigma = np.zeros((2, replicates, kp, kp))
    reject = np.zeros(replicates, dtype=bool)
    clipped = np.zeros(replicates, dtype=np.int64)
    errors: list = [None] * replicates

    def run_chunk(bounds: tuple[int, int]) -> None:
        lo, hi = bounds
        seeds = [derive_replicate_seed(seed, r) for r in range(lo, hi)]
        # this thread's arrays, overwritten by every chunk before they are read
        workspace = vars(_workspaces)
        eps, z, u = _draws(config, seeds, n, workspace)
        avail, trt, outcome, clipped[lo:hi] = _generate(config, eps, z, u, workspace)
        # A generated panel meets every dataset invariant unless its
        # outcome overflows, which is what simulate_trial then rejects.
        # Zeroed, such a replicate cannot spread non-finite values.
        finite = np.isfinite(outcome.reshape(hi - lo, -1)).all(axis=1)
        if not finite.all():
            outcome[~finite] = 0.0
        chunk_errors = [
            None if ok else DataValidationError("missing or non-finite outcome value")
            for ok in finite.tolist()
        ]
        chunk_features = dict(time_features)
        if z is not None:
            chunk_features["Z"] = z
        fit = fit_stack(
            avail, trt, probs, outcome, chunk_features, config.k_arms, spec, workspace, tables
        )
        keep_first_errors(chunk_errors, fit.errors)
        beta[lo:hi] = fit.theta[:, spec.q :]
        m[lo:hi], sigma[lo:hi] = fit.m, fit.sigma
        errors[lo:hi] = chunk_errors

    size = _chunk_replicates(n * config.t_points, workers)
    bounds = [(lo, min(lo + size, replicates)) for lo in range(0, replicates, size)]
    try:
        if workers == 1:
            for chunk in bounds:
                run_chunk(chunk)
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(run_chunk, bounds))
    finally:
        if not keep:
            kept.clear()

    # The covariance solves are the last step of fit_wcls, so their errors
    # come before the Wald test's; only replicates whose solves pass are
    # tested and bounded.
    fitted = np.flatnonzero([exc is None for exc in errors])
    cov, cov_errors = covariance_stack(m[fitted], sigma[fitted])
    for r, exc in zip(fitted, cov_errors):
        errors[r] = exc
    solved = np.array([exc is None for exc in cov_errors], dtype=bool)
    fitted, cov = fitted[solved], cov[solved]
    _, scaled, critical, wald_errors = wald_stack(beta[fitted], cov, contrast, n, spec.q, eta)
    for r, exc in zip(fitted, wald_errors):
        errors[r] = exc
    reject[fitted] = scaled > critical
    _, se[fitted], lower[fitted], upper[fitted] = interval_stack(
        beta[fitted], cov, np.eye(kp), n, spec.q, 1.0 - eta
    )

    ok = np.array([exc is None for exc in errors])
    failed = [exc for exc in errors if exc is not None]
    failures = len(failed)
    if failures > 0.01 * replicates:
        counts = Counter(type(exc).__name__ for exc in failed)
        grouped = ", ".join(
            f"{name}×{count}"
            for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        )
        raise NumericalError(
            f"{failures}/{replicates} replicates failed (budget 1%): {grouped}; "
            f"first error: {failed[0]}"
        )

    betas = beta[ok]
    if true_beta is not None:
        bias = betas.mean(axis=0) - true_beta
        rmse = np.sqrt(((betas - true_beta) ** 2).mean(axis=0))
        coverage = ((lower[ok] <= true_beta) & (true_beta <= upper[ok])).mean(axis=0)
    else:
        bias = np.full(kp, np.nan)
        rmse = np.full(kp, np.nan)
        coverage = np.full(kp, np.nan)

    names = tuple(f"arm{k}:{nm}" for k in (1, 2) for nm in spec.f_names)
    records: tuple[dict, ...] | None = None
    if collect_replicates:
        records = tuple(
            {
                "replicate": r,
                "seed": derive_replicate_seed(seed, r),
                "ok": bool(ok[r]),
                "beta": beta[r].tolist() if ok[r] else None,
                "se": se[r].tolist() if ok[r] else None,
                "reject": bool(reject[r]) if ok[r] else None,
                "error": None if ok[r] else str(errors[r]),
            }
            for r in range(replicates)
        )
    return McSummary(
        replicates=replicates,
        completed=int(ok.sum()),
        failures=failures,
        seed=int(seed),
        param_names=names,
        bias=tuple(float(b) for b in bias),
        rmse=tuple(float(v) for v in rmse),
        mean_se=tuple(float(v) for v in se[ok].mean(axis=0)),
        coverage=tuple(float(c) for c in coverage),
        rejection_rate=float(reject[ok].astype(float).mean()),
        clipped_availability=int(clipped[ok].sum()),
        records=records,
    )


@dataclass(frozen=True, eq=False)
class Scenario:
    """A fully resolved simulate run: generator, analysis, and bookkeeping."""

    config: GenerativeConfig
    n: int
    model_spec: ModelSpec
    l_matrix: np.ndarray
    eta: float
    replicates: int
    seed: int
    true_beta: np.ndarray | None


_FIT_F_COLUMNS = {"constant": (), "linear": ("time",), "z": ("Z",)}
_FIT_G_COLUMNS = {
    "constant": (),
    "linear": ("time",),
    "quadratic": ("time", "time2"),
    "z": ("Z",),
}


def _derive_true_beta(config: GenerativeConfig, fit_f: str) -> np.ndarray | None:
    """Fitted-basis truth, when the fitted moderator basis admits one.

    A matching basis passes the generative coefficients through; a
    marginal (intercept-only) fit of a Z-moderated effect targets the
    Z-averaged effect.  Anything else has no closed-form target.
    """
    if fit_f == config.mee_basis:
        return config.mee_coeffs.ravel().copy()
    if fit_f == "constant" and config.mee_basis == "z":
        mean_z = (config.z_levels - 1) / 2.0
        return config.mee_coeffs[:, 0] + config.mee_coeffs[:, 1] * mean_z
    return None


def scenario_from_config(cfg: dict[str, str]) -> Scenario:
    """Resolve a flat key=value scenario into runnable pieces.

    Core keys: family, n (integer or 'auto'), T, p (three probabilities
    including the reference arm), tau_kind/AA/theta_tau, and either
    pattern knobs (eo_kind/AEO/theta_g, f_kind/theta_f1/theta_f2/
    sate1/sate2) or explicit coefficients (eo_coeffs, mee_coeffs with
    ';' between arm rows).  Family knobs: theta_r, theta_s (gm_ev),
    nu1 (gm_sc), nu2, nu3 (gm_ea).  Analysis keys: fit_f, fit_g
    (constant | linear | quadratic | z), numerator, correction, L, eta.
    Bookkeeping: replicates, seed, true_beta, power (for n = 'auto').
    """
    family = cfg.get("family", "gm0")
    t_points, probs_active = _config_probs(
        cfg, "key 'p' must list 3 probabilities (reference arm first)"
    )
    tau = _config_tau(cfg, t_points)

    eo_kind = cfg.get("eo_kind", "constant")
    if "eo_coeffs" in cfg:
        eo_coeffs = np.array(get_floats(cfg, "eo_coeffs"))
    elif eo_kind in ("constant", "linear", "quadratic"):
        eo_coeffs, _ = eo_pattern(
            eo_kind, get_float(cfg, "theta_g", 0.0), get_float(cfg, "AEO", 0.0), tau
        )
    else:
        raise DataValidationError(f"eo_kind {eo_kind!r} requires explicit eo_coeffs")

    mee_kind = cfg.get("f_kind", "constant")
    if "mee_coeffs" in cfg:
        mee_coeffs = np.array(parse_rows(cfg["mee_coeffs"].split(";"), "config key 'mee_coeffs'"))
    elif mee_kind in ("constant", "linear"):
        mee_coeffs = _config_gamma(cfg, tau).reshape(2, -1)
    else:
        raise DataValidationError(f"f_kind {mee_kind!r} requires explicit mee_coeffs")

    config = GenerativeConfig(
        family=family,
        t_points=t_points,
        rand_probs=probs_active,
        tau_curve=tau,
        eo_basis=eo_kind,
        eo_coeffs=eo_coeffs,
        mee_basis=mee_kind,
        mee_coeffs=mee_coeffs,
        theta_r=get_float(cfg, "theta_r", 0.0),
        theta_s=get_float(cfg, "theta_s", 0.0),
        nu1=get_float(cfg, "nu1", 0.0),
        nu2=get_float(cfg, "nu2", 0.0),
        nu3=get_float(cfg, "nu3", 0.0),
        z_levels=get_int(cfg, "z_levels", 3),
    )

    fit_f = cfg.get("fit_f", "constant")
    fit_g = cfg.get("fit_g", "constant")
    if fit_f not in _FIT_F_COLUMNS:
        raise DataValidationError(f"unknown fit_f {fit_f!r}")
    if fit_g not in _FIT_G_COLUMNS:
        raise DataValidationError(f"unknown fit_g {fit_g!r}")
    spec = ModelSpec(
        f_columns=_FIT_F_COLUMNS[fit_f],
        g_columns=_FIT_G_COLUMNS[fit_g],
        delta=1,
        numerator=NumeratorPolicy(kind=cfg.get("numerator", "match_randomization")),
        correction=cfg.get("correction", "mancl_derouen"),
    )
    l_matrix = parse_contrast_text(cfg.get("L", "pairwise(1,2)"), 2)
    eta = get_float(cfg, "eta", 0.05)

    raw_n = cfg.get("n", "auto")
    if raw_n == "auto":
        if mee_kind not in ("constant", "linear"):
            raise DataValidationError("n='auto' requires a constant or linear effect basis")
        inputs = DesignInputs(**_design_fields(
            cfg, probs_active, tau, mee_coeffs.ravel(), spec.q, l_matrix, eta
        ))
        n = required_sample_size(inputs).n
    else:
        n = get_int(cfg, "n")

    if "true_beta" in cfg:
        true_beta = np.array(get_floats(cfg, "true_beta"))
    else:
        true_beta = _derive_true_beta(config, fit_f)

    return Scenario(
        config=config,
        n=n,
        model_spec=spec,
        l_matrix=l_matrix,
        eta=eta,
        replicates=get_int(cfg, "replicates", 1000),
        seed=get_int(cfg, "seed", 0),
        true_beta=true_beta,
    )
