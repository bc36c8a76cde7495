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
derives its own seed from (master seed, index) with an avalanche mix,
so summaries are byte-identical for any thread count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from .data import MrtDataset, NumeratorPolicy
from .design import (
    DesignInputs,
    eo_pattern,
    mee_pattern,
    required_sample_size,
    tau_pattern,
)
from .errors import DataValidationError, NumericalError
from .inference import (
    ContrastSpec,
    build_contrast,
    confidence_intervals,
    parse_contrast_text,
    wald_test,
)
from .wcls import ModelSpec, fit_wcls
from ._kvconfig import get_float, get_int, get_floats

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


@dataclass(frozen=True)
class GenerativeConfig:
    """Complete parameterization of one synthetic trial family (K = 2).

    rand_probs gives the active-arm probabilities p_t(1), p_t(2); a
    single pair is broadcast over t.  eo_coeffs parameterizes the
    no-treatment outcome level in the eo_basis; mee_coeffs has one row
    of effect coefficients per arm in the mee_basis.  Basis 'z' means
    (1, Z_t) with Z_t uniform on {0..z_levels-1}; 'zcat' means one
    level per Z value.
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

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise DataValidationError(f"unknown family {self.family!r}; expected {FAMILIES}")
        if self.t_points < 1:
            raise DataValidationError("t_points must be >= 1")
        probs = np.asarray(self.rand_probs, dtype=float)
        if probs.ndim == 1:
            probs = np.tile(probs, (self.t_points, 1))
        if probs.shape != (self.t_points, 2):
            raise DataValidationError("rand_probs must be (T, 2) active-arm probabilities")
        if (probs <= 0).any() or (probs.sum(axis=1) >= 1.0).any():
            raise DataValidationError("active-arm probabilities must be positive, sums < 1")
        tau = np.asarray(self.tau_curve, dtype=float)
        if tau.shape != (self.t_points,):
            raise DataValidationError(f"tau_curve must have length T={self.t_points}")
        if (tau <= 0).any() or (tau > 1).any():
            raise DataValidationError("tau_curve values must lie in (0, 1]")
        if self.eo_basis not in _EO_BASES:
            raise DataValidationError(f"unknown eo_basis {self.eo_basis!r}")
        if self.mee_basis not in _MEE_BASES:
            raise DataValidationError(f"unknown mee_basis {self.mee_basis!r}")
        if self.z_levels < 2:
            raise DataValidationError("z_levels must be >= 2")
        eo = np.asarray(self.eo_coeffs, dtype=float).ravel()
        eo_dim = _EO_BASES[self.eo_basis] or self.z_levels
        if eo.shape != (eo_dim,):
            raise DataValidationError(
                f"eo_coeffs must have {eo_dim} entries for basis {self.eo_basis!r}"
            )
        mee = np.atleast_2d(np.asarray(self.mee_coeffs, dtype=float))
        mee_dim = _MEE_BASES[self.mee_basis]
        if mee.shape != (2, mee_dim):
            raise DataValidationError(
                f"mee_coeffs must be 2 x {mee_dim} for basis {self.mee_basis!r}"
            )
        if not (-1.0 < self.nu1 < 1.0):
            raise DataValidationError("nu1 must lie in (-1, 1)")
        for name, value in (("nu2", self.nu2), ("nu3", self.nu3)):
            if abs(value) > 0.2:
                raise DataValidationError(f"{name} must lie in [-0.2, 0.2]")
        if self.family == "gm_ev":
            for t in range(1, self.t_points + 1):
                gm_ev_scales(self.theta_r, self.theta_s, probs[t - 1], t, self.t_points)
        object.__setattr__(self, "rand_probs", probs)
        object.__setattr__(self, "tau_curve", tau)
        object.__setattr__(self, "eo_coeffs", eo)
        object.__setattr__(self, "mee_coeffs", mee)

    @property
    def k_arms(self) -> int:
        return 2

    @property
    def needs_z(self) -> bool:
        return self.eo_basis in ("z", "zcat") or self.mee_basis == "z"


@dataclass(frozen=True)
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


def _basis_values(kind: str, coeffs: np.ndarray, t: int, z: np.ndarray | None, n: int):
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
    if n < 1:
        raise DataValidationError("n must be >= 1")
    if not (0 <= int(seed) < 2**64):
        raise DataValidationError("seed must be a 64-bit unsigned integer")
    rng = np.random.default_rng(int(seed))
    t_points = config.t_points
    probs_active = config.rand_probs
    p0 = 1.0 - probs_active.sum(axis=1)
    probs_full = np.column_stack([p0, probs_active])

    eps = rng.standard_normal((n, t_points + 1))
    z = None
    if config.needs_z:
        z = rng.integers(0, config.z_levels, size=(n, t_points)).astype(float)

    nu0 = sqrt(1.0 - config.nu1 * config.nu1)
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
        arm = np.minimum(
            np.searchsorted(cum, rng.random(n), side="right"), config.k_arms
        )
        a_t = np.where(avail_t == 1, arm, 0)

        base = _basis_values(config.eo_basis, config.eo_coeffs, t, z, n)
        eff1 = _basis_values(config.mee_basis, config.mee_coeffs[0], t, z, n)
        eff2 = _basis_values(config.mee_basis, config.mee_coeffs[1], t, z, n)

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

    t_grid = np.tile(np.arange(1, t_points + 1, dtype=float), (n, 1))
    features = {"time": t_grid, "time2": t_grid * t_grid}
    if z is not None:
        features["Z"] = z

    data = MrtDataset(
        subject_ids=tuple(str(i + 1) for i in range(n)),
        avail=avail,
        trt=trt,
        probs=np.broadcast_to(probs_full[None, :, :], (n, t_points, 3)).copy(),
        outcome=outcome,
        features=features,
        k_arms=2,
    )
    data.clipped_availability = clipped
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
    aborts the run.  Results are independent of the thread count.
    With collect_replicates, per-replicate estimates are kept on the
    summary's records field (they do not enter to_dict()).
    """
    if replicates < 1:
        raise DataValidationError("replicates must be >= 1")
    if isinstance(contrast, ContrastSpec):
        contrast_spec = contrast
    else:
        contrast_spec = build_contrast(np.asarray(contrast, dtype=float), spec.p)
    kp = config.k_arms * spec.p
    eye = np.eye(kp)
    level = 1.0 - eta
    if true_beta is not None:
        true_beta = np.asarray(true_beta, dtype=float)
        if true_beta.shape != (kp,):
            raise DataValidationError(f"true_beta must have length K*p = {kp}")

    def worker(r: int) -> dict:
        rep_seed = derive_replicate_seed(seed, r)
        try:
            data = simulate_trial(config, n, rep_seed)
            fit = fit_wcls(data, spec)
            test = wald_test(fit, contrast_spec, eta)
            cis = confidence_intervals(fit, eye, level)
        except (DataValidationError, NumericalError) as exc:
            return {"ok": False, "replicate": r, "seed": rep_seed, "error": str(exc)}
        return {
            "ok": True,
            "replicate": r,
            "seed": rep_seed,
            "beta": fit.beta_hat,
            "se": np.array([c.se for c in cis]),
            "lower": np.array([c.lower for c in cis]),
            "upper": np.array([c.upper for c in cis]),
            "reject": test.reject,
            "clipped": data.clipped_availability,
        }

    workers = _resolve_threads(threads)
    if workers == 1:
        results = [worker(r) for r in range(replicates)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(worker, range(replicates)))

    good = [r for r in results if r["ok"]]
    failures = replicates - len(good)
    if failures > 0.01 * replicates:
        first = next(r["error"] for r in results if not r["ok"])
        raise NumericalError(
            f"{failures}/{replicates} replicates failed (budget 1%); first error: {first}"
        )
    if not good:
        raise NumericalError("all replicates failed")

    betas = np.array([r["beta"] for r in good])
    ses = np.array([r["se"] for r in good])
    rejections = np.array([r["reject"] for r in good], dtype=float)
    if true_beta is not None:
        bias = betas.mean(axis=0) - true_beta
        rmse = np.sqrt(((betas - true_beta) ** 2).mean(axis=0))
        covered = (np.array([r["lower"] for r in good]) <= true_beta) & (
            true_beta <= np.array([r["upper"] for r in good])
        )
        coverage = covered.mean(axis=0)
    else:
        bias = np.full(kp, np.nan)
        rmse = np.full(kp, np.nan)
        coverage = np.full(kp, np.nan)

    f_names = (("intercept",) if spec.f_intercept else ()) + spec.f_columns
    names = tuple(f"arm{k}:{nm}" for k in (1, 2) for nm in f_names)
    records: tuple[dict, ...] | None = None
    if collect_replicates:
        records = tuple(
            {
                "replicate": r["replicate"],
                "seed": r["seed"],
                "ok": r["ok"],
                "beta": [float(b) for b in r["beta"]] if r["ok"] else None,
                "se": [float(s) for s in r["se"]] if r["ok"] else None,
                "reject": bool(r["reject"]) if r["ok"] else None,
                "error": None if r["ok"] else r["error"],
            }
            for r in results
        )
    return McSummary(
        replicates=replicates,
        completed=len(good),
        failures=failures,
        seed=int(seed),
        param_names=names,
        bias=tuple(float(b) for b in bias),
        rmse=tuple(float(v) for v in rmse),
        mean_se=tuple(float(v) for v in ses.mean(axis=0)),
        coverage=tuple(float(c) for c in coverage),
        rejection_rate=float(rejections.mean()),
        clipped_availability=int(sum(r["clipped"] for r in good)),
        records=records,
    )


@dataclass(frozen=True)
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
    if fit_f == "constant":
        if config.mee_basis == "z":
            mean_z = (config.z_levels - 1) / 2.0
            return np.array(
                [
                    config.mee_coeffs[0, 0] + config.mee_coeffs[0, 1] * mean_z,
                    config.mee_coeffs[1, 0] + config.mee_coeffs[1, 1] * mean_z,
                ]
            )
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
    t_points = get_int(cfg, "T")
    probs_full = get_floats(cfg, "p")
    if len(probs_full) != 3:
        raise DataValidationError("key 'p' must list 3 probabilities (reference arm first)")
    if abs(sum(probs_full) - 1.0) > 1e-8:
        raise DataValidationError("key 'p' probabilities must sum to 1")
    probs_active = np.array(probs_full[1:])
    tau = tau_pattern(
        cfg.get("tau_kind", "constant"),
        get_float(cfg, "AA"),
        get_float(cfg, "theta_tau", 0.0),
        t_points,
    )

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
        rows = [
            [float(cell) for cell in row.split(",")]
            for row in cfg["mee_coeffs"].split(";")
        ]
        mee_coeffs = np.array(rows)
    elif mee_kind in ("constant", "linear"):
        gamma, _ = mee_pattern(
            mee_kind,
            get_float(cfg, "theta_f1", 0.0),
            get_float(cfg, "theta_f2", 0.0),
            (get_float(cfg, "sate1"), get_float(cfg, "sate2")),
            tau,
        )
        mee_coeffs = gamma.reshape(2, -1)
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
        t_grid = np.arange(1, t_points + 1, dtype=float)
        f = (
            np.ones((t_points, 1))
            if mee_kind == "constant"
            else np.column_stack([np.ones(t_points), t_grid])
        )
        inputs = DesignInputs(
            k_arms=2,
            t_points=t_points,
            rand_probs=probs_active,
            tau=tau,
            f=f,
            gamma=mee_coeffs.ravel(),
            q=spec.q,
            l_matrix=l_matrix,
            eta=eta,
            power_target=get_float(cfg, "power", 0.8),
        )
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
