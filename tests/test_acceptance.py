"""End-to-end acceptance checks.

Nine numbered checks cover the headline behaviors: the worked sample-size
case, Monte Carlo operating characteristics of the estimator and test,
distribution functions, agreement with brute-force references, invariance
properties, and bitwise reproducibility.  Each check prints one PASS/FAIL
line on the real terminal so a full run yields a scorecard.

All seeds and settings are fixed.  The Monte Carlo bands leave room for
simulation noise at 1000 replicates; reruns with these seeds are exact.
"""

import json
import time

import numpy as np

from mrtcat import (
    DesignInputs,
    GenerativeConfig,
    ModelSpec,
    NumeratorPolicy,
    build_contrast,
    eo_pattern,
    fit_wcls,
    inputs_from_config,
    power_at_n,
    required_sample_size,
    run_monte_carlo,
    tau_pattern,
    wald_test,
)
from mrtcat.cli import main
from mrtcat.numerics import f_cdf, f_quantile, noncentral_f_cdf

from _factories import make_dataset
from _oracles import design_arrays, numerator_table_loops, sandwich_loops, wcls_fit_loops


GOLDEN_CFG = {
    "K": "2",
    "T": "210",
    "p": "0.4, 0.3, 0.3",
    "tau_kind": "constant",
    "AA": "1.0",
    "f_kind": "constant",
    "sate1": "0.053",
    "sate2": "0.0",
    "q": "1",
    "L": "pairwise(1,2)",
    "eta": "0.05",
    "power": "0.8",
}

REPS = 1000
THREADS = 4


def _report(capsys, label, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    line = f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}{suffix}"
    with capsys.disabled():
        print(f"\n{line}")
    assert ok, line


def test_criterion_1_golden_sample_size(capsys):
    start = time.perf_counter()
    result = required_sample_size(inputs_from_config(GOLDEN_CFG))
    elapsed = time.perf_counter() - start
    ok = result.n == 93 and elapsed < 1.0
    _report(capsys, "1 required sample size golden case", ok,
            f"n={result.n}, {elapsed * 1000:.0f} ms")


def test_criterion_2_power_boundary(capsys):
    inputs = inputs_from_config(GOLDEN_CFG)
    at_n = power_at_n(inputs, 93)
    below = power_at_n(inputs, 92)
    ok = at_n >= 0.8 > below
    _report(capsys, "2 power boundary at the returned n", ok,
            f"power(93)={at_n:.7f}, power(92)={below:.7f}")


def test_criterion_3_bias_and_coverage(capsys):
    config = GenerativeConfig(
        family="gm0", t_points=15, rand_probs=np.array([0.5, 0.3]),
        tau_curve=np.ones(15), eo_basis="zcat", eo_coeffs=(0.2, 0.5, 0.4),
        mee_basis="z", mee_coeffs=((0.1, 0.3), (0.45, 0.1)),
    )
    spec = ModelSpec(g_columns=("Z",), numerator=NumeratorPolicy("match_randomization"))
    summary = run_monte_carlo(
        config, n=30, replicates=REPS, spec=spec,
        contrast=np.array([[1.0, -1.0]]), seed=20260814,
        true_beta=np.array([0.4, 0.55]), threads=THREADS,
    )
    bias_ok = all(abs(b) <= 0.02 for b in summary.bias)
    cover_ok = all(0.93 <= c <= 0.965 for c in summary.coverage)
    ok = bias_ok and cover_ok and summary.failures == 0
    _report(capsys, "3 marginal effect bias and coverage", ok,
            f"bias={tuple(round(b, 4) for b in summary.bias)}, "
            f"coverage={summary.coverage}")


def test_criterion_4_type_one_error(capsys):
    t_points = 20
    tau = np.full(t_points, 0.8)
    probs = np.array([0.4, 0.3])
    eo_lin, _ = eo_pattern("linear", 0.3, 0.4, tau)
    g_lin = ModelSpec(g_columns=("time",))
    g_const = ModelSpec()
    settings = [
        ("all working assumptions", GenerativeConfig(
            family="gm0", t_points=t_points, rand_probs=probs, tau_curve=tau,
            eo_basis="linear", eo_coeffs=eo_lin), g_lin),
        ("time-varying effect averaging to zero", GenerativeConfig(
            family="gm0", t_points=t_points, rand_probs=probs, tau_curve=tau,
            eo_basis="linear", eo_coeffs=eo_lin,
            mee_basis="linear", mee_coeffs=((1.05, -0.1), (-0.525, 0.05))), g_lin),
        ("heteroscedastic noise", GenerativeConfig(
            family="gm_ev", t_points=t_points, rand_probs=probs, tau_curve=tau,
            theta_r=0.5, theta_s=0.4), g_const),
        ("serially correlated noise", GenerativeConfig(
            family="gm_sc", t_points=t_points, rand_probs=probs, tau_curve=tau,
            nu1=0.6), g_const),
        ("availability depending on history", GenerativeConfig(
            family="gm_ea", t_points=t_points, rand_probs=probs, tau_curve=tau,
            nu2=0.15, nu3=0.15), g_const),
    ]
    rates = {}
    for name, config, spec in settings:
        summary = run_monte_carlo(
            config, n=40, replicates=REPS, spec=spec,
            contrast=np.eye(2), seed=314159, threads=THREADS,
        )
        rates[name] = summary.rejection_rate
    ok = all(0.03 <= r <= 0.07 for r in rates.values())
    detail = ", ".join(f"{v:.3f}" for v in rates.values())
    _report(capsys, "4 null rejection across generative families", ok,
            f"rates={detail}")


def test_criterion_5_power_at_calculated_n(capsys):
    def setting(t_points, probs_active, tau, gamma, l_matrix):
        inputs = DesignInputs(
            k_arms=2, t_points=t_points, rand_probs=np.array(probs_active),
            tau=tau, f=np.ones((t_points, 1)), gamma=np.array(gamma),
            q=1, l_matrix=np.asarray(l_matrix),
        )
        n = required_sample_size(inputs).n
        config = GenerativeConfig(
            family="gm0", t_points=t_points, rand_probs=np.array(probs_active),
            tau_curve=tau, eo_basis="constant", eo_coeffs=(0.2,),
            mee_basis="constant", mee_coeffs=((gamma[0],), (gamma[1],)),
        )
        summary = run_monte_carlo(
            config, n=n, replicates=REPS, spec=ModelSpec(),
            contrast=np.asarray(l_matrix), seed=271828, threads=THREADS,
        )
        return n, summary.rejection_rate

    results = [
        setting(30, (0.3, 0.3), np.full(30, 0.8), (0.25, 0.0), [[1.0, -1.0]]),
        setting(25, (0.3, 0.3), tau_pattern("linear", 0.7, 0.2, 25), (0.2, 0.0),
                [[1.0, -1.0]]),
        setting(25, (0.2, 0.3), np.full(25, 0.75), (0.25, 0.05), [[1.0, -1.0]]),
        setting(30, (0.3, 0.3), np.full(30, 0.8), (0.12, 0.06), np.eye(2)),
    ]
    ok = all(0.75 <= power <= 0.86 for _, power in results)
    detail = ", ".join(f"n={n}: {power:.3f}" for n, power in results)
    _report(capsys, "5 empirical power at the calculated n", ok, detail)


def test_criterion_6_noncentral_f_distribution(capsys):
    d1, d2, lam = 1.0, 91.0, 8.2
    draws = 10**7
    rng = np.random.default_rng(2026)
    sample = rng.noncentral_f(d1, d2, lam, size=draws)
    grid = [1.0, 3.0, 6.0, 9.0, 15.0]
    mc_ok = True
    worst = 0.0
    for x in grid:
        theory = noncentral_f_cdf(d1, d2, lam, x)
        empirical = float(np.mean(sample <= x))
        se = np.sqrt(theory * (1.0 - theory) / draws)
        pull = abs(empirical - theory) / se
        worst = max(worst, pull)
        if abs(empirical - theory) > 3.0 * se:
            mc_ok = False

    central_gap = max(
        abs(noncentral_f_cdf(2.0, 40.0, 0.0, x) - f_cdf(2.0, 40.0, x))
        for x in (0.2, 1.0, 2.5, 7.0)
    )
    round_gap = max(
        abs(f_cdf(dd1, dd2, f_quantile(dd1, dd2, p)) - p)
        for dd1 in (1.0, 2.0, 5.0)
        for dd2 in (10.0, 91.0)
        for p in (0.05, 0.5, 0.95, 0.999)
    )
    ok = mc_ok and central_gap <= 1e-12 and round_gap < 1e-8
    _report(capsys, "6 noncentral F distribution checks", ok,
            f"worst pull={worst:.2f} se, central gap={central_gap:.1e}, "
            f"round trip={round_gap:.1e}")


def test_criterion_7_brute_force_agreement(capsys):
    cases = [(7, 10, 5, 2, 1), (8, 9, 4, 1, 2), (9, 10, 5, 2, 2)]
    worst = 0.0
    for seed, n, t_points, k_arms, delta in cases:
        rng = np.random.default_rng(seed)
        avail = (rng.random((n, t_points)) < 0.85).astype(np.int64)
        trt = rng.integers(0, k_arms + 1, size=(n, t_points)) * avail
        avail[: k_arms + 1, :] = 1
        trt[: k_arms + 1, :] = np.arange(k_arms + 1)[:, None]
        probs = (0.5, 0.25, 0.25) if k_arms == 2 else (0.6, 0.4)
        data = make_dataset(
            trt=trt,
            outcome=rng.normal(size=(n, t_points)),
            avail=avail,
            probs=probs,
            features={"z": rng.normal(size=(n, t_points))},
        )
        spec = ModelSpec(
            f_columns=("z",), g_columns=("z",), delta=delta,
            numerator=NumeratorPolicy("empirical_per_t"),
            correction="mancl_derouen",
        )
        fit = fit_wcls(data, spec)
        table = numerator_table_loops(data, "empirical_per_t")
        oracle = wcls_fit_loops(data, table, ("z",), ("z",), delta)
        worst = max(
            worst,
            float(np.max(np.abs(fit.alpha_hat - oracle["alpha"]))),
            float(np.max(np.abs(fit.beta_hat - oracle["beta"]))),
            float(np.max(np.abs(fit.cov_beta - sandwich_loops(oracle, "mancl_derouen")))),
        )
    ok = worst <= 1e-10
    _report(capsys, "7 agreement with brute force reference", ok,
            f"max abs gap={worst:.2e}")


def test_criterion_8_invariance_suite(capsys):
    rng = np.random.default_rng(88)
    n, t_points = 12, 6
    avail = (rng.random((n, t_points)) < 0.85).astype(np.int64)
    trt = rng.integers(0, 3, size=(n, t_points)) * avail
    z = rng.normal(size=(n, t_points))
    outcome = rng.normal(size=(n, t_points))
    base = make_dataset(trt=trt, outcome=outcome, avail=avail,
                        probs=(0.5, 0.25, 0.25), features={"z": z})
    scaled = make_dataset(trt=trt, outcome=outcome * 7.0, avail=avail,
                          probs=(0.5, 0.25, 0.25), features={"z": z})
    spec = ModelSpec(f_columns=("z",), g_columns=("z",))
    l_matrix = np.array([[1.0, -1.0]])

    fit_a = fit_wcls(base, spec)
    fit_b = fit_wcls(scaled, spec)
    test_a = wald_test(fit_a, build_contrast(l_matrix, fit_a.p))
    test_b = wald_test(fit_b, build_contrast(l_matrix, fit_b.p))
    scale_gap = max(
        abs(test_a.statistic - test_b.statistic) / abs(test_a.statistic),
        abs(test_a.p_value - test_b.p_value),
    )

    r_mix = np.array([[2.0]])
    test_r = wald_test(fit_a, build_contrast(r_mix @ l_matrix, fit_a.p))
    full = np.array([[1.0, 0.0], [1.0, -1.0]])
    r_full = np.array([[3.0, 1.0], [-1.0, 2.0]])
    test_f = wald_test(fit_a, build_contrast(full, fit_a.p))
    test_rf = wald_test(fit_a, build_contrast(r_full @ full, fit_a.p))
    row_gap = max(
        abs(test_r.statistic - test_a.statistic) / abs(test_a.statistic),
        abs(test_rf.statistic - test_f.statistic) / abs(test_f.statistic),
    )

    pattern = np.array([[0, 0, 1, 2, 0, 1, 0, 2]]).T.repeat(3, axis=1)
    balanced = make_dataset(trt=pattern, outcome=np.zeros((8, 3)),
                            probs=(0.5, 0.25, 0.25))
    center_spec = ModelSpec(numerator=NumeratorPolicy("empirical_per_t"))
    weights, d_full, _, _ = design_arrays(balanced, center_spec)
    center_sum = np.einsum("it,itr->r", weights, d_full[:, :, center_spec.q :])
    center_gap = float(np.max(np.abs(center_sum)))

    ok = scale_gap <= 1e-8 and row_gap <= 1e-8 and center_gap <= 1e-10
    _report(capsys, "8 invariance suite", ok,
            f"scale={scale_gap:.1e}, row mix={row_gap:.1e}, centering={center_gap:.1e}")


SCENARIO_TEXT = """\
family = gm0
n = 40
T = 20
p = 0.4, 0.3, 0.3
tau_kind = constant
AA = 0.8
eo_kind = linear
theta_g = 0.3
AEO = 0.4
f_kind = constant
sate1 = 0.1
sate2 = 0.1
fit_f = constant
fit_g = linear
replicates = 50
seed = 42
"""


def test_criterion_9_bitwise_reproducibility(capsys, tmp_path):
    scn = tmp_path / "scenario.cfg"
    scn.write_text(SCENARIO_TEXT)
    blobs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / f"{name}.json"
        per = tmp_path / f"{name}.csv"
        code = main([
            "simulate", "--scenario", str(scn), "--threads", threads,
            "--per-replicate", str(per), "--out", str(out),
        ])
        assert code == 0
        blobs.append(out.read_bytes() + per.read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    detail = "threads 1 vs 1 vs 4 identical" if ok else "outputs differ"
    payload = json.loads((tmp_path / "a.json").read_text())
    ok = ok and payload["replicates"] == 50
    _report(capsys, "9 bitwise reproducibility", ok, detail)
