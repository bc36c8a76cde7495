import re
import sys
import threading
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrtcat import (
    ContrastSpec,
    DataValidationError,
    DegenerateArmError,
    GenerativeConfig,
    ModelSpec,
    MrtDataset,
    NumeratorPolicy,
    NumericalError,
    build_contrast,
    confidence_intervals,
    derive_replicate_seed,
    fit_wcls,
    gm_ev_scales,
    required_sample_size,
    run_monte_carlo,
    scenario_from_config,
    simulate_trial,
    wald_test,
)
from mrtcat import simulate
from mrtcat._kvconfig import parse_kv_file
from mrtcat.cli import main
from mrtcat.data import numerator_tables
from mrtcat.simulate import _draws, _generate, _resolve_threads
from mrtcat.wcls import design_stack, fit_stack

from _oracles import simulate_trial_loops


def null_config(family="gm0", t_points=8, tau=0.8, rand_probs=(0.5, 0.3), **kwargs):
    return GenerativeConfig(
        family=family,
        t_points=t_points,
        rand_probs=np.array(rand_probs),
        tau_curve=np.full(t_points, tau),
        **kwargs,
    )


class TestGmEvScales:
    def test_symmetric_probs(self):
        r, s = gm_ev_scales(0.0, 0.2, np.array([0.3, 0.3]), 1, 5)
        assert r == 1.0
        np.testing.assert_allclose(s, np.sqrt([1.0, 1.2, 0.8]), atol=1e-12)

    def test_no_shape_parameters(self):
        r, s = gm_ev_scales(0.0, 0.0, np.array([0.5, 0.3]), 3, 7)
        assert r == 1.0
        np.testing.assert_allclose(s, np.ones(3), atol=1e-12)

    def test_time_factor_endpoints(self):
        values = [gm_ev_scales(0.5, 0.0, np.array([0.3, 0.3]), t, 3)[0] for t in (1, 2, 3)]
        np.testing.assert_allclose(values, np.sqrt([1.5, 1.0, 0.5]), atol=1e-12)

    def test_weighted_second_moment_is_one(self):
        for theta_s in (-0.4, 0.0, 0.3, 0.6):
            for p1, p2 in ((0.3, 0.3), (0.5, 0.3), (0.2, 0.4)):
                _, s = gm_ev_scales(0.0, theta_s, np.array([p1, p2]), 1, 4)
                p0 = 1.0 - p1 - p2
                total = p0 * s[0] ** 2 + p1 * s[1] ** 2 + p2 * s[2] ** 2
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_time_factors_average_to_one(self):
        t_points = 9
        rs = [
            gm_ev_scales(0.3, 0.0, np.array([0.3, 0.3]), t, t_points)[0]
            for t in range(1, t_points + 1)
        ]
        assert np.mean(np.square(rs)) == pytest.approx(1.0, abs=1e-12)

    def test_negative_radicand_rejected(self):
        with pytest.raises(DataValidationError, match="radicand"):
            gm_ev_scales(0.0, 1.2, np.array([0.3, 0.3]), 1, 5)
        with pytest.raises(DataValidationError, match="radicand"):
            gm_ev_scales(1.5, 0.0, np.array([0.3, 0.3]), 5, 5)


class TestReplicateSeeds:
    def test_deterministic(self):
        assert derive_replicate_seed(2024, 7) == derive_replicate_seed(2024, 7)

    def test_distinct_across_indices(self):
        seeds = {derive_replicate_seed(99, i) for i in range(10_000)}
        assert len(seeds) == 10_000

    def test_distinct_across_masters(self):
        assert derive_replicate_seed(1, 0) != derive_replicate_seed(2, 0)

    def test_in_64_bit_range(self):
        for i in (0, 1, 2**40, 123456789):
            assert 0 <= derive_replicate_seed(0, i) < 2**64

    def test_adjacent_streams_uncorrelated(self):
        draws = 100_000
        a = np.random.default_rng(derive_replicate_seed(5, 0)).standard_normal(draws)
        b = np.random.default_rng(derive_replicate_seed(5, 1)).standard_normal(draws)
        rho = float(np.corrcoef(a, b)[0, 1])
        assert abs(rho) < 0.01


class TestSimulateTrial:
    def test_shapes_and_validity(self):
        config = null_config(eo_basis="linear", eo_coeffs=(0.4, -0.01))
        data = simulate_trial(config, n=25, seed=3)
        assert (data.n, data.t_points, data.k_arms) == (25, 8, 2)
        assert isinstance(data, MrtDataset)  # so it passed validation
        assert set(data.feature_names) == {"time", "time2"}
        assert data.clipped_availability == 0

    def test_unavailable_points_carry_reference_arm(self):
        data = simulate_trial(null_config(tau=0.5), n=200, seed=11)
        assert (data.trt[data.avail == 0] == 0).all()

    def test_z_feature_present_when_needed(self):
        config = null_config(mee_basis="z", mee_coeffs=((0.1, 0.2), (0.0, 0.3)))
        data = simulate_trial(config, n=30, seed=5)
        assert "Z" in data.feature_names
        z = data.features["Z"]
        assert set(np.unique(z)).issubset({0.0, 1.0, 2.0})

    def test_same_seed_bitwise_identical(self):
        config = null_config(family="gm_sc", nu1=0.4)
        a = simulate_trial(config, n=40, seed=123)
        b = simulate_trial(config, n=40, seed=123)
        np.testing.assert_array_equal(a.outcome, b.outcome)
        np.testing.assert_array_equal(a.trt, b.trt)
        np.testing.assert_array_equal(a.avail, b.avail)
        c = simulate_trial(config, n=40, seed=124)
        assert not np.array_equal(a.outcome, c.outcome)

    def test_availability_rate_matches_tau(self):
        data = simulate_trial(null_config(tau=0.65), n=20_000, seed=8)
        assert data.avail.mean() == pytest.approx(0.65, abs=0.01)

    def test_arm_frequencies_match_probabilities(self):
        data = simulate_trial(null_config(tau=1.0), n=20_000, seed=9)
        freq = np.bincount(data.trt.ravel(), minlength=3) / data.trt.size
        np.testing.assert_allclose(freq, [0.2, 0.5, 0.3], atol=0.01)

    def test_arm_conditional_means(self):
        config = null_config(
            t_points=3,
            tau=1.0,
            eo_coeffs=(0.2,),
            mee_coeffs=((0.3,), (0.55,)),
        )
        data = simulate_trial(config, n=5000, seed=13)
        for arm, target in ((0, 0.2), (1, 0.5), (2, 0.75)):
            got = float(data.outcome[data.trt == arm].mean())
            assert got == pytest.approx(target, abs=0.05)

    def test_gm_sc_unit_variance_and_lag_correlation(self):
        config = null_config(family="gm_sc", t_points=2, tau=1.0, nu1=0.6)
        data = simulate_trial(config, n=500_000, seed=17)
        assert data.outcome.var() == pytest.approx(1.0, abs=0.01)
        rho = float(np.corrcoef(data.outcome[:, 0], data.outcome[:, 1])[0, 1])
        assert rho == pytest.approx(0.6 * 0.8, abs=0.01)

    def test_gm_ev_average_variance_is_one(self):
        config = null_config(family="gm_ev", t_points=10, tau=1.0, theta_r=0.5, theta_s=0.3)
        data = simulate_trial(config, n=100_000, seed=19)
        assert data.outcome.var() == pytest.approx(1.0, abs=0.01)

    def test_gm_ea_reduces_to_plain_availability(self):
        config = null_config(family="gm_ea", tau=0.7, nu2=0.0, nu3=0.0)
        data = simulate_trial(config, n=20_000, seed=23)
        assert data.avail.mean() == pytest.approx(0.7, abs=0.01)
        assert data.clipped_availability == 0

    def test_gm_ea_dependence_and_clipping(self):
        config = null_config(family="gm_ea", tau=0.95, nu2=0.2, nu3=0.2)
        data = simulate_trial(config, n=5000, seed=29)
        assert data.clipped_availability > 0
        assert isinstance(data, MrtDataset)  # so it passed validation

    def test_bad_arguments(self):
        with pytest.raises(DataValidationError):
            simulate_trial(null_config(), n=0, seed=1)
        with pytest.raises(DataValidationError):
            simulate_trial(null_config(), n=5, seed=-1)


class TestGenerativeConfigValidation:
    def test_unknown_family(self):
        with pytest.raises(DataValidationError, match="family"):
            null_config(family="gm9")

    def test_effect_coefficient_shape(self):
        with pytest.raises(DataValidationError, match="mee_coeffs"):
            null_config(mee_basis="linear", mee_coeffs=((0.1,), (0.2,)))

    def test_eo_coefficient_shape_for_zcat(self):
        with pytest.raises(DataValidationError, match="eo_coeffs"):
            null_config(eo_basis="zcat", eo_coeffs=(0.1, 0.2), z_levels=3)

    def test_availability_weights_bounded(self):
        with pytest.raises(DataValidationError, match="nu2"):
            null_config(family="gm_ea", nu2=0.5)

    def test_serial_weight_bounded(self):
        with pytest.raises(DataValidationError, match="nu1"):
            null_config(family="gm_sc", nu1=1.0)

    @pytest.mark.parametrize(
        "name,value",
        [
            ("eo_coeffs", (np.inf,)),
            ("mee_coeffs", ((0.1,), (np.nan,))),
            ("nu2", np.nan),
            ("nu3", np.nan),
            ("theta_r", np.nan),
            ("theta_s", np.nan),
        ],
    )
    def test_non_finite_parameter_rejected(self, name, value):
        with pytest.raises(DataValidationError, match=f"^{name} must be finite$"):
            null_config(**{name: value})

    def test_nan_probability_or_availability_rejected(self):
        with pytest.raises(DataValidationError, match="active-arm probabilities"):
            null_config(rand_probs=(np.nan, 0.3))
        with pytest.raises(DataValidationError, match="tau_curve"):
            null_config(tau=np.nan)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(t_points=0), "t_points must be >= 1"),
            (dict(rand_probs=(0.3, 0.3, 0.2)), "rand_probs must be (T, 2) active-arm probabilities"),
            (dict(tau_curve=np.full(7, 0.8)), "tau_curve must have length T=8"),
            (dict(eo_basis="cubic"), "unknown eo_basis 'cubic'"),
            (dict(mee_basis="quadratic"), "unknown mee_basis 'quadratic'"),
            (dict(z_levels=1), "z_levels must be >= 2"),
        ],
        ids=["t_points", "rand_probs", "tau_curve", "eo_basis", "mee_basis", "z_levels"],
    )
    def test_shape_and_basis_rejected(self, kwargs, message):
        fields = dict(
            family="gm0", t_points=8, rand_probs=(0.5, 0.3), tau_curve=np.full(8, 0.8)
        )
        with pytest.raises(DataValidationError, match=f"^{re.escape(message)}$"):
            GenerativeConfig(**{**fields, **kwargs})

    def test_gm_ev_scale_probe_at_construction(self):
        with pytest.raises(DataValidationError, match="radicand"):
            null_config(family="gm_ev", theta_s=1.5)

    def test_probability_rows(self):
        with pytest.raises(DataValidationError):
            GenerativeConfig(
                family="gm0",
                t_points=4,
                rand_probs=np.array([0.7, 0.4]),
                tau_curve=np.full(4, 0.8),
            )


class TestGenerativeConfigTables:
    def test_tables_match_their_definitions(self):
        probs = np.array([[0.5, 0.3], [0.2, 0.6], [0.3, 0.3], [0.4, 0.1]])
        config = GenerativeConfig(
            family="gm_ev", t_points=4, rand_probs=probs, tau_curve=np.full(4, 0.8),
            theta_r=0.4, theta_s=0.3,
        )
        full = np.column_stack([1.0 - probs.sum(axis=1), probs])
        np.testing.assert_array_equal(config.probs_full, full)
        np.testing.assert_array_equal(config.cum, np.cumsum(full, axis=1))
        np.testing.assert_array_equal(config.t_grid, [1.0, 2.0, 3.0, 4.0])
        for t in range(1, 5):
            r, s = gm_ev_scales(0.4, 0.3, probs[t - 1], t, 4)
            assert config.noise_r[t - 1] == r
            np.testing.assert_array_equal(config.noise_s[t - 1], s)

    def test_mean_terms_match_their_bases(self):
        t = np.arange(1.0, 5.0)
        config = null_config(t_points=4, eo_basis="quadratic", eo_coeffs=(0.2, 0.1, -0.01),
                             mee_basis="linear", mee_coeffs=((0.3, 0.02), (0.1, -0.05)))
        base, eff1, eff2 = config.mean_terms
        assert base.tobytes() == (0.2 + 0.1 * t + -0.01 * t * t).tobytes()
        assert eff1.tobytes() == (0.3 + 0.02 * t).tobytes()
        assert eff2.tobytes() == (0.1 + -0.05 * t).tobytes()
        constant = null_config(t_points=4, eo_coeffs=(0.7,))
        np.testing.assert_array_equal(constant.mean_terms[0], np.full(4, 0.7))
        # a Z basis is evaluated per draw
        z = null_config(eo_basis="zcat", eo_coeffs=(0.1, 0.2, 0.3), mee_basis="z",
                        mee_coeffs=((0.1, 0.2), (0.0, 0.1)))
        assert z.mean_terms == (None, None, None)

    def test_noise_tables_only_for_gm_ev(self):
        config = null_config(family="gm_sc", nu1=0.3)
        assert config.noise_r is None and config.noise_s is None

    def test_arrays_are_read_only_copies(self):
        t_points = 6
        probs, tau = np.array([0.3, 0.4]), np.full(t_points, 0.7)
        eo, mee = np.array([0.2, 0.05]), np.array([[0.1, 0.2], [0.3, 0.0]])
        config = GenerativeConfig(
            family="gm_ev", t_points=t_points, rand_probs=probs, tau_curve=tau,
            eo_basis="linear", eo_coeffs=eo, mee_basis="z", mee_coeffs=mee, theta_s=0.2,
        )
        before = simulate_trial(config, n=7, seed=3)
        probs[:] = 0.45
        tau[:] = 2.0
        eo[:] = 100.0
        mee[:] = -5.0
        after = simulate_trial(config, n=7, seed=3)
        for name in ("avail", "trt", "probs", "outcome"):
            np.testing.assert_array_equal(getattr(after, name), getattr(before, name))
        for name in ("rand_probs", "tau_curve", "eo_coeffs", "mee_coeffs",
                     "probs_full", "cum", "t_grid", "noise_r", "noise_s"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(config, name)[0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            config.mean_terms[0][0] = 0.5


MARGINAL_SPEC = ModelSpec(numerator=NumeratorPolicy("match_randomization"))


class TestRunMonteCarlo:
    def test_summary_fields_and_bounds(self):
        config = null_config(eo_coeffs=(0.2,), mee_coeffs=((0.3,), (0.5,)))
        summary = run_monte_carlo(
            config,
            n=25,
            replicates=40,
            spec=MARGINAL_SPEC,
            contrast=np.array([[1.0, -1.0]]),
            seed=101,
            true_beta=np.array([0.3, 0.5]),
        )
        assert summary.replicates == summary.completed == 40
        assert summary.failures == 0
        assert summary.param_names == ("arm1:intercept", "arm2:intercept")
        assert 0.0 <= summary.rejection_rate <= 1.0
        for b, r in zip(summary.bias, summary.rmse):
            assert r >= abs(b) - 1e-12
        for c in summary.coverage:
            assert 0.0 <= c <= 1.0

    def test_thread_count_does_not_change_results(self):
        config = null_config(family="gm_ea", tau=0.9, nu2=0.1, nu3=0.1)
        kwargs = dict(
            n=20,
            replicates=30,
            spec=MARGINAL_SPEC,
            contrast=np.array([[1.0, -1.0]]),
            seed=7,
            true_beta=np.array([0.0, 0.0]),
            collect_replicates=True,
        )
        serial = run_monte_carlo(config, threads=1, **kwargs)
        parallel = run_monte_carlo(config, threads=4, **kwargs)
        assert serial.to_dict() == parallel.to_dict()
        assert serial.records == parallel.records

    def test_no_truth_yields_nan_summaries(self):
        summary = run_monte_carlo(
            null_config(),
            n=15,
            replicates=5,
            spec=MARGINAL_SPEC,
            contrast=np.array([[1.0, -1.0]]),
            seed=3,
        )
        assert all(np.isnan(b) for b in summary.bias)
        assert all(np.isnan(c) for c in summary.coverage)
        as_dict = summary.to_dict()
        assert as_dict["bias"] == [None, None]
        assert "records" not in as_dict

    def test_per_replicate_records(self):
        summary = run_monte_carlo(
            null_config(),
            n=12,
            replicates=6,
            spec=MARGINAL_SPEC,
            contrast=np.array([[1.0, -1.0]]),
            seed=5,
            collect_replicates=True,
        )
        assert len(summary.records) == 6
        first = summary.records[0]
        assert first["ok"] is True
        assert len(first["beta"]) == 2
        assert first["seed"] == derive_replicate_seed(5, 0)

    def test_failure_budget_aborts(self):
        # With seed 6, replicate 12 alone never observes an arm at some t
        # (see TestChunkedEngine): one failure is within the 1% budget of
        # 100 replicates and beyond that of 50.
        config = null_config(t_points=2, tau=1.0, rand_probs=np.array([0.15, 0.15]))
        spec = ModelSpec(numerator=NumeratorPolicy("empirical_per_t"))
        contrast = np.array([[1.0, -1.0]])
        assert run_monte_carlo(config, 30, 100, spec, contrast, seed=6).failures == 1
        with pytest.raises(DegenerateArmError) as alone:
            per_replicate_values(config, 30, spec, contrast, 6, 12)
        with pytest.raises(NumericalError) as err:
            run_monte_carlo(config, 30, 50, spec, contrast, seed=6)
        assert str(err.value) == (
            f"1/50 replicates failed (budget 1%): DegenerateArmError×1; first error: {alone.value}"
        )

    def test_caller_contrast_changes_after_construction_do_not_matter(self):
        l_matrix = np.array([[1.0, -1.0]])
        contrast = build_contrast(l_matrix, MARGINAL_SPEC.p)
        kwargs = dict(n=15, replicates=6, spec=MARGINAL_SPEC, seed=2, collect_replicates=True)
        before = run_monte_carlo(null_config(), contrast=contrast, **kwargs)
        l_matrix[:] = [[1.0, 0.0]]
        np.testing.assert_array_equal(contrast.l_matrix, [[1.0, -1.0]])
        after = run_monte_carlo(null_config(), contrast=contrast, **kwargs)
        assert after.to_dict() == before.to_dict()
        assert after.records == before.records

    def test_true_beta_length_validated(self):
        with pytest.raises(DataValidationError, match=r"^true_beta must have length K\*p = 2$"):
            run_monte_carlo(
                null_config(), 10, 5, MARGINAL_SPEC, np.array([[1.0, -1.0]]),
                true_beta=np.zeros(3),
            )

    def test_replicate_count_validated(self):
        with pytest.raises(DataValidationError):
            run_monte_carlo(
                null_config(),
                n=10,
                replicates=0,
                spec=MARGINAL_SPEC,
                contrast=np.array([[1.0, -1.0]]),
            )


class TestResolveThreads:
    def test_explicit_wins(self):
        assert _resolve_threads(3) == 3

    def test_environment_default(self, monkeypatch):
        monkeypatch.setenv("MRTCAT_THREADS", "5")
        assert _resolve_threads(None) == 5

    def test_unset_defaults_to_one(self, monkeypatch):
        monkeypatch.delenv("MRTCAT_THREADS", raising=False)
        assert _resolve_threads(None) == 1

    def test_bad_values(self, monkeypatch):
        monkeypatch.setenv("MRTCAT_THREADS", "many")
        with pytest.raises(DataValidationError):
            _resolve_threads(None)
        with pytest.raises(DataValidationError):
            _resolve_threads(0)


BASE_SCENARIO = {
    "family": "gm0",
    "n": "30",
    "T": "15",
    "p": "0.2, 0.5, 0.3",
    "tau_kind": "constant",
    "AA": "1.0",
    "eo_coeffs": "0.2, 0.5, 0.4",
    "eo_kind": "zcat",
    "mee_coeffs": "0.1, 0.3; 0.45, 0.1",
    "f_kind": "z",
    "fit_f": "constant",
    "fit_g": "z",
    "replicates": "50",
    "seed": "42",
}


class TestScenarioFromConfig:
    def test_full_scenario_resolves(self):
        scenario = scenario_from_config(dict(BASE_SCENARIO))
        assert scenario.n == 30
        assert scenario.config.family == "gm0"
        assert scenario.config.eo_basis == "zcat"
        assert scenario.config.mee_basis == "z"
        np.testing.assert_allclose(
            scenario.config.mee_coeffs, [[0.1, 0.3], [0.45, 0.1]]
        )
        assert scenario.model_spec.f_columns == ()
        assert scenario.model_spec.g_columns == ("Z",)
        assert scenario.replicates == 50
        assert scenario.seed == 42

    def test_marginal_truth_averages_over_z(self):
        scenario = scenario_from_config(dict(BASE_SCENARIO))
        np.testing.assert_allclose(scenario.true_beta, [0.4, 0.55], atol=1e-12)

    def test_matching_basis_passes_coefficients_through(self):
        cfg = dict(BASE_SCENARIO, fit_f="z")
        scenario = scenario_from_config(cfg)
        np.testing.assert_allclose(scenario.true_beta, [0.1, 0.3, 0.45, 0.1])

    def test_explicit_truth_override(self):
        cfg = dict(BASE_SCENARIO, true_beta="0.0, 0.0")
        scenario = scenario_from_config(cfg)
        np.testing.assert_allclose(scenario.true_beta, [0.0, 0.0])

    def test_mismatched_basis_has_no_closed_form_truth(self):
        cfg = dict(BASE_SCENARIO)
        cfg.update(
            {
                "f_kind": "linear",
                "mee_coeffs": "0.1, 0.01; 0.2, -0.01",
                "eo_kind": "constant",
                "eo_coeffs": "0.3",
                "fit_g": "constant",
            }
        )
        assert scenario_from_config(cfg).true_beta is None

    def test_pattern_knob_path(self):
        cfg = {
            "family": "gm_ev",
            "n": "40",
            "T": "12",
            "p": "0.4, 0.3, 0.3",
            "AA": "0.75",
            "eo_kind": "linear",
            "theta_g": "0.3",
            "AEO": "0.4",
            "f_kind": "constant",
            "sate1": "0.1",
            "sate2": "0.2",
            "theta_r": "0.4",
            "theta_s": "0.2",
        }
        scenario = scenario_from_config(cfg)
        assert scenario.config.eo_basis == "linear"
        np.testing.assert_allclose(scenario.true_beta, [0.1, 0.2], atol=1e-12)

    def test_auto_sample_size_matches_direct_search(self):
        cfg = {
            "family": "gm0",
            "n": "auto",
            "T": "30",
            "p": "0.4, 0.3, 0.3",
            "AA": "0.8",
            "f_kind": "constant",
            "sate1": "0.25",
            "sate2": "0.0",
            "power": "0.8",
        }
        scenario = scenario_from_config(cfg)
        from mrtcat import DesignInputs

        inputs = DesignInputs(
            k_arms=2,
            t_points=30,
            rand_probs=np.array([0.3, 0.3]),
            tau=np.full(30, 0.8),
            f=np.ones((30, 1)),
            gamma=np.array([0.25, 0.0]),
            q=1,
            l_matrix=np.array([[1.0, -1.0]]),
        )
        assert scenario.n == required_sample_size(inputs).n

    def test_missing_required_key(self):
        cfg = dict(BASE_SCENARIO)
        del cfg["T"]
        with pytest.raises(DataValidationError, match="T"):
            scenario_from_config(cfg)

    @pytest.mark.parametrize(
        "key, value, cell",
        [
            ("p", "0.2, 0.5,, 0.3", 3),
            ("eo_coeffs", "0.2,, 0.4", 2),
            ("true_beta", "0.4, 0.55,", 3),
        ],
    )
    def test_empty_cell_rejected(self, key, value, cell):
        with pytest.raises(DataValidationError, match=f"^config key '{key}': cell {cell} is empty$"):
            scenario_from_config(dict(BASE_SCENARIO, **{key: value}))

    def test_bad_fit_basis(self):
        with pytest.raises(DataValidationError, match="fit_f"):
            scenario_from_config(dict(BASE_SCENARIO, fit_f="cubic"))

    def test_zcat_requires_explicit_coefficients(self):
        cfg = dict(BASE_SCENARIO)
        del cfg["eo_coeffs"]
        with pytest.raises(DataValidationError, match="eo_coeffs"):
            scenario_from_config(cfg)


def _draw_config(draw, family, eo_basis, mee_basis, t_points):
    """A valid GenerativeConfig for the given family and bases."""
    unit = st.floats(0.0, 1.0)
    p1, p2 = draw(st.floats(0.1, 0.45)), draw(st.floats(0.1, 0.45))
    eo_dim = {"constant": 1, "linear": 2, "quadratic": 3, "z": 2, "zcat": 3}[eo_basis]
    mee_dim = {"constant": 1, "linear": 2, "z": 2}[mee_basis]
    coeff = st.floats(-2.0, 2.0)
    knobs = {}
    if family == "gm_ev":
        knobs["theta_r"] = 0.0 if t_points == 1 else draw(st.floats(-0.5, 0.5))
        knobs["theta_s"] = draw(st.floats(-0.3, 0.3))
    elif family == "gm_sc":
        knobs["nu1"] = draw(st.floats(-0.9, 0.9))
    elif family == "gm_ea":
        knobs["nu2"] = draw(st.floats(-0.2, 0.2))
        knobs["nu3"] = draw(st.floats(-0.2, 0.2))
    return GenerativeConfig(
        family=family,
        t_points=t_points,
        rand_probs=np.array([p1, p2]),
        tau_curve=np.array([0.05 + 0.95 * draw(unit) for _ in range(t_points)]),
        eo_basis=eo_basis,
        eo_coeffs=[draw(coeff) for _ in range(eo_dim)],
        mee_basis=mee_basis,
        mee_coeffs=[[draw(coeff) for _ in range(mee_dim)] for _ in range(2)],
        z_levels=3,
        **knobs,
    )


class TestGeneratorMatchesLoops:
    @settings(max_examples=120, deadline=None)
    @given(
        data=st.data(),
        family=st.sampled_from(["gm0", "gm_ev", "gm_sc", "gm_ea"]),
        eo_basis=st.sampled_from(["z", "zcat", "quadratic"]),
        mee_basis=st.sampled_from(["constant", "linear", "z"]),
        t_points=st.integers(1, 12),
        n=st.integers(1, 9),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_bitwise_equal_to_per_t_loop(
        self, data, family, eo_basis, mee_basis, t_points, n, seed
    ):
        config = _draw_config(data.draw, family, eo_basis, mee_basis, t_points)
        got = simulate_trial(config, n, seed)
        want = simulate_trial_loops(config, n, seed)
        np.testing.assert_array_equal(got.avail, want["avail"])
        np.testing.assert_array_equal(got.trt, want["trt"])
        assert got.outcome.tobytes() == want["outcome"].tobytes()
        assert got.clipped_availability == want["clipped"]
        if want["Z"] is not None:
            np.testing.assert_array_equal(got.features["Z"], want["Z"])


def per_replicate_values(config, n, spec, contrast, seed, index, eta=0.05):
    """One replicate through the public calls: (beta, se, reject).  The
    contrast is an L matrix or, as run_monte_carlo takes it, a ContrastSpec."""
    data = simulate_trial(config, n, derive_replicate_seed(seed, index))
    fit = fit_wcls(data, spec)
    if not isinstance(contrast, ContrastSpec):
        contrast = build_contrast(contrast, spec.p)
    test = wald_test(fit, contrast, eta)
    cis = confidence_intervals(fit, np.eye(len(fit.beta_hat)), 1.0 - eta)
    return fit.beta_hat, np.array([c.se for c in cis]), test.reject


COVARIANCE_OVERFLOW = null_config(t_points=3, rand_probs=(0.2, 0.2), eo_basis="linear",
                                  eo_coeffs=(0.0, 1e160))


class TestChunkedEngine:
    """run_monte_carlo fits chunks of replicates as stacked arrays; every
    replicate must match the public per-dataset calls on its own seed."""

    CASES = [
        # gm_ea with a two-point window and a per-t empirical numerator;
        # 37 replicates of 30 x 12 points fill part of one 112-replicate chunk
        (
            null_config(family="gm_ea", t_points=12, tau=0.9, nu2=0.15, nu3=0.15,
                        eo_basis="linear", eo_coeffs=(0.2, 0.01)),
            30,
            ModelSpec(g_columns=("time",), delta=2,
                      numerator=NumeratorPolicy("empirical_per_t")),
            np.array([[1.0, -1.0]]),
        ),
        # 250 replicates at n=168, T=30: chunks of 8, the last one partial
        (
            GenerativeConfig(family="gm0", t_points=30, rand_probs=np.array([0.3, 0.3]),
                             tau_curve=np.full(30, 0.8), eo_coeffs=(0.2,),
                             mee_coeffs=((0.12,), (0.06,))),
            168,
            ModelSpec(),
            np.eye(2),
        ),
        (
            null_config(family="gm_ev", t_points=10, theta_r=0.3, theta_s=0.2,
                        eo_basis="zcat", eo_coeffs=(0.1, 0.2, 0.3),
                        mee_basis="z", mee_coeffs=((0.1, 0.2), (0.0, 0.1))),
            25,
            ModelSpec(f_columns=("Z",), g_columns=("Z",), correction="none",
                      numerator=NumeratorPolicy("empirical_pooled")),
            np.array([[1.0, -1.0]]),
        ),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_records_match_per_replicate_calls(self, case):
        config, n, spec, contrast = self.CASES[case]
        replicates = 250 if n == 168 else 37
        summary = run_monte_carlo(
            config, n, replicates, spec, contrast, seed=11, collect_replicates=True
        )
        assert summary.failures == 0
        for rec in summary.records:
            beta, se, reject = per_replicate_values(
                config, n, spec, contrast, 11, rec["replicate"]
            )
            assert rec["seed"] == derive_replicate_seed(11, rec["replicate"])
            np.testing.assert_allclose(rec["beta"], beta, rtol=1e-12, atol=0)
            np.testing.assert_allclose(rec["se"], se, rtol=1e-12, atol=0)
            assert rec["reject"] == reject

    def test_threads_give_identical_results(self):
        # 60 x 20 points: 200 replicates make 6 chunks of up to 34 on one
        # thread and 12 chunks of up to 17 on two or three
        config = null_config(family="gm_ea", t_points=20, tau=0.9, nu2=0.15, nu3=0.15)
        runs = [
            run_monte_carlo(
                config, 60, 200, ModelSpec(g_columns=("time",)), np.eye(2), seed=3,
                threads=threads, true_beta=np.zeros(2), collect_replicates=True,
            )
            for threads in (1, 2, 3)
        ]
        assert runs[0].failures == 0
        # tau + nu2 + nu3 > 1, so some availability probabilities are clipped
        assert runs[0].clipped_availability > 0
        for other in runs[1:]:
            assert other.to_dict() == runs[0].to_dict()
            assert other.records == runs[0].records

    def test_failing_replicate_leaves_chunk_neighbours_alone(self):
        # 100 replicates of 30 x 2 points share one chunk; with seed 6,
        # replicate 12 never observes one arm at some t and fails.
        config = null_config(t_points=2, tau=1.0, rand_probs=np.array([0.15, 0.15]))
        spec = ModelSpec(numerator=NumeratorPolicy("empirical_per_t"))
        contrast = np.array([[1.0, -1.0]])
        summary = run_monte_carlo(config, 30, 100, spec, contrast, seed=6,
                                  collect_replicates=True)
        failed = [rec for rec in summary.records if not rec["ok"]]
        assert [rec["replicate"] for rec in failed] == [12]
        with pytest.raises(DegenerateArmError) as err:
            per_replicate_values(config, 30, spec, contrast, 6, 12)
        assert failed[0]["error"] == str(err.value)
        for rec in summary.records:
            if rec["ok"]:
                beta, se, reject = per_replicate_values(
                    config, 30, spec, contrast, 6, rec["replicate"]
                )
                np.testing.assert_allclose(rec["beta"], beta, rtol=1e-12, atol=0)
                np.testing.assert_allclose(rec["se"], se, rtol=1e-12, atol=0)
                assert rec["reject"] == reject

    def test_overflowing_outcome_fails_like_simulate_trial(self):
        # every treated point overflows, so every replicate fails
        config = null_config(tau=1.0, eo_coeffs=(1e308,), mee_coeffs=((1e308,), (1e308,)))
        with pytest.raises(DataValidationError) as alone:
            simulate_trial(config, 20, derive_replicate_seed(4, 0))
        assert str(alone.value) == "missing or non-finite outcome value"
        with pytest.raises(NumericalError) as err:
            run_monte_carlo(config, 20, 30, MARGINAL_SPEC, np.array([[1.0, -1.0]]), seed=4)
        assert str(err.value) == (
            "30/30 replicates failed (budget 1%): DataValidationError×30; "
            "first error: missing or non-finite outcome value"
        )

    def test_overflow_and_finite_replicates_fail_like_public_calls(self):
        # Arm 1 overflows; a replicate that never gives arm 1 stays finite
        # and fails later, in fit_wcls.  One chunk holds both kinds, and
        # the finite ones' values near 1e308 overflow in the fit as well.
        config = null_config(t_points=3, tau=0.5, rand_probs=(0.05, 0.4),
                             eo_coeffs=(1e308,), mee_coeffs=((1e308,), (-1e308,)))
        counts: dict[str, int] = {}
        errors = []
        for r in range(40):
            try:
                fit_wcls(simulate_trial(config, 12, derive_replicate_seed(5, r)), MARGINAL_SPEC)
            except (DataValidationError, NumericalError) as exc:
                counts[type(exc).__name__] = counts.get(type(exc).__name__, 0) + 1
                errors.append(exc)
        assert sorted(counts) == ["DataValidationError", "DegenerateArmError"]
        grouped = ", ".join(
            f"{name}×{count}" for name, count in sorted(counts.items(), key=lambda i: -i[1])
        )
        with pytest.raises(NumericalError) as err:
            run_monte_carlo(config, 12, 40, MARGINAL_SPEC, np.array([[1.0, -1.0]]), seed=5)
        assert str(err.value) == (
            f"40/40 replicates failed (budget 1%): {grouped}; first error: {errors[0]}"
        )

    def test_overflow_aborts_without_warnings(self):
        # The config of the test above: the generator and the chunk fit
        # overflow without a numpy warning, and the run fails as before.
        config = null_config(t_points=3, tau=0.5, rand_probs=(0.05, 0.4),
                             eo_coeffs=(1e308,), mee_coeffs=((1e308,), (-1e308,)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError) as err:
                run_monte_carlo(
                    config, 12, 40, MARGINAL_SPEC, np.array([[1.0, -1.0]]), seed=5
                )
        assert str(err.value) == (
            "40/40 replicates failed (budget 1%): DataValidationError×26, "
            "DegenerateArmError×14; first error: missing or non-finite outcome value"
        )

    def test_user_supplied_table_built_once_per_run(self):
        # the engine builds this table once (an invalid one raises before
        # the first chunk; see TestRunWideErrors)
        config, contrast = null_config(), np.array([[1.0, -1.0]])
        table = np.tile([0.4, 0.35, 0.25], (8, 1))
        spec = ModelSpec(g_columns=("time",), numerator=NumeratorPolicy("user_supplied", table=table))
        summary = run_monte_carlo(config, 30, 12, spec, contrast, seed=2, collect_replicates=True)
        assert summary.failures == 0
        for rec in summary.records:
            beta, se, reject = per_replicate_values(config, 30, spec, contrast, 2, rec["replicate"])
            np.testing.assert_allclose(rec["beta"], beta, rtol=1e-12, atol=0)
            np.testing.assert_allclose(rec["se"], se, rtol=1e-12, atol=0)
            assert rec["reject"] == reject

    @pytest.mark.parametrize("n, grouped", [(30, "NumericalError×20")])
    def test_covariance_error_precedes_the_shared_wald_check(self, n, grouped):
        # A slope of 1e160 in t leaves residuals near 1e160 that the
        # intercept-only control cannot fit: outcomes and fit are finite,
        # but the score sums overflow and fit_wcls fails in its covariance
        # solve.  The engine forms every covariance after the last chunk,
        # and a replicate still keeps that error, before anything of
        # wald_test.
        config = COVARIANCE_OVERFLOW
        errors = []
        for r in range(20):
            data = simulate_trial(config, n, derive_replicate_seed(4, r))
            try:
                wald_test(fit_wcls(data, MARGINAL_SPEC), build_contrast(np.eye(2), 1))
            except (DataValidationError, NumericalError) as exc:
                errors.append(exc)
        solves = [exc for exc in errors if type(exc) is NumericalError]
        assert {str(exc) for exc in solves} == {"solve_spd requires finite entries"}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError) as err:
                run_monte_carlo(config, n, 20, MARGINAL_SPEC, np.eye(2), seed=4)
        assert str(err.value) == (
            f"20/20 replicates failed (budget 1%): {grouped}; first error: {errors[0]}"
        )

    def test_budget_abort_counts_failures_by_class(self):
        # At n = 5 the config of the test above gives two classes: the
        # replicates that never observe an arm fail in fit_wcls, the others
        # in their covariance solve.  The classes are listed by count, then
        # name, and the first error is replicate 0's.
        with pytest.raises(DegenerateArmError) as alone:
            per_replicate_values(COVARIANCE_OVERFLOW, 5, MARGINAL_SPEC, np.eye(2), 4, 0)
        with pytest.raises(NumericalError) as err:
            run_monte_carlo(COVARIANCE_OVERFLOW, 5, 20, MARGINAL_SPEC, np.eye(2), seed=4)
        assert str(err.value) == (
            "20/20 replicates failed (budget 1%): NumericalError×16, DegenerateArmError×4; "
            f"first error: {alone.value}"
        )

    TABLE_CASES = [
        # the seed-6 case above: replicate 12 fails, its neighbours do not
        (
            null_config(t_points=2, tau=1.0, rand_probs=np.array([0.15, 0.15])),
            30, 100, ModelSpec(numerator=NumeratorPolicy("empirical_per_t")),
            np.array([[1.0, -1.0]]), 6, 1,
        ),
        (
            null_config(family="gm_ea", t_points=20, tau=0.9, nu2=0.15, nu3=0.15),
            60, 50, ModelSpec(g_columns=("time",)), np.eye(2), 3, 0,
        ),
        # a Z basis for the outcome, the effects and both fitted bases: the
        # draws of Z are chunk arrays too
        (
            null_config(t_points=20, rand_probs=(0.3, 0.3), eo_basis="z", eo_coeffs=(0.1, 0.05),
                        mee_basis="z", mee_coeffs=((0.1, 0.05), (0.05, 0.0))),
            40, 30, ModelSpec(f_columns=("Z",), g_columns=("Z",)), np.eye(2), 9, 0,
        ),
    ]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("per_chunk", [1, 7, None], ids=["one", "partial", "all"])
    @pytest.mark.parametrize("case", range(len(TABLE_CASES)))
    def test_results_do_not_depend_on_chunk_size(self, monkeypatch, case, per_chunk, threads):
        # Every chunk writes its own rows of the run's result table: one
        # replicate per chunk, chunks of 7 with a shorter last one, or one
        # chunk for the run must all give the default run's results.  A
        # short switch interval makes the pool threads interleave often.
        config, n, replicates, spec, contrast, seed, failures = self.TABLE_CASES[case]

        def run(**kwargs):
            return run_monte_carlo(
                config, n, replicates, spec, contrast, seed=seed, true_beta=np.zeros(2 * spec.p),
                collect_replicates=True, **kwargs,
            )

        want = run()
        assert want.failures == failures
        monkeypatch.setattr(
            simulate, "_chunk_replicates", lambda points, workers: per_chunk or replicates
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = run(threads=threads)
        finally:
            sys.setswitchinterval(interval)
        assert got.to_dict() == want.to_dict()
        assert got.records == want.records

    def test_one_worker_spends_the_two_worker_budget_on_one_chunk(self, monkeypatch):
        # 100 x 20 points: a chunk of _CHUNK_POINTS holds 10 replicates
        n, config = 100, null_config(t_points=20)
        lock = threading.Lock()
        sizes: dict = {}
        live = {"points": 0, "peak": 0}

        def spy(*args):
            points = args[0].size  # avail: R * n * T decision points
            with lock:
                sizes.setdefault(threading.get_ident(), []).append(len(args[0]))
                live["points"] += points
                live["peak"] = max(live["peak"], live["points"])
            try:
                return fit_stack(*args)
            finally:
                with lock:
                    live["points"] -= points

        monkeypatch.setattr(simulate, "fit_stack", spy)
        runs = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # pool threads interleave often
        try:
            for threads in (1, 2, 3):
                sizes.clear()
                live["peak"] = 0
                summary = run_monte_carlo(config, n, 70, MARGINAL_SPEC,
                                          np.array([[1.0, -1.0]]), threads=threads)
                assert summary.completed == 70
                runs[threads] = (dict(sizes), live["peak"])
        finally:
            sys.setswitchinterval(interval)
        base = round(simulate._CHUNK_POINTS / (n * config.t_points))
        assert base == 10
        for threads, (by_thread, _) in runs.items():
            chunks = sorted(size for calls in by_thread.values() for size in calls)
            size = 2 * base if threads == 1 else base
            full, rest = divmod(70, size)
            assert chunks == [rest] * (rest > 0) + [size] * full
            assert len(by_thread) <= threads
        assert runs[1][1] <= 2 * base * n * config.t_points
        assert runs[2][1] <= 2 * base * n * config.t_points


GOLDEN_SCENARIO = Path(__file__).resolve().parent / "golden" / "simulate" / "scenario.cfg"


def _never(*args, **kwargs):
    raise AssertionError("a chunk ran")


class TestRunWideErrors:
    """An error that every replicate of a run shares raises once, before
    the first chunk, as the DataValidationError that replicate 0's own
    public calls raise."""

    @pytest.mark.parametrize(
        "changes",
        [
            {"eta": "2"},
            {"eta": "1e-17"},  # in (0, 1), but 1 - eta rounds to 1
            {"n": "0"},
            {"n": "3"},  # n <= q + K*p = 4
            {"n": "5", "L": "all-null"},  # n = q + l + 1
            {"fit_f": "z"},  # no Z basis, so no Z column
        ],
        ids=["eta_above_one", "eta_below_rounding", "n_zero", "n_at_fit_bound",
             "n_at_wald_bound", "moderator_not_simulated"],
    )
    def test_simulate_exits_two_before_any_chunk(self, monkeypatch, capsys, tmp_path, changes):
        cfg = parse_kv_file(GOLDEN_SCENARIO) | changes
        scenario_path = tmp_path / "scenario.cfg"
        scenario_path.write_text("".join(f"{key} = {value}\n" for key, value in cfg.items()))
        scenario = scenario_from_config(cfg)
        args = (scenario.config, scenario.n, scenario.model_spec, scenario.l_matrix)
        with pytest.raises(DataValidationError) as public:
            per_replicate_values(*args, scenario.seed, 0, scenario.eta)
        monkeypatch.setattr(simulate, "_draws", _never)
        monkeypatch.setattr(simulate, "fit_stack", _never)
        out = tmp_path / "mc.json"
        code = main(["simulate", "--scenario", str(scenario_path), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {public.value}\n"
        assert not out.exists()
        with pytest.raises(DataValidationError) as raised:
            run_monte_carlo(scenario.config, scenario.n, 20, scenario.model_spec,
                            scenario.l_matrix, scenario.eta, scenario.seed)
        assert (type(raised.value), str(raised.value)) == (type(public.value), str(public.value))

    @pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "two_to_the_64"])
    def test_master_seed_out_of_range(self, monkeypatch, capsys, tmp_path, seed):
        scenario = scenario_from_config(parse_kv_file(GOLDEN_SCENARIO))
        with pytest.raises(DataValidationError) as public:
            simulate_trial(scenario.config, scenario.n, seed)
        monkeypatch.setattr(simulate, "_draws", _never)
        monkeypatch.setattr(simulate, "fit_stack", _never)
        with pytest.raises(DataValidationError) as raised:
            run_monte_carlo(scenario.config, scenario.n, 20, scenario.model_spec,
                            scenario.l_matrix, scenario.eta, seed)
        assert str(raised.value) == str(public.value)
        out = tmp_path / "mc.json"
        code = main(["simulate", "--scenario", str(GOLDEN_SCENARIO), "--seed", str(seed),
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {public.value}\n"
        assert not out.exists()

    def test_largest_master_seed_runs(self):
        summary = run_monte_carlo(null_config(), 20, 2, MARGINAL_SPEC, np.array([[1.0, -1.0]]),
                                  seed=2**64 - 1, collect_replicates=True)
        assert summary.seed == 2**64 - 1
        assert [rec["seed"] for rec in summary.records] == [
            derive_replicate_seed(2**64 - 1, r) for r in range(2)
        ]

    TABLE = np.tile([0.4, 0.35, 0.25], (8, 1))

    @pytest.mark.parametrize(
        "n, spec, contrast",
        [
            (-1, MARGINAL_SPEC, np.array([[1.0, -1.0]])),
            # a contrast lifted for p = 2, the fit has p = 1
            (20, MARGINAL_SPEC, build_contrast(np.array([[1.0, -1.0]]), 2)),
            # a user_supplied table with 7 rows for T = 8
            (20, ModelSpec(numerator=NumeratorPolicy("user_supplied", table=TABLE[:7])),
             np.array([[1.0, -1.0]])),
            (20, ModelSpec(delta=9), np.array([[1.0, -1.0]])),
        ],
        ids=["n_negative", "contrast_width", "table_shape", "window"],
    )
    def test_run_monte_carlo_raises_before_any_chunk(self, monkeypatch, n, spec, contrast):
        config = null_config()
        with pytest.raises(DataValidationError) as public:
            per_replicate_values(config, n, spec, contrast, 8, 0)
        monkeypatch.setattr(simulate, "_draws", _never)
        monkeypatch.setattr(simulate, "fit_stack", _never)
        with pytest.raises(DataValidationError) as raised:
            run_monte_carlo(config, n, 12, spec, contrast, seed=8)
        assert (type(raised.value), str(raised.value)) == (type(public.value), str(public.value))


def _poison(workspace):
    """Fill every workspace array with 0xFF bytes: NaN floats, -1 integers."""
    for array in workspace.values():
        array.view(np.uint8).fill(0xFF)


def _assert_bytes_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestWorkspace:
    """The Monte Carlo engine keeps each worker's chunk arrays in a
    workspace reused by every chunk; the kernels' results must not
    depend on it, and nothing in it may survive a chunk or the run."""

    CASES = TestChunkedEngine.CASES + [
        # a user_supplied table, a time moderator and a three-point window
        (
            null_config(family="gm_sc", nu1=0.3, eo_basis="linear", eo_coeffs=(0.1, 0.02)),
            30,
            ModelSpec(f_columns=("time",), g_columns=("time2",), delta=3,
                      numerator=NumeratorPolicy("user_supplied", table=np.full((8, 3), 1 / 3))),
            np.array([[1.0, -1.0]]),
        ),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_kernels_match_without_workspace(self, case):
        config, n, spec, _ = self.CASES[case]
        probs = config.probs_full[None, None]
        workspace: dict = {}
        # the second, shorter chunk reads leading slices of poisoned arrays
        for seeds in ([3, 1, 4, 1, 5], [9, 2, 6]):
            _poison(workspace)
            draws = _draws(config, seeds, n, workspace)
            fresh = _draws(config, seeds, n)
            for got, want in zip(draws, fresh):
                if want is None:
                    assert got is None
                else:
                    _assert_bytes_equal(got, want)
            generated = _generate(config, *draws, workspace)
            expected = _generate(config, *fresh)
            for got, want in zip(generated, expected):
                _assert_bytes_equal(got, want)
            avail, trt, outcome, _ = expected
            features = {"time": config.t_grid, "time2": config.t_grid * config.t_grid}
            if fresh[1] is not None:
                features["Z"] = fresh[1]
            tables, _ = numerator_tables(avail, trt, probs, spec.numerator, 2)
            args = (avail, trt, probs, outcome, features, 2, spec)
            got = design_stack(*args, tables, workspace)
            want = design_stack(*args, tables)
            for a, b in zip(got[:3], want[:3]):
                _assert_bytes_equal(a, b)
            assert got[3] == want[3]
            got, want = fit_stack(*args, workspace), fit_stack(*args)
            for name in ("theta", "resid", "m", "sigma", "md_fallbacks", "tables"):
                _assert_bytes_equal(getattr(got, name), getattr(want, name))
            assert [(type(e), str(e)) for e in got.errors] == [
                (type(e), str(e)) for e in want.errors
            ]

    def test_failing_chunk_before_clean_ones(self):
        # 60 x 30 points: 150 replicates make 7 chunks of 22, the last one
        # of 18, on one thread and 14 chunks of 11, the last one of 7, on
        # two or three.  Arms 1 and 2 are rare at t = 1, and with
        # seed 393 replicate 1, in the first chunk, never observes arm 1
        # there, so the first worker meets a failing chunk first.
        t_points = 30
        probs = np.tile([0.3, 0.3], (t_points, 1))
        probs[0] = (0.1, 0.1)
        config = GenerativeConfig(family="gm0", t_points=t_points, rand_probs=probs,
                                  tau_curve=np.full(t_points, 1.0))
        spec = ModelSpec(numerator=NumeratorPolicy("empirical_per_t"))
        contrast = np.array([[1.0, -1.0]])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # workers that shared arrays would interleave often
        try:
            runs = [
                run_monte_carlo(config, 60, 150, spec, contrast, seed=393, threads=threads,
                                collect_replicates=True)
                for threads in (1, 2, 3)
            ]
        finally:
            sys.setswitchinterval(interval)
        records = runs[0].records
        assert [rec["replicate"] for rec in records if not rec["ok"]] == [1]
        for other in runs[1:]:
            assert other.records == records
        with pytest.raises(DegenerateArmError) as err:
            per_replicate_values(config, 60, spec, contrast, 393, 1)
        assert records[1]["error"] == str(err.value)
        for rec in records:
            if rec["ok"]:
                beta, se, reject = per_replicate_values(
                    config, 60, spec, contrast, 393, rec["replicate"]
                )
                assert rec["beta"] == beta.tolist()
                assert rec["se"] == se.tolist()
                assert rec["reject"] == reject

    @pytest.mark.parametrize("threads", [1, 2])
    def test_only_the_callers_kept_arrays_outlive_the_run(self, monkeypatch, threads):
        refs = []

        def spy(*args):
            fit = fit_stack(*args)
            workspace = args[7]  # the engine passes its workspace after the spec
            refs.extend(weakref.ref(array) for array in workspace.values())
            return fit

        # 100 x 20 points: three chunks of 20 replicates on one thread, six
        # of 10 on two; a one-worker chunk is the whole budget
        n, config = 100, null_config(t_points=20)

        def run(threads):
            summary = run_monte_carlo(config, n, 60, MARGINAL_SPEC, np.array([[1.0, -1.0]]),
                                      threads=threads)
            assert summary.completed == 60

        kept = vars(simulate._workspaces)
        run(1)
        before = {name: weakref.ref(array) for name, array in kept.items()}
        assert before
        monkeypatch.setattr(simulate, "fit_stack", spy)
        run(threads)
        assert refs
        if threads == 1:
            # the same array objects, reused, and nothing else
            assert kept.keys() == before.keys()
            assert all(kept[name] is ref() for name, ref in before.items())
            survivors = {id(array) for array in (ref() for ref in refs) if array is not None}
            assert survivors == {id(array) for array in kept.values()}
            budget = 2 * simulate._CHUNK_POINTS
            assert all(len(array) * n * config.t_points <= budget for array in kept.values())
            # 116 bytes per decision point, and the noise's extra column
            assert sum(array.nbytes for array in kept.values()) <= budget * 117
        else:
            assert not kept
            assert all(ref() is None for ref in [*refs, *before.values()])

    # per case, a seed whose 20 replicates all fit: at n = 30 some seeds
    # fail more than the 1% budget allows, and the run then has no records
    SEEDS = (11, 17, 17, 4)

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_poisoned_kept_arrays_change_no_bit(self, case):
        config, n, spec, contrast = self.CASES[case]

        def run():
            summary = run_monte_carlo(config, n, 20, spec, contrast, seed=self.SEEDS[case],
                                      collect_replicates=True)
            return repr((summary.to_dict(), summary.records))

        first = run()
        kept = vars(simulate._workspaces)
        assert kept
        _poison(kept)
        assert run() == first

    def test_another_shape_drops_the_kept_arrays(self):
        t_points, contrast = 20, np.array([[1.0, -1.0]])
        plain = null_config(t_points=t_points)
        with_z = null_config(t_points=t_points, mee_basis="z", mee_coeffs=((0.1, 0.2), (0.0, 0.1)))
        kept = vars(simulate._workspaces)

        def run(config, n):
            summary = run_monte_carlo(config, n, 30, MARGINAL_SPEC, contrast, seed=5,
                                      collect_replicates=True)
            assert kept["eps"].shape[1:] == (n, t_points + 1)
            assert ("z" in kept) == config.needs_z
            return repr((summary.to_dict(), summary.records))

        first = run(plain, 100)
        run(with_z, 60)
        assert run(plain, 100) == first

    def test_concurrent_callers_keep_their_own_arrays(self):
        contrast = np.array([[1.0, -1.0]])
        cases = [
            (null_config(t_points=20), 100, 3),
            (null_config(t_points=20, mee_basis="z", mee_coeffs=((0.1, 0.2), (0.0, 0.1))), 60, 4),
        ]

        def run(config, n, seed):
            summary = run_monte_carlo(config, n, 50, MARGINAL_SPEC, contrast, seed=seed,
                                      collect_replicates=True)
            return repr((summary.to_dict(), summary.records))

        want = [run(*case) for case in cases]
        got: list = [[], []]

        def caller(i):
            for _ in range(3):
                got[i].append(run(*cases[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # callers that shared arrays would interleave often
        try:
            callers = [threading.Thread(target=caller, args=(i,)) for i in range(2)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert got == [[want[0]] * 3, [want[1]] * 3]

    @pytest.mark.parametrize("n", [2000, 2001])
    def test_a_replicate_of_the_whole_budget_keeps_nothing(self, n):
        # 2000 x 20 points are the whole budget: a chunk holds two replicates
        config, contrast = null_config(t_points=20), np.array([[1.0, -1.0]])
        kept = vars(simulate._workspaces)
        run_monte_carlo(config, 100, 20, MARGINAL_SPEC, contrast)
        assert kept
        summary = run_monte_carlo(config, n, 3, MARGINAL_SPEC, contrast)
        assert summary.completed == 3
        assert not kept
