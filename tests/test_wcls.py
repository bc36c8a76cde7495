import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mrtcat import (
    DataValidationError,
    DegenerateArmError,
    ModelSpec,
    NumeratorPolicy,
    SingularSystemError,
    fit_wcls,
)
from mrtcat.wcls import CORRECTIONS, LEVERAGE_TOL, _build_arrays, fit_stack

from _factories import make_dataset
from _oracles import (
    estimating_equation_norm,
    max_leverage_loops,
    numerator_table_loops,
    pinv_sandwich_loops,
    sandwich_loops,
    wcls_fit_loops,
    weight_loops,
)


def toy_four_subjects():
    # One decision point, one active arm, balanced assignment.
    return make_dataset(
        trt=[[1], [0], [1], [0]],
        outcome=[[2.0], [1.0], [4.0], [3.0]],
        probs=(0.5, 0.5),
    )


EMPIRICAL = ModelSpec(numerator=NumeratorPolicy("empirical_per_t"), correction="none")


class TestFitToy:
    def test_balanced_single_point_solution(self):
        fit = fit_wcls(toy_four_subjects(), EMPIRICAL)
        np.testing.assert_allclose(fit.alpha_hat, [2.5], atol=1e-12)
        np.testing.assert_allclose(fit.beta_hat, [1.0], atol=1e-12)

    def test_uncorrected_sandwich_value(self):
        fit = fit_wcls(toy_four_subjects(), EMPIRICAL)
        np.testing.assert_allclose(fit.cov_beta, [[1.0]], atol=1e-12)

    def test_hat_matrix_correction_value(self):
        spec = ModelSpec(numerator=NumeratorPolicy("empirical_per_t"), correction="mancl_derouen")
        fit = fit_wcls(toy_four_subjects(), spec)
        # every subject has leverage 1/2, so residuals double and the
        # covariance picks up a factor of four
        np.testing.assert_allclose(fit.cov_beta, [[4.0]], atol=1e-12)
        assert fit.md_fallbacks == 0

    def test_constant_outcome_gives_zero_effect(self):
        data = make_dataset(
            trt=[[1], [0], [1], [0]],
            outcome=[[2.0], [2.0], [2.0], [2.0]],
            probs=(0.5, 0.5),
        )
        fit = fit_wcls(data, EMPIRICAL)
        np.testing.assert_allclose(fit.alpha_hat, [2.0], atol=1e-12)
        np.testing.assert_allclose(fit.beta_hat, [0.0], atol=1e-12)

    def test_fit_is_estimating_equation_root(self):
        data = toy_four_subjects()
        fit = fit_wcls(data, EMPIRICAL)
        table = numerator_table_loops(data, "empirical_per_t")
        oracle = wcls_fit_loops(data, table, (), (), delta=1)
        assert estimating_equation_norm(oracle) < 1e-12
        np.testing.assert_allclose(
            np.concatenate([fit.alpha_hat, fit.beta_hat]), oracle["theta"], atol=1e-12
        )

    def test_result_metadata(self):
        fit = fit_wcls(toy_four_subjects(), EMPIRICAL)
        assert (fit.n, fit.t_points, fit.k_arms, fit.p, fit.q) == (4, 1, 1, 1, 1)
        assert fit.beta_names == ("arm1:intercept",)
        assert fit.residuals.shape == (4, 1)


class TestDesignRows:
    """Weights and stacked design blocks from wcls._build_arrays."""

    def test_matched_numerator_gives_unit_weights(self):
        rng = np.random.default_rng(0)
        data = make_dataset(
            trt=rng.integers(0, 3, size=(5, 4)),
            outcome=rng.normal(size=(5, 4)),
            probs=(0.4, 0.3, 0.3),
        )
        weights, d_full, _, _, _ = _build_arrays(data, ModelSpec())
        assert weights.shape == (5, 4)
        assert d_full.shape[:2] == (5, 4)
        np.testing.assert_allclose(weights, 1.0, atol=1e-12)

    def test_unavailable_rows_retained_with_zero_weight(self):
        data = make_dataset(
            trt=[[1, 0], [0, 2]],
            outcome=np.zeros((2, 2)),
            avail=[[1, 0], [1, 1]],
        )
        weights, _, _, _, _ = _build_arrays(data, ModelSpec())
        assert weights.shape == (2, 2)
        assert weights[0, 1] == 0.0

    def test_window_excludes_trailing_points(self):
        data = make_dataset(
            trt=np.zeros((3, 5), dtype=int),
            outcome=np.zeros((3, 5)),
            probs=(0.6, 0.4),
        )
        weights, d_full, outcome, t_used, _ = _build_arrays(data, ModelSpec(delta=2))
        assert t_used == 4
        assert weights.shape == outcome.shape == (3, 4)
        assert d_full.shape[:2] == (3, 4)

    def test_window_weight_factors(self):
        probs = (0.6, 0.4)
        data = make_dataset(
            trt=[[1, 0, 0], [1, 1, 0], [1, 0, 0]],
            outcome=np.zeros((3, 3)),
            avail=[[1, 1, 1], [1, 1, 1], [1, 0, 1]],
            probs=probs,
        )
        weights, _, _, _, _ = _build_arrays(data, ModelSpec(delta=2))
        # reference arm held at an available interim point: divide by p_0
        assert weights[0, 0] == pytest.approx(1.0 / 0.6, abs=1e-12)
        # active arm inside the window kills the weight
        assert weights[1, 0] == 0.0
        # unavailable interim point delivers arm 0 with probability one
        assert weights[2, 0] == pytest.approx(1.0, abs=1e-12)

    def test_weights_match_loop_oracle(self):
        rng = np.random.default_rng(13)
        avail = rng.integers(0, 2, size=(6, 5))
        trt = rng.integers(0, 3, size=(6, 5)) * avail
        data = make_dataset(trt=trt, outcome=rng.normal(size=(6, 5)), avail=avail)
        for delta in (1, 2, 3):
            weights, _, _, _, _ = _build_arrays(data, ModelSpec(delta=delta))
            assert weights.shape == (6, 5 - delta + 1)
            table = numerator_table_loops(data, "match_randomization")
            np.testing.assert_allclose(weights, weight_loops(data, table, delta), atol=1e-12)

    def test_row_blocks_are_control_then_centered_arms(self):
        data = make_dataset(
            trt=[[2]], outcome=[[1.0]], probs=(0.4, 0.3, 0.3),
            features={"z": [[5.0]]},
        )
        _, d_full, _, _, _ = _build_arrays(data, ModelSpec(f_columns=("z",), g_columns=("z",)))
        d = d_full[0, 0]
        # g block (1, z), then C_1 * (1, z), then C_2 * (1, z)
        np.testing.assert_allclose(d[:2], [1.0, 5.0], atol=1e-12)
        np.testing.assert_allclose(d[2:4], [-0.3, -1.5], atol=1e-12)
        np.testing.assert_allclose(d[4:6], [0.7, 3.5], atol=1e-12)
        assert d.shape == (6,)


def random_panel(seed, n=8, t_points=5, with_features=True):
    rng = np.random.default_rng(seed)
    avail = (rng.random((n, t_points)) < 0.85).astype(np.int64)
    trt = rng.integers(0, 3, size=(n, t_points)) * avail
    # keep every arm observed at every decision point so the empirical
    # per-point numerator stays well defined
    avail[:3, :] = 1
    trt[:3, :] = np.arange(3)[:, None]
    features = {"z": rng.normal(size=(n, t_points))} if with_features else None
    return make_dataset(
        trt=trt,
        outcome=rng.normal(size=(n, t_points)),
        avail=avail,
        probs=(0.5, 0.25, 0.25),
        features=features,
    )


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed,delta", [(1, 1), (2, 2), (3, 1)])
    @pytest.mark.parametrize("correction", ["none", "mancl_derouen"])
    def test_fit_and_sandwich(self, seed, delta, correction):
        data = random_panel(seed)
        spec = ModelSpec(
            f_columns=("z",),
            g_columns=("z",),
            delta=delta,
            numerator=NumeratorPolicy("empirical_per_t"),
            correction=correction,
        )
        fit = fit_wcls(data, spec)
        table = numerator_table_loops(data, "empirical_per_t")
        oracle = wcls_fit_loops(data, table, ("z",), ("z",), delta)
        np.testing.assert_allclose(fit.alpha_hat, oracle["alpha"], atol=1e-10)
        np.testing.assert_allclose(fit.beta_hat, oracle["beta"], atol=1e-10)
        np.testing.assert_allclose(
            fit.cov_beta, sandwich_loops(oracle, correction), atol=1e-10
        )


class TestInvariants:
    def test_empirical_centering_is_exact(self):
        # recorded probabilities equal the realized frequencies, so the
        # numerator ratio is one and centered indicators sum to zero
        trt = np.array([[0, 0, 1, 2, 0, 1, 0, 2]]).T.repeat(3, axis=1)
        data = make_dataset(trt=trt, outcome=np.zeros((8, 3)), probs=(0.5, 0.25, 0.25))
        spec = ModelSpec(numerator=NumeratorPolicy("empirical_per_t"))
        weights, d_full, _, _, _ = _build_arrays(data, spec)
        total = np.einsum("it,itr->r", weights, d_full[:, :, spec.q :])
        np.testing.assert_allclose(total, np.zeros(2), atol=1e-10)

    def test_outcome_scale_equivariance(self):
        data = random_panel(21)
        scaled = make_dataset(
            trt=data.trt,
            outcome=3.0 * data.outcome,
            avail=data.avail,
            probs=data.probs,
            features={"z": data.features["z"]},
        )
        spec = ModelSpec(f_columns=("z",), g_columns=("z",))
        base = fit_wcls(data, spec)
        big = fit_wcls(scaled, spec)
        np.testing.assert_allclose(big.beta_hat, 3.0 * base.beta_hat, rtol=1e-8)
        np.testing.assert_allclose(big.cov_beta, 9.0 * base.cov_beta, rtol=1e-8)

    def test_numerator_choice_barely_moves_large_sample_fit(self):
        from mrtcat import GenerativeConfig, simulate_trial

        config = GenerativeConfig(
            family="gm0",
            t_points=10,
            rand_probs=(0.5, 0.3),
            tau_curve=np.full(10, 0.8),
            eo_coeffs=(0.2,),
            mee_coeffs=((0.3,), (0.5,)),
        )
        data = simulate_trial(config, n=2000, seed=77)
        fits = {}
        for kind in ("match_randomization", "empirical_per_t"):
            spec = ModelSpec(numerator=NumeratorPolicy(kind))
            fits[kind] = fit_wcls(data, spec).beta_hat
        gap = np.abs(fits["match_randomization"] - fits["empirical_per_t"]).max()
        assert gap < 0.05

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_cov_beta_symmetric_psd_and_root_exact(self, seed):
        data = random_panel(seed, n=10, t_points=4)
        spec = ModelSpec(f_columns=("z",), numerator=NumeratorPolicy("empirical_per_t"))
        try:
            fit = fit_wcls(data, spec)
        except (SingularSystemError, DataValidationError):
            return
        np.testing.assert_allclose(fit.cov_beta, fit.cov_beta.T, atol=1e-12)
        assert np.linalg.eigvalsh(fit.cov_beta).min() > -1e-10
        table = numerator_table_loops(data, "empirical_per_t")
        oracle = wcls_fit_loops(data, table, ("z",), (), delta=1)
        np.testing.assert_allclose(
            np.concatenate([fit.alpha_hat, fit.beta_hat]), oracle["theta"], atol=1e-8
        )


class TestSandwichVariance:
    def test_matches_fit_covariance(self):
        data = toy_four_subjects()
        fit = fit_wcls(data, EMPIRICAL)
        np.testing.assert_allclose(fit.cov_beta, [[1.0]], atol=1e-12)
        spec_md = ModelSpec(
            numerator=NumeratorPolicy("empirical_per_t"), correction="mancl_derouen"
        )
        np.testing.assert_allclose(fit_wcls(data, spec_md).cov_beta, [[4.0]], atol=1e-12)

    def test_unknown_correction(self):
        with pytest.raises(DataValidationError, match="correction"):
            ModelSpec(numerator=NumeratorPolicy("empirical_per_t"), correction="jackknife")


class TestHatMatrixCorrection:
    def test_unit_leverage_subject_falls_back(self):
        # s0 is nonzero for subject 1 only, so that subject alone fixes
        # the s0 coefficient: one of its leverages is exactly one and
        # I - H_1 is singular, though an LU solve need not notice.
        rng = np.random.default_rng(2)
        n, t_points = 12, 6
        s0 = np.zeros((n, t_points))
        s0[0] = rng.normal(size=t_points)
        data = make_dataset(
            trt=rng.integers(0, 3, size=(n, t_points)),
            outcome=rng.normal(size=(n, t_points)),
            probs=(0.4, 0.3, 0.3),
            features={"s0": s0},
        )
        fit = fit_wcls(data, ModelSpec(g_columns=("s0",)))
        assert fit.md_fallbacks == 1
        assert np.isfinite(np.sqrt(np.diag(fit.cov_beta))).all()
        table = numerator_table_loops(data, "match_randomization")
        oracle = wcls_fit_loops(data, table, (), ("s0",), delta=1)
        expected, dropped = pinv_sandwich_loops(oracle, LEVERAGE_TOL)
        assert dropped == 1
        np.testing.assert_allclose(fit.cov_beta, expected, rtol=1e-10, atol=0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.sampled_from((1, 2)),
        st.sampled_from(CORRECTIONS),
    )
    def test_matches_loop_oracle(self, seed, delta, correction):
        data = random_panel(seed, n=14, t_points=5)
        spec = ModelSpec(
            f_columns=("z",),
            g_columns=("z",),
            delta=delta,
            numerator=NumeratorPolicy("empirical_per_t"),
            correction=correction,
        )
        table = numerator_table_loops(data, "empirical_per_t")
        oracle = wcls_fit_loops(data, table, ("z",), ("z",), delta)
        # non-degenerate: every leverage at most 0.95
        assume(max_leverage_loops(oracle) <= 0.95)
        fit = fit_wcls(data, spec)
        assert fit.md_fallbacks == 0
        expected = sandwich_loops(oracle, correction)
        np.testing.assert_allclose(
            fit.cov_beta, expected, rtol=0.0, atol=1e-12 * np.abs(expected).max()
        )


def fit_panels(datasets, spec):
    """fit_stack on datasets of one shape, stacked along a new first axis."""
    first = datasets[0]
    return fit_stack(
        np.stack([d.avail for d in datasets]),
        np.stack([d.trt for d in datasets]),
        np.stack([d.probs for d in datasets]),
        np.stack([d.outcome for d in datasets]),
        {name: np.stack([d.features[name] for d in datasets]) for name in first.features},
        first.k_arms,
        spec,
    )


def altered(data, **changes):
    """A copy of a random_panel dataset with some of its arrays replaced."""
    fields = dict(
        trt=data.trt, outcome=data.outcome, avail=data.avail,
        probs=np.array(data.probs), features=data.features,
    )
    fields.update(changes)
    return make_dataset(**fields)


class TestFitStack:
    """fit_stack fits a stack of panels and keeps, per panel, the error
    fit_wcls raises on it; fit_wcls is it on a stack of one."""

    def assert_matches_alone(self, fit, r, data, spec):
        alone = fit_wcls(data, spec)
        assert fit.errors[r] is None
        np.testing.assert_allclose(fit.theta[r, spec.q :], alone.beta_hat, rtol=1e-12)
        np.testing.assert_allclose(fit.cov_beta[r], alone.cov_beta, rtol=1e-12)
        assert fit.md_fallbacks[r] == alone.md_fallbacks

    @pytest.mark.parametrize("correction", CORRECTIONS)
    def test_failed_slice_leaves_neighbours_alone(self, correction):
        datasets = [random_panel(seed, n=14, t_points=5) for seed in (1, 2, 3)]
        # z equal to the intercept makes panel 1's normal matrix singular
        datasets[1] = altered(datasets[1], features={"z": np.ones((14, 5))})
        spec = ModelSpec(f_columns=("z",), g_columns=("z",), correction=correction)
        fit = fit_panels(datasets, spec)
        assert isinstance(fit.errors[1], SingularSystemError)
        assert str(fit.errors[1]).startswith("normal matrix is singular: ")
        with pytest.raises(SingularSystemError) as alone:
            fit_wcls(datasets[1], spec)
        assert str(fit.errors[1]) == str(alone.value)
        for r in (0, 2):
            self.assert_matches_alone(fit, r, datasets[r], spec)

    def test_each_panel_keeps_the_error_fit_wcls_raises(self):
        regular = [random_panel(seed, n=14, t_points=5) for seed in (4, 5)]
        one_arm = altered(regular[1], trt=np.minimum(regular[1].trt, 1))
        datasets = [regular[0], one_arm, regular[1]]
        spec = ModelSpec(f_columns=("z",), g_columns=("z",))
        fit = fit_panels(datasets, spec)
        with pytest.raises(DegenerateArmError) as alone:
            fit_wcls(datasets[1], spec)
        assert type(fit.errors[1]) is type(alone.value)
        assert str(fit.errors[1]) == str(alone.value)
        self.assert_matches_alone(fit, 0, datasets[0], spec)
        self.assert_matches_alone(fit, 2, datasets[2], spec)

    def test_unit_leverage_subject_in_a_stack(self):
        # The fallback subject of TestHatMatrixCorrection next to a regular
        # panel: only its own panel counts a fallback.
        rng = np.random.default_rng(2)
        n, t_points = 12, 6
        s0 = np.zeros((n, t_points))
        s0[0] = rng.normal(size=t_points)
        degenerate = make_dataset(
            trt=rng.integers(0, 3, size=(n, t_points)),
            outcome=rng.normal(size=(n, t_points)),
            probs=(0.4, 0.3, 0.3),
            features={"s0": s0},
        )
        regular = make_dataset(
            trt=rng.integers(0, 3, size=(n, t_points)),
            outcome=rng.normal(size=(n, t_points)),
            probs=(0.4, 0.3, 0.3),
            features={"s0": rng.normal(size=(n, t_points))},
        )
        spec = ModelSpec(g_columns=("s0",))
        fit = fit_panels([regular, degenerate], spec)
        assert fit.errors == [None, None]
        assert fit.md_fallbacks.tolist() == [0, 1]
        for r, data in enumerate((regular, degenerate)):
            np.testing.assert_allclose(fit.cov_beta[r], fit_wcls(data, spec).cov_beta, rtol=1e-12)


class TestErrors:
    def test_unobserved_declared_arm(self):
        data = make_dataset(
            trt=[[1], [0], [1], [0], [1], [0]],
            outcome=np.zeros((6, 1)),
            probs=(0.4, 0.3, 0.3),
        )
        with pytest.raises(DegenerateArmError, match="never observed"):
            fit_wcls(data, ModelSpec())

    def test_too_few_subjects(self):
        data = make_dataset(trt=[[1], [0]], outcome=np.zeros((2, 1)), probs=(0.5, 0.5))
        with pytest.raises(DataValidationError, match="subjects"):
            fit_wcls(data, EMPIRICAL)

    def test_missing_moderator_column(self):
        with pytest.raises(DataValidationError, match="moderator"):
            fit_wcls(toy_four_subjects(), ModelSpec(f_columns=("zzz",), numerator=NumeratorPolicy("empirical_per_t")))

    def test_window_longer_than_panel(self):
        with pytest.raises(DataValidationError, match="delta"):
            fit_wcls(toy_four_subjects(), ModelSpec(delta=5, numerator=NumeratorPolicy("empirical_per_t")))

    def test_invalid_correction_and_delta(self):
        with pytest.raises(DataValidationError):
            ModelSpec(correction="bootstrap")
        with pytest.raises(DataValidationError):
            ModelSpec(delta=0)

    def test_invalid_data_rejected_before_fitting(self):
        # an invalid dataset cannot be built, so it never reaches fit_wcls
        with pytest.raises(DataValidationError, match="^missing or non-finite outcome value$"):
            make_dataset(
                trt=[[1], [0], [1], [0]], outcome=[[np.inf], [0.0], [0.0], [0.0]], probs=(0.5, 0.5)
            )
