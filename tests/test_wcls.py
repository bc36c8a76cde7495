from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mrtcat.data
from mrtcat import (
    DataValidationError,
    DegenerateArmError,
    ModelSpec,
    MrtDataset,
    NumeratorPolicy,
    NumericalError,
    SingularSystemError,
    fit_wcls,
)
from mrtcat.numerics import solve_spd_stack
from mrtcat.wcls import (
    CORRECTIONS,
    LEVERAGE_TOL,
    _sandwich_core,
    _solve_certified,
    covariance_stack,
    fit_stack,
)

from _factories import make_dataset
from _oracles import (
    design_arrays,
    design_matrices_loops,
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
    """Weights and stacked design blocks from wcls.design_stack."""

    def test_matched_numerator_gives_unit_weights(self):
        rng = np.random.default_rng(0)
        data = make_dataset(
            trt=rng.integers(0, 3, size=(5, 4)),
            outcome=rng.normal(size=(5, 4)),
            probs=(0.4, 0.3, 0.3),
        )
        weights, d_full, _, _ = design_arrays(data, ModelSpec())
        assert weights.shape == (5, 4)
        assert d_full.shape[:2] == (5, 4)
        np.testing.assert_allclose(weights, 1.0, atol=1e-12)

    def test_unavailable_rows_retained_with_zero_weight(self):
        data = make_dataset(
            trt=[[1, 0], [0, 2]],
            outcome=np.zeros((2, 2)),
            avail=[[1, 0], [1, 1]],
        )
        weights, _, _, _ = design_arrays(data, ModelSpec())
        assert weights.shape == (2, 2)
        assert weights[0, 1] == 0.0

    def test_window_excludes_trailing_points(self):
        data = make_dataset(
            trt=np.zeros((3, 5), dtype=int),
            outcome=np.zeros((3, 5)),
            probs=(0.6, 0.4),
        )
        weights, d_full, outcome, t_used = design_arrays(data, ModelSpec(delta=2))
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
        weights, _, _, _ = design_arrays(data, ModelSpec(delta=2))
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
            weights, _, _, _ = design_arrays(data, ModelSpec(delta=delta))
            assert weights.shape == (6, 5 - delta + 1)
            table = numerator_table_loops(data, "match_randomization")
            np.testing.assert_allclose(weights, weight_loops(data, table, delta), atol=1e-12)

    @pytest.mark.parametrize("delta", [1, 3])
    def test_unavailable_point_weighs_zero_where_its_quotient_overflows(self, delta):
        # prob_0 = 5e-324 at every unavailable point, where arms 1 and 2
        # take the rest: ptilde_0 / prob_0 overflows to inf there, and
        # the point must still weigh an exact 0 (inf * I_t would be NaN),
        # so that the fit is bitwise the one with ordinary probabilities.
        rng = np.random.default_rng(12)
        n, t_points = 16, 8
        avail = (rng.random((n, t_points)) < 0.7).astype(np.int64)
        trt = rng.integers(0, 3, size=(n, t_points)) * avail
        probs = np.broadcast_to([0.4, 0.3, 0.3], (n, t_points, 3)).copy()
        tiny = probs.copy()
        tiny[avail == 0] = (5e-324, 0.5, 0.5)
        table = np.tile([0.4, 0.3, 0.3], (t_points, 1))
        spec = ModelSpec(g_columns=("z",), delta=delta,
                         numerator=NumeratorPolicy("user_supplied", table=table))
        fields = dict(trt=trt, outcome=rng.normal(size=(n, t_points)), avail=avail,
                      features={"z": rng.normal(size=(n, t_points))})
        with np.errstate(over="ignore"):
            assert np.isinf(np.float64(0.4) / 5e-324)
        plain = fit_wcls(make_dataset(probs=probs, **fields), spec)
        fit = fit_wcls(make_dataset(probs=tiny, **fields), spec)
        theta = np.concatenate([fit.alpha_hat, fit.beta_hat])
        assert theta.tobytes() == np.concatenate([plain.alpha_hat, plain.beta_hat]).tobytes()
        assert fit.cov_beta.tobytes() == plain.cov_beta.tobytes()
        assert fit.md_fallbacks == plain.md_fallbacks

    def test_row_blocks_are_control_then_centered_arms(self):
        data = make_dataset(
            trt=[[2]], outcome=[[1.0]], probs=(0.4, 0.3, 0.3),
            features={"z": [[5.0]]},
        )
        _, d_full, _, _ = design_arrays(data, ModelSpec(f_columns=("z",), g_columns=("z",)))
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
        weights, d_full, _, _ = design_arrays(data, spec)
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

    @staticmethod
    def numerator_gap(seed, g_columns, ptilde):
        """Relative change of beta_hat on a gm_ev panel (n = 60, T = 12,
        constant p) when match_randomization's numerator is replaced by a
        user_supplied table constant over t."""
        from mrtcat import GenerativeConfig, simulate_trial

        config = GenerativeConfig(
            family="gm_ev", t_points=12, rand_probs=(0.3, 0.25), tau_curve=np.full(12, 0.8),
            mee_coeffs=((0.2,), (0.1,)), theta_r=0.3, theta_s=0.2,
        )
        data = simulate_trial(config, n=60, seed=seed)
        table = np.tile([1.0 - sum(ptilde), *ptilde], (12, 1))
        betas = [
            fit_wcls(data, ModelSpec(f_columns=("time",), g_columns=g_columns,
                                     numerator=numerator)).beta_hat
            for numerator in (NumeratorPolicy(), NumeratorPolicy("user_supplied", table))
        ]
        return np.abs(betas[0] - betas[1]).max() / np.abs(betas[0]).max()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.05, 0.45), st.floats(0.05, 0.45))
    def test_constant_numerator_leaves_beta_alone_when_f_and_g_span_alike(self, seed, a, b):
        # Paper Step 5: with span(f) = span(g) = (1, time) and p and ptilde
        # constant over t, beta_hat does not depend on ptilde.
        assert self.numerator_gap(seed, ("time",), (a, b)) <= 1e-12

    def test_constant_numerator_moves_beta_when_g_is_wider(self):
        # the relation needs span(g) = span(f): with time2 in g it fails
        assert self.numerator_gap(3, ("time", "time2"), (0.2, 0.35)) > 1e-6

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


class TestCovarianceProduct:
    """cov = M^{-1} Sigma M^{-1} from one factorization of M, as two
    solve_spd_stack calls would give it, error for error: covariance_stack
    on _sandwich_core's sums."""

    @staticmethod
    def core(scores, m_sum):
        # one row per subject with unit weighted residual: the design
        # entries are the scores, and q = 0 makes M the whole gram matrix
        count, n, _ = scores.shape
        with np.errstate(over="ignore", invalid="ignore"):
            m, sigma, _ = _sandwich_core(
                scores.transpose(0, 2, 1)[..., None], np.ones((count, n, 1)),
                None, m_sum, None, 0, "none", [None] * count,
            )
        return covariance_stack(m, sigma)

    @staticmethod
    def two_solves(scores, m_sum):
        with np.errstate(over="ignore", invalid="ignore"):
            left = solve_spd_stack(m_sum, scores.transpose(0, 2, 1) @ scores)
            right = solve_spd_stack(m_sum, left.solution.transpose(0, 2, 1))
        cov = right.solution.transpose(0, 2, 1)
        errors = [a or b for a, b in zip(left.errors, right.errors)]
        return 0.5 * (cov + cov.transpose(0, 2, 1)), errors

    def test_bitwise_equal_to_two_solves(self):
        rng = np.random.default_rng(8)
        scores = rng.normal(size=(3, 9, 3))
        blocks = rng.normal(size=(3, 5, 3))
        m_sum = blocks.transpose(0, 2, 1) @ blocks
        cov, errors = self.core(scores, m_sum)
        expected, expected_errors = self.two_solves(scores, m_sum)
        assert errors == expected_errors == [None] * 3
        assert np.array_equal(cov, expected)

    def test_overflowing_first_solve_fails_its_replicate(self):
        # Sigma = 2e300 I is finite, M^{-1} Sigma = 2e310 is not: a second
        # solve_spd would reject it, and replicate 1 keeps that error.
        rng = np.random.default_rng(9)
        scores = rng.normal(size=(3, 4, 2))
        scores[1] = 1e150 * np.eye(2)[[0, 1, 0, 1]]
        m_sum = np.stack([np.eye(2) + 0.1, 1e-10 * np.eye(2), np.eye(2)])
        cov, errors = self.core(scores, m_sum)
        expected, expected_errors = self.two_solves(scores, m_sum)
        assert isinstance(errors[1], NumericalError)
        assert str(errors[1]) == str(expected_errors[1]) == "solve_spd requires finite entries"
        assert errors[0] is errors[2] is None
        assert np.array_equal(cov, expected)


def certified_flags(hat):
    """_solve_certified's flags for a (..., d, d) stack of S_i."""
    eye = np.eye(hat.shape[-1])
    return _solve_certified(eye - hat, np.zeros(hat.shape[:-1]))[1]


def oracle_hat(oracle):
    """S_i = L^{-1} M_i L^{-T} for every subject of a loop-oracle fit."""
    x, w = oracle["x"], oracle["w"]
    per_subject = np.einsum("ita,it,itb->iab", x, w, x)
    lower_inv = np.linalg.inv(np.linalg.cholesky(per_subject.sum(axis=0)))
    return lower_inv @ per_subject @ lower_inv.T


def screen_flags(oracle):
    """The certificate for every subject of a loop-oracle fit."""
    return certified_flags(oracle_hat(oracle))


class TestScreenPaths:
    """_sandwich_core against the eigendecomposition of every subject, on
    stacks the certificate clears whole, not at all, and in part."""

    @staticmethod
    def stack(replicates, n, dim, rows, share):
        rng = np.random.default_rng(11)
        design = rng.normal(size=(replicates, dim, n, rows))
        if share == "some":
            # in the even replicates subject 0 alone has the last column,
            # which puts one of its leverages at one
            design[::2, -1, 1:] = 0.0
        per_subject = np.einsum("rait,rbit->riab", design, design)
        gram = per_subject.sum(axis=1)
        normal_solve = solve_spd_stack(gram, np.zeros((replicates, dim)))
        return design, rng.normal(size=(replicates, n, rows)), per_subject, gram, normal_solve

    @staticmethod
    def eigh_everywhere(design, weighted_resid, per_subject, gram, normal_solve, q):
        lower, lower_inv = normal_solve.factor[:, None], normal_solve.factor_inv[:, None]
        leverage, basis = np.linalg.eigh(lower_inv @ per_subject @ lower_inv.swapaxes(-1, -2))
        singular = 1.0 - leverage <= LEVERAGE_TOL
        gain = 1.0 / np.where(singular, np.inf, 1.0 - leverage)
        scores = np.einsum("rait,rit->ria", design, weighted_resid)
        coords = basis.swapaxes(-1, -2) @ (lower_inv @ scores[..., None])
        beta_scores = (lower @ (basis @ (coords * gain[..., None])))[..., 0][..., q:]
        m_sum = gram[:, q:, q:]
        left = solve_spd_stack(m_sum, beta_scores.transpose(0, 2, 1) @ beta_scores)
        cov = solve_spd_stack(m_sum, left.solution.transpose(0, 2, 1)).solution
        cov = cov.transpose(0, 2, 1)
        return 0.5 * (cov + cov.transpose(0, 2, 1)), singular.any(axis=2).sum(axis=1)

    @pytest.mark.parametrize(
        "n, dim, rows, share",
        [(20, 4, 30, "all"), (5, 5, 1, "none"), (7, 6, 1, "some")],
    )
    def test_matches_eigh_everywhere(self, n, dim, rows, share):
        # one row per subject and n = dim puts every leverage at one
        args = self.stack(8, n, dim, rows, share)
        lower_inv = args[4].factor_inv[:, None]
        hat = lower_inv @ args[2] @ lower_inv.swapaxes(-1, -2)
        certified = certified_flags(hat)
        assert {"all": certified.all(), "none": not certified.any()}.get(
            share, certified.any() and not certified.all()
        )
        gaps = np.linalg.eigvalsh(np.eye(dim) - hat).min(axis=-1)
        assert np.array_equal(certified, gaps > 2.0 * LEVERAGE_TOL)
        m, sigma, fallbacks = _sandwich_core(*args, 2, "mancl_derouen", [None] * 8)
        cov, errors = covariance_stack(m, sigma)
        expected, expected_fallbacks = self.eigh_everywhere(*args, 2)
        assert errors == [None] * 8
        assert np.array_equal(fallbacks, expected_fallbacks)
        if share == "none":
            assert np.array_equal(cov, expected)
        # a certified subject's solve and eigh differ by rounding of about
        # eps / lambda_min(I - S_i)
        for r in range(8):
            gap = gaps[r][certified[r]].min(initial=1.0)
            rtol = max(1e-12, 16 * np.finfo(float).eps / gap)
            np.testing.assert_allclose(cov[r], expected[r], rtol=rtol, atol=0.0)


class TestSolveDominant:
    """_solve_certified's solve against a pivoted LU on symmetric positive
    definite stacks whose smallest eigenvalue is just above the margin
    or far from it."""

    @pytest.mark.parametrize("dim", range(1, 7))
    @pytest.mark.parametrize("margin", [0.5, 1e-2, 1e-4, 1e-6, 2.2 * LEVERAGE_TOL])
    def test_matches_pivoted_solve(self, dim, margin):
        # I - S = Q diag(gaps) Q' with gaps in [margin, 1], the first one
        # margin, so that cond = 1 / margin up to the spread of the rest
        rng = np.random.default_rng(dim)
        basis = np.linalg.qr(rng.normal(size=(4, 5, dim, dim)))[0]
        gaps = rng.uniform(margin, 1.0, (4, 5, dim))
        gaps[..., 0] = margin
        gap = (basis * gaps[..., None, :]) @ basis.swapaxes(-1, -2)
        rhs = rng.normal(size=(4, 5, dim))
        got, certified = _solve_certified(gap.copy(), rhs.copy())
        assert certified.all()
        want = np.linalg.solve(gap, rhs[..., None])[..., 0]
        cond = np.linalg.cond(gap, np.inf)
        error = np.abs(got - want).max(axis=-1) / np.abs(want).max(axis=-1)
        assert (error <= 4 * dim * np.finfo(float).eps * cond).all()


def near_unit_leverage_panel(scale, decoupled=False):
    """A 12 x 6 panel whose subject 0 nearly fixes the s0 coefficient
    alone: the other subjects' s0 is scale times noise, so that subject's
    largest leverage is 1 - O(scale^2).  Its s0 is W-orthogonal to its
    intercept and arm columns, which keeps that direction out of the
    beta scores and the covariance well conditioned.

    Without decoupled, the s0 row of subject 0's S_0 holds entries of
    order scale against a margin of order scale^2: a Gershgorin bound
    would refuse that subject from 1 - h = 5.0e-3 (scale 0.01) down,
    while the exact certificate clears it to 1 - h of about 2e-8, as it
    does with decoupled.  With it, every subject's s0 is W-orthogonal to
    its own intercept and arm columns, so the s0 direction is apart from
    the others in B and in every S_i."""
    rng = np.random.default_rng(2)
    n, t_points = 12, 6
    trt = rng.integers(0, 3, size=(n, t_points))
    outcome = rng.normal(size=(n, t_points))
    s0 = scale * rng.normal(size=(n, t_points))
    # unit weights and ptilde = (0.4, 0.3, 0.3) under match_randomization
    complements = [
        np.linalg.svd(np.vstack([np.ones(t_points), (arms == 1) - 0.3, (arms == 2) - 0.3]))[2][3:]
        for arms in trt
    ]
    if decoupled:
        for i in range(1, n):
            s0[i] = complements[i].T @ (complements[i] @ s0[i])
    s0[0] = complements[0][-1]
    return make_dataset(trt=trt, outcome=outcome, probs=(0.4, 0.3, 0.3), features={"s0": s0})


def extended_md_covariance(data, digits=50):
    """The Mancl-DeRouen sandwich of ModelSpec(g_columns=("s0",)) on
    data, in digits-digit arithmetic from the float64 panel: the fit,
    the residuals, each subject's (I - H_i)^{-1} e_i by an LU solve of
    the T x T system, and M^{-1} Sigma M^{-1}."""
    table = numerator_table_loops(data, "match_randomization")
    x, y, _, q = design_matrices_loops(data, table, (), ("s0",), 1)
    w = weight_loops(data, table, 1)
    n, t_used, dim = x.shape
    with mpmath.workdps(digits):
        xs = [mpmath.matrix(x[i].tolist()) for i in range(n)]
        ws = [mpmath.diag(w[i].tolist()) for i in range(n)]
        ys = [mpmath.matrix(y[i].tolist()) for i in range(n)]
        normal, rhs = mpmath.zeros(dim, dim), mpmath.zeros(dim, 1)
        for x_i, w_i, y_i in zip(xs, ws, ys):
            normal += x_i.T * w_i * x_i
            rhs += x_i.T * w_i * y_i
        theta = mpmath.lu_solve(normal, rhs)
        normal_inv = mpmath.inverse(normal)
        sigma, m_sum = mpmath.zeros(dim - q, dim - q), mpmath.zeros(dim - q, dim - q)
        for x_i, w_i, y_i in zip(xs, ws, ys):
            gap = mpmath.eye(t_used) - x_i * normal_inv * x_i.T * w_i
            adjusted = mpmath.lu_solve(gap, y_i - x_i * theta)
            d_beta = x_i[:, q:]
            score = d_beta.T * w_i * adjusted
            sigma += score * score.T
            m_sum += d_beta.T * w_i * d_beta
        m_inv = mpmath.inverse(m_sum)
        return np.array((m_inv * sigma * m_inv).tolist(), dtype=float)


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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.floats(0.0, 5.0))
    def test_screen_certifies_no_leverage_near_one(self, seed, dim, spread):
        # Subjects whose blocks differ in scale by up to 1e10 have
        # leverages from about 0 to within 1e-10 of one.  A subject is
        # certified exactly when lambda_min(I - S_i) > 2 * LEVERAGE_TOL,
        # except within a band of 100 * eps around the margin, where the
        # rounding of S_i and of eigvalsh may decide either way.
        rng = np.random.default_rng(seed)
        n = dim + 2
        blocks = rng.normal(size=(n, 3, dim)) * 10.0 ** rng.uniform(-spread, spread, (n, 1, 1))
        per_subject = blocks.transpose(0, 2, 1) @ blocks
        lower_inv = np.linalg.inv(np.linalg.cholesky(per_subject.sum(axis=0)))
        hat = lower_inv @ per_subject @ lower_inv.T
        gaps = np.linalg.eigvalsh(np.eye(dim) - hat).min(axis=-1)
        clear = np.abs(gaps - 2.0 * LEVERAGE_TOL) > 100 * np.finfo(float).eps
        assert np.array_equal(certified_flags(hat)[clear], gaps[clear] > 2.0 * LEVERAGE_TOL)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "entry", [(0, 0), (2, 2), (0, 1), (2, 0), (1, 1), (1, 0), (0, 2), (1, 2), (2, 1)]
    )
    def test_screen_never_certifies_a_non_finite_block(self, value, entry):
        # An (R, n) stack of certified blocks 0.1 I with one non-finite
        # entry in subject (1, 1): that subject alone is not certified,
        # although an infinite diagonal entry can leave its pivots positive.
        hat = np.tile(0.1 * np.eye(3), (2, 3, 1, 1))
        hat[1, 1][entry] = value
        expected = np.ones((2, 3), dtype=bool)
        expected[1, 1] = False
        with np.errstate(invalid="ignore"):  # inf - inf, as inside fit_stack
            assert np.array_equal(certified_flags(hat), expected)

    @pytest.mark.parametrize("decoupled", [False, True])
    @pytest.mark.parametrize("scale", [0.02, 0.01, 1e-3, 1e-4, 2.6e-5, 1.8e-5, 1e-5])
    def test_certificate_is_the_eigenvalue_condition(self, scale, decoupled):
        # every subject is certified exactly when lambda_min(I - S_i) >
        # 2 * LEVERAGE_TOL, coupled to the others or not
        data = near_unit_leverage_panel(scale, decoupled)
        table = numerator_table_loops(data, "match_randomization")
        hat = oracle_hat(wcls_fit_loops(data, table, (), ("s0",), delta=1))
        gaps = np.linalg.eigvalsh(np.eye(hat.shape[-1]) - hat).min(axis=-1)
        flags = certified_flags(hat)
        assert np.array_equal(flags, gaps > 2.0 * LEVERAGE_TOL)
        assert flags[0] == (scale >= 2.6e-5)

    def test_leverage_just_below_tolerance_margin_takes_eigh(self):
        data = near_unit_leverage_panel(1.72e-5)
        table = numerator_table_loops(data, "match_randomization")
        oracle = wcls_fit_loops(data, table, (), ("s0",), delta=1)
        gap = 1.0 - max_leverage_loops(oracle)
        assert LEVERAGE_TOL < gap < 2.0 * LEVERAGE_TOL
        flags = screen_flags(oracle)
        assert not flags[0] and flags[1:].any()
        fit = fit_wcls(data, ModelSpec(g_columns=("s0",)))
        assert fit.md_fallbacks == 0
        expected, dropped = pinv_sandwich_loops(oracle, LEVERAGE_TOL)
        assert dropped == 0
        direct = sandwich_loops(oracle, "mancl_derouen")
        np.testing.assert_allclose(
            fit.cov_beta, direct, rtol=0.0, atol=1e-10 * np.abs(direct).max()
        )
        # The pseudo-inverse oracle solves the 6 x 6 I - P_0, whose smallest
        # eigenvalue is 1 - h, to a relative error of about eps / (1 - h).
        np.testing.assert_allclose(
            fit.cov_beta, expected, rtol=0.0,
            atol=np.finfo(float).eps / gap * np.abs(expected).max(),
        )

    def test_pseudo_inverse_oracle_near_unit_leverage_in_extended_precision(self):
        # Subject 0 keeps a leverage with 1 - h = 1.5e-8, so the oracle
        # solves its I - P_0 directly, which a backward stable solve does
        # to about eps / (1 - h) (measured: 4.0e-14 relative).
        data = near_unit_leverage_panel(1.72e-5)
        table = numerator_table_loops(data, "match_randomization")
        oracle = wcls_fit_loops(data, table, (), ("s0",), delta=1)
        gap = 1.0 - max_leverage_loops(oracle)
        assert LEVERAGE_TOL < gap < 2.0 * LEVERAGE_TOL
        got, dropped = pinv_sandwich_loops(oracle, LEVERAGE_TOL)
        assert dropped == 0
        expected = extended_md_covariance(data)
        np.testing.assert_allclose(
            got, expected, rtol=0.0, atol=np.finfo(float).eps / gap * np.abs(expected).max()
        )

    @pytest.mark.parametrize("scale", [1.8e-3, 1e-4, 2.6e-5])
    def test_certified_subject_near_unit_leverage_in_extended_precision(self, scale):
        # 1 - h is about 1e-4, 3.2e-7 and 2.1e-8, the last just above the
        # margin 2 * LEVERAGE_TOL below which subject 0 is not certified.
        # The amplified s0 direction leaves the beta scores in exact
        # arithmetic, so what remains of it is rounding of relative size
        # eps / (1 - h) at most.
        data = near_unit_leverage_panel(scale, decoupled=True)
        table = numerator_table_loops(data, "match_randomization")
        oracle = wcls_fit_loops(data, table, (), ("s0",), delta=1)
        gap = 1.0 - max_leverage_loops(oracle)
        assert 2.0 * LEVERAGE_TOL < gap < 2e-4
        assert screen_flags(oracle).all()
        fit = fit_wcls(data, ModelSpec(g_columns=("s0",)))
        assert fit.md_fallbacks == 0
        expected = extended_md_covariance(data)
        np.testing.assert_allclose(
            fit.cov_beta, expected, rtol=0.0,
            atol=np.finfo(float).eps / gap * np.abs(expected).max(),
        )

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
        cov, (error,) = covariance_stack(fit.m[r : r + 1], fit.sigma[r : r + 1])
        assert error is None
        np.testing.assert_allclose(cov[0], alone.cov_beta, rtol=1e-12)
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
        # The fallback subject of TestHatMatrixCorrection next to a panel
        # the screen certifies whole, one whose subject 0 it leaves to eigh
        # with 1 - h within twice the tolerance, and a singular panel: only
        # the fallback's own panel counts one.
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
        near = near_unit_leverage_panel(1.72e-5)
        singular = altered(regular, features={"s0": np.ones((n, t_points))})
        spec = ModelSpec(g_columns=("s0",))
        for data, certified in ((regular, True), (near, False)):
            table = numerator_table_loops(data, "match_randomization")
            flags = screen_flags(wcls_fit_loops(data, table, (), ("s0",), delta=1))
            assert flags[1:].all() and flags[0] == certified
        datasets = [regular, near, singular, degenerate]
        fit = fit_panels(datasets, spec)
        with pytest.raises(SingularSystemError) as alone:
            fit_wcls(singular, spec)
        assert str(fit.errors[2]) == str(alone.value)
        assert fit.md_fallbacks[[0, 1, 3]].tolist() == [0, 0, 1]
        for r in (0, 1, 3):
            self.assert_matches_alone(fit, r, datasets[r], spec)


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


def full_storage(**arrays) -> MrtDataset:
    """An MrtDataset that keeps its probabilities as a full (n, T, K+1)
    copy, as it did before shared tables were stored once."""
    with mock.patch.object(mrtcat.data, "_copy_probs", np.array):
        return MrtDataset(**arrays)


def built(make, arrays):
    """make(**arrays), or the message of the DataValidationError it raises."""
    try:
        return make(**arrays)
    except DataValidationError as exc:
        return str(exc)


def fit_bytes(data, spec):
    """fit_wcls's result as bytes, or the type and message of its error."""
    try:
        fit = fit_wcls(data, spec)
    except (DataValidationError, NumericalError) as exc:
        return type(exc), str(exc)
    arrays = (fit.alpha_hat, fit.beta_hat, fit.cov_beta, fit.residuals, fit.numerator_table)
    return [a.tobytes() for a in arrays], fit.md_fallbacks


@st.composite
def shared_prob_panels(draw):
    """MrtDataset arguments of a small panel whose probabilities are one
    (T, K+1) table broadcast over the subjects, sometimes with a flaw
    that validate reports."""
    k_arms, t_points = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    n = draw(st.integers(k_arms + 3, k_arms + 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.uniform(0.05, 1.0, (t_points, k_arms + 1))
    table /= table.sum(axis=1, keepdims=True)
    t, k = rng.integers(t_points), rng.integers(k_arms + 1)
    flaw = draw(st.sampled_from([None] * 6 + ["zero", "negative", "sum", "nan"]))
    if flaw == "zero":
        table[t, k] = 0.0
        table[t] /= table[t].sum()
    elif flaw == "negative":
        table[t, k] = -table[t, k]
    elif flaw == "sum":
        table[t, k] += 1e-6
    elif flaw == "nan":
        table[t, k] = np.nan
    avail = (rng.random((n, t_points)) < 0.8).astype(np.int64)
    return dict(
        subject_ids=tuple(f"s{i}" for i in range(n)),
        avail=avail,
        trt=rng.integers(0, k_arms + 1, (n, t_points)) * avail,
        probs=np.broadcast_to(table, (n, t_points, k_arms + 1)),
        outcome=rng.normal(size=(n, t_points)),
        features={"z": rng.normal(size=(n, t_points))},
        k_arms=k_arms,
    )


class TestStoredProbs:
    """A dataset that stores its shared probabilities once validates and
    fits bitwise as one that stores all n copies."""

    @settings(max_examples=120, deadline=None)
    @given(shared_prob_panels(), st.sampled_from((1, 2)), st.sampled_from(CORRECTIONS))
    def test_shared_and_full_storage_agree_bitwise(self, arrays, delta, correction):
        shared, full = built(MrtDataset, arrays), built(full_storage, arrays)
        if isinstance(shared, str):
            assert shared == full
            return
        assert shared.probs.strides[0] == 0 and full.probs.strides[0] != 0
        assert (shared.probs.shape, shared.probs.dtype, shared.probs.tobytes()) == (
            full.probs.shape, full.probs.dtype, full.probs.tobytes()
        )
        assert mrtcat.data.validate(shared) == mrtcat.data.validate(full) == ()
        width = shared.k_arms + 1
        user = np.full((shared.t_points, width), 1.0 / width)
        for policy in (
            NumeratorPolicy("match_randomization"),
            NumeratorPolicy("empirical_per_t"),
            NumeratorPolicy("empirical_pooled"),
            NumeratorPolicy("user_supplied", table=user),
        ):
            spec = ModelSpec(g_columns=("z",), delta=delta, numerator=policy,
                             correction=correction)
            assert fit_bytes(shared, spec) == fit_bytes(full, spec)

    @pytest.mark.parametrize(
        "change,kind",
        [
            ("ulp", "match_randomization"),
            ("negative_zero", "match_randomization"),
            ("ulp", "user_supplied"),
            ("negative_zero", "user_supplied"),
            ("varies", "user_supplied"),
        ],
    )
    @pytest.mark.parametrize("correction", CORRECTIONS)
    def test_subject_that_differs_bitwise_matches_loop_oracle(self, change, kind, correction):
        rng = np.random.default_rng(29)
        n, t_points = 12, 4
        avail = (rng.random((n, t_points)) < 0.85).astype(np.int64)
        avail[:3] = 1
        trt = rng.integers(0, 3, size=(n, t_points)) * avail
        trt[:3] = np.arange(3)[:, None]
        probs = np.broadcast_to([0.5, 0.25, 0.25], (n, t_points, 3)).copy()
        # arm 2 has probability zero at t = 2, where no subject takes it
        probs[:, 1] = [0.5, 0.5, 0.0]
        trt[:, 1] = np.minimum(trt[:, 1], 1)
        if change == "ulp":
            probs[5, 2, 1] = np.nextafter(0.25, 1.0)
        elif change == "negative_zero":
            probs[5, 1, 2] = -0.0
        else:
            probs[5, [0, 2, 3]] = [0.6, 0.2, 0.2]
        data = make_dataset(
            trt=trt, outcome=rng.normal(size=(n, t_points)), avail=avail, probs=probs,
            features={"z": rng.normal(size=(n, t_points))},
        )
        assert data.probs.strides[0] != 0
        assert data.probs.tobytes() == probs.tobytes()
        if kind == "user_supplied":
            ptilde = np.tile([0.5, 0.3, 0.2], (t_points, 1))  # sums to 1 exactly
            policy = NumeratorPolicy(kind, table=ptilde)
        else:
            ptilde = numerator_table_loops(data, kind)
            policy = NumeratorPolicy(kind)
        spec = ModelSpec(f_columns=("z",), g_columns=("z",), numerator=policy,
                         correction=correction)
        fit = fit_wcls(data, spec)
        np.testing.assert_array_equal(fit.numerator_table, ptilde)
        oracle = wcls_fit_loops(data, ptilde, ("z",), ("z",), 1)
        weights, _, _, _ = design_arrays(data, spec)
        np.testing.assert_array_equal(weights, oracle["w"])
        np.testing.assert_allclose(fit.alpha_hat, oracle["alpha"], atol=1e-10)
        np.testing.assert_allclose(fit.beta_hat, oracle["beta"], atol=1e-10)
        np.testing.assert_allclose(fit.cov_beta, sandwich_loops(oracle, correction), atol=1e-10)
