import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from mrtcat import (
    DataValidationError,
    FitResult,
    ModelSpec,
    NullContrastError,
    SingularSystemError,
    build_contrast,
    confidence_intervals,
    contrast_preset,
    fit_wcls,
    parse_contrast_text,
    wald_test,
)

from _factories import make_dataset
from _oracles import contrast_two_svds


def fake_fit(beta, cov, n=20, q=1, p=1, k_arms=None):
    beta = np.asarray(beta, dtype=float)
    cov = np.asarray(cov, dtype=float)
    if k_arms is None:
        k_arms = beta.size // p
    return FitResult(
        alpha_hat=np.zeros(q),
        beta_hat=beta,
        cov_beta=cov,
        n=n,
        t_points=5,
        k_arms=k_arms,
        p=p,
        q=q,
        residuals=np.zeros((n, 5)),
        delta=1,
        correction="none",
        md_fallbacks=0,
        numerator_table=np.full((5, k_arms + 1), 1.0 / (k_arms + 1)),
        f_names=("intercept",) * p,
        g_names=("intercept",) * q,
    )


class TestBuildContrast:
    def test_pairwise_lift_with_two_moderators(self):
        spec = build_contrast(np.array([[1.0, -1.0]]), p=2)
        expected = np.array([[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]])
        np.testing.assert_array_equal(spec.l_tilde, expected)
        assert spec.rank_l == 1

    def test_identity_lift(self):
        spec = build_contrast(np.eye(3), p=2)
        np.testing.assert_array_equal(spec.l_tilde, np.eye(6))
        assert spec.rank_l == 3

    def test_vector_promoted_to_row(self):
        spec = build_contrast(np.array([1.0, -1.0]), p=1)
        assert spec.l_matrix.shape == (1, 2)
        assert spec.rank_l == 1

    def test_arrays_are_read_only_copies(self):
        l_matrix = np.array([[1.0, -1.0]])
        spec = build_contrast(l_matrix, p=2)
        assert not np.shares_memory(spec.l_matrix, l_matrix)
        l_matrix[:] = [[1.0, 0.0]]
        np.testing.assert_array_equal(spec.l_matrix, [[1.0, -1.0]])
        assert spec.rank_l == 1
        for name in ("l_matrix", "l_tilde", "row_basis"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(spec, name)[0, 0] = 2.0

    def test_redundant_rows_counted_once(self):
        l = np.array([[1.0, -1.0], [-1.0, 1.0], [2.0, -2.0]])
        assert build_contrast(l, p=1).rank_l == 1

    def test_zero_matrix_rejected(self):
        with pytest.raises(NullContrastError):
            build_contrast(np.zeros((2, 2)), p=1)

    def test_non_finite_rejected(self):
        with pytest.raises(DataValidationError):
            build_contrast(np.array([[np.inf, 0.0]]), p=1)

    def test_overflowing_norm_rejected_as_too_large_not_zero(self):
        # finite entries whose singular values overflow to inf
        with pytest.raises(DataValidationError) as err:
            build_contrast(np.array([[1.5e308, -1.5e308]]), p=1)
        assert type(err.value) is DataValidationError
        assert str(err.value) == "contrast matrix entries are too large: its norm overflows"


#: A contrast entry: signed zeros, magnitudes from 1e-300 to 1e300, and
#: entries whose norm overflows.
CONTRAST_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1.5e308, -1.5e308, 1e308]),
    st.builds(
        lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
        st.sampled_from([1.0, -1.0]), st.floats(1.0, 9.99), st.integers(-300, 299),
    ),
)


@st.composite
def contrasts(draw):
    """An L of 1-3 rows and 1-4 columns, where a row may be a multiple of
    an earlier row (zero rows included), and p from 1 to 4."""
    cols = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        if rows and draw(st.booleans()):
            scale = draw(CONTRAST_ENTRIES)
            with np.errstate(all="ignore"):
                rows.append([scale * x for x in draw(st.sampled_from(rows))])
        else:
            rows.append(draw(st.lists(CONTRAST_ENTRIES, min_size=cols, max_size=cols)))
    return np.array(rows), draw(st.integers(1, 4))


class TestContrastOracle:
    """build_contrast takes rank(L) and the row basis from one SVD of
    L kron I_p; it gives the bytes, rank and errors of the np.kron and
    two-SVD reference."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(contrasts())
    def test_matches_two_svds(self, drawn):
        l_matrix, p = drawn
        try:
            expected = contrast_two_svds(l_matrix, p)
        except DataValidationError as exc:
            with pytest.raises(type(exc)) as err:
                build_contrast(l_matrix, p)
            assert type(err.value) is type(exc)
            assert str(err.value) == str(exc)
            return
        spec = build_contrast(l_matrix, p)
        l_tilde, rank, row_basis = expected
        assert spec.l_tilde.tobytes() == l_tilde.tobytes()
        assert spec.l_tilde.shape == l_tilde.shape
        assert spec.rank_l == rank
        assert spec.row_basis.shape == row_basis.shape
        assert spec.row_basis.tobytes() == row_basis.tobytes()


class TestPresets:
    def test_all_null(self):
        np.testing.assert_array_equal(contrast_preset("all-null", 3), np.eye(3))

    def test_pairwise(self):
        np.testing.assert_array_equal(contrast_preset("pairwise(1,2)", 3), [[1.0, -1.0, 0.0]])
        np.testing.assert_array_equal(contrast_preset("pairwise(3,1)", 3), [[-1.0, 0.0, 1.0]])

    def test_pairwise_rejects_bad_arms(self):
        for name in ("pairwise(1,1)", "pairwise(0,2)", "pairwise(1,4)"):
            with pytest.raises(DataValidationError):
                contrast_preset(name, 3)

    def test_unknown_preset(self):
        with pytest.raises(DataValidationError, match="preset"):
            contrast_preset("anova", 2)

    def test_parse_rows(self):
        mat = parse_contrast_text("1,-1; 0, 1", 2)
        np.testing.assert_array_equal(mat, [[1.0, -1.0], [0.0, 1.0]])

    def test_parse_preset_passthrough(self):
        np.testing.assert_array_equal(parse_contrast_text("all-null", 2), np.eye(2))

    def test_parse_errors(self):
        with pytest.raises(DataValidationError):
            parse_contrast_text("1,2,3", 2)
        with pytest.raises(DataValidationError):
            parse_contrast_text("1,x", 2)


class TestWaldTest:
    def test_null_coefficients_give_zero_statistic(self):
        fit = fake_fit([0.0, 0.0], np.eye(2))
        res = wald_test(fit, build_contrast(np.eye(2), p=1))
        assert res.statistic == 0.0
        assert res.p_value == pytest.approx(1.0)
        assert not res.reject

    def test_single_row_known_value(self):
        fit = fake_fit([2.0], [[4.0]], n=20, q=1)
        res = wald_test(fit, build_contrast(np.array([[1.0]]), p=1))
        assert res.statistic == pytest.approx(1.0, abs=1e-12)
        assert res.scaled_statistic == pytest.approx(1.0, abs=1e-12)
        assert (res.df1, res.df2) == (1, 18)
        assert res.p_value == pytest.approx(float(scipy.stats.f.sf(1.0, 1, 18)), abs=1e-10)

    def test_statistic_invariant_to_row_scaling(self):
        fit = fake_fit([0.9, 0.4], [[0.04, 0.01], [0.01, 0.05]])
        a = wald_test(fit, build_contrast(np.array([[1.0, -1.0]]), p=1))
        b = wald_test(fit, build_contrast(np.array([[5.0, -5.0]]), p=1))
        assert a.statistic == pytest.approx(b.statistic, rel=1e-12)
        assert a.p_value == pytest.approx(b.p_value, rel=1e-12)

    def test_statistic_invariant_to_invertible_row_mixing(self):
        rng = np.random.default_rng(4)
        fit = fake_fit([0.5, -0.2], [[0.09, 0.02], [0.02, 0.11]], n=35)
        l = np.eye(2)
        r = rng.normal(size=(2, 2)) + 2 * np.eye(2)
        a = wald_test(fit, build_contrast(l, p=1))
        b = wald_test(fit, build_contrast(r @ l, p=1))
        assert a.statistic == pytest.approx(b.statistic, rel=1e-8)
        assert a.df1 == b.df1
        assert a.p_value == pytest.approx(b.p_value, rel=1e-8)

    def test_redundant_rows_do_not_change_degrees_of_freedom(self):
        fit = fake_fit([0.9, 0.4], [[0.04, 0.01], [0.01, 0.05]])
        single = wald_test(fit, build_contrast(np.array([[1.0, -1.0]]), p=1))
        doubled = wald_test(fit, build_contrast(np.array([[1.0, -1.0], [2.0, -2.0]]), p=1))
        assert doubled.df1 == 1
        assert doubled.statistic == pytest.approx(single.statistic, rel=1e-10)
        assert doubled.p_value == pytest.approx(single.p_value, rel=1e-10)

    def test_rank_two_scaling_and_degrees_of_freedom(self):
        beta, cov = np.array([0.9, 0.4]), np.array([[0.04, 0.01], [0.01, 0.05]])
        n, q = 25, 2
        res = wald_test(fake_fit(beta, cov, n=n, q=q), build_contrast(np.eye(2), p=1))
        assert res.statistic == pytest.approx(beta @ np.linalg.solve(cov, beta), rel=1e-12)
        assert res.scaled_statistic == pytest.approx(res.statistic / 2, rel=1e-15)
        assert (res.df1, res.df2) == (2, n - q - 2)
        expected = float(scipy.stats.f.sf(res.scaled_statistic, 2, n - q - 2))
        assert res.p_value == pytest.approx(expected, rel=1e-10)

    def test_singular_contrasted_covariance_raises(self):
        fit = fake_fit([1.0, 0.4], np.zeros((2, 2)))
        with pytest.raises(SingularSystemError, match="^contrasted covariance is singular: "):
            wald_test(fit, build_contrast(np.array([[1.0, -1.0]]), p=1))

    def test_reject_agrees_with_p_value(self):
        for shift in (0.1, 0.5, 0.9, 1.4):
            fit = fake_fit([shift], [[0.04]], n=12, q=1)
            res = wald_test(fit, build_contrast(np.array([[1.0]]), p=1), eta=0.05)
            assert res.reject == (res.p_value < 0.05)

    def test_p_value_decreases_with_effect_size(self):
        c = build_contrast(np.array([[1.0]]), p=1)
        ps = [
            wald_test(fake_fit([b], [[0.09]]), c).p_value
            for b in (0.0, 0.2, 0.4, 0.8)
        ]
        assert all(b < a for a, b in zip(ps, ps[1:]))

    def test_moderated_contrast_spans_moderator_block(self):
        # K = 2 arms with p = 2 moderator terms each; pairwise contrast
        # should test both components of the arm difference
        beta = np.array([0.5, 0.1, 0.5, 0.1])
        fit = fake_fit(beta, np.diag([0.04, 0.02, 0.04, 0.02]), n=30, p=2)
        res = wald_test(fit, build_contrast(np.array([[1.0, -1.0]]), p=2))
        assert res.statistic == pytest.approx(0.0, abs=1e-12)
        assert res.df1 == 1

    def test_errors(self):
        fit = fake_fit([0.5, 0.2], np.eye(2))
        c = build_contrast(np.eye(2), p=1)
        with pytest.raises(DataValidationError, match="eta"):
            wald_test(fit, c, eta=1.5)
        small = fake_fit([0.5, 0.2], np.eye(2), n=5, q=2)
        with pytest.raises(DataValidationError, match="n > q"):
            wald_test(small, c)
        wide = build_contrast(np.eye(3), p=1)
        with pytest.raises(DataValidationError, match="coefficients"):
            wald_test(fit, wide)


class TestWaldOnRealFits:
    def test_scale_invariance_of_statistic(self):
        rng = np.random.default_rng(31)
        trt = rng.integers(0, 3, size=(12, 6))
        y = rng.normal(size=(12, 6)) + 0.5 * (trt == 1)
        base = make_dataset(trt=trt, outcome=y, probs=(0.5, 0.25, 0.25))
        scaled = make_dataset(trt=trt, outcome=4.0 * y, probs=(0.5, 0.25, 0.25))
        spec = ModelSpec()
        c = build_contrast(np.eye(2), p=1)
        a = wald_test(fit_wcls(base, spec), c)
        b = wald_test(fit_wcls(scaled, spec), c)
        assert a.statistic == pytest.approx(b.statistic, rel=1e-8)
        assert a.p_value == pytest.approx(b.p_value, rel=1e-8)


class TestConfidenceIntervals:
    def test_known_interval(self):
        fit = fake_fit([1.0, 2.0], np.diag([0.25, 1.0]), n=20, q=1)
        rows = confidence_intervals(fit, np.eye(2), level=0.95)
        t_crit = float(scipy.stats.t.ppf(0.975, 18))
        assert rows[0].estimate == 1.0
        assert rows[0].se == pytest.approx(0.5, abs=1e-12)
        assert rows[0].lower == pytest.approx(1.0 - 0.5 * t_crit, abs=1e-9)
        assert rows[0].upper == pytest.approx(1.0 + 0.5 * t_crit, abs=1e-9)
        assert rows[1].se == pytest.approx(1.0, abs=1e-12)

    def test_p_value_matches_squared_t(self):
        fit = fake_fit([1.0], [[0.25]], n=20, q=1)
        row = confidence_intervals(fit, [[1.0]])[0]
        assert row.p_value == pytest.approx(float(scipy.stats.f.sf(4.0, 1, 18)), abs=1e-10)

    def test_single_row_test_agrees_with_interval(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            beta = rng.normal(scale=0.4)
            se2 = rng.uniform(0.01, 0.2)
            fit = fake_fit([beta, 0.0], np.diag([se2, 1.0]), n=18, q=2)
            c = build_contrast(np.array([[1.0, 0.0]]), p=1)
            res = wald_test(fit, c, eta=0.1)
            row = confidence_intervals(fit, [[1.0, 0.0]], level=0.9)[0]
            excludes_zero = not (row.lower <= 0.0 <= row.upper)
            assert res.reject == excludes_zero

    def test_difference_row(self):
        fit = fake_fit([1.0, 0.4], [[0.25, 0.05], [0.05, 0.16]], n=20, q=1)
        row = confidence_intervals(fit, [[1.0, -1.0]])[0]
        assert row.estimate == pytest.approx(0.6)
        assert row.se == pytest.approx(np.sqrt(0.25 + 0.16 - 0.10), abs=1e-12)

    def test_zero_row_rejected(self):
        fit = fake_fit([1.0, 2.0], np.eye(2))
        with pytest.raises(NullContrastError):
            confidence_intervals(fit, [[0.0, 0.0]])

    def test_degenerate_se(self):
        fit = fake_fit([0.0, 1.0], np.zeros((2, 2)))
        rows = confidence_intervals(fit, np.eye(2))
        assert rows[0].p_value == 1.0
        assert rows[1].p_value == 0.0
        assert rows[1].lower == rows[1].upper == 1.0

    def test_errors(self):
        fit = fake_fit([1.0], [[1.0]], n=20, q=1)
        with pytest.raises(DataValidationError, match="level"):
            confidence_intervals(fit, [[1.0]], level=1.0)
        with pytest.raises(DataValidationError, match="entries"):
            confidence_intervals(fit, [[1.0, 0.0]])
        tiny = fake_fit([1.0], [[1.0]], n=3, q=1)
        with pytest.raises(DataValidationError, match="n > q"):
            confidence_intervals(tiny, [[1.0]])

    @settings(max_examples=50)
    @given(
        st.floats(-2.0, 2.0, allow_nan=False),
        st.floats(0.01, 4.0, allow_nan=False),
        st.integers(6, 60),
    )
    def test_interval_brackets_estimate(self, beta, var, n):
        fit = fake_fit([beta], [[var]], n=n, q=1)
        row = confidence_intervals(fit, [[1.0]])[0]
        assert row.lower < beta < row.upper
        assert row.upper - beta == pytest.approx(beta - row.lower, rel=1e-9)
