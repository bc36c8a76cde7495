import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from mrtcat import (
    ConvergenceError,
    NumericalError,
    SingularSystemError,
    build_contrast,
    f_cdf,
    f_quantile,
    noncentral_f_cdf,
    solve_spd,
)
from mrtcat.numerics import apply_spd_inverse, solve_spd_stack

from _oracles import kron_loops, quad_reg_inc_beta


class TestKron:
    """The coefficient-space contrast L_tilde = L kron I_p."""

    def test_row_vector_with_identity(self):
        out = build_contrast(np.array([[1.0, -1.0]]), 2).l_tilde
        expected = np.array([[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]])
        np.testing.assert_array_equal(out, expected)

    def test_identity_left_factor(self):
        out = build_contrast(np.eye(2), 3).l_tilde
        np.testing.assert_array_equal(out, np.eye(6))

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            l_matrix = rng.normal(size=(rng.integers(1, 4), rng.integers(1, 4)))
            p = int(rng.integers(1, 4))
            np.testing.assert_allclose(
                build_contrast(l_matrix, p).l_tilde,
                kron_loops(l_matrix, np.eye(p)),
                atol=1e-14,
            )

    @given(st.one_of(st.floats(-5, -1e-3), st.floats(1e-3, 5)))
    def test_bilinearity_in_scalars(self, s):
        l_matrix = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(
            build_contrast(s * l_matrix, 2).l_tilde,
            s * build_contrast(l_matrix, 2).l_tilde,
            atol=1e-10,
        )


class TestSolveSpd:
    def test_identity_system(self):
        report = solve_spd(np.eye(3), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(report.solution, [1.0, 2.0, 3.0])
        assert report.condition_estimate >= 1.0

    def test_diagonal_system(self):
        report = solve_spd(np.diag([2.0, 4.0]), np.array([2.0, 2.0]))
        np.testing.assert_allclose(report.solution, [1.0, 0.5])

    def test_random_spd_residual(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            m = rng.normal(size=(6, 6))
            a = m @ m.T + 6 * np.eye(6)
            rhs = rng.normal(size=(6, 2))
            sol = solve_spd(a, rhs).solution
            assert np.max(np.abs(a @ sol - rhs)) < 1e-10

    def test_matrix_rhs_matches_vector_columns(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(4, 4))
        a = m @ m.T + 4 * np.eye(4)
        rhs = rng.normal(size=(4, 3))
        block = solve_spd(a, rhs).solution
        for j in range(3):
            np.testing.assert_allclose(block[:, j], solve_spd(a, rhs[:, j]).solution)

    def test_singular_matrix_raises(self):
        with pytest.raises(SingularSystemError):
            solve_spd(np.ones((3, 3)), np.ones(3))

    def test_ill_conditioned_raises(self):
        a = np.diag([1.0, 1e-15])
        with pytest.raises(SingularSystemError):
            solve_spd(a, np.ones(2))

    def test_non_finite_raises(self):
        a = np.eye(2)
        a[0, 0] = np.nan
        with pytest.raises(NumericalError):
            solve_spd(a, np.ones(2))

    def test_indefinite_raises(self):
        with pytest.raises(NumericalError):
            solve_spd(np.array([[1.0, 0.0], [0.0, -1.0]]), np.ones(2))


class TestSolveSpdStack:
    """solve_spd_stack: one error slot per slice, failures kept to their slice."""

    def test_each_slice_matches_solve_spd(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(3, 3))
        good = m @ m.T + 3 * np.eye(3)
        nan = np.eye(3)
        nan[1, 1] = np.nan
        stack = np.stack(
            [
                good,
                np.ones((3, 3)),  # not positive definite
                nan,
                np.diag([1.0, 1.0, 1e-15]),  # ill-conditioned
                good + np.eye(3),
            ]
        )
        rhs = rng.normal(size=(5, 3))
        result = solve_spd_stack(stack, rhs)
        for i in range(5):
            try:
                want = solve_spd(stack[i], rhs[i]).solution
            except NumericalError as exc:
                assert type(result.errors[i]) is type(exc)
                assert str(result.errors[i]) == str(exc)
            else:
                assert result.errors[i] is None
                np.testing.assert_allclose(result.solution[i], want, rtol=1e-14)
        assert [e is None for e in result.errors] == [True, False, False, False, True]

    def test_matrix_right_hand_sides(self):
        rng = np.random.default_rng(6)
        m = rng.normal(size=(2, 4, 4))
        a = m @ m.transpose(0, 2, 1) + 4 * np.eye(4)
        rhs = rng.normal(size=(2, 4, 3))
        result = solve_spd_stack(a, rhs)
        np.testing.assert_allclose(a @ result.solution, rhs, atol=1e-12)
        np.testing.assert_allclose(result.inverse, np.linalg.inv(a), rtol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_condition_is_the_norm_formula(self, seed, dim):
        # bitwise ||a||_1 ||a^{-1}||_1 by np.linalg.norm, on a stack with a
        # NaN, an infinite, an indefinite, a singular and a nearly singular
        # slice among SPD ones of widely spread scale; a non-finite slice is
        # factored as the identity.  Cholesky reads only the lower triangle,
        # so a slice with a different upper one tells column sums from rows.
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(9, dim, dim)) * 10.0 ** rng.uniform(-8, 8, (9, 1, 1))
        a = m @ m.transpose(0, 2, 1)
        a[0, 0, -1] = np.nan
        a[1, -1, 0] = np.inf
        a[2] = -a[2]
        a[3] = np.outer(m[3, 0], m[3, 0])
        a[4, -1, -1] *= 1e-14
        a[5] += np.triu(rng.normal(size=(dim, dim)), 1) * np.abs(a[5]).max()
        with np.errstate(over="ignore", invalid="ignore"):
            stack = solve_spd_stack(a, rng.normal(size=(9, dim)))
        finite = np.isfinite(a).all(axis=(1, 2))
        used = np.where(finite[:, None, None], a, np.eye(dim))
        slices = (-2, -1)
        expected = np.linalg.norm(used, 1, slices) * np.linalg.norm(stack.inverse, 1, slices)
        assert stack.condition.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("vector", [True, False])
    def test_apply_inverse_is_a_second_solve(self, vector):
        # bitwise solve_spd_stack on the same matrices, error for error,
        # for a finite, an infinite and a NaN right-hand side
        rng = np.random.default_rng(7)
        m = rng.normal(size=(3, 4, 4))
        a = m @ m.transpose(0, 2, 1) + 4 * np.eye(4)
        rhs = rng.normal(size=(3, 4) if vector else (3, 4, 2))
        rhs[1, 0], rhs[2, 3] = np.inf, np.nan
        stack = solve_spd_stack(a, rng.normal(size=(3, 4)))
        solution, errors = apply_spd_inverse(stack, rhs)
        expected = solve_spd_stack(a, rhs)
        assert [str(e) for e in errors] == [str(e) for e in expected.errors]
        assert errors[0] is None and isinstance(errors[1], NumericalError)
        assert np.array_equal(solution[0], expected.solution[0])
        assert solution.shape == rhs.shape and not solution[1:].any()


def _f_point(a: float, b: float, y: float) -> tuple[float, float, float]:
    """(d1, d2, x) with f_cdf(d1, d2, x) = I_y(a, b): d1 = 2a, d2 = 2b and
    y = d1 x / (d1 x + d2)."""
    d1, d2 = 2.0 * a, 2.0 * b
    return d1, d2, d2 * y / (d1 * (1.0 - y))


class TestRegIncBeta:
    """f_cdf as the regularized incomplete beta I_y(d1/2, d2/2)."""

    def test_uniform_case_is_identity(self):
        assert f_cdf(*_f_point(1.0, 1.0, 0.37)) == pytest.approx(0.37, abs=1e-14)

    def test_symmetric_midpoint(self):
        assert f_cdf(*_f_point(2.5, 2.5, 0.5)) == pytest.approx(0.5, abs=1e-13)

    def test_endpoints(self):
        assert f_cdf(6.0, 8.0, 0.0) == 0.0
        assert f_cdf(6.0, 8.0, float("inf")) == 1.0

    def test_against_quadrature_oracle(self):
        assert f_cdf(*_f_point(2.0, 5.0, 0.3)) == pytest.approx(
            quad_reg_inc_beta(2.0, 5.0, 0.3), abs=1e-10
        )

    def test_against_quadrature_grid(self):
        # Shapes below 1 put an integrable singularity in the quadrature
        # oracle's integrand; TestFCdf covers d1 = 1 against scipy.stats.
        for a in (1.0, 2.0, 7.5, 45.5):
            for b in (1.5, 3.0, 20.0):
                for y in (0.01, 0.2, 0.5, 0.8, 0.99):
                    assert f_cdf(*_f_point(a, b, y)) == pytest.approx(
                        quad_reg_inc_beta(a, b, y), abs=1e-12
                    )

    @settings(max_examples=200)
    @given(
        st.floats(1.0, 100.0, allow_nan=False),
        st.floats(1.0, 100.0, allow_nan=False),
        st.floats(0.01, 100.0, allow_nan=False),
    )
    def test_reflection_identity(self, d1, d2, x):
        total = f_cdf(d1, d2, x) + f_cdf(d2, d1, 1.0 / x)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            f_cdf(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            f_cdf(1.0, -1.0, 0.5)
        with pytest.raises(ValueError):
            f_cdf(1.0, 1.0, float("nan"))


class TestFCdf:
    def test_against_scipy(self):
        for d1 in (1.0, 2.0, 5.0, 91.0):
            for d2 in (1.0, 10.0, 91.0):
                for x in (0.1, 1.0, 3.5):
                    assert f_cdf(d1, d2, x) == pytest.approx(
                        float(scipy.stats.f.cdf(x, d1, d2)), abs=1e-12
                    )

    def test_zero_and_negative(self):
        assert f_cdf(3.0, 7.0, 0.0) == 0.0
        assert f_cdf(3.0, 7.0, -1.0) == 0.0

    @settings(max_examples=60)
    @given(st.floats(0.1, 10.0), st.floats(0.1, 10.0))
    def test_monotone_in_x(self, x1, x2):
        lo, hi = sorted((x1, x2))
        assert f_cdf(4.0, 9.0, lo) <= f_cdf(4.0, 9.0, hi) + 1e-15


class TestFQuantile:
    def test_equal_df_median_is_one(self):
        assert f_quantile(7.0, 7.0, 0.5) == pytest.approx(1.0, abs=1e-10)

    def test_round_trip_modest(self):
        x = f_quantile(3.0, 10.0, 0.9)
        assert f_cdf(3.0, 10.0, x) == pytest.approx(0.9, abs=1e-9)

    def test_round_trip_grid(self):
        for d1 in (1.0, 2.0, 5.0, 50.0):
            for d2 in (1.0, 2.0, 5.0, 50.0):
                for p in (0.01, 0.5, 0.95, 0.999):
                    x = f_quantile(d1, d2, p)
                    assert f_cdf(d1, d2, x) == pytest.approx(p, abs=1e-8)

    def test_against_scipy(self):
        assert f_quantile(1.0, 91.0, 0.95) == pytest.approx(
            float(scipy.stats.f.ppf(0.95, 1, 91)), abs=1e-9
        )

    def test_zero_probability(self):
        assert f_quantile(2.0, 8.0, 0.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            f_quantile(2.0, 8.0, 1.0)
        with pytest.raises(ValueError):
            f_quantile(0.0, 8.0, 0.5)

    def test_kernel_nan_raises_instead_of_leaking(self):
        with pytest.raises(ConvergenceError, match="fdtri"):
            f_quantile(10.0, 1000.0, 1e-300)

    @pytest.mark.parametrize("d1", [1, 2, 3, 4])
    def test_against_extended_precision(self, d1):
        # The critical values of the Wald tests and the interval quantile:
        # x = f_quantile(d1, d2, p) solves F(x) = p to within 2e-14
        # relative.  The error is taken to first order from a 40-digit
        # residual, (F(x) - p) / (x F'(x)), with F(x) the regularized
        # incomplete beta function at u = d1 x / (d1 x + d2).
        worst = 0.0
        with mpmath.workdps(40):
            a = mpmath.mpf(d1) / 2
            for d2 in (5, 10, 30, 91, 100, 1e3, 1e4, 99_996):
                b = mpmath.mpf(d2) / 2
                for p in (0.9, 0.95, 0.975, 0.99, 0.999):
                    x = mpmath.mpf(f_quantile(d1, d2, p))
                    scale = d1 * x + d2
                    u = d1 * x / scale
                    residual = mpmath.betainc(a, b, 0, u, regularized=True) - mpmath.mpf(p)
                    density = (
                        u ** (a - 1) * (1 - u) ** (b - 1) / mpmath.beta(a, b) * d1 * d2 / scale**2
                    )
                    worst = max(worst, float(abs(residual) / (x * density)))
        assert worst <= 2e-14


class TestNoncentralFCdf:
    def test_central_reduction(self):
        for x in (0.5, 1.0, 3.0):
            diff = abs(noncentral_f_cdf(3.0, 20.0, 0.0, x) - f_cdf(3.0, 20.0, x))
            assert diff < 1e-12

    def test_limits(self):
        assert noncentral_f_cdf(2.0, 9.0, 5.0, 0.0) == 0.0
        assert noncentral_f_cdf(2.0, 9.0, 5.0, 1e9) == pytest.approx(1.0, abs=1e-9)

    def test_against_scipy_grid(self):
        for d1 in (1.0, 2.0, 4.0):
            for d2 in (10.0, 91.0):
                for lam in (0.5, 8.2, 40.0):
                    for x in (0.5, 2.0, 6.0):
                        assert noncentral_f_cdf(d1, d2, lam, x) == pytest.approx(
                            float(scipy.stats.ncf.cdf(x, d1, d2, lam)), abs=1e-10
                        )

    def test_large_noncentrality(self):
        value = noncentral_f_cdf(2.0, 30.0, 1e4, 5000.0)
        assert value == pytest.approx(float(scipy.stats.ncf.cdf(5000.0, 2, 30, 1e4)), abs=1e-9)

    def test_monotone_in_x(self):
        xs = np.linspace(0.1, 8.0, 25)
        vals = [noncentral_f_cdf(1.0, 91.0, 8.2, x) for x in xs]
        assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))

    def test_nonincreasing_in_noncentrality(self):
        lams = [0.0, 1.0, 4.0, 8.2, 20.0]
        vals = [noncentral_f_cdf(2.0, 40.0, lam, 2.5) for lam in lams]
        assert all(b <= a + 1e-14 for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            noncentral_f_cdf(2.0, 9.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            noncentral_f_cdf(-2.0, 9.0, 1.0, 1.0)

    def test_kernel_nan_raises_instead_of_leaking(self):
        with pytest.raises(ConvergenceError, match="1e-300"):
            noncentral_f_cdf(1.0, 1.0, 1.0, 1e-300)


def test_power_at_zero_noncentrality_equals_level():
    for l, df2, eta in ((1, 91, 0.05), (2, 40, 0.10)):
        crit = f_quantile(float(l), float(df2), 1.0 - eta)
        power = 1.0 - noncentral_f_cdf(float(l), float(df2), 0.0, crit)
        assert power == pytest.approx(eta, abs=1e-9)
