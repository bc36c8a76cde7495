import copy
import math
import unittest.mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mrtcat.design

from mrtcat import (
    DataValidationError,
    DesignInputs,
    NullContrastError,
    NumericalError,
    SingularSystemError,
    eo_pattern,
    inputs_from_config,
    mee_pattern,
    power_at_n,
    required_sample_size,
    tau_pattern,
)
from mrtcat.design import _inputs_from_sweep, _size_stack, _v_matrix
from mrtcat.errors import ConvergenceError
from mrtcat.numerics import f_quantile, noncentral_f_cdf

from _oracles import (
    cdf_negligible_halving, design_v_einsum, design_v_loops, sample_size_bisection,
)


def golden_inputs(**overrides):
    """Two active arms, 210 points, constant availability and effect."""
    base = dict(
        k_arms=2,
        t_points=210,
        rand_probs=np.array([0.3, 0.3]),
        tau=np.ones(210),
        f=np.ones((210, 1)),
        gamma=np.array([0.053, 0.0]),
        q=1,
        l_matrix=np.array([[1.0, -1.0]]),
        eta=0.05,
        power_target=0.8,
    )
    base.update(overrides)
    return DesignInputs(**base)


def randomization_block(probs) -> np.ndarray:
    """P = diag(p) - p p' for the active-arm probabilities p: V of a
    one-point design with tau = 1 and f = 1."""
    k_arms = len(probs)
    inputs = DesignInputs(
        k_arms=k_arms,
        t_points=1,
        rand_probs=np.array(probs),
        tau=np.ones(1),
        f=np.ones((1, 1)),
        gamma=np.full(k_arms, 0.1),
        q=1,
        l_matrix=np.eye(k_arms),
    )
    return inputs.v_matrix


class TestBuildPt:
    """The randomization covariance block P_t that V is built from."""

    def test_two_arm_value(self):
        np.testing.assert_allclose(
            randomization_block([0.3, 0.3]),
            [[0.21, -0.09], [-0.09, 0.21]],
            atol=1e-12,
        )

    def test_single_arm_value(self):
        np.testing.assert_allclose(randomization_block([0.4]), [[0.24]], atol=1e-12)

    @settings(max_examples=60)
    @given(
        st.lists(st.floats(0.02, 0.4), min_size=1, max_size=3).filter(
            lambda ps: sum(ps) < 0.95
        )
    )
    def test_positive_definite(self, probs):
        eigs = np.linalg.eigvalsh(randomization_block(probs))
        assert eigs.min() > 0.0


class TestBuildV:
    def test_golden_value(self):
        np.testing.assert_allclose(
            golden_inputs().v_matrix,
            [[44.1, -18.9], [-18.9, 44.1]],
            atol=1e-9,
        )

    def test_single_point_reduces_to_weighted_kron(self):
        inputs = DesignInputs(
            k_arms=2,
            t_points=1,
            rand_probs=np.array([0.25, 0.25]),
            tau=np.array([0.6]),
            f=np.array([[1.0]]),
            gamma=np.array([0.1, 0.0]),
            q=1,
            l_matrix=np.array([[1.0, -1.0]]),
        )
        np.testing.assert_allclose(
            inputs.v_matrix, 0.6 * randomization_block([0.25, 0.25]), atol=1e-12
        )

    def test_rank_deficient_f_basis_rejected(self):
        t_points = 10
        f = np.column_stack([np.ones(t_points), 2.0 * np.ones(t_points)])
        with pytest.raises(SingularSystemError, match="singular"):
            DesignInputs(
                k_arms=2,
                t_points=t_points,
                rand_probs=np.array([0.3, 0.3]),
                tau=np.ones(t_points),
                f=f,
                gamma=np.zeros(4) + 0.1,
                q=1,
                l_matrix=np.eye(2),
            )

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4), st.integers(1, 3), st.integers(1, 40), st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_einsum_matches_kron_loop(self, k_arms, p, t_points, constant_f, seed):
        # With f >= 0 every term of an entry of V has the same sign, so the
        # two summation orders agree to a few ulps per term.
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(k_arms + 1), size=t_points)[:, 1:]
        tau = rng.uniform(0.01, 1.0, t_points)
        if constant_f:
            f = np.ones((t_points, p))
        else:
            f = rng.uniform(0.0, 10.0, (t_points, p)) * 10.0 ** rng.integers(-3, 4, p)
        v = _v_matrix(probs, tau, f)
        expected = design_v_loops(probs, tau, f)
        if constant_f:
            assert v.tobytes() == expected.tobytes()
        else:
            np.testing.assert_allclose(v, expected, rtol=1e-13, atol=0)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.integers(1, 4), st.integers(1, 3), st.integers(1, 3), st.integers(1, 300),
        st.booleans(), st.booleans(), st.integers(0, 2**32 - 1),
    )
    def test_bitwise_equal_to_four_operand_einsum(
        self, count, k_arms, p, t_points, one_row, zeros, seed
    ):
        # tau(t) P_t formed first, a K-vector of probabilities kept as one
        # row over t, and signed zeros in f leave every bit of V as it was
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(k_arms + 1), size=(count, 1 if one_row else t_points))
        probs = probs[..., 1:]
        tau = rng.uniform(0.01, 1.0, (count, t_points))
        f = rng.normal(size=(count, t_points, p)) * 10.0 ** rng.integers(-5, 6, p)
        if zeros:
            f[rng.random(f.shape) < 0.3] = -0.0
        expected = design_v_einsum(
            np.broadcast_to(probs, (count, t_points, k_arms)).copy(), tau, f
        )
        assert _v_matrix(probs, tau, f).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", range(40))
    def test_stack_slices_bitwise_equal_to_single_points(self, seed):
        # _prepare builds V for the points of one (T, K, p) with one call
        rng = np.random.default_rng(seed)
        count, t_points = rng.integers(1, 9), rng.integers(1, 300)
        k_arms, p = rng.integers(1, 4), rng.integers(1, 3)
        probs = rng.dirichlet(np.ones(k_arms + 1), size=(count, t_points))[..., 1:]
        tau = rng.uniform(0.01, 1.0, (count, t_points))
        f = rng.normal(size=(count, t_points, p))
        stacked = _v_matrix(probs, tau, f)
        assert stacked.shape == (count, k_arms * p, k_arms * p)
        for s in range(count):
            assert stacked[s].tobytes() == _v_matrix(probs[s], tau[s], f[s]).tobytes()

    def test_built_once_per_inputs(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            mrtcat.design, "_v_matrix", lambda *args: calls.append(1) or _v_matrix(*args)
        )
        inputs = golden_inputs()
        assert calls == [1]
        required_sample_size(inputs)
        power_at_n(inputs, 93)
        assert calls == [1]

    def test_caller_arrays_neither_mutated_nor_shared(self):
        for build in ("single", "stack"):
            self.assert_caller_arrays_kept(build)

    def assert_caller_arrays_kept(self, build):
        t_points = 12
        arrays = dict(
            rand_probs=np.array([0.3, 0.2]),
            tau=np.linspace(0.5, 1.0, t_points),
            f=np.column_stack([np.ones(t_points), np.arange(1.0, t_points + 1)]),
            gamma=np.array([0.05, 0.01, 0.02, 0.0]),
            l_matrix=np.array([[1.0, -1.0]]),
        )
        before = {name: a.copy() for name, a in arrays.items()}
        kwargs = dict(k_arms=2, t_points=t_points, q=1, eta=0.05, power_target=0.8, **arrays)
        if build == "single":
            points = [DesignInputs(**kwargs)]
        else:
            # every point names the caller's arrays
            points, errors = DesignInputs._stack([kwargs, dict(kwargs, q=2), kwargs])
            assert errors == [None] * 3
        saved = [(point.v_matrix.copy(), point.lambda_rate) for point in points]
        for name, a in arrays.items():
            np.testing.assert_array_equal(a, before[name])
            for point in points:
                assert not np.shares_memory(a, getattr(point, name))
            a *= 0.5
        for point, (v, rate) in zip(points, saved):
            assert point.v_matrix.tobytes() == v.tobytes()
            assert point.lambda_rate == rate

    @pytest.mark.parametrize("build", ["stack", "configs"])
    def test_points_of_a_stack_share_no_arrays(self, build):
        # the points hold rows of shared stacks; writing into one point's
        # arrays changes no other point
        if build == "stack":
            base = dict(
                k_arms=2, t_points=6, rand_probs=np.array([0.3, 0.2]), tau=np.full(6, 0.7),
                f=np.ones((6, 1)), gamma=np.array([0.1, 0.0]), q=1,
                l_matrix=np.array([[1.0, -1.0]]), eta=0.05, power_target=0.8,
            )
            longer = dict(base, t_points=8, tau=np.full(8, 0.7), f=np.ones((8, 1)))
            fields = [base, dict(base, tau=np.full(6, 0.9)), longer, dict(base, q=2)]
        # one sweep per key: each AA point has its own tau, each T point
        # its own tau and f, and the sate1 points share both
        sweeps = [("AA", ["0.5", "0.6", "0.7", "0.8"]), ("T", ["30", "31", "32", "210"]),
                  ("sate1", ["0.05", "0.1", "0.2", "0.3"])]
        for mutated in range(4):
            if build == "stack":
                points, errors = DesignInputs._stack(fields)
                assert errors == [None] * 4
                self.assert_no_point_writes_another(points, mutated)
            else:
                for key, texts in sweeps:
                    points = _inputs_from_sweep(GOLDEN_CFG, key, texts)
                    self.assert_no_point_writes_another(points, mutated)

    def assert_no_point_writes_another(self, points, mutated):
        names = ("rand_probs", "tau", "f", "gamma", "l_matrix", "v_matrix")
        saved = [({name: getattr(point, name).copy() for name in names}, point.lambda_rate)
                 for point in points]
        for a, b in ((a, b) for a in points for b in points if a is not b):
            for name in names:
                assert not np.shares_memory(getattr(a, name), getattr(b, name))
        for name in ("tau", "gamma", "rand_probs"):
            getattr(points[mutated], name)[...] = 0.25
        for j, (point, (arrays, rate)) in enumerate(zip(points, saved)):
            if j == mutated:
                continue
            for name in names:
                assert getattr(point, name).tobytes() == arrays[name].tobytes()
            assert point.lambda_rate == rate


class TestNoncentrality:
    """lambda(n) = n * lambda_rate, the rate DesignInputs stores."""

    def test_golden_rate(self):
        lam = 93 * golden_inputs().lambda_rate
        assert lam / 93 == pytest.approx(0.0884835, abs=1e-10)
        assert lam == pytest.approx(8.2289655, abs=1e-6)

    def test_linear_in_n_quadratic_in_gamma(self):
        inputs = golden_inputs()
        lam50 = 50 * inputs.lambda_rate
        assert 100 * inputs.lambda_rate == pytest.approx(2 * lam50, rel=1e-12)
        doubled = golden_inputs(gamma=np.array([0.106, 0.0]))
        assert 50 * doubled.lambda_rate == pytest.approx(4 * lam50, rel=1e-10)

    def test_identity_contrast_reduces_to_quadratic_form(self):
        gamma = np.array([0.07, -0.04])
        inputs = golden_inputs(gamma=gamma, l_matrix=np.eye(2))
        v = inputs.v_matrix
        assert 60 * inputs.lambda_rate == pytest.approx(
            60 * float(gamma @ v @ gamma), rel=1e-10
        )

    def test_null_alternative_rejected(self):
        with pytest.raises(NullContrastError):
            golden_inputs(gamma=np.array([0.05, 0.05]))

    def test_null_test_does_not_overflow(self):
        # past |gamma| of about 1.3e154 both norms overflowed, and inf <= inf
        # called this contrast null; its noncentrality overflows instead,
        # and the search fails as too large to size
        huge = golden_inputs(gamma=np.array([1e155, 0.0]))
        assert huge.lambda_rate == math.inf
        with pytest.raises(NumericalError, match="^effect too large to size"):
            required_sample_size(huge)
        with pytest.raises(NullContrastError):
            golden_inputs(gamma=np.array([1e155, 1e155]))

    @pytest.mark.parametrize("size", [0.75, 1.0, 1.5, 3e7, 2.0**100, 1e150])
    def test_null_decision_is_the_unscaled_one(self, size):
        # gamma = (a, a (1 + r)) straddles |Lt gamma| = 1e-12 |gamma| at
        # r = sqrt(2) * 1e-12; the scaled test decides as the plain norms do
        reduced = golden_inputs().contrast.row_basis
        for r in np.linspace(1.40e-12, 1.43e-12, 31):
            gamma = np.array([size, size * (1.0 + r)])
            null = np.linalg.norm(reduced @ gamma) <= 1e-12 * max(1.0, np.linalg.norm(gamma))
            try:
                golden_inputs(gamma=gamma)
            except NullContrastError:
                assert null
            else:
                assert not null

    def test_invariant_to_contrast_row_scaling(self):
        a = golden_inputs().lambda_rate
        b = golden_inputs(l_matrix=np.array([[3.0, -3.0]])).lambda_rate
        assert a == pytest.approx(b, rel=1e-10)

    def test_invariant_to_invertible_row_mixing(self):
        rng = np.random.default_rng(6)
        gamma = np.array([0.08, -0.03])
        l = np.eye(2)
        r = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
        a = golden_inputs(gamma=gamma, l_matrix=l).lambda_rate
        b = golden_inputs(gamma=gamma, l_matrix=r @ l).lambda_rate
        assert a == pytest.approx(b, rel=1e-8)


class TestSampleSize:
    def test_golden_answer(self):
        result = required_sample_size(golden_inputs())
        assert result.n == 93
        assert result.achieved_power >= 0.8
        assert result.lambda_per_n == pytest.approx(0.0884835, abs=1e-10)
        np.testing.assert_allclose(
            result.v_matrix, [[44.1, -18.9], [-18.9, 44.1]], atol=1e-9
        )

    def test_diagnostics(self, monkeypatch):
        evals = self.count_powers(monkeypatch)
        inputs = golden_inputs()
        result = required_sample_size(inputs)
        # ||V||_1 ||V^-1||_1 with V = [[44.1, -18.9], [-18.9, 44.1]]
        assert result.v_condition == pytest.approx(63.0**2 / (44.1**2 - 18.9**2), rel=1e-12)
        assert result.v_condition == inputs.v_condition
        assert result.power_evals == len(evals) > 0
        # the seed is the answer: the search computes the powers at 93 and
        # 92; the doubling-and-bisection search it replaced computed 15
        assert result.power_evals <= 4

    def test_power_boundary(self):
        inputs = golden_inputs()
        assert power_at_n(inputs, 93) >= 0.8
        assert power_at_n(inputs, 92) < 0.8

    def test_power_values_at_boundary(self):
        inputs = golden_inputs()
        assert power_at_n(inputs, 93) == pytest.approx(0.80166, abs=5e-5)
        assert power_at_n(inputs, 92) == pytest.approx(0.79723, abs=5e-5)

    def test_power_nondecreasing_in_n(self):
        inputs = golden_inputs()
        values = [power_at_n(inputs, n) for n in range(20, 201, 20)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_larger_effect_needs_fewer_subjects(self):
        ns = []
        for scale in (1.0, 1.5, 2.0, 3.0):
            inputs = golden_inputs(gamma=np.array([0.053 * scale, 0.0]))
            ns.append(required_sample_size(inputs).n)
        assert all(b < a for a, b in zip(ns, ns[1:]))

    def test_higher_availability_needs_fewer_subjects(self):
        ns = []
        for aa in (0.4, 0.6, 0.8, 1.0):
            inputs = golden_inputs(tau=np.full(210, aa))
            ns.append(required_sample_size(inputs).n)
        assert all(b <= a for a, b in zip(ns, ns[1:]))

    def test_zero_power_target_returns_search_start(self):
        result = required_sample_size(golden_inputs(power_target=0.0))
        assert result.n == 10
        assert 0.0 < result.achieved_power < 1.0

    def test_unreachable_power_hits_cap(self):
        inputs = golden_inputs(gamma=np.array([1e-4, 0.0]))
        with pytest.raises(NumericalError, match="cap"):
            required_sample_size(inputs, cap=500)

    def test_later_probe_error_raises(self, monkeypatch):
        # seeds 40 above the answer make the search gallop down past its
        # first round; the ConvergenceError of that probe's power is raised
        calls = []
        real_seeds, real_powers = mrtcat.design._seeds, mrtcat.design._powers

        def powers(points, ns):
            calls.append(ns)
            if len(calls) == 1:
                return real_powers(points, ns)
            return [ConvergenceError(f"power at n={n} failed") for n in ns]

        monkeypatch.setattr(
            mrtcat.design, "_seeds", lambda *args: [s + 40 for s in real_seeds(*args)]
        )
        monkeypatch.setattr(mrtcat.design, "_powers", powers)
        with pytest.raises(ConvergenceError, match="^power at n=131 failed$"):
            required_sample_size(golden_inputs())
        assert calls == [[133, 132], [131]]

    @staticmethod
    def count_powers(monkeypatch) -> list[int]:
        """The n of every power the search computes, in order: the search
        computes them in rounds of _powers calls."""
        calls: list[int] = []
        real = mrtcat.design._powers
        monkeypatch.setattr(
            mrtcat.design, "_powers", lambda points, ns: calls.extend(ns) or real(points, ns)
        )
        return calls

    @pytest.mark.parametrize(
        "power_target, cap", [(0.0, 3), (0.1, 9), (0.8, 0), (0.8, -5), (0.0, 9)]
    )
    def test_cap_below_search_start_rejected_before_any_power(
        self, monkeypatch, power_target, cap
    ):
        # a zero target once returned n = 10 past any cap, and a cap below
        # the start was reported as a power at the cap, never computed
        calls = self.count_powers(monkeypatch)
        inputs = golden_inputs(power_target=power_target)
        with pytest.raises(DataValidationError) as err:
            required_sample_size(inputs, cap=cap)
        assert str(err.value) == (
            f"search cap {cap} is below the search start 10 = max(10, q + l + 2) (q=1, l=1)"
        )
        assert calls == []

    def test_search_start_follows_q_and_l(self):
        # q + l + 2 = 15 here, so 14 is below the start and 15 sizes
        inputs = golden_inputs(q=12, power_target=0.0)
        with pytest.raises(DataValidationError, match="search start 15 .*q=12, l=1"):
            required_sample_size(inputs, cap=14)
        assert required_sample_size(inputs, cap=15).n == 15

    @pytest.mark.parametrize("power_target", [0.0, 0.1])
    def test_cap_equal_to_search_start_still_sizes(self, power_target):
        result = required_sample_size(golden_inputs(power_target=power_target), cap=10)
        assert result.n == 10
        assert result.achieved_power == power_at_n(golden_inputs(), 10)

    @pytest.mark.parametrize(
        "cap, last, message",
        [
            (50, 51, "sample size exceeds cap 50 (power at 51 still below 0.8)"),
            (10, 11, "sample size exceeds cap 10 (power at 11 still below 0.8)"),
            # power(93) meets the target, so the bisection ends past the cap
            (92, 93, "required sample size exceeds cap 92"),
        ],
    )
    def test_cap_message_names_the_evaluated_n(self, monkeypatch, cap, last, message):
        # the golden config needs n = 93; the doubling stops at cap + 1
        calls = self.count_powers(monkeypatch)
        with pytest.raises(NumericalError) as err:
            required_sample_size(golden_inputs(), cap=cap)
        assert str(err.value) == f"effect too small: {message}"
        assert max(calls) == last

    def test_minimality_walk_down(self):
        # returned n is the smallest integer meeting the target
        inputs = golden_inputs(power_target=0.6)
        result = required_sample_size(inputs)
        assert power_at_n(inputs, result.n) >= 0.6
        assert power_at_n(inputs, result.n - 1) < 0.6

    def test_power_at_n_requires_headroom(self):
        with pytest.raises(DataValidationError, match="q \\+ l"):
            power_at_n(golden_inputs(), 3)


@st.composite
def search_designs(draw):
    """DesignInputs over the range the sample-size search meets: 1 to 3
    active arms, 1 to 40 decision points, an intercept or (1, t) f basis,
    random availability and allocation, q up to 30, eta log-uniform down
    to 5e-4, power targets from 0 to 0.999 (0 itself one time in ten) and
    a contrast of every arm against the reference or of one random row.
    The effect size is log-uniform over eight decades, so the answers run
    from the search start to past the default cap.  Hypothesis draws only
    the seed of the generator, which keeps each example cheap."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k_arms, t_points, q = rng.integers(1, 4), rng.integers(1, 41), rng.integers(1, 31)
    f = np.ones((t_points, 1))
    if t_points > 1 and rng.random() < 0.5:
        f = np.column_stack([f, np.arange(1.0, t_points + 1)])
    weights = rng.uniform(0.2, 1.0, k_arms + 1)
    tau = rng.uniform(0.2, 1.0, t_points)
    scale = np.exp(rng.uniform(np.log(1e-5), np.log(3.0)) / 2) / np.sqrt(tau.sum())
    return DesignInputs(
        k_arms=int(k_arms), t_points=int(t_points), rand_probs=(weights / weights.sum())[1:],
        tau=tau, f=f, gamma=scale * rng.normal(size=k_arms * f.shape[1]), q=int(q),
        l_matrix=np.eye(k_arms) if rng.random() < 0.5 else rng.normal(size=(1, k_arms)),
        eta=float(np.exp(rng.uniform(np.log(5e-4), np.log(0.2)))),
        power_target=0.0 if rng.random() < 0.1 else float(rng.uniform(0.0, 0.999)),
    )


def search_outcome(search, inputs, cap):
    """What search(inputs, cap) gives: (n, bits of achieved_power), or
    (exception class, message)."""
    try:
        result = search(inputs, cap)
    except (DataValidationError, NumericalError) as exc:
        return type(exc), str(exc)
    return result.n, np.float64(result.achieved_power).tobytes()


#: Caps relative to the answer n of the default cap: below the start, the
#: default, and n - 2 to n + 1.
CAP_OFFSETS = st.sampled_from(["below start", "default", -2, -1, 0, 1])


def drawn_cap(inputs, offset) -> int:
    if offset == "default":
        return mrtcat.design.SEARCH_CAP_DEFAULT
    start = max(10, inputs.q + inputs.rank_l + 2)
    if offset == "below start":
        return start - 1
    n = sample_size_bisection(inputs, mrtcat.design.SEARCH_CAP_DEFAULT).n
    return n + offset


class TestSeededSearch:
    """The seeded search against the doubling-and-bisection
    search it replaced (_oracles.sample_size_bisection): the same n, the
    same bits of achieved_power and the same errors."""

    @settings(max_examples=2000, deadline=None, derandomize=True)
    @given(search_designs(), CAP_OFFSETS)
    def test_matches_bisection_search(self, inputs, offset):
        try:
            cap = drawn_cap(inputs, offset)
        except NumericalError:
            cap = mrtcat.design.SEARCH_CAP_DEFAULT
        assert search_outcome(required_sample_size, inputs, cap) == search_outcome(
            sample_size_bisection, inputs, cap
        )

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(search_designs(), CAP_OFFSETS, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_any_seed_gives_the_same_answer(self, inputs, offset, u, v):
        # the seed only picks where to look: a seed anywhere in
        # [start, cap + 1], near the start or spread over the range
        try:
            cap = drawn_cap(inputs, offset)
        except NumericalError:
            cap = mrtcat.design.SEARCH_CAP_DEFAULT
        want = search_outcome(sample_size_bisection, inputs, cap)

        def seeds(points, starts, cap):
            return [start + int(u * v * (cap + 1 - start)) for start in starts]

        with unittest.mock.patch.object(mrtcat.design, "_seeds", seeds):
            assert search_outcome(required_sample_size, inputs, cap) == want

    def test_seeds_of_the_golden_config_and_sweep_are_the_answers(self):
        cfgs = [GOLDEN_CFG, *(dict(GOLDEN_CFG, AA=f"{aa / 10}") for aa in range(3, 11))]
        points = [inputs_from_config(cfg) for cfg in cfgs]
        seeds = mrtcat.design._seeds(points, [10] * len(points), 10**6)
        assert seeds == [required_sample_size(point).n for point in points]
        assert seeds[0] == 93

    def test_sweep_block_sizes_each_point_as_alone(self):
        cfgs = [dict(GOLDEN_CFG, sate1=repr(0.03 + 0.01 * k), q=str(1 + k % 3)) for k in range(40)]
        cfgs[5]["AA"] = "1.5"          # fails its build
        cfgs[7]["sate1"] = "0.0001"    # past the cap
        points = [single_or_error(cfg) for cfg in cfgs]
        for point, result in zip(points, _size_stack(points, 5000)):
            if isinstance(point, Exception):
                assert result is point
                continue
            want = search_outcome(required_sample_size, point, 5000)
            if isinstance(result, Exception):
                assert (type(result), str(result)) == want
            else:
                assert (result.n, np.float64(result.achieved_power).tobytes()) == want
                assert result.power_evals == required_sample_size(point, 5000).power_evals

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(search_designs(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    def test_powers_bitwise_equal_to_power_at_n(self, inputs, us):
        start = max(10, inputs.q + inputs.rank_l + 2)
        ns = [start + int(u * u * 10**6) for u in us]
        assert mrtcat.design._powers([inputs] * len(ns), ns) == [
            power_at_n(inputs, n) for n in ns
        ]


class TestPowerWhereNcfdtrFails:
    """scipy 1.17's ncfdtr returns NaN for noncentralities in about
    (1390, 1550), where the power is 1 in float64."""

    #: n of the golden config at which ncfdtr returns NaN
    NAN_N = [16277, 16281, 16282, 17500, 17502]

    def test_power_is_one(self):
        inputs = golden_inputs()
        for n in self.NAN_N:
            df2 = n - 2
            critical = f_quantile(1, df2, 0.95)
            with pytest.raises(ConvergenceError, match="ncfdtr.* returned nan"):
                noncentral_f_cdf(1, df2, df2 * inputs.lambda_rate, critical)
            assert power_at_n(inputs, n) == 1.0
        assert mrtcat.design._powers([inputs] * 5, self.NAN_N) == [1.0] * 5

    @pytest.mark.parametrize("size", [
        pytest.param(1e153, id="rate finite"),
        # lambda_rate overflows in the build, which does not warn
        pytest.param(3e153, id="rate inf"),
    ])
    def test_infinite_noncentrality_still_raises(self, monkeypatch, size):
        # (n - q - l) * lambda_rate overflows to inf; halving inf never
        # gives a finite noncentrality, so the kernel's failure stands.
        # The counted ncfdtr turns a search that never ends into a failure.
        calls = []
        real = mrtcat.design.ncfdtr

        def counted(*args):
            calls.append(args)
            assert len(calls) < 100, "ncfdtr called without end"
            return real(*args)

        monkeypatch.setattr(mrtcat.design, "ncfdtr", counted)
        inputs = golden_inputs(gamma=np.array([size, 0.0]))
        message = r"^scipy\.special\.ncfdtr\(1\.0, {}, inf, .*\) returned nan; no accurate"
        with pytest.raises(ConvergenceError, match=message.format(r"91\.0")):
            power_at_n(inputs, 93)
        [stacked] = mrtcat.design._powers([inputs], [93])
        assert isinstance(stacked, ConvergenceError)
        # the search sees the overflow at its start and computes no power
        calls.clear()
        with pytest.raises(NumericalError, match="^effect too large to size: .* n=10 is not"):
            required_sample_size(inputs)
        assert calls == []

    def test_huge_noncentrality_decides_as_halving_one_step_at_a_time(self):
        # Above about 1e19 ncfdtr is NaN, so the one-step halving reaches
        # 2^62 only after up to 1,000 calls; skipping there decides alike.
        # Critical values of 1e10 keep the CDF finite up to lam ~ 1e12.
        lams = [1e3, 1e6, 1e12, 6e18, 1e19, 3e19, 1e25, 1e60, 1e300]
        differ, decided = [], set()
        for l in (1, 2, 3):
            for df2 in (2.0, 10.0, 1e3, 1e5):
                for critical in (f_quantile(l, df2, 0.95), 1e10):
                    for lam in lams:
                        got = mrtcat.design._cdf_negligible(l, df2, lam, critical)
                        decided.add(got)
                        if got != cdf_negligible_halving(l, df2, lam, critical):
                            differ.append((l, df2, critical, lam, got))
        assert differ == []
        assert decided == {False, True}

    def test_huge_noncentrality_sizes_in_few_calls(self, monkeypatch):
        # gamma = (1e140, 0) gives lam ~ 1e282 at the search start: the
        # batched power call, then one ncfdtr call at lam * 2^-j < 2^62
        calls = []
        real = mrtcat.design.ncfdtr

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(mrtcat.design, "ncfdtr", counted)
        result = required_sample_size(golden_inputs(gamma=np.array([1e140, 0.0])))
        assert (result.n, result.achieved_power) == (10, 1.0)
        assert len(calls) <= 3
        assert 2.0**61 <= calls[-1][2] < 2.0**62

    def test_non_negligible_cdf_still_raises(self, monkeypatch):
        # a CDF that is still 0.3 at half the noncentrality says nothing
        # about the power, so the kernel's failure stands
        inputs = golden_inputs()
        monkeypatch.setattr(mrtcat.numerics, "ncfdtr", lambda *args: float("nan"))
        monkeypatch.setattr(mrtcat.design, "ncfdtr", lambda *args: np.full(np.shape(args[0]), 0.3))
        with pytest.raises(ConvergenceError) as single:
            power_at_n(inputs, 93)
        assert str(single.value).startswith("scipy.special.ncfdtr(1.0, 91.0, ")
        assert str(single.value).endswith(" returned nan; no accurate value available")
        monkeypatch.setattr(mrtcat.design, "ncfdtr", lambda *args: np.full(np.shape(args[0]), np.nan))
        [stacked] = mrtcat.design._powers([inputs], [93])
        assert isinstance(stacked, ConvergenceError)
        assert str(stacked) == str(single.value)


class TestDesignInputsValidation:
    def test_probability_rows_checked(self):
        with pytest.raises(DataValidationError, match="positive"):
            golden_inputs(rand_probs=np.array([0.6, 0.4]))

    def test_tau_range_checked(self):
        with pytest.raises(DataValidationError, match="tau"):
            golden_inputs(tau=np.zeros(210))

    def test_gamma_length_checked(self):
        with pytest.raises(DataValidationError, match="gamma"):
            golden_inputs(gamma=np.array([0.1]))

    def test_contrast_width_checked(self):
        with pytest.raises(DataValidationError, match="columns"):
            golden_inputs(l_matrix=np.array([[1.0, -1.0, 0.0]]))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("rand_probs", np.array([np.nan, 0.3]), "active-arm probabilities"),
            ("tau", np.full(210, np.nan), "tau values"),
            ("f", np.full((210, 1), np.inf), "f must be finite"),
            ("gamma", np.array([np.nan, 0.0]), "gamma must be finite"),
            ("gamma", np.array([np.inf, 0.0]), "gamma must be finite"),
        ],
    )
    def test_nonfinite_field_named(self, field, value, message):
        with pytest.raises(DataValidationError, match=message):
            golden_inputs(**{field: value})

    def test_broadcast_probs(self):
        inputs = golden_inputs()
        assert inputs.rand_probs.shape == (210, 2)
        assert inputs.p == 1
        assert inputs.rank_l == 1


class TestTauPattern:
    def test_constant(self):
        np.testing.assert_allclose(tau_pattern("constant", 0.8, 0.0, 5), np.full(5, 0.8))

    def test_linear_endpoints_and_average(self):
        tau = tau_pattern("linear", 0.5, 0.2, 11)
        assert tau[0] == pytest.approx(0.7, abs=1e-12)
        assert tau[-1] == pytest.approx(0.3, abs=1e-12)
        assert tau.mean() == pytest.approx(0.5, abs=1e-12)

    def test_linear_zero_slope_is_constant(self):
        np.testing.assert_allclose(
            tau_pattern("linear", 0.6, 0.0, 7), np.full(7, 0.6), atol=1e-15
        )

    def test_out_of_range_rejected(self):
        with pytest.raises(DataValidationError, match="leaves"):
            tau_pattern("linear", 0.9, 0.2, 10)

    @pytest.mark.parametrize("kind, aa, theta", [("constant", np.nan, 0.0), ("linear", 0.5, np.nan)])
    def test_nan_rejected(self, kind, aa, theta):
        with pytest.raises(DataValidationError, match="leaves"):
            tau_pattern(kind, aa, theta, 10)

    def test_unknown_kind(self):
        with pytest.raises(DataValidationError, match="kind"):
            tau_pattern("cubic", 0.5, 0.0, 10)

    @settings(max_examples=60)
    @given(
        st.floats(0.25, 0.75, allow_nan=False),
        st.floats(-0.2, 0.2, allow_nan=False),
        st.integers(2, 40),
    )
    def test_linear_average_is_aa(self, aa, theta, t_points):
        tau = tau_pattern("linear", aa, theta, t_points)
        assert tau.mean() == pytest.approx(aa, abs=1e-10)


class TestEoPattern:
    def test_constant(self):
        coeffs, curve = eo_pattern("constant", 0.0, 0.4, np.ones(6))
        np.testing.assert_allclose(coeffs, [0.4])
        np.testing.assert_allclose(curve, np.full(6, 0.4))

    def test_linear_flat_when_theta_zero(self):
        coeffs, curve = eo_pattern("linear", 0.0, 0.4, np.full(8, 0.7))
        assert coeffs[1] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(curve, np.full(8, 0.4), atol=1e-12)

    @pytest.mark.parametrize("tau", [np.ones(15), tau_pattern("linear", 0.6, 0.2, 15)])
    def test_linear_constraints(self, tau):
        theta, aeo = 0.3, 0.4
        _, curve = eo_pattern("linear", theta, aeo, tau)
        # endpoint ratio in cross-multiplied form
        assert (1.0 - theta) * curve[0] == pytest.approx(
            (1.0 + theta) * curve[-1], abs=1e-10
        )
        # availability-weighted average
        assert float((tau * curve).sum() / tau.sum()) == pytest.approx(aeo, abs=1e-10)

    @pytest.mark.parametrize("tau", [np.ones(15), tau_pattern("linear", 0.6, 0.2, 15)])
    def test_quadratic_constraints(self, tau):
        theta, aeo = 0.25, 0.5
        coeffs, curve = eo_pattern("quadratic", theta, aeo, tau)
        t_points = tau.shape[0]
        assert curve[0] == pytest.approx(curve[-1], abs=1e-10)
        mid = (t_points + 1) // 2
        assert (1.0 - theta) * curve[mid - 1] == pytest.approx(
            (1.0 + theta) * curve[0], abs=1e-10
        )
        assert float((tau * curve).sum() / tau.sum()) == pytest.approx(aeo, abs=1e-10)
        assert coeffs.shape == (3,)

    def test_quadratic_flat_when_theta_zero(self):
        _, curve = eo_pattern("quadratic", 0.0, 0.3, np.ones(9))
        np.testing.assert_allclose(curve, np.full(9, 0.3), atol=1e-10)

    def test_theta_domain(self):
        with pytest.raises(DataValidationError, match="theta_g"):
            eo_pattern("linear", 1.0, 0.4, np.ones(5))

    def test_unknown_kind(self):
        with pytest.raises(DataValidationError, match="kind"):
            eo_pattern("cubic", 0.1, 0.4, np.ones(5))


class TestMeePattern:
    def test_constant(self):
        gamma, curves = mee_pattern("constant", 0.0, 0.0, (0.1, 0.3), np.ones(5))
        np.testing.assert_allclose(gamma, [0.1, 0.3])
        np.testing.assert_allclose(curves[:, 0], np.full(5, 0.1))
        np.testing.assert_allclose(curves[:, 1], np.full(5, 0.3))

    def test_linear_flat_when_thetas_zero(self):
        gamma, curves = mee_pattern("linear", 0.0, 0.0, (0.1, 0.3), np.full(6, 0.8))
        np.testing.assert_allclose(gamma, [0.1, 0.0, 0.3, 0.0], atol=1e-12)
        np.testing.assert_allclose(curves[:, 0], np.full(6, 0.1), atol=1e-12)
        np.testing.assert_allclose(curves[:, 1], np.full(6, 0.3), atol=1e-12)

    @pytest.mark.parametrize("tau", [np.ones(20), tau_pattern("linear", 0.7, 0.15, 20)])
    def test_linear_constraints(self, tau):
        theta1, theta2 = 0.3, 0.2
        sate = (0.15, 0.25)
        gamma, curves = mee_pattern("linear", theta1, theta2, sate, tau)
        t = np.arange(1, tau.shape[0] + 1, dtype=float)
        # gamma reproduces the curves in the per-arm (1, t) basis
        np.testing.assert_allclose(curves[:, 0], gamma[0] + gamma[1] * t, atol=1e-12)
        np.testing.assert_allclose(curves[:, 1], gamma[2] + gamma[3] * t, atol=1e-12)
        # arm 1 endpoint ratio
        assert (1.0 - theta1) * curves[0, 0] == pytest.approx(
            (1.0 + theta1) * curves[-1, 0], abs=1e-10
        )
        # arm gap endpoint ratio
        gap = curves[:, 1] - curves[:, 0]
        assert (1.0 - theta2) * gap[0] == pytest.approx(
            (1.0 + theta2) * gap[-1], abs=1e-10
        )
        # availability-weighted averages
        wavg = (tau[:, None] * curves).sum(axis=0) / tau.sum()
        np.testing.assert_allclose(wavg, sate, atol=1e-10)

    def test_theta_domain(self):
        with pytest.raises(DataValidationError, match="theta_f2"):
            mee_pattern("linear", 0.0, -1.0, (0.1, 0.2), np.ones(5))

    def test_unknown_kind(self):
        with pytest.raises(DataValidationError, match="kind"):
            mee_pattern("spline", 0.0, 0.0, (0.1, 0.2), np.ones(5))


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


def extended_power(inputs: DesignInputs, n: int, digits: int = 40):
    """power_at_n in `digits`-digit arithmetic, at its float64 critical value.

    The noncentral F CDF is a Poisson(lambda / 2) mixture of regularized
    incomplete betas I_y(l/2 + j, d2/2), y = l x / (l x + d2), so the
    power is the same mixture of I_{1-y}(d2/2, l/2 + j).  The sum stops
    past the Poisson mean once a weight is below 10^-(digits + 5).
    """
    l, df2 = inputs.rank_l, n - inputs.q - inputs.rank_l
    critical = f_quantile(l, df2, 1.0 - inputs.eta)
    with mpmath.workdps(digits):
        half_lam = mpmath.mpf(df2) * inputs.lambda_rate / 2
        upper = df2 / (l * mpmath.mpf(critical) + df2)
        tiny = mpmath.mpf(10) ** -(digits + 5)
        weight, power, j = mpmath.exp(-half_lam), mpmath.mpf(0), 0
        while j <= half_lam or weight > tiny:
            power += weight * mpmath.betainc(
                mpmath.mpf(df2) / 2, mpmath.mpf(l) / 2 + j, 0, upper, regularized=True
            )
            j += 1
            weight *= half_lam / j
        return power


@st.composite
def sized_designs(draw):
    """DesignInputs with 1 to 4 active arms, 1 to 300 decision points, a
    constant or linear availability curve, random allocation and eta in
    [0.01, 0.1], tested on every arm against the reference (l = K).  The
    drawn per-arm effects are scaled so that lambda / n lies in [0.05,
    1.5], which keeps the sized n below 400 and the extended-precision
    mixture short."""
    k_arms, t_points = draw(st.integers(1, 4)), draw(st.integers(1, 300))
    aa = draw(st.floats(0.3, 1.0))
    theta = draw(st.floats(0.0, 0.99)) * min(aa, 1.0 - aa) if t_points > 1 else 0.0
    arms = st.lists(st.floats(0.2, 1.0), min_size=k_arms + 1, max_size=k_arms + 1)
    weights = np.array(draw(arms))
    effect = st.floats(0.1, 1.0) | st.floats(-1.0, -0.1)
    effects = np.array(draw(st.lists(effect, min_size=k_arms, max_size=k_arms)))
    rate = draw(st.floats(np.log(0.05), np.log(1.5)).map(np.exp))
    fields = dict(
        k_arms=k_arms, t_points=t_points, rand_probs=(weights / weights.sum())[1:],
        tau=tau_pattern("linear" if t_points > 1 else "constant", aa, theta, t_points),
        f=np.ones((t_points, 1)), q=1, l_matrix=np.eye(k_arms),
        eta=draw(st.floats(0.01, 0.1)), power_target=0.8,
    )
    unit_rate = DesignInputs(gamma=effects, **fields).lambda_rate
    return DesignInputs(gamma=effects * np.sqrt(rate / unit_rate), **fields)


class TestInputsFromConfig:
    def test_golden_config_reproduces_answer(self):
        inputs = inputs_from_config(GOLDEN_CFG)
        assert required_sample_size(inputs).n == 93

    def test_golden_sizing_boundary_holds_in_extended_precision(self):
        # power(92) and power(93) sit 2.8e-3 and 1.7e-3 from the 0.8 target;
        # float64 power agrees with the 40-digit value to ~1e-16 on both
        inputs = inputs_from_config(GOLDEN_CFG)
        ref = {n: extended_power(inputs, n) for n in (92, 93)}
        for n, value in ref.items():
            assert abs(power_at_n(inputs, n) - value) <= 1e-13
        assert ref[92] < 0.8 <= ref[93]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(sized_designs())
    def test_sizing_boundary_holds_in_extended_precision(self, inputs):
        # the float64 search returns the n that the 40-digit power picks;
        # below the search start there is no n - 1 to check
        n = required_sample_size(inputs).n
        assert n < 400
        start = max(10, inputs.q + inputs.rank_l + 2)
        ref = {m: extended_power(inputs, m) for m in (n - 1, n) if m >= start}
        for m, value in ref.items():
            assert abs(power_at_n(inputs, m) - value) <= 1e-13
        assert ref[n] >= inputs.power_target
        assert n == start or ref[n - 1] < inputs.power_target

    def test_missing_required_key(self):
        cfg = dict(GOLDEN_CFG)
        del cfg["sate1"]
        with pytest.raises(DataValidationError, match="sate1"):
            inputs_from_config(cfg)

    def test_probability_count_checked(self):
        cfg = dict(GOLDEN_CFG, p="0.5, 0.5")
        with pytest.raises(DataValidationError, match="K\\+1"):
            inputs_from_config(cfg)

    @pytest.mark.parametrize(
        "p, cell", [("0.4, 0.3,, 0.3", 3), ("0.4, 0.3, 0.3,", 4), (",0.4, 0.3, 0.3", 1)]
    )
    def test_empty_probability_cell_rejected(self, p, cell):
        with pytest.raises(DataValidationError, match=f"^config key 'p': cell {cell} is empty$"):
            inputs_from_config(dict(GOLDEN_CFG, p=p))

    def test_probability_sum_checked(self):
        cfg = dict(GOLDEN_CFG, p="0.4, 0.3, 0.2")
        with pytest.raises(DataValidationError, match="sum"):
            inputs_from_config(cfg)

    @pytest.mark.parametrize("p", ["nan, 0.3, 0.3", "0.4, nan, 0.3"])
    def test_nan_probability_rejected(self, p):
        with pytest.raises(DataValidationError, match="sum to 1"):
            inputs_from_config(dict(GOLDEN_CFG, p=p))

    def test_only_two_arms_supported(self):
        cfg = dict(GOLDEN_CFG, K="3")
        with pytest.raises(DataValidationError, match="K=2"):
            inputs_from_config(cfg)

    def test_availability_pattern_barely_moves_n(self):
        # holding the average availability fixed, the shape of the
        # availability curve changes the answer by at most one subject
        flat = dict(GOLDEN_CFG, AA="0.8")
        sloped = dict(GOLDEN_CFG, AA="0.8", tau_kind="linear", theta_tau="0.15")
        n_flat = required_sample_size(inputs_from_config(flat)).n
        n_sloped = required_sample_size(inputs_from_config(sloped)).n
        assert abs(n_flat - n_sloped) <= 1

    def test_linear_effect_basis(self):
        cfg = dict(
            GOLDEN_CFG,
            T="30",
            f_kind="linear",
            theta_f1="0.2",
            theta_f2="0.1",
            sate1="0.15",
            sate2="0.05",
        )
        inputs = inputs_from_config(cfg)
        assert inputs.p == 2
        assert inputs.f.shape == (30, 2)
        result = required_sample_size(inputs)
        assert result.n > inputs.q + inputs.rank_l + 1


LINEAR_CFG = dict(
    GOLDEN_CFG, T="30", tau_kind="linear", AA="0.7", theta_tau="0.15", f_kind="linear",
    theta_f1="0.2", theta_f2="0.1", sate1="0.15", sate2="0.05", q="2",
)


def single_or_error(cfg):
    """inputs_from_config(cfg), or the exception it raises."""
    try:
        return inputs_from_config(cfg)
    except (DataValidationError, NumericalError) as exc:
        return exc


class TestConfigStack:
    """_inputs_from_sweep builds the points of a sweep as one stack; every
    point is bitwise the single construction, or fails as it does."""

    def assert_same(self, stacked, single):
        if isinstance(single, Exception):
            assert type(stacked) is type(single)
            assert str(stacked) == str(single)
            return
        assert stacked.v_matrix.tobytes() == single.v_matrix.tobytes()
        assert stacked.v_condition == single.v_condition
        assert stacked.lambda_rate == single.lambda_rate
        for name in ("rand_probs", "tau", "f", "gamma", "l_matrix"):
            assert getattr(stacked, name).tobytes() == getattr(single, name).tobytes()
        assert stacked.contrast.row_basis.tobytes() == single.contrast.row_basis.tobytes()
        assert (stacked.q, stacked.eta, stacked.power_target, stacked.rank_l) == (
            single.q, single.eta, single.power_target, single.rank_l
        )

    def assert_sweep(self, base, key, texts) -> list:
        """The points of the sweep of key over texts on base, each checked
        against its single build."""
        built = _inputs_from_sweep(base, key, texts)
        assert len(built) == len(texts)
        for stacked, text in zip(built, texts):
            self.assert_same(stacked, single_or_error(dict(base, **{key: text})))
        return built

    @pytest.mark.parametrize(
        "base", [GOLDEN_CFG, LINEAR_CFG, dict(GOLDEN_CFG, q="0")], ids=["constant", "linear", "q0"]
    )
    @pytest.mark.parametrize(
        "key, values",
        [
            ("AA", ["0.35", "0.5", "0.65", "0.8"]),
            ("T", ["10", "31", "210"]),
            ("sate1", ["0.02", "0.1", "0.3"]),
            ("theta_tau", ["0.0", "0.1", "0.2"]),
            ("q", ["1", "3"]),
            ("eta", ["0.01", "0.1"]),
            ("power", ["0.0", "0.9"]),
            ("theta_f1", ["-0.5", "0.0", "0.3"]),
            ("theta_f2", ["-0.4", "0.0", "0.6"]),
            ("sate2", ["0.0", "0.02", "0.1"]),
            ("K", ["2", "2.0", "3", "x"]),
            ("p", ["0.4, 0.3, 0.3", "0.2, 0.5, 0.3", "0.5, 0.5", "0.4, 0.3, 0.2", "0.6,0.2,0.2"]),
            ("f_kind", ["constant", "linear", "quadratic", "linear"]),
            ("L", ["pairwise(1,2)", "1,0", "0,0", "1,0;0,1", "1,0,0", "pairwise(1,2)"]),
        ],
    )
    def test_points_bitwise_equal_to_single_builds(self, base, key, values):
        if key == "theta_tau":
            base = dict(base, tau_kind="linear", AA="0.7")
        self.assert_sweep(base, key, values)

    @pytest.mark.parametrize(
        "key, values",
        [("sate1", ["0.02", "0.1"]), ("theta_tau", ["0.0", "0.2"]), ("q", ["2", "0", "1"]),
         ("f_kind", ["linear", "constant"])],
    )
    def test_key_absent_from_base(self, key, values):
        # without sate1 the base itself does not read; the others default
        base = dict(LINEAR_CFG)
        del base[key]
        self.assert_sweep(base, key, values)

    @pytest.mark.parametrize("base", [GOLDEN_CFG, LINEAR_CFG], ids=["constant", "linear"])
    def test_first_point_fails_and_later_points_build(self, base):
        # the first point that reads without error is the base of the rest
        built = self.assert_sweep(base, "AA", ["1.5", "0.5", "2.0", "0.7"])
        assert [type(item).__name__ for item in built] == [
            "DataValidationError", "DesignInputs", "DataValidationError", "DesignInputs",
        ]
        built = self.assert_sweep(base, "T", ["x", "0", "30", "-1", "12"])
        assert [type(item).__name__ for item in built] == [
            "DataValidationError", "DataValidationError", "DesignInputs", "DataValidationError",
            "DesignInputs",
        ]

    @pytest.mark.parametrize("base", [GOLDEN_CFG, LINEAR_CFG], ids=["constant", "linear"])
    def test_ignored_key_leaves_every_point_the_base_build(self, base):
        single = inputs_from_config(base)
        for stacked in _inputs_from_sweep(base, "notes", ["a", "b", "1.5"]):
            self.assert_same(stacked, single)

    def test_point_keeps_its_first_error_in_config_order(self):
        # AA = 1.5 fails its tau pattern, a config step before the q check
        # of the build, which the other points then fail
        built = self.assert_sweep(dict(GOLDEN_CFG, q="0"), "AA", ["0.5", "1.5", "0.7"])
        assert [str(item) for item in built] == [
            "q must be >= 1", "tau pattern leaves (0, 1]: range [1.5, 1.5]", "q must be >= 1",
        ]
        assert all(type(item) is DataValidationError for item in built)

    def test_each_point_keeps_its_own_error(self):
        sweeps = [
            # a tau pattern out of range between two builds
            (GOLDEN_CFG, "AA", ["1.0", "1.5", "0.5"],
             ["DesignInputs", "DataValidationError", "DesignInputs"]),
            # a null contrast, a gamma that is not finite
            (GOLDEN_CFG, "sate1", ["0.0", "nan", "0.053"],
             ["NullContrastError", "DataValidationError", "DesignInputs"]),
            # a config parse error
            (GOLDEN_CFG, "T", ["x", "210"], ["DataValidationError", "DesignInputs"]),
            # a zero contrast matrix, and a second contrast group
            (GOLDEN_CFG, "L", ["0,0", "1,0", "pairwise(1,2)"],
             ["NullContrastError", "DesignInputs", "DesignInputs"]),
            # fine, p = 2
            (LINEAR_CFG, "T", ["2", "30"], ["DesignInputs", "DesignInputs"]),
        ]
        for base, key, texts, kinds in sweeps:
            built = self.assert_sweep(base, key, texts)
            assert [type(item).__name__ for item in built] == kinds

    def test_singular_v_fails_only_its_point(self):
        ok = dict(k_arms=2, t_points=4, rand_probs=np.array([0.3, 0.3]), tau=np.ones(4),
                  gamma=np.array([0.1, 0.0, 0.2, 0.0]), q=1, l_matrix=np.array([[1.0, -1.0]]),
                  eta=0.05, power_target=0.8)
        good = dict(ok, f=np.column_stack([np.ones(4), np.arange(1.0, 5.0)]))
        singular = dict(ok, f=np.ones((4, 2)))
        points, errors = DesignInputs._stack([good, singular, good])
        assert errors[0] is None and errors[2] is None
        assert isinstance(errors[1], SingularSystemError)
        with pytest.raises(SingularSystemError) as single:
            DesignInputs(**singular)
        assert str(errors[1]) == str(single.value)
        assert "design matrix V is singular" in str(errors[1])
        assert points[0].lambda_rate == DesignInputs(**good).lambda_rate


#: The field checks of DesignInputs that a break below fails, in the order
#: it makes them, with their messages for K arms, T points and basis size p.
FIELD_CHECKS = [
    ("probs range", lambda k, t, p: "active-arm probabilities must be positive with row sums < 1"),
    ("tau length", lambda k, t, p: f"tau must have length T={t}"),
    ("tau range", lambda k, t, p: "tau values must lie in (0, 1]"),
    ("f rows", lambda k, t, p: f"f must be (T, p) with T={t}"),
    ("f finite", lambda k, t, p: "f must be finite"),
    ("gamma length", lambda k, t, p: f"gamma must have length K*p = {k * p}"),
    ("gamma finite", lambda k, t, p: "gamma must be finite"),
    ("L columns", lambda k, t, p: f"l_matrix must have K={k} columns"),
    ("q", lambda k, t, p: "q must be >= 1"),
    ("eta", lambda k, t, p: "eta must lie in (0, 1)"),
    ("power", lambda k, t, p: "power_target must lie in [0, 1)"),
]

#: Each way a point is broken, and the check it fails.
BREAKS = {
    "probs nan": "probs range", "probs zero": "probs range", "probs negative": "probs range",
    "probs row sum": "probs range", "tau zero": "tau range", "tau above one": "tau range",
    "tau length": "tau length", "f nonfinite": "f finite", "f rows": "f rows",
    "gamma length": "gamma length", "gamma nonfinite": "gamma finite", "L columns": "L columns",
    "q": "q", "eta": "eta", "power": "power",
}


def checked_point(rng, k_arms: int, t_points: int, p: int) -> dict:
    """DesignInputs fields that pass every field check: rand_probs a
    K-vector or (T, K), an intercept or (1, t) f basis."""
    weights = rng.uniform(0.2, 1.0, (t_points, k_arms + 1))
    probs = (weights / weights.sum(axis=1, keepdims=True))[:, 1:]
    f = np.ones((t_points, 1))
    if p == 2:
        f = np.column_stack([f, np.arange(1.0, t_points + 1)])
    return dict(
        k_arms=k_arms, t_points=t_points, rand_probs=probs[0] if rng.random() < 0.5 else probs,
        tau=rng.uniform(0.2, 1.0, t_points), f=f, gamma=rng.normal(size=k_arms * p),
        q=int(rng.integers(1, 4)), l_matrix=np.eye(k_arms)[: rng.integers(1, k_arms + 1)],
        eta=0.05, power_target=0.8,
    )


def broken(fields: dict, name: str, rng) -> dict:
    """fields with one more break, the one BREAKS names."""
    probs, tau, f, gamma = (
        np.array(fields[key], dtype=float) for key in ("rand_probs", "tau", "f", "gamma")
    )
    if name.startswith("probs"):
        if name == "probs row sum":
            row = probs if probs.ndim == 1 else probs[rng.integers(len(probs))]
            row[:] = (1.0 + rng.uniform(0.0, 0.5)) / len(row)
        else:
            value = {"probs nan": np.nan, "probs zero": 0.0, "probs negative": -0.1}[name]
            probs.flat[rng.integers(probs.size)] = value
        return dict(fields, rand_probs=probs)
    if name in ("tau zero", "tau above one"):
        tau[rng.integers(len(tau))] = 0.0 if name == "tau zero" else 1.0 + rng.uniform(1e-9, 1.0)
        return dict(fields, tau=tau)
    if name == "tau length":
        return dict(fields, tau=np.append(tau, 0.5))
    if name == "f nonfinite":
        f.flat[rng.integers(f.size)] = rng.choice([np.nan, np.inf, -np.inf])
        return dict(fields, f=f)
    if name == "f rows":
        return dict(fields, f=np.vstack([f, f[:1]]))
    if name == "gamma length":
        return dict(fields, gamma=np.append(gamma, 0.1))
    if name == "gamma nonfinite":
        gamma[rng.integers(len(gamma))] = rng.choice([np.nan, np.inf])
        return dict(fields, gamma=gamma)
    if name == "L columns":
        return dict(fields, l_matrix=np.ones((1, fields["k_arms"] + 1)))
    if name == "q":
        return dict(fields, q=int(rng.integers(-1, 1)))
    if name == "eta":
        return dict(fields, eta=float(rng.choice([0.0, 1.0, -0.1, np.nan])))
    return dict(fields, power_target=float(rng.choice([1.0, 1.5, -0.1, np.nan])))


def assert_same_build(stacked, single) -> None:
    """stacked is bitwise the DesignInputs single."""
    for name in ("rand_probs", "tau", "f", "gamma", "l_matrix", "v_matrix"):
        assert getattr(stacked, name).tobytes() == getattr(single, name).tobytes(), name
    assert stacked.contrast.row_basis.tobytes() == single.contrast.row_basis.tobytes()
    assert (stacked.v_condition, stacked.lambda_rate, stacked.rank_l) == (
        single.v_condition, single.lambda_rate, single.rank_l
    )


class TestStackedChecks:
    """The field checks run once over a stack of points; every point gets
    the error of its first failing check, which is the error it gets
    alone, and a point that passes is bitwise its single build."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        st.integers(1, 3),
        st.integers(1, 2),
        st.lists(
            st.tuples(
                st.integers(1, 4), st.integers(0, 2**32 - 1),
                st.lists(st.sampled_from(sorted(BREAKS)), max_size=3),
            ),
            min_size=1, max_size=6,
        ),
    )
    def test_each_point_fails_or_builds_as_alone(self, k_arms, p, drawn):
        order = [check for check, _ in FIELD_CHECKS]
        fields, wants = [], []
        for t_points, seed, breaks in drawn:
            rng = np.random.default_rng(seed)
            point = checked_point(rng, k_arms, t_points, p)
            for name in breaks:
                point = broken(point, name, rng)
            fields.append(point)
            first = min((order.index(BREAKS[name]) for name in breaks), default=None)
            wants.append(None if first is None else FIELD_CHECKS[first][1](k_arms, t_points, p))
        points, errors = DesignInputs._stack(fields)
        for point, error, kwargs, want in zip(points, errors, fields, wants):
            try:
                single = DesignInputs(**kwargs)
            except (DataValidationError, NumericalError) as exc:
                assert (type(error), str(error)) == (type(exc), str(exc))
            else:
                assert error is None
                assert_same_build(point, single)
            if want is not None:
                assert (type(error), str(error)) == (DataValidationError, want)


class TestArrayDataclassesCompareByIdentity:
    """Frozen dataclasses with array fields compare and hash by identity;
    generated value equality would raise on the arrays."""

    def test_compare_and_hash_do_not_raise(self):
        from mrtcat import (
            fit_wcls,
            run_monte_carlo,
            scenario_from_config,
            simulate_trial,
            solve_spd,
        )

        inputs = inputs_from_config(GOLDEN_CFG)
        scenario = scenario_from_config(
            {"family": "gm0", "n": "20", "T": "5", "p": "0.4, 0.3, 0.3", "AA": "1.0",
             "sate1": "0.3", "sate2": "0.1"}
        )
        objects = [
            inputs,
            inputs.contrast,
            required_sample_size(inputs),
            scenario,
            scenario.config,
            run_monte_carlo(
                scenario.config, n=20, replicates=2, spec=scenario.model_spec,
                contrast=scenario.l_matrix,
            ),
            fit_wcls(simulate_trial(scenario.config, n=20, seed=1), scenario.model_spec),
            solve_spd(np.eye(2), np.ones(2)),
        ]
        for obj in objects:
            assert obj == obj
            assert obj != copy.copy(obj)
            assert isinstance(hash(obj), int)
        assert inputs_from_config(GOLDEN_CFG) != inputs_from_config(GOLDEN_CFG)
