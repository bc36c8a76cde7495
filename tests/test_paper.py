"""The paper's proof steps, checked as exact identities where a finite
panel allows it.

Step 1 is the unbiasedness of the estimating function, whatever the
control model g.  On a panel whose realized counts match the design
(below), a term of the outcome that depends on t alone is orthogonal to
every weighted centered column: the points available at t on arm a add
ptilde_t(a) c(a) in total, and sum_a ptilde_t(a) c(a) = 0.  That covers
a control curve h(t) that g does not span and the ptilde_t(k) f_t'beta_k
part of the effect, and for the same reason the g-beta block of the
normal matrix vanishes.  So with the outcome h(t) + sum_k 1(A = k)
f_t'beta_k, beta_hat = M^-1 M beta = beta, up to rounding.

Step 3 derives the asymptotic variance of beta_hat from the beta block
of the normal matrix, whose expectation per subject is

    V = sum_t tau(t) kron(P_t, f_t f_t'),  P_t = diag(ptilde_t) - ptilde_t ptilde_t'

over the active arms.  The expectation is over availability and the
randomized arm.  A panel whose realized counts match the design exactly
(tau(t) n subjects available at t, p_t(k) of those on arm k) has no
sampling error left, so its M / n is V itself, up to rounding: each
available point on arm a adds its weight ptilde_t(a) / p_t(a) times
c(a) c(a)' kron f_t f_t', with c(a) = 1(a = k) - ptilde_t(k), and the
counts turn the sum over points into sum_a ptilde_t(a) c(a) c(a)' = P_t.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mrtcat import DataValidationError, ModelSpec, MrtDataset, NumeratorPolicy
from mrtcat.design import _v_matrix
from mrtcat.wcls import fit_stack, fit_wcls

#: f from (1, time, time2) and g from (1, time)
F_COLUMNS = [(), ("time",), ("time2",), ("time", "time2")]
G_COLUMNS = [(), ("time",)]


@st.composite
def exact_panels(draw):
    """A panel whose counts match its design: the (T, K+1) randomization
    probabilities share the denominator d, and J_t * d of the n = J * d
    subjects are available at t, c_t(k) * J_t of them on arm k."""
    k_arms = draw(st.sampled_from([2, 3]))
    t_points = draw(st.integers(1, 12))
    d = draw(st.integers(k_arms + 1, 8))
    # numerators of p_t: K + 1 positive integers that sum to d
    cuts = [
        sorted(draw(st.lists(st.integers(1, d - 1), min_size=k_arms, max_size=k_arms,
                             unique=True)))
        for _ in range(t_points)
    ]
    counts = np.diff([[0, *c, d] for c in cuts], axis=1)  # (T, K+1)
    # enough subjects for the fit's dimension checks: n > q + K p
    big_j = draw(st.integers(-(-12 // d), 4))
    units = np.array(draw(st.lists(st.integers(1, big_j), min_size=t_points,
                                   max_size=t_points)))
    # tau(t) = J_t / J varies over t and is 1 at one t at least
    units[draw(st.integers(0, t_points - 1))] = big_j
    return exact_panel(counts, units, draw(st.integers(0, 2**32 - 1)))


def exact_panel(counts, units, seed):
    """The panel of exact_panels with the (T, K+1) arm counts c_t, which
    sum to d at every t, and the units J_t; seed draws which subjects are
    available at t and on which arm, and the outcomes."""
    counts, units = np.asarray(counts), np.asarray(units)
    t_points, k_arms = counts.shape[0], counts.shape[1] - 1
    d, big_j = counts[0].sum(), units.max()
    n = big_j * d
    rng = np.random.default_rng(seed)
    avail = np.zeros((n, t_points), dtype=np.int64)
    trt = np.zeros((n, t_points), dtype=np.int64)
    for t in range(t_points):
        order = rng.permutation(n)[: units[t] * d]
        avail[order, t] = 1
        trt[order, t] = np.repeat(np.arange(k_arms + 1), counts[t] * units[t])
    probs = np.broadcast_to(counts / d, (n, t_points, k_arms + 1))
    return k_arms, avail, trt, probs, units / big_j, rng.normal(size=(n, t_points))


def panel_dataset(k_arms, avail, trt, probs, outcome):
    """The panel as an MrtDataset with the features time and time2."""
    n, t_points = avail.shape
    time = np.broadcast_to(np.arange(1.0, t_points + 1), (n, t_points))
    return MrtDataset(
        subject_ids=tuple(range(n)), avail=avail, trt=trt, probs=probs, outcome=outcome,
        features={"time": time, "time2": time * time}, k_arms=k_arms,
    )


def f_basis(f_columns, t_points):
    """The (T, p) values of the f basis: the intercept, then f_columns."""
    grid = np.arange(1.0, t_points + 1)
    return np.column_stack([np.ones(t_points)] + [
        {"time": grid, "time2": grid * grid}[name] for name in f_columns
    ])


def m_over_n(k_arms, avail, trt, probs, outcome, spec):
    n = avail.shape[0]
    data = panel_dataset(k_arms, avail, trt, probs, outcome)
    fit = fit_stack(
        data.avail[None], data.trt[None], data.probs[None], data.outcome[None],
        {name: arr[None] for name, arr in data.features.items()}, k_arms, spec,
    )
    # M is formed whether or not the normal matrix is singular (as with
    # T = 1 and a time column), but not after an earlier check fails
    assert not isinstance(fit.errors[0], DataValidationError)
    return fit.m[0] / n


def relative_gap(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def point_moves(k_arms, avail, trt):
    """The moves (i, t, arm) of one available point to another arm, from
    an arm given at least twice at its t, so that every arm stays
    observed at every t (as empirical_per_t requires).  M / n depends on
    t and the two arms alone, so one move is kept for each."""
    arm_counts = np.array([
        np.bincount(trt[avail[:, t] == 1, t], minlength=k_arms + 1)
        for t in range(avail.shape[1])
    ])
    given_twice = arm_counts[np.arange(avail.shape[1]), trt] >= 2
    moves = {}
    for i, t in np.argwhere((avail == 1) & given_twice):
        for arm in set(range(k_arms + 1)) - {trt[i, t]}:
            moves.setdefault((t, trt[i, t], arm), (i, t, arm))
    return list(moves.values())


def moved_m_over_n(k_arms, avail, trt, probs, outcome, spec, moves):
    """m_over_n of the panel after each move (i, t, arm), in one stacked fit."""
    data = panel_dataset(k_arms, avail, trt, probs, outcome)
    shape = (len(moves), *trt.shape)
    moved = np.repeat(trt[None], len(moves), axis=0)
    for r, (i, t, arm) in enumerate(moves):
        moved[r, i, t] = arm
    fit = fit_stack(
        np.broadcast_to(data.avail, shape), moved, data.probs[None],
        np.broadcast_to(data.outcome, shape),
        {name: arr[None] for name, arr in data.features.items()}, k_arms, spec,
    )
    assert not any(isinstance(error, DataValidationError) for error in fit.errors)
    return fit.m / avail.shape[0]


def step3_gaps(panel, f_columns, g_columns, user_probs, moves=None):
    """Check that M / n is V under each numerator policy; return, for each
    move (by default every one of point_moves), the smallest relative
    gap between V and M / n after the move over the policies."""
    k_arms, avail, trt, probs, tau, outcome = panel
    t_points = avail.shape[1]
    f = f_basis(f_columns, t_points)
    user = np.array(user_probs[: k_arms + 1]) / sum(user_probs[: k_arms + 1])
    policies = [
        (NumeratorPolicy("match_randomization"), probs[0, :, 1:]),
        # the counts make the empirical table p itself
        (NumeratorPolicy("empirical_per_t"), probs[0, :, 1:]),
        (NumeratorPolicy("user_supplied", table=np.tile(user, (t_points, 1))),
         np.tile(user[1:], (t_points, 1))),
    ]
    moves = point_moves(k_arms, avail, trt) if moves is None else moves
    gaps = []
    for policy, ptilde in policies:
        spec = ModelSpec(f_columns=f_columns, g_columns=g_columns, numerator=policy)
        v = _v_matrix(ptilde, tau, f)
        assert relative_gap(m_over_n(k_arms, avail, trt, probs, outcome, spec), v) <= 1e-13
        moved = moved_m_over_n(k_arms, avail, trt, probs, outcome, spec, moves)
        gaps.append([relative_gap(m, v) for m in moved])
    return np.min(gaps, axis=0)


class TestStep1:
    @settings(max_examples=40, deadline=None)
    @given(
        panel=exact_panels(),
        f_columns=st.sampled_from(F_COLUMNS),
        g_columns=st.sampled_from(G_COLUMNS),
        user_probs=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_beta_hat_is_beta_under_a_control_curve_g_does_not_span(
        self, panel, f_columns, g_columns, user_probs, seed
    ):
        k_arms, avail, trt, probs, _, _ = panel
        n, t_points = avail.shape
        # a normal matrix that is nonsingular: more decision points than
        # columns in f and in g
        assume(len(f_columns) < t_points and len(g_columns) < t_points)
        rng = np.random.default_rng(seed)
        f = f_basis(f_columns, t_points)
        beta = rng.normal(size=(k_arms, f.shape[1]))
        # the effect of arm A at (i, t), 0 on the reference arm
        effect = np.concatenate([np.zeros((1, t_points)), beta @ f.T])[trt, np.arange(t_points)]
        curve = 10.0 * rng.normal(size=t_points)
        user = np.array(user_probs[: k_arms + 1]) / sum(user_probs[: k_arms + 1])
        policies = [
            NumeratorPolicy("match_randomization"),
            NumeratorPolicy("empirical_per_t"),
            NumeratorPolicy("user_supplied", table=np.tile(user, (t_points, 1))),
        ]
        # rounding, relative to the largest outcome: with time2 in f and
        # T = 12, an effect reaches 144 |beta|
        scale = max(1.0, np.abs(curve + effect).max())
        for policy in policies:
            spec = ModelSpec(f_columns=f_columns, g_columns=g_columns, numerator=policy)
            fit = fit_wcls(panel_dataset(k_arms, avail, trt, probs, curve + effect), spec)
            assert np.abs(fit.beta_hat - beta.ravel()).max() <= 1e-12 * scale
            # the control: a curve that varies by subject moves beta_hat
            varying = 10.0 * rng.normal(size=(n, t_points))
            fit = fit_wcls(panel_dataset(k_arms, avail, trt, probs, varying + effect), spec)
            assert np.abs(fit.beta_hat - beta.ravel()).max() > 1e-6


class TestStep3:
    @settings(max_examples=40, deadline=None)
    @given(
        panel=exact_panels(),
        f_columns=st.sampled_from(F_COLUMNS),
        g_columns=st.sampled_from(G_COLUMNS),
        user_probs=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
    )
    def test_m_over_n_is_v_on_a_panel_with_the_design_counts(
        self, panel, f_columns, g_columns, user_probs
    ):
        # the control: the move of one point that moves M / n furthest
        # from V under every policy moves it by more than rounding
        assert step3_gaps(panel, f_columns, g_columns, user_probs).max() > 1e-6

    def test_control_clears_its_bound_where_a_random_move_did_not(self):
        # Built like a draw that once failed the test above, when it moved
        # a point picked at random: with time2 in f, moving subject 27 at
        # t = 1 from arm 3 to arm 1 changes M / n by 8.1e-7 of V's largest
        # entry, under user_supplied.
        panel = exact_panel(
            [[1, 2, 1, 4], [3, 3, 1, 1], [4, 2, 1, 1], [1, 1, 1, 5], [2, 2, 1, 3],
             [3, 2, 2, 1], [4, 1, 1, 2], [4, 2, 1, 1], [1, 1, 2, 4], [1, 2, 4, 1],
             [1, 3, 3, 1], [2, 4, 1, 1]],
            [3, 1, 4, 1, 2, 4, 3, 3, 3, 4, 3, 3],
            seed=3318228465,
        )
        args = (panel, ("time2",), (), [1.0, 0.25, 1.0, 1.0])
        assert panel[2][27, 0] == 3
        assert step3_gaps(*args, moves=[(27, 0, 1)])[0] < 1e-6
        assert step3_gaps(*args).max() > 1e-6
