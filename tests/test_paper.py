"""The paper's proof steps, checked as exact identities where a finite
panel allows it.

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
from hypothesis import given, settings
from hypothesis import strategies as st

from mrtcat import DataValidationError, ModelSpec, MrtDataset, NumeratorPolicy
from mrtcat.design import _v_matrix
from mrtcat.wcls import fit_stack

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
    n = big_j * d
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    avail = np.zeros((n, t_points), dtype=np.int64)
    trt = np.zeros((n, t_points), dtype=np.int64)
    for t in range(t_points):
        order = rng.permutation(n)[: units[t] * d]
        avail[order, t] = 1
        trt[order, t] = np.repeat(np.arange(k_arms + 1), counts[t] * units[t])
    probs = np.broadcast_to(counts / d, (n, t_points, k_arms + 1))
    return k_arms, avail, trt, probs, units / big_j, rng.normal(size=(n, t_points))


def m_over_n(k_arms, avail, trt, probs, outcome, spec):
    n, t_points = avail.shape
    time = np.broadcast_to(np.arange(1.0, t_points + 1), (n, t_points))
    data = MrtDataset(
        subject_ids=tuple(range(n)), avail=avail, trt=trt, probs=probs, outcome=outcome,
        features={"time": time, "time2": time * time}, k_arms=k_arms,
    )
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


class TestStep3:
    @settings(max_examples=40, deadline=None)
    @given(
        panel=exact_panels(),
        f_columns=st.sampled_from(F_COLUMNS),
        g_columns=st.sampled_from(G_COLUMNS),
        user_probs=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
        move=st.integers(0, 2**32 - 1),
    )
    def test_m_over_n_is_v_on_a_panel_with_the_design_counts(
        self, panel, f_columns, g_columns, user_probs, move
    ):
        k_arms, avail, trt, probs, tau, outcome = panel
        t_points = avail.shape[1]
        grid = np.arange(1.0, t_points + 1)
        f = np.column_stack([np.ones(t_points)] + [
            {"time": grid, "time2": grid * grid}[name] for name in f_columns
        ])
        user = np.array(user_probs[: k_arms + 1]) / sum(user_probs[: k_arms + 1])
        policies = [
            (NumeratorPolicy("match_randomization"), probs[0, :, 1:]),
            (NumeratorPolicy("user_supplied", table=np.tile(user, (t_points, 1))),
             np.tile(user[1:], (t_points, 1))),
        ]
        # the control: one available point moves to another arm, from an
        # arm given at least twice, so that every arm stays observed
        rng = np.random.default_rng(move)
        arm_counts = np.bincount(trt[avail == 1], minlength=k_arms + 1)
        i, t = rng.choice(np.argwhere((avail == 1) & (arm_counts[trt] >= 2)))
        moved = trt.copy()
        moved[i, t] = (trt[i, t] + rng.integers(1, k_arms + 1)) % (k_arms + 1)
        for policy, ptilde in policies:
            spec = ModelSpec(f_columns=f_columns, g_columns=g_columns, numerator=policy)
            v = _v_matrix(ptilde, tau, f)
            assert relative_gap(m_over_n(k_arms, avail, trt, probs, outcome, spec), v) <= 1e-13
            assert relative_gap(m_over_n(k_arms, avail, moved, probs, outcome, spec), v) > 1e-6
