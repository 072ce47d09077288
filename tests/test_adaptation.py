"""Adaptation machinery tests: discomfort, ESS, lambda solving, weight schedules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from digmix.adaptation import (
    AdaptiveState,
    DiscomfortConfig,
    WeightSchedule,
    discomfort,
    ess,
    lambda_bound_warning,
    lambda_schedule,
    refresh_due,
    solve_lambda,
    transition_point,
    update_selection_weights,
    weight_pair,
)

E_M1 = 0.36787944117144233
E_M5 = 0.006737946999085467
ESS_PAIR = 1.6480542736638852        # (1+e^{-1})^2 / (1+e^{-2}) for p=(0,1), lambda=1
LAMBDA_CLOSED = 1.3169578969248164   # -ln(2-sqrt(3)): ESS(lambda)=1.5 for p=(0,1)


# ---------------------------------------------------------------- discomfort

def test_exponential_discomfort_values():
    assert discomfort(1.0, 1.0) == pytest.approx(E_M1, abs=1e-12)
    assert discomfort(1.0, 5.0) == pytest.approx(E_M5, abs=1e-12)
    assert discomfort(0.0, 7.0) == pytest.approx(1.0, abs=1e-15)


def test_discomfort_monotone_decreasing_in_p():
    p = np.linspace(0, 1, 50)
    d = discomfort(p, 3.0)
    assert np.all(np.diff(d) < 0)


def test_discomfort_rejects_bad_probability():
    with pytest.raises(ValueError):
        discomfort(1.5, 1.0)
    with pytest.raises(ValueError):
        discomfort(-0.1, 1.0)


def test_partial_entropy_discomfort():
    cfg = DiscomfortConfig(kind="partial_entropy", q=2.0)
    # (1 - p^2) / (2 - 1) = 1 - p^2
    np.testing.assert_allclose(discomfort(np.array([0.0, 0.5, 1.0]), 1.0, cfg), [1.0, 0.75, 0.0])


def test_generalized_entropy_needs_rows():
    cfg = DiscomfortConfig(kind="generalized_entropy", q=2.0)
    with pytest.raises(ValueError):
        discomfort(np.array([0.5]), 1.0, cfg)
    rows = np.array([[0.5, 0.5], [1.0, 0.0]])
    np.testing.assert_allclose(discomfort(rows[:, 0], 1.0, cfg, p_row=rows), [0.5, 0.0])


def test_pareto_discomfort_zero_below_threshold():
    cfg = DiscomfortConfig(kind="pareto", p_m=0.5, shape=2.0)
    d = discomfort(np.array([0.25, 0.5, 1.0]), 1.0, cfg)
    assert d[0] == 0.0
    assert d[1] == pytest.approx(2.0 * 0.25 / 0.125)
    assert d[2] == pytest.approx(0.5)


def test_discomfort_config_validation():
    with pytest.raises(ValueError):
        DiscomfortConfig(kind="nope")
    with pytest.raises(ValueError):
        DiscomfortConfig(kind="partial_entropy", q=1.0)
    with pytest.raises(ValueError):
        DiscomfortConfig(kind="weibull", scale=-1.0, shape=1.0)
    with pytest.raises(ValueError):
        DiscomfortConfig(kind="hyperbolic", exponent=0.0)


# ---------------------------------------------------------------- ESS and lambda

def test_ess_pair_closed_form():
    assert ess(np.array([0.0, 1.0]), 1.0) == pytest.approx(ESS_PAIR, abs=1e-12)


def test_ess_uniform_is_n():
    p = np.full(100, 0.37)
    assert ess(p, 10.0) == pytest.approx(100.0, abs=1e-9)


def test_ess_underflow_safe():
    # Large lambda and spread-out p would underflow without the shift.
    p = np.linspace(0, 1, 1000)
    val = ess(p, 5000.0)
    assert np.isfinite(val) and val >= 1.0


def test_solve_lambda_closed_form():
    lam = solve_lambda(np.array([0.0, 1.0]), 1.5, Lambda=100.0)
    assert lam == pytest.approx(LAMBDA_CLOSED, abs=1e-9)


def test_solve_lambda_endpoints():
    p = np.array([0.0, 1.0])
    # Target above ESS(1): clip at the lower endpoint.
    assert solve_lambda(p, 1.99, Lambda=100.0) == 1.0
    # Target below ESS(Lambda): clip at the upper bound.
    assert solve_lambda(p, 1.0, Lambda=5.0) == 5.0
    with pytest.raises(ValueError):
        solve_lambda(p, 3.0, Lambda=100.0)


def test_solve_lambda_randomized_residuals():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = rng.integers(10, 400)
        p = rng.random(n)
        m = rng.uniform(1.5, 0.9 * n)
        lam = solve_lambda(p, m, Lambda=100.0)
        assert 1.0 <= lam <= 100.0
        if 1.0 < lam < 100.0:
            assert abs(ess(p, lam) - m) <= 1e-6 * n


def solve_lambda_grid_brentq(p, m, Lambda):
    """The earlier solver, kept as the oracle: a lazy 17-point grid scan
    brackets the first sign change of ESS - m, refined by Brent's method."""
    p = np.asarray(p, dtype=float)
    n = p.size
    tol = 1e-6 * n
    q = p - p.min()

    def f(lam):
        w = np.exp(-lam * q)
        return w.sum() ** 2 / np.sum(w * w) - m

    f_lo = f(1.0)
    if f_lo <= 0:
        return 1.0
    if f(Lambda) > 0:
        return Lambda
    grid = np.linspace(1.0, Lambda, 17)
    vals = [f_lo]
    bracket = None
    for i in range(1, len(grid)):
        if abs(vals[i - 1]) <= tol:
            return float(grid[i - 1])
        fi = f(grid[i])
        vals.append(fi)
        if vals[i - 1] > 0 >= fi:
            if fi == 0.0:
                return float(grid[i])
            bracket = (grid[i - 1], grid[i])
            break
    if bracket is None:
        return float(grid[int(np.argmin(np.abs(vals)))])
    return float(brentq(f, bracket[0], bracket[1], xtol=1e-12))


# Starting points of the Newton solve: inside [1, Lambda], outside it, at its ends.
LAMBDA_STARTS = {
    "inside": lambda rng, Lambda: rng.uniform(1.0, Lambda),
    "below": lambda rng, Lambda: rng.uniform(-50.0, 1.0),
    "above": lambda rng, Lambda: rng.uniform(Lambda, 10 * Lambda),
    "one": lambda rng, Lambda: 1.0,
    "Lambda": lambda rng, Lambda: Lambda,
}


@pytest.mark.parametrize("seed,start", enumerate(LAMBDA_STARTS))
def test_solve_lambda_newton_matches_grid_brentq(seed, start):
    rng = np.random.default_rng(seed)
    outcomes = {"one": 0, "Lambda": 0, "interior": 0}
    for trial in range(300):
        n = int(rng.integers(10, 5001))
        p = (rng.random(n), rng.beta(0.3, 0.3, n), rng.beta(5.0, 1.0, n))[trial % 3]
        m = float(rng.uniform(1.0, n))
        Lambda = float(rng.choice([5.0, 20.0, 100.0]))
        lam0 = LAMBDA_STARTS[start](rng, Lambda)
        expect = solve_lambda_grid_brentq(p, m, Lambda)
        got = solve_lambda(p, m, Lambda, lam0)
        assert got == pytest.approx(expect, rel=1e-9, abs=0.0), (n, m, Lambda, lam0)
        outcomes["one" if expect == 1.0 else "Lambda" if expect == Lambda else "interior"] += 1
    assert min(outcomes.values()) >= 10, outcomes


def test_lambda_schedule_phases():
    state = AdaptiveState(alpha=np.full(4, 0.25), lam=1.0, Lambda=100.0, s=10)
    p = np.array([0.1, 0.9, 0.5, 0.99])
    state.t = 5
    lam_greedy = lambda_schedule(state, p, m=2)
    assert lam_greedy > 1.0
    assert state.refresh_count == 1
    state.t = 11
    assert lambda_schedule(state, p, m=2) == 1.0
    assert state.refresh_count == 1  # post-s refreshes do not count as adaptation


def test_lambda_bound_warning():
    state = AdaptiveState(alpha=np.full(2, 0.5), lam=1.0, Lambda=10.0, s=100)
    assert lambda_bound_warning(state) is None
    state.refresh_count, state.lambda_at_bound_count = 10, 3
    assert lambda_bound_warning(state) is not None
    state.lambda_at_bound_count = 2
    assert lambda_bound_warning(state) is None


# ---------------------------------------------------------------- schedules

def test_weight_pair_sums_to_one():
    sched = WeightSchedule(s=50, a=1.0)
    for t in (1, 25, 49, 50, 51, 100, 5000):
        f, g = weight_pair(t, sched)
        assert f + g == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= g <= 1.0


def test_weight_pair_values():
    sched = WeightSchedule(s=50, a=1.0)
    f, g = weight_pair(51, sched)
    assert (f, g) == (pytest.approx(2 / 3), pytest.approx(1 / 3))
    f, _ = weight_pair(48, sched)  # t = s - 2
    assert f == pytest.approx(0.01798620996209155, abs=1e-12)
    # At t = s the tanh argument is zero: equal mixing.
    f, g = weight_pair(50, sched)
    assert f == g == pytest.approx(0.5)


def test_weight_pair_post_s_telescoping_to_uniform_average():
    # alpha_t = f alpha_{t-1} + g D_t with these weights is a flat average in
    # which every D_t carries weight 1/(t-s+2) and the starting vector carries
    # exactly twice that; adaptation therefore decays hyperbolically.
    sched = WeightSchedule(s=10, a=1.0)
    acc = {"init": 1.0}
    for t in range(11, 31):
        f, g = weight_pair(t, sched)
        for k in acc:
            acc[k] *= f
        acc[t] = g
    init = acc.pop("init")
    vals = np.array(list(acc.values()))
    np.testing.assert_allclose(vals, 1.0 / (30 - 10 + 2))     # all D's equal
    assert init == pytest.approx(2.0 * vals[0])
    assert init + vals.sum() == pytest.approx(1.0, abs=1e-12)


def test_transition_point_values():
    assert transition_point(1000, 3, 10) == 219
    assert transition_point(1000, 1, 10) == 1
    with pytest.raises(ValueError):
        transition_point(10, 3, 11)


@given(st.integers(10, 10000), st.integers(2, 30))
@settings(max_examples=50, deadline=None)
def test_transition_point_decreases_with_m(n, K):
    assert transition_point(n, K, 1) >= transition_point(n, K, n)
    assert transition_point(n, K, n) >= 1


# ---------------------------------------------------------------- alpha updates

def test_update_selection_weights_oracle():
    out = update_selection_weights([0.5, 0.5], [1.0, E_M1], f=0.5, g=0.5)
    np.testing.assert_allclose(out, [0.6334781973772773, 0.3665218026227227], atol=1e-12)


def test_update_selection_weights_simplex():
    rng = np.random.default_rng(2)
    alpha = rng.dirichlet(np.ones(30))
    for _ in range(100):
        d = rng.uniform(0.01, 1.0, 30)
        f = rng.random()
        alpha = update_selection_weights(alpha, d, f, 1 - f)
        assert np.all(alpha > 0)
        assert alpha.sum() == pytest.approx(1.0, abs=1e-9)


def test_update_selection_weights_collapse_guard():
    with pytest.raises(ValueError):
        update_selection_weights([0.5, 0.5], [0.0, 0.0], f=0.0, g=1.0)


def test_raw_recursion_properties():
    # The sampler's recursion on unnormalised weights: simplex after
    # normalisation, positivity floor e^{-Lambda}/n, diminishing adaptation,
    # and convergence to the mean discomfort under stationary inputs.
    rng = np.random.default_rng(3)
    n, Lambda, s = 50, 8.0, 20
    sched = WeightSchedule(s=s, a=1.0)
    lo = math.exp(-Lambda)
    raw = np.full(n, 1.0 / n)
    prev_norm = raw / raw.sum()
    d_mean = np.zeros(n)
    steps = 10_000
    for t in range(1, steps + 1):
        lam = Lambda if t <= s else 1.0
        d = discomfort(rng.random(n), lam)
        if t > s:
            d_mean += d
        f, g = weight_pair(t, sched)
        raw_prev = raw
        raw = f * raw + g * d
        norm = raw / raw.sum()
        assert np.all(raw >= min(lo, 1.0 / n) - 1e-15)
        assert np.all(norm >= lo / n - 1e-15)
        assert norm.sum() == pytest.approx(1.0, abs=1e-9)
        if t > s:
            # Raw update moves by at most g (entries live in [0, 1]); the
            # normalised vector moves by at most twice the relative raw move.
            assert np.max(np.abs(raw - raw_prev)) <= g + 1e-12
            assert np.sum(np.abs(norm - prev_norm)) <= 4.0 / (t - s + 2) + 1e-12
        prev_norm = norm
    # Fixed point: alpha approaches the running mean discomfort (normalised).
    d_mean /= steps - s
    gap = np.max(np.abs(prev_norm - d_mean / d_mean.sum()))
    assert gap < 0.1 / n


def test_constant_discomfort_fixed_point():
    rng = np.random.default_rng(4)
    n = 10
    d = rng.uniform(0.2, 1.0, n)
    sched = WeightSchedule(s=1, a=1.0)
    raw = np.full(n, 1.0 / n)
    for t in range(1, 2000):
        f, g = weight_pair(t, sched)
        raw = f * raw + g * d
    np.testing.assert_allclose(raw / raw.sum(), d / d.sum(), atol=1e-3)


def test_adaptive_state_validation():
    with pytest.raises(ValueError):
        AdaptiveState(alpha=np.array([0.7, 0.2]), lam=1.0)
    with pytest.raises(ValueError):
        AdaptiveState(alpha=np.array([0.5, 0.5]), lam=0.5)


# ---------------------------------------------------------------- refresh cadence

def test_refresh_cadence():
    T = 1000
    assert refresh_due(1, T)
    assert refresh_due(249, T) == (249 % 3 == 0)
    assert refresh_due(300, T)       # 300 divisible by 3 and 6
    assert refresh_due(498, T)       # second quarter: every 6
    assert not refresh_due(499, T)
    assert refresh_due(750, T)       # second half: every 10
    assert not refresh_due(755, T)
