"""Chain-runner tests: selection sampling, trace invariants, determinism."""

import tracemalloc

import numpy as np
import pytest

from digmix import samplers
from digmix.datagen import gen_miller_harrison, standardize
from digmix.adaptation import refresh_due
from digmix.model import (PASS_ROWS, VARIANCE_FLOOR, Dataset, PriorSpec, _normalise_rows,
                          empirical_bayes_hyperparams, log_density_matrix, refresh_responsibilities,
                          sample_allocations_rows)
from digmix.samplers import (
    DIG,
    RSG,
    SSG,
    SamplerConfig,
    init_state,
    run_chain,
    sample_without_replacement,
)

PAIR_01 = 18 / 35   # P({0,1}) for weights (.5,.3,.2), two draws without replacement


def small_problem(seed=0, n=60, d=2):
    ds = gen_miller_harrison(n, d, np.random.default_rng(seed))
    prior = empirical_bayes_hyperparams(ds, 3)
    return ds, prior


def run(method, ds, prior, **config):
    return run_chain(ds, 3, prior, SamplerConfig(method=method, **config))


# ---------------------------------------------------------------- selection sampling

def test_swr_basic_properties():
    rng = np.random.default_rng(0)
    w = np.array([0.5, 0.3, 0.2])
    idx = sample_without_replacement(w, 2, rng)
    assert len(set(idx.tolist())) == 2
    full = sample_without_replacement(w, 3, rng)
    assert sorted(full.tolist()) == [0, 1, 2]


def test_swr_pair_probability_oracle():
    rng = np.random.default_rng(1)
    w = np.array([0.5, 0.3, 0.2])
    hits = 0
    trials = 40000
    for _ in range(trials):
        idx = set(sample_without_replacement(w, 2, rng).tolist())
        hits += idx == {0, 1}
    se = np.sqrt(PAIR_01 * (1 - PAIR_01) / trials)
    assert hits / trials == pytest.approx(PAIR_01, abs=4 * se)


def test_swr_first_draw_marginal():
    rng = np.random.default_rng(2)
    w = np.array([0.1, 0.6, 0.3])
    firsts = np.array([sample_without_replacement(w, 1, rng)[0] for _ in range(30000)])
    props = np.bincount(firsts, minlength=3) / len(firsts)
    assert np.all(np.abs(props - w) < 0.012)


def swr_two_paths(weights, m, rng):
    """sample_without_replacement as it was with a separate full sort at m = n."""
    w = np.asarray(weights, dtype=float)
    keys = rng.standard_exponential(w.size)
    np.divide(keys, w, out=keys)
    if m == w.size:
        return keys.argsort()
    part = keys.argpartition(m)[:m]
    return part[keys[part].argsort()]


def test_swr_matches_two_path_oracle():
    rng = np.random.default_rng(11)
    for trial in range(300):
        n = int(rng.integers(1, 400))
        m = n if trial % 3 == 0 else int(rng.integers(1, n + 1))
        w = rng.uniform(0.01, 5.0, n)
        seed = int(rng.integers(2**32))
        got = sample_without_replacement(w, m, np.random.default_rng(seed))
        np.testing.assert_array_equal(got, swr_two_paths(w, m, np.random.default_rng(seed)),
                                      err_msg=f"n={n} m={m}")


def test_swr_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_without_replacement(np.array([0.5, 0.5]), 3, rng)
    for bad in (0.0, -0.5, np.nan):
        with pytest.raises(ValueError, match="strictly positive"):
            sample_without_replacement(np.array([0.5, bad]), 1, rng)
    with pytest.raises(ValueError):
        sample_without_replacement(np.array([0.5, 0.5]), 0, rng)


# ---------------------------------------------------------------- config validation

def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(method="XXX")
    with pytest.raises(ValueError):
        SamplerConfig(T=0)
    with pytest.raises(ValueError):
        SamplerConfig(cll_mode="mean")
    with pytest.raises(ValueError, match="snapshot_every"):
        SamplerConfig(snapshot_every=-5)
    with pytest.raises(ValueError, match="seed >= 0"):
        SamplerConfig(seed=-1)
    for method in (RSG, DIG):
        with pytest.raises(ValueError, match="only SSG"):
            SamplerConfig(method=method, m=5, collect_discomfort_reference=True)
    ds, prior = small_problem()
    with pytest.raises(ValueError):
        run_chain(ds, 3, prior, SamplerConfig(method=RSG, T=5, m=None))
    with pytest.raises(ValueError):
        run_chain(ds, 3, prior, SamplerConfig(method=DIG, T=5, m=ds.n + 1))


def test_ssg_ignores_m():
    ds, prior = small_problem()
    tr = run(SSG, ds, prior, T=5, m=7, seed=0, snapshot_every=0)
    assert tr.m == ds.n
    assert tr.allocation_draws == ds.n * 5


# ---------------------------------------------------------------- determinism / shared init

def test_determinism_same_seed():
    ds, prior = small_problem()
    for method in (SSG, RSG, DIG):
        a = run(method, ds, prior, T=40, m=6, seed=123, snapshot_every=5)
        b = run(method, ds, prior, T=40, m=6, seed=123, snapshot_every=5)
        np.testing.assert_array_equal(a.cll, b.cll)
        np.testing.assert_array_equal(a.final_state.z, b.final_state.z)
        for t in a.snapshots:
            np.testing.assert_array_equal(a.snapshots[t], b.snapshots[t])


def test_initial_state_shared_across_methods():
    ds, prior = small_problem()
    traces = [run(method, ds, prior, T=3, m=6, seed=9, snapshot_every=0) for method in (SSG, RSG, DIG)]
    for tr in traces[1:]:
        np.testing.assert_array_equal(tr.initial_state.z, traces[0].initial_state.z)
        np.testing.assert_allclose(tr.initial_state.mu, traces[0].initial_state.mu)
        np.testing.assert_allclose(tr.initial_state.sigma2, traces[0].initial_state.sigma2)


def test_init_state_shapes():
    ds, prior = small_problem()
    state = init_state(ds, 4, prior, np.random.default_rng(0))
    assert state.z.shape == (ds.n,)
    assert state.mu.shape == (4, ds.d)
    np.testing.assert_allclose(state.pi, 0.25)


# ---------------------------------------------------------------- trace invariants

@pytest.mark.parametrize("method", [SSG, RSG, DIG])
def test_trace_invariants(method):
    ds, prior = small_problem()
    T = 60
    tr = run(method, ds, prior, T=T, m=6, seed=4, snapshot_every=10)
    assert tr.T == T
    assert tr.method == method
    np.testing.assert_array_equal(tr.iteration, np.arange(1, T + 1))
    assert np.all(np.diff(tr.wall_clock_ns) >= 0)
    assert np.all(np.isfinite(tr.cll))
    assert np.all((tr.occupied >= 1) & (tr.occupied <= 3))
    assert sorted(tr.snapshots) == list(range(10, T + 1, 10))
    assert tr.allocation_draws == (ds.n if method == SSG else 6) * T
    if method == DIG:
        assert tr.s >= 1
        assert sorted(tr.alpha_snapshots) == sorted(tr.snapshots)
        for alpha in tr.alpha_snapshots.values():
            assert alpha.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(alpha > 0)
    else:
        assert tr.s is None
        assert np.all(np.isnan(tr.lam))


def test_dig_counts_greedy_refreshes_only():
    # The bound warning's counters: refreshes up to s, and those whose lambda
    # reached Lambda; the refreshes after s pin lambda at 1 and are not counted.
    ds, prior = small_problem(n=80)
    T, m = 100, 8
    rng = np.random.default_rng(3)
    state = init_state(ds, 3, prior, rng)
    step = samplers._AdaptiveScan(ds, 3, m, SamplerConfig(method=DIG, T=T, m=m, Lambda=1.5))
    s = step.schedule.s
    assert s < T
    for t in range(1, T + 1):
        step(t, state, rng)
    assert step.refreshes == sum(refresh_due(t, T) for t in range(1, s + 1))
    assert 0 < step.at_bound <= step.refreshes
    assert step.lam == 1.0


def test_dig_lambda_and_g_schedules():
    ds, prior = small_problem(n=80)
    tr = run(DIG, ds, prior, T=400, m=8, seed=5, snapshot_every=0)
    s = tr.s
    assert np.all(tr.lam[: min(s, 400)] >= 1.0)
    post = np.arange(s, 400)              # 0-based indices of iterations > s
    if len(post):
        # After the transition the decay parameter is pinned at 1 from the
        # next refresh onwards; g follows the polynomial schedule exactly.
        np.testing.assert_allclose(tr.g_weight[post], 1.0 / (post + 1 - s + 2))
        assert np.all(tr.lam[s + 20:] == 1.0)


def test_cll_modes_differ_and_are_finite():
    ds, prior = small_problem()
    base = dict(T=50, m=6, seed=6, snapshot_every=0)
    run_r = run(DIG, ds, prior, cll_mode="running", **base)
    run_s = run(DIG, ds, prior, cll_mode="state", **base)
    assert np.all(np.isfinite(run_r.cll)) and np.all(np.isfinite(run_s.cll))
    assert not np.allclose(run_r.cll, run_s.cll)
    # Same RNG consumption: the chains themselves are identical.
    np.testing.assert_array_equal(run_r.final_state.z, run_s.final_state.z)


@pytest.mark.parametrize("T", [1, 7, 40])
def test_discomfort_reference_collection(monkeypatch, T):
    # SSG calls discomfort only to add one iteration to the reference, so the
    # calls count the iterations it averaged: the second half, t > T // 2.
    ds, prior = small_problem()
    calls = []
    real = samplers.discomfort
    monkeypatch.setattr(samplers, "discomfort", lambda *args: calls.append(args) or real(*args))
    tr = run(SSG, ds, prior, T=T, seed=7, snapshot_every=0, collect_discomfort_reference=True)
    assert tr.discomfort_reference_count == len(calls) == T - T // 2
    ref = tr.discomfort_reference
    assert ref.shape == (ds.n,)
    assert np.all((ref >= np.exp(-1) - 1e-12) & (ref <= 1.0 + 1e-12))


@pytest.mark.parametrize("K", [3, 20])
def test_blocked_sweep_matches_whole_matrix_draw(K):
    # Three row blocks, the last of 5 rows: the same probabilities, the same
    # draws, and the generator left where one whole-matrix draw leaves it.
    ds = gen_miller_harrison(2 * PASS_ROWS + 5, 3, np.random.default_rng(K))
    prior = empirical_bayes_hyperparams(ds, K)
    state = init_state(ds, K, prior, np.random.default_rng(1))
    P = _normalise_rows(log_density_matrix(ds.x, ds.xsq, state))
    ref_rng = np.random.default_rng(2)
    ref_z = sample_allocations_rows(P, ref_rng.random(ds.n))
    step = samplers._SystematicScan(ds, K, ds.n, SamplerConfig(method=SSG))
    rng = np.random.default_rng(2)
    step(1, state, rng)
    np.testing.assert_array_equal(state.z, ref_z)
    np.testing.assert_array_equal(step.P, P)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("method", [SSG, DIG])
def test_full_pass_memory_stays_below_two_matrices(method):
    # The full pass holds one (n, K) matrix and block-sized temporaries, not
    # a second (n, K) matrix: traced peak below two (n, K) float64 arrays.
    n, K = 4 * PASS_ROWS, 20
    ds = gen_miller_harrison(n, 2, np.random.default_rng(0))
    prior = empirical_bayes_hyperparams(ds, K)
    tracemalloc.start()
    try:
        run_chain(ds, K, prior, SamplerConfig(method=method, T=4, m=300, seed=1, snapshot_every=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.0 * n * K * 8


@pytest.mark.parametrize("forced_pass_threads", [1, 2], indirect=True)
def test_full_pass_holds_no_matrix_temporary(forced_pass_threads):
    # A blocked pass allocates per block, never a whole (n, K) temporary:
    # one SSG step and one refresh into a given buffer each peak below half
    # of one float64 (n, K) array, on one thread or two.
    n, K = 8 * PASS_ROWS, 20
    ds = gen_miller_harrison(n, 10, np.random.default_rng(0))
    config = SamplerConfig(method=SSG, T=1, seed=1)
    rng = np.random.default_rng(1)
    state = init_state(ds, K, empirical_bayes_hyperparams(ds, K), rng)
    step, out = samplers._SystematicScan(ds, K, n, config), np.empty((n, K))
    for run_pass in (lambda: step(1, state, rng), lambda: refresh_responsibilities(ds, state, out=out)):
        tracemalloc.start()
        try:
            run_pass()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * n * K * 8


def test_rsg_only_touches_selected_indices():
    # With m=1, at most one allocation changes per iteration.
    ds, prior = small_problem(n=30)
    tr = run(RSG, ds, prior, T=50, m=1, seed=9, snapshot_every=1)
    prev = tr.initial_state.z
    for t in range(1, 51):
        cur = tr.snapshots[t]
        assert np.sum(cur != prev) <= 1
        prev = cur


# ---------------------------------------------------------------- cached discomfort

@pytest.mark.parametrize("m", [10, 100])
def test_dig_cached_discomfort_matches_fresh(monkeypatch, m):
    """DIG's step keeps exp(-lambda p_{i,z_i}) as a vector, recomputed at each
    refresh and overwritten on the m redrawn rows.  After every step it must
    equal the discomfort of p_{i,z_i} kept eagerly from full passes: every row
    at a refresh, then the redrawn rows at their new allocations.  The m-row
    pass can round differently from the full pass, hence the tolerance."""
    ds, prior = small_problem(n=200)
    T = 2000
    real_step = samplers._AdaptiveScan.__call__
    real_swr = samplers.sample_without_replacement
    drawn = []
    eager = np.empty(ds.n)
    checked = [0]

    def swr(*args):
        drawn.append(real_swr(*args))
        return drawn[-1]

    def spy(step, t, state, rng):
        # The step redraws allocations, not parameters, so one full pass
        # before it gives every probability it uses.
        P = refresh_responsibilities(ds, state).p
        if refresh_due(t, T):
            eager[:] = P[np.arange(ds.n), state.z]
        moved = real_step(step, t, state, rng)
        idx = drawn[-1]
        eager[idx] = P[idx, state.z[idx]]
        np.testing.assert_allclose(step.discomfort, np.exp(-step.lam * eager), rtol=1e-12,
                                   err_msg=f"iteration {t}")
        checked[0] += 1
        return moved

    monkeypatch.setattr(samplers, "sample_without_replacement", swr)
    monkeypatch.setattr(samplers._AdaptiveScan, "__call__", spy)
    run_chain(ds, 3, prior, SamplerConfig(method=DIG, T=T, m=m, seed=3, snapshot_every=0))
    assert checked[0] == T


def test_every_discomfort_is_the_one_formula(monkeypatch):
    """DIG's refresh, its m-row overwrite and SSG's reference all compute
    exp(-lambda p) through ``adaptation.discomfort``: DIG once per refresh and
    once per iteration, SSG once per iteration of the run's second half."""
    ds, prior = small_problem()
    T = 50
    calls = [0]
    real = samplers.discomfort

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(samplers, "discomfort", counted)
    run(DIG, ds, prior, T=T, m=6, seed=1, snapshot_every=0)
    assert calls[0] == sum(refresh_due(t, T) for t in range(1, T + 1)) + T
    calls[0] = 0
    run(SSG, ds, prior, T=T, seed=1, snapshot_every=0, collect_discomfort_reference=True)
    assert calls[0] == T - T // 2


# ---------------------------------------------------------------- adaptive-MCMC conditions

@pytest.mark.parametrize("seed", range(4))
def test_dig_adaptation_diminishes_and_weights_stay_bounded_after_s(seed):
    """DIG is an adaptive random-scan Gibbs sampler, valid under diminishing
    adaptation and selection probabilities bounded away from zero (Roberts &
    Rosenthal 2007; Łatuszyński, Roberts & Rosenthal 2013).  On criterion 2's
    data both hold from t = 2s on: over seeds 0-3, n * min alpha read
    0.852-0.855 and (t - s) * max_i |n alpha_t,i - n alpha_{t-10},i| at most
    14.8.  Between s and 2s the lambda reset breaks the change bound for a
    while (the product reached 2,175-7,052).  The greedy phase up to s has no
    floor at all: n * min alpha fell to 7e-38 ... 8e-7 there.  That phase is
    finite, so the asymptotic conditions still hold."""
    ds, _ = standardize(gen_miller_harrison(1000, 2, np.random.default_rng(3)))
    tr = run(DIG, ds, empirical_bayes_hyperparams(ds, 3), T=5000, m=10, seed=seed, snapshot_every=10)
    n, s, alpha = ds.n, tr.s, tr.alpha_snapshots
    assert s == 219
    first = -(-2 * s // 10) * 10       # the first snapshot at t >= 2s
    for t in range(first, tr.T + 1, 10):
        assert n * alpha[t].min() >= 0.5, f"iteration {t}"
        assert (t - s) * np.abs(n * (alpha[t] - alpha[t - 10])).max() <= 30.0, f"iteration {t}"


# ---------------------------------------------------------------- edge cases

def edge_case(name):
    """(dataset, K, prior) of one degenerate setting."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal((40, 2))
    if name == "K=1":
        ds, K = Dataset(x=x), 1
    elif name == "K>n":
        ds, K = Dataset(x=x[:5]), 8
    elif name == "duplicate-rows":
        ds, K = Dataset(x=np.repeat(x[:10], 4, axis=0)), 3
    else:
        # Half the points sit on one spot, and a variance prior at 1e-14 lets
        # the component holding them draw variances below the floor.
        ds = Dataset(x=np.vstack([np.zeros((20, 2)), x[:20]]))
        return ds, 2, PriorSpec(m0=np.zeros(2), tau2=1.0, alpha_sigma=2.0, beta_sigma=1e-14)
    return ds, K, empirical_bayes_hyperparams(ds, K)


@pytest.mark.parametrize("method,m", [(SSG, None), (RSG, 3), (RSG, "n"), (DIG, 3), (DIG, "n")])
@pytest.mark.parametrize("name", ["K=1", "K>n", "duplicate-rows", "collapsed-component"])
def test_edge_cases_run_every_method(name, method, m):
    ds, K, prior = edge_case(name)
    m = ds.n if m == "n" else m
    T = 400
    tr = run_chain(ds, K, prior, SamplerConfig(method=method, T=T, m=m, seed=2, snapshot_every=10))
    assert np.all(np.isfinite(tr.cll))
    assert tr.m == (ds.n if method == SSG else m)
    assert tr.allocation_draws == T * tr.m
    st = tr.final_state
    assert st.z.shape == (ds.n,) and 0 <= st.z.min() and st.z.max() < K
    assert st.pi.shape == (K,) and st.pi.sum() == pytest.approx(1.0)
    assert np.all(st.sigma2 >= VARIANCE_FLOOR) and np.all(np.isfinite(st.mu))
    assert np.all((1 <= tr.occupied) & (tr.occupied <= min(K, ds.n)))
    if K == 1:
        assert not st.z.any()
    if method == DIG:
        assert np.all(tr.lam >= 1.0) and np.all(np.isfinite(tr.ess))
        assert tr.alpha_snapshots[T].sum() == pytest.approx(1.0)
    if name == "collapsed-component":
        assert tr.variance_clamps > 0
        assert f"variance draws clamped at the floor {tr.variance_clamps} time(s)" in tr.warnings
        assert np.any(st.sigma2 == VARIANCE_FLOOR)
    else:
        assert tr.variance_clamps == 0


def test_duplicate_rows_leave_the_prior_unchanged():
    ds, K, prior = edge_case("duplicate-rows")
    once = empirical_bayes_hyperparams(Dataset(x=ds.x[::4]), K)
    np.testing.assert_allclose(prior.m0, once.m0, rtol=1e-12, atol=1e-15)
    assert (prior.tau2, prior.beta_sigma) == pytest.approx((once.tau2, once.beta_sigma), rel=1e-12)


@pytest.mark.parametrize("error", [FloatingPointError, ZeroDivisionError, OverflowError, ValueError,
                                   np.linalg.LinAlgError])
def test_failing_iteration_is_named(monkeypatch, error):
    ds, prior = small_problem()
    real = samplers.sample_component_params
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 5:
            raise error("overflow")
        return real(*args, **kwargs)

    monkeypatch.setattr(samplers, "sample_component_params", failing)
    with pytest.raises(samplers.ChainError, match=rf"^iteration 5: {error.__name__}: overflow$") as info:
        run(DIG, ds, prior, T=20, m=4, seed=0)
    assert type(info.value.__cause__) is error


@pytest.mark.parametrize("error", [TypeError, IndexError, KeyError, AttributeError, MemoryError])
def test_programming_errors_propagate_unwrapped(monkeypatch, error):
    ds, prior = small_problem()

    def broken(*args, **kwargs):
        raise error("not a numerical failure")

    monkeypatch.setattr(samplers, "sample_component_params", broken)
    with pytest.raises(error, match="not a numerical failure") as info:
        run(DIG, ds, prior, T=20, m=4, seed=0)
    assert type(info.value) is error
