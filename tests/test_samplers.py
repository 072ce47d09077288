"""Chain-runner tests: selection sampling, trace invariants, determinism."""

import sys

import numpy as np
import pytest

from digmix import samplers

from digmix.adaptation import DiscomfortConfig
from digmix.datagen import gen_miller_harrison
from digmix.model import Dataset, PriorSpec, empirical_bayes_hyperparams
from digmix.samplers import (
    DIG,
    RSG,
    SSG,
    SamplerConfig,
    init_state,
    run_chain,
    run_dig,
    run_rsg,
    run_ssg,
    sample_without_replacement,
)

PAIR_01 = 18 / 35   # P({0,1}) for weights (.5,.3,.2), two draws without replacement


def small_problem(seed=0, n=60, d=2):
    ds = gen_miller_harrison(n, d, np.random.default_rng(seed))
    prior = empirical_bayes_hyperparams(ds, 3)
    return ds, prior


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


def test_swr_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_without_replacement(np.array([0.5, 0.5]), 3, rng)
    with pytest.raises(ValueError):
        sample_without_replacement(np.array([0.5, 0.0]), 1, rng)
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
    ds, prior = small_problem()
    with pytest.raises(ValueError):
        run_chain(ds, 3, prior, SamplerConfig(method=RSG, T=5, m=None))
    with pytest.raises(ValueError):
        run_chain(ds, 3, prior, SamplerConfig(method=DIG, T=5, m=ds.n + 1))


def test_ssg_ignores_m():
    ds, prior = small_problem()
    tr = run_ssg(ds, 3, prior, SamplerConfig(T=5, m=7, seed=0, snapshot_every=0))
    assert tr.m == ds.n
    assert tr.allocation_draws == ds.n * 5


# ---------------------------------------------------------------- determinism / shared init

def test_determinism_same_seed():
    ds, prior = small_problem()
    for runner in (run_ssg, run_rsg, run_dig):
        cfg = SamplerConfig(T=40, m=6, seed=123, snapshot_every=5)
        a = runner(ds, 3, prior, cfg)
        b = runner(ds, 3, prior, cfg)
        np.testing.assert_array_equal(a.cll, b.cll)
        np.testing.assert_array_equal(a.final_state.z, b.final_state.z)
        for t in a.snapshots:
            np.testing.assert_array_equal(a.snapshots[t], b.snapshots[t])


def test_initial_state_shared_across_methods():
    ds, prior = small_problem()
    traces = [runner(ds, 3, prior, SamplerConfig(T=3, m=6, seed=9, snapshot_every=0))
              for runner in (run_ssg, run_rsg, run_dig)]
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

@pytest.mark.parametrize("method,runner", [(SSG, run_ssg), (RSG, run_rsg), (DIG, run_dig)])
def test_trace_invariants(method, runner):
    ds, prior = small_problem()
    T = 60
    tr = runner(ds, 3, prior, SamplerConfig(T=T, m=6, seed=4, snapshot_every=10))
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


def test_dig_lambda_and_g_schedules():
    ds, prior = small_problem(n=80)
    cfg = SamplerConfig(T=400, m=8, seed=5, snapshot_every=0)
    tr = run_dig(ds, 3, prior, cfg)
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
    run_r = run_dig(ds, 3, prior, SamplerConfig(cll_mode="running", **base))
    run_s = run_dig(ds, 3, prior, SamplerConfig(cll_mode="state", **base))
    assert np.all(np.isfinite(run_r.cll)) and np.all(np.isfinite(run_s.cll))
    assert not np.allclose(run_r.cll, run_s.cll)
    # Same RNG consumption: the chains themselves are identical.
    np.testing.assert_array_equal(run_r.final_state.z, run_s.final_state.z)


def test_discomfort_reference_collection():
    ds, prior = small_problem()
    tr = run_ssg(ds, 3, prior, SamplerConfig(T=40, seed=7, snapshot_every=0,
                                             collect_discomfort_reference=True))
    assert tr.discomfort_reference_count == 20
    ref = tr.discomfort_reference
    assert ref.shape == (ds.n,)
    assert np.all((ref >= np.exp(-1) - 1e-12) & (ref <= 1.0 + 1e-12))


@pytest.mark.parametrize("kind,kwargs", [
    ("partial_entropy", dict(q=2.0)),
    ("generalized_entropy", dict(q=2.0)),
    ("pareto", dict(p_m=0.1, shape=1.5)),
    ("weibull", dict(scale=0.5, shape=1.5)),
    ("hyperbolic", dict(exponent=1.0)),
])
def test_dig_alternative_discomfort_kinds_run(kind, kwargs):
    ds, prior = small_problem(n=40)
    cfg = SamplerConfig(T=30, m=4, seed=8, snapshot_every=0,
                        discomfort=DiscomfortConfig(kind=kind, **kwargs))
    tr = run_dig(ds, 3, prior, cfg)
    assert np.all(np.isfinite(tr.cll))


def test_explicit_rng_argument():
    ds, prior = small_problem()
    cfg = SamplerConfig(T=10, m=6, seed=0, snapshot_every=0)
    a = run_rsg(ds, 3, prior, cfg, rng=np.random.default_rng(77))
    b = run_rsg(ds, 3, prior, cfg, rng=np.random.default_rng(77))
    np.testing.assert_array_equal(a.cll, b.cll)


def test_rsg_only_touches_selected_indices():
    # With m=1, at most one allocation changes per iteration.
    ds, prior = small_problem(n=30)
    tr = run_rsg(ds, 3, prior, SamplerConfig(T=50, m=1, seed=9, snapshot_every=1))
    prev = tr.initial_state.z
    for t in range(1, 51):
        cur = tr.snapshots[t]
        assert np.sum(cur != prev) <= 1
        prev = cur


# ---------------------------------------------------------------- incremental assigned probabilities

@pytest.mark.parametrize("m", [10, 100])
def test_dig_assigned_probabilities_match_gather(monkeypatch, m):
    """DIG keeps p_{i,z_i} as a vector overwritten on the m updated rows; at
    every iteration it must equal the gather from the chain's own
    responsibility matrix, bit for bit.  ``weight_pair`` is called right
    before the discomfort step (and again in the untimed bookkeeping), so a
    wrapper on it reads the chain's locals at that point."""
    ds, prior = small_problem(n=200)
    real_weight_pair = samplers.weight_pair
    checked = [0]

    def spy(t, schedule):
        chain = sys._getframe(1).f_locals
        p_row = chain["resp"].p
        expect = p_row[np.arange(p_row.shape[0]), chain["state"].z]
        assert chain["p_assigned"].tobytes() == expect.tobytes(), f"iteration {t}"
        checked[0] += 1
        return real_weight_pair(t, schedule)

    monkeypatch.setattr(samplers, "weight_pair", spy)
    T = 2000
    for cll_mode in ("state", "running"):
        run_chain(ds, 3, prior, SamplerConfig(method=DIG, T=T, m=m, seed=3, snapshot_every=0,
                                              cll_mode=cll_mode))
    assert checked[0] == 2 * 2 * T
