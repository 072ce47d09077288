"""Per-component sufficient statistics: incremental upkeep, the O(Kd) CLL, occupancy.

Every fast path here is checked against an exact reference: the
incrementally kept statistics against a full recompute, the statistics-based
complete-data log-likelihood against a row-wise sum, occupancy against a
bincount of the allocations, and the discrete trajectories against a digest
taken before the statistics were shared.
"""

import hashlib

import numpy as np
import pytest

from digmix import samplers
from digmix.datagen import gen_miller_harrison, gen_misspec4, gen_motivating5, standardize
from digmix.model import (
    LOG_2PI,
    Dataset,
    component_sufficient_stats,
    complete_log_likelihood,
    empirical_bayes_hyperparams,
    sample_component_params,
    sample_mixture_weights,
    update_sufficient_stats,
)
from digmix.samplers import DIG, RSG, SSG, SamplerConfig, init_state, run_chain

# SHA-256 of every allocation snapshot and the allocation-draw count, per
# method, for golden_config(); taken before the statistics were kept
# incrementally, so equality shows that the discrete chains did not change.
GOLDEN = {
    SSG: "3bd7b84039a4fa1e89d402e32cf6513bee97aad47897447ad504124e5bac435b",
    RSG: "5a646eea749902128c38add7505b67a0fb935dc4bf91b16d45afe2237b9d2173",
    DIG: "f6e86f63551edbc978f14ab8f5af74c57601362404a8fcf2a0139a8f74b5512b",
}


def cll_rowwise(dataset, state):
    """Reference CLL: log pi_{z_i} + log N(x_i | mu_{z_i}, sigma2_{z_i}) summed row by row."""
    z = state.z
    mu = state.mu[z]
    s2 = state.sigma2[z]
    quad = ((dataset.x - mu) ** 2 / s2).sum(axis=1)
    logdet = np.log(s2).sum(axis=1)
    return float(np.sum(np.log(state.pi[z]) - 0.5 * (LOG_2PI * dataset.d + logdet + quad)))


def assert_stats_equal(stats, dataset, z, K):
    """Counts exactly; sums and sums of squares to 1e-10 of the summed magnitudes."""
    counts, sums, sqsums = stats
    ref_counts, ref_sums, ref_sq = component_sufficient_stats(dataset, z, K)
    np.testing.assert_array_equal(counts, ref_counts)
    abs_sums = component_sufficient_stats(Dataset(x=np.abs(dataset.x)), z, K)[1]
    assert np.all(np.abs(sums - ref_sums) <= 1e-10 * abs_sums)
    assert np.all(np.abs(sqsums - ref_sq) <= 1e-10 * ref_sq)


def miller(n=200, d=2, seed=0):
    ds, _ = standardize(gen_miller_harrison(n, d, np.random.default_rng(seed)))
    return ds


# ---------------------------------------------------------------- update against recompute

def test_update_matches_recompute_and_empties_exactly():
    rng = np.random.default_rng(0)
    ds = Dataset(x=rng.standard_normal((50, 3)) * 4 + 10)
    K = 4
    z = rng.integers(0, K, ds.n)
    stats = component_sufficient_stats(ds, z, K)
    for _ in range(200):
        rows = rng.choice(ds.n, 7, replace=False)
        z_new = rng.integers(0, K, 7)
        update_sufficient_stats(stats, ds.x[rows], z[rows], z_new)
        z[rows] = z_new
        assert_stats_equal(stats, ds, z, K)
    # Emptying a component leaves its sums at exact zeros.
    rows = np.nonzero(z == 0)[0]
    update_sufficient_stats(stats, ds.x[rows], z[rows], np.ones(rows.size, dtype=int))
    assert stats[0][0] == 0
    assert np.all(stats[1][0] == 0) and np.all(stats[2][0] == 0)


def test_draws_identical_with_given_stats():
    ds = miller()
    prior = empirical_bayes_hyperparams(ds, 3)
    state = init_state(ds, 3, prior, np.random.default_rng(1))
    stats = component_sufficient_stats(ds, state.z, 3)
    pi_a = sample_mixture_weights(state, prior, np.random.default_rng(2))
    pi_b = sample_mixture_weights(state, prior, np.random.default_rng(2), stats)
    np.testing.assert_array_equal(pi_a, pi_b)
    a = sample_component_params(ds, state, prior, np.random.default_rng(2))
    b = sample_component_params(ds, state, prior, np.random.default_rng(2), stats)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


# ---------------------------------------------------------------- chains keep exact statistics

@pytest.mark.parametrize("method,m", [
    (RSG, 10),
    (DIG, 10),
    (RSG, 99),      # m just below n/2: many duplicate indices per draw
    (DIG, 100),     # n/2 <= m < n: update and recompute alternate
    (RSG, 150),
    (RSG, 200),     # m = n: recomputed every iteration
])
def test_chain_statistics_match_recompute(monkeypatch, method, m):
    ds = miller(n=200)
    K = 3
    prior = empirical_bayes_hyperparams(ds, K)
    real_cll = samplers.complete_log_likelihood
    real_update = samplers.update_sufficient_stats
    seen = {"checked": 0, "updates": 0}

    def spy_cll(dataset, state, stats=None):
        assert_stats_equal(stats, dataset, state.z, K)
        value = real_cll(dataset, state, stats)
        assert value == pytest.approx(cll_rowwise(dataset, state), rel=1e-10)
        seen["checked"] += 1
        return value

    def spy_update(*args):
        seen["updates"] += 1
        return real_update(*args)

    monkeypatch.setattr(samplers, "complete_log_likelihood", spy_cll)
    monkeypatch.setattr(samplers, "update_sufficient_stats", spy_update)
    T = 2000
    for cll_mode in ("state", "running"):
        tr = run_chain(ds, K, prior, SamplerConfig(method=method, T=T, m=m, seed=5,
                                                   snapshot_every=0, cll_mode=cll_mode))
        assert tr.allocation_draws == T * m
    assert seen["checked"] == 2 * T
    epoch = -(-ds.n // m)
    assert seen["updates"] == 2 * (T - len(range(1, T + 1, epoch)))


def test_long_chain_statistics_match_final_allocations(monkeypatch):
    ds = miller(n=300, d=3, seed=4)
    prior = empirical_bayes_hyperparams(ds, 4)
    last = {}

    def keep_last(dataset, state, stats=None):
        last["stats"] = tuple(s.copy() for s in stats)
        return 0.0

    monkeypatch.setattr(samplers, "complete_log_likelihood", keep_last)
    for method in (RSG, DIG):
        # Epoch = 30: the last iteration is the 29th update after a recompute.
        tr = run_chain(ds, 4, prior, SamplerConfig(method=method, T=10_020, m=10, seed=2,
                                                   snapshot_every=0, cll_mode="state"))
        assert_stats_equal(last["stats"], ds, tr.final_state.z, 4)


# ---------------------------------------------------------------- the O(Kd) likelihood

def cll_datasets():
    rng = np.random.default_rng(11)
    yield "miller", miller(n=1000, d=3, seed=3)
    yield "motivating5", standardize(gen_motivating5(500, rng))[0]
    yield "misspec4", gen_misspec4(1000, rng)        # raw scale, not standardised


@pytest.mark.parametrize("name,ds", list(cll_datasets()))
def test_cll_from_stats_matches_rowwise(name, ds):
    K = 5
    prior = empirical_bayes_hyperparams(ds, K)
    tr = run_chain(ds, K, prior, SamplerConfig(method=DIG, T=200, m=20, seed=1,
                                               snapshot_every=0, cll_mode="state"))
    for state in (tr.initial_state, tr.final_state):
        expect = cll_rowwise(ds, state)
        stats = component_sufficient_stats(ds, state.z, K)
        assert complete_log_likelihood(ds, state) == pytest.approx(expect, rel=1e-10)
        assert complete_log_likelihood(ds, state, stats) == pytest.approx(expect, rel=1e-10)
    assert tr.cll[-1] == pytest.approx(cll_rowwise(ds, tr.final_state), rel=1e-10)


# ---------------------------------------------------------------- occupancy and trajectories

@pytest.mark.parametrize("method", [SSG, RSG, DIG])
def test_occupancy_is_bincount_of_snapshots(method):
    ds = miller(n=120)
    K = 6
    prior = empirical_bayes_hyperparams(ds, K)
    tr = run_chain(ds, K, prior, SamplerConfig(method=method, T=150, m=5, seed=3, snapshot_every=1))
    for t, z in tr.snapshots.items():
        assert tr.occupied[t - 1] == np.count_nonzero(np.bincount(z, minlength=K))


def golden_config():
    ds = miller(n=200)
    return ds, empirical_bayes_hyperparams(ds, 3)


@pytest.mark.parametrize("method", [SSG, RSG, DIG])
def test_golden_allocation_digest(method):
    ds, prior = golden_config()
    tr = run_chain(ds, 3, prior, SamplerConfig(method=method, T=300, m=10, seed=0, snapshot_every=1))
    h = hashlib.sha256()
    for t in sorted(tr.snapshots):
        h.update(np.ascontiguousarray(tr.snapshots[t], dtype=np.int32).tobytes())
    h.update(str(tr.allocation_draws).encode())
    assert h.hexdigest() == GOLDEN[method]
