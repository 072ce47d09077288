"""Per-component sufficient statistics: incremental upkeep, the O(Kd) CLL, occupancy.

Every fast path here is checked against an exact reference: the
incrementally kept statistics against a full recompute, the statistics-based
complete-data log-likelihood against a row-wise sum, occupancy against a
bincount of the allocations, and the discrete trajectories against a digest
taken before the statistics were shared.

The digests that hash floats hold only where numpy and OpenBLAS run the
loops they were recorded under (see ``RECORDED_DISPATCH`` in conftest.py);
each such test's failure message names the loops in use.  On another host,
check a change against its parent commit instead: unpack the parent with
``git archive <parent> | tar -x -C <dir>``, run
``python -m pytest -q -k golden --tb=short`` in both trees, and compare the
digests each failing assertion prints (README, "Install and test").  A
change that keeps every bit fails the same tests with the same digests as
its parent.
"""

import hashlib

import numpy as np
import pytest

from digmix import parallel, samplers
from digmix.datagen import gen_miller_harrison, gen_misspec4, gen_motivating5, standardize
from digmix.model import (
    LOG_2PI,
    PASS_ROWS,
    Dataset,
    component_sufficient_stats,
    complete_log_likelihood,
    empirical_bayes_hyperparams,
    refresh_responsibilities,
    update_sufficient_stats,
)
from digmix.samplers import DIG, RSG, SSG, SamplerConfig, run_chain

# SHA-256 of every allocation snapshot and the allocation-draw count, per
# method, for golden_config(); taken before the statistics were kept
# incrementally, so equality shows that the discrete chains did not change.
GOLDEN = {
    SSG: "3bd7b84039a4fa1e89d402e32cf6513bee97aad47897447ad504124e5bac435b",
    RSG: "5a646eea749902128c38add7505b67a0fb935dc4bf91b16d45afe2237b9d2173",
    DIG: "f6e86f63551edbc978f14ab8f5af74c57601362404a8fcf2a0139a8f74b5512b",
}

# SHA-256 of a whole ChainTrace but its wall clock, per method and CLL mode,
# for the configuration in test_golden_trace_digest; taken before the per-method allocation steps
# replaced the method-branching loop, so equality shows that neither the
# chains nor any of their bookkeeping changed.
GOLDEN_TRACE = {
    (SSG, "running"): "6f1f16371935f8853121d15e991d45756ac096dff26bfe7f6d7e23beaf8e3bce",
    (SSG, "state"): "6081cc546022d88f0031aa36b55182841d97c848d2fad01a759ce74e3f7a97e5",
    (RSG, "running"): "4d6edeebd04dcb52e20841e2881b527d07675ef58257473e5bb4087b17e88b75",
    (RSG, "state"): "d897c902fcf625a8eddfb0e75f349d61c0318fb318f490341f5baec58a03f6da",
    (DIG, "running"): "7ac9c0b4a57bb7fce51dfe9632a0d0944e51c3ace8ecc817f68ae2d0e4a5316c",
    (DIG, "state"): "b82fed283bb1efe308c7ae930863b2e51302ec20a8ff02a9acab2433db564c66",
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


# ---------------------------------------------------------------- recompute against per-column bincounts

def stats_per_column(dataset, z, K):
    """Reference statistics: one bincount per column of x and of x squared."""
    counts = np.bincount(z, minlength=K).astype(float)
    sums = np.empty((K, dataset.d))
    sqsums = np.empty((K, dataset.d))
    for j in range(dataset.d):
        sums[:, j] = np.bincount(z, weights=dataset.x[:, j], minlength=K)
        sqsums[:, j] = np.bincount(z, weights=dataset.xsq[:, j], minlength=K)
    return counts, sums, sqsums


@pytest.mark.parametrize("n", [1, 2 * 8192 + 5])
@pytest.mark.parametrize("K", [1, 3, 20])
@pytest.mark.parametrize("d", [1, 2, 10])
def test_recompute_matches_per_column_bincounts(d, K, n):
    rng = np.random.default_rng(d * K)
    ds = Dataset(x=rng.standard_normal((n, d)) * 4 + 10)
    # Every other component stays empty (none at K = 1).
    z = 2 * rng.integers(0, (K + 1) // 2, n)
    for got, ref in zip(component_sufficient_stats(ds, z, K), stats_per_column(ds, z, K)):
        np.testing.assert_array_equal(got, ref)


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
        update_sufficient_stats(stats, ds, rows, z[rows], z_new, eye=np.eye(K))
        z[rows] = z_new
        assert_stats_equal(stats, ds, z, K)
    # Emptying a component leaves its sums at exact zeros.
    rows = np.nonzero(z == 0)[0]
    update_sufficient_stats(stats, ds, rows, z[rows], np.ones(rows.size, dtype=int), eye=np.eye(K))
    assert stats[0][0] == 0
    assert np.all(stats[1][0] == 0) and np.all(stats[2][0] == 0)


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

    def spy_update(*args, **kwargs):
        seen["updates"] += 1
        return real_update(*args, **kwargs)

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


def trace_digest(tr):
    """SHA-256 over every field of a trace except the wall clock, whose dtype alone enters.

    Arrays enter with their dtype and shape, so a changed dtype changes the
    digest even when the values do not.
    """
    h = hashlib.sha256()

    def add(a):
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())

    h.update(repr((tr.method, tr.n, tr.m, tr.s, tr.allocation_draws, tr.variance_clamps,
                   tr.discomfort_reference_count, tr.warnings)).encode())
    h.update(tr.wall_clock_ns.dtype.str.encode())
    for a in (tr.iteration, tr.cll, tr.lam, tr.ess, tr.g_weight, tr.occupied):
        add(a)
    for snaps in (tr.snapshots, tr.alpha_snapshots):
        for t in sorted(snaps):
            h.update(str(t).encode())
            add(snaps[t])
    if tr.discomfort_reference is not None:
        add(tr.discomfort_reference)
    for state in (tr.initial_state, tr.final_state):
        for a in (state.z, state.pi, state.mu, state.sigma2):
            add(a)
    return h.hexdigest()


@pytest.mark.parametrize("cll_mode", ["running", "state"])
@pytest.mark.parametrize("method", [SSG, RSG, DIG])
def test_golden_trace_digest(method, cll_mode, golden_host):
    ds, prior = golden_config()
    # A low bound on lambda, so that DIG's trace carries its bound warning;
    # SSG collects the discomfort reference.
    tr = run_chain(ds, 3, prior, SamplerConfig(method=method, T=300, m=10, seed=4, snapshot_every=7,
                                               Lambda=1.5, cll_mode=cll_mode,
                                               collect_discomfort_reference=method == SSG))
    assert (method != DIG) or tr.warnings
    assert trace_digest(tr) == GOLDEN_TRACE[method, cll_mode], golden_host


# SHA-256 of a whole ChainTrace, per method and K, for the configuration in
# test_golden_multi_block_trace_digest: n = 2 * 8192 + 27 rows, so that a full
# pass in row blocks of 8192 spans three blocks, the last one partial.  Taken
# before full passes ran in blocks or on threads, so equality shows that
# neither changed a draw or the bookkeeping.
GOLDEN_MULTI_BLOCK = {
    (SSG, 3): "217fd877d172f7965b0e7e747dae9066277383d234d501acc49931f52a8912f8",
    (SSG, 20): "82879b7236c7d5a9975a6636a8bf68d8d2a4d5381376f21be98a74f8dad03cda",
    (RSG, 3): "22ce9e84b54fa09df0ff0483750bc18165a065980cb7e4f7a140e189b583046f",
    (RSG, 20): "3d3b6786eedbb4baefac9faa7409da0ca44cc3b023781a990ef78c8dd8fab470",
    (DIG, 3): "f4511a0e0666b5ddaaef7af1feabd581dead912f80114aa96670d83aa98b32e2",
    (DIG, 20): "59fc260fb4fe58e2039b29359f61f821291adeb108a6c2b54cdd60cc6cf7dc26",
}


def multi_block_digest(method, K):
    ds = miller(n=2 * 8192 + 27, d=10, seed=6)
    prior = empirical_bayes_hyperparams(ds, K)
    return trace_digest(run_chain(ds, K, prior, SamplerConfig(method=method, T=12, m=300, seed=8,
                                                              snapshot_every=5,
                                                              collect_discomfort_reference=method == SSG)))


@pytest.mark.parametrize("K", [3, 20])
@pytest.mark.parametrize("method", [SSG, RSG, DIG])
def test_golden_multi_block_trace_digest(method, K, golden_host):
    assert multi_block_digest(method, K) == GOLDEN_MULTI_BLOCK[method, K], golden_host


# The three blocks forced onto two threads (1 + 2 blocks) and onto three
# (1 + 1 + 1); a host whose BLAS runs more than one thread runs them serially
# in the test above.  RSG runs no full pass.
@pytest.mark.parametrize("forced_pass_threads", [2, 3], indirect=True)
@pytest.mark.parametrize("K", [3, 20])
@pytest.mark.parametrize("method", [SSG, DIG])
def test_golden_multi_block_trace_digest_on_threads(method, K, forced_pass_threads, golden_host):
    assert multi_block_digest(method, K) == GOLDEN_MULTI_BLOCK[method, K], golden_host


@pytest.mark.parametrize("method", [SSG, DIG])
def test_threads_give_the_serial_chain(method, monkeypatch):
    # Four blocks: 2 + 2 on two threads, 1 + 1 + 2 on three.  Each run's
    # final state also enters a refresh on its own thread count.
    ds = miller(n=3 * PASS_ROWS + 100, d=3, seed=11)
    prior = empirical_bayes_hyperparams(ds, 20)
    config = SamplerConfig(method=method, T=6, m=500, seed=3, snapshot_every=2,
                           collect_discomfort_reference=method == SSG)
    monkeypatch.setattr(parallel, "blas_threads", lambda: 1)
    digests, refreshed = [], []
    for threads in (1, 2, 3):
        monkeypatch.setattr(parallel, "usable_cpus", lambda k=threads: k)
        tr = run_chain(ds, 20, prior, config)
        digests.append(trace_digest(tr))
        refreshed.append(refresh_responsibilities(ds, tr.final_state).p)
    assert digests[1:] == digests[:1] * 2
    for p in refreshed[1:]:
        np.testing.assert_array_equal(p, refreshed[0])
