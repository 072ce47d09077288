"""Diagnostics tests: convergence detection, ARI, PSM, epochs, modal allocation."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digmix.diagnostics import (
    MIN_REFERENCE_SAMPLES,
    adjusted_rand_index,
    alpha_limit_check,
    epochs,
    mode_allocation,
    posterior_similarity_matrix,
    ssg_reference,
    time_to_converge,
)
from digmix.samplers import ChainTrace
from digmix.model import MixtureState


def _trace(cll, wall=None, m=10, n=100):
    T = len(cll)
    state = MixtureState(z=np.zeros(2, dtype=int), pi=np.array([1.0]),
                         mu=np.zeros((1, 1)), sigma2=np.ones((1, 1)))
    return ChainTrace(
        method="SSG", n=n, m=m,
        iteration=np.arange(1, T + 1),
        wall_clock_ns=np.asarray(wall if wall is not None else np.arange(1, T + 1) * 1000, dtype=np.int64),
        cll=np.asarray(cll, dtype=float),
        lam=np.full(T, np.nan), ess=np.full(T, np.nan), g_weight=np.full(T, np.nan),
        occupied=np.ones(T, dtype=int), snapshots={}, final_state=state, initial_state=state,
    )


# ---------------------------------------------------------------- reference level

def test_ssg_reference_level_and_variance():
    t1 = _trace(np.concatenate([np.zeros(50), np.full(100, -10.0)]))
    t2 = _trace(np.concatenate([np.zeros(50), np.full(100, -14.0)]))
    mean, var = ssg_reference([t1, t2], tail=100)
    assert mean == pytest.approx(-12.0)
    assert var == pytest.approx(8.0)        # sample variance of (-10, -14)


def test_ssg_reference_needs_two_chains():
    with pytest.raises(ValueError):
        ssg_reference([_trace(np.zeros(10))], tail=5)
    with pytest.raises(ValueError):
        ssg_reference([_trace(np.zeros(10))] * 2, tail=50)


# ---------------------------------------------------------------- time to convergence

def test_time_to_converge_step_series():
    # CLL jumps to the reference level at iteration 200; with window 100 the
    # first window fully inside the flat region ends at iteration 299.
    rng = np.random.default_rng(0)
    cll = np.concatenate([np.full(199, -50.0), -10.0 + 0.01 * rng.standard_normal(801)])
    rep = time_to_converge(_trace(cll), reference=(-10.0, 0.01), window=100)
    assert rep.t2c_iteration is not None
    assert 250 <= rep.t2c_iteration <= 299
    assert rep.t2c_seconds == pytest.approx(rep.t2c_iteration * 1000 / 1e9)


def test_time_to_converge_never():
    cll = np.full(300, -50.0)
    rep = time_to_converge(_trace(cll), reference=(-10.0, 0.01), window=100)
    assert rep.t2c_iteration is None and rep.t2c_seconds is None


def test_time_to_converge_immediate_exact():
    cll = np.full(300, -10.0)
    rep = time_to_converge(_trace(cll), reference=(-10.0, 0.0), window=100)
    assert rep.t2c_iteration == 100     # earliest possible window


def test_time_to_converge_requires_window():
    with pytest.raises(ValueError):
        time_to_converge(_trace(np.zeros(50)), reference=(0.0, 1.0), window=100)


# ---------------------------------------------------------------- ARI

def _ari_bruteforce(a, b):
    n = len(a)
    same_a = same_b = same_both = 0
    pairs = 0
    for i, j in itertools.combinations(range(n), 2):
        pairs += 1
        sa, sb = a[i] == a[j], b[i] == b[j]
        same_a += sa
        same_b += sb
        same_both += sa and sb
    expected = same_a * same_b / pairs
    max_index = 0.5 * (same_a + same_b)
    if max_index == expected:
        return 1.0 if _relabel(a) == _relabel(b) else 0.0
    return (same_both - expected) / (max_index - expected)


def _relabel(v):
    seen = {}
    return tuple(seen.setdefault(x, len(seen)) for x in v)


def _all_partitions(n):
    # Every partition of {0..n-1} in restricted-growth-string form.
    def rec(prefix, maxval):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for v in range(maxval + 2):
            yield from rec(prefix + [v], max(maxval, v))
    yield from rec([0], 0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_ari_exhaustive_agreement(n):
    parts = list(_all_partitions(n))
    for a in parts:
        for b in parts:
            got = adjusted_rand_index(np.array(a), np.array(b))
            want = _ari_bruteforce(a, b)
            assert got == pytest.approx(want, abs=1e-12), (a, b)


def test_ari_perfect_and_independent():
    a = np.array([0, 0, 1, 1, 2, 2])
    assert adjusted_rand_index(a, a) == 1.0
    assert adjusted_rand_index(a, (a + 1) % 3) == 1.0      # label permutation
    assert adjusted_rand_index(np.zeros(6), np.zeros(6)) == 1.0   # both trivial


@given(st.lists(st.integers(0, 3), min_size=2, max_size=30))
@settings(max_examples=50, deadline=None)
def test_ari_symmetric_and_bounded(labels):
    rng = np.random.default_rng(0)
    a = np.array(labels)
    b = rng.integers(0, 3, len(a))
    ab = adjusted_rand_index(a, b)
    assert ab == pytest.approx(adjusted_rand_index(b, a), abs=1e-12)
    assert -1.0 - 1e-9 <= ab <= 1.0 + 1e-9


def test_ari_validation():
    with pytest.raises(ValueError):
        adjusted_rand_index([0, 1], [0])
    with pytest.raises(ValueError):
        adjusted_rand_index([0], [0])


# ---------------------------------------------------------------- PSM

def test_psm_invariants():
    rng = np.random.default_rng(1)
    snaps = [rng.integers(0, 3, 12) for _ in range(40)]
    psm = posterior_similarity_matrix(snaps)
    assert psm.shape == (12, 12)
    np.testing.assert_allclose(psm, psm.T)
    np.testing.assert_allclose(np.diag(psm), 1.0)
    assert np.all((psm >= 0) & (psm <= 1))


def test_psm_exact_small():
    snaps = [np.array([0, 0, 1]), np.array([0, 1, 1])]
    psm = posterior_similarity_matrix(snaps)
    np.testing.assert_allclose(psm, [[1.0, 0.5, 0.0], [0.5, 1.0, 0.5], [0.0, 0.5, 1.0]])


def psm_loop(snapshots):
    """Reference PSM: one pairwise comparison matrix per snapshot."""
    n = len(snapshots[0])
    psm = np.zeros((n, n))
    for z in snapshots:
        psm += (z[:, None] == z[None, :])
    return psm / len(snapshots)


@pytest.mark.parametrize("n,S,K", [(12, 40, 3), (30, 7, 5), (9, 50, 20), (200, 60, 3)])
def test_psm_matches_loop_exactly(n, S, K):
    # (9, 50, 20) has K > n; (200, 60, 3) spans four blocks of rows, the last one partial.
    rng = np.random.default_rng(n * S)
    snaps = [rng.integers(0, K, n).astype(np.int32) for _ in range(S)]
    np.testing.assert_array_equal(posterior_similarity_matrix(snaps), psm_loop(snaps))


def test_psm_peak_memory_below_loop():
    # The command line's default shape (n=1000, 500 snapshots, K=3).  The loop
    # peaks at two float64 (n, n) arrays (the sum and its quotient); the
    # streamed counts add only the uint8 indicator and a block of rows to the
    # (n, n) result.
    n, S, K = 1000, 500, 3
    rng = np.random.default_rng(0)
    snaps = [rng.integers(0, K, n).astype(np.int32) for _ in range(S)]
    tracemalloc.start()
    try:
        posterior_similarity_matrix(snaps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * n * n * 8


def test_psm_needs_snapshots():
    with pytest.raises(ValueError):
        posterior_similarity_matrix([])


# ---------------------------------------------------------------- selection-weight limit

def test_alpha_limit_check_reads_recorded_snapshots_only():
    ssg, dig = _trace(np.zeros(20)), _trace(np.zeros(20))
    ssg.discomfort_reference = np.array([1.0, 3.0])
    ssg.discomfort_reference_count = MIN_REFERENCE_SAMPLES
    dig.alpha_snapshots = {10: np.array([0.5, 0.5]), 20: np.array([0.3, 0.7])}
    gaps = alpha_limit_check(dig, ssg)
    assert gaps == pytest.approx({10: 0.25, 20: 0.05})
    assert alpha_limit_check(dig, ssg, checkpoints=[20]) == pytest.approx({20: 0.05})
    with pytest.raises(ValueError, match="iteration 15"):
        alpha_limit_check(dig, ssg, checkpoints=[10, 15])
    ssg.discomfort_reference_count = MIN_REFERENCE_SAMPLES - 1
    with pytest.raises(ValueError):
        alpha_limit_check(dig, ssg)


# ---------------------------------------------------------------- epochs / mode

def test_epochs():
    assert epochs(100, n=1000, m=10) == pytest.approx(1.0)
    np.testing.assert_allclose(epochs(np.array([50, 100]), 100, 2), [1.0, 2.0])
    with pytest.raises(ValueError):
        epochs(10, 100, 0)


def test_mode_allocation():
    snaps = [np.array([0, 1, 2]), np.array([0, 1, 1]), np.array([1, 1, 2])]
    np.testing.assert_array_equal(mode_allocation(snaps), [0, 1, 2])


def test_mode_allocation_matches_per_component_counts():
    # Against a count per component; ties go to the lowest component.
    rng = np.random.default_rng(5)
    snaps = [rng.integers(0, 4, 300) for _ in range(6)]
    stacked = np.stack(snaps)
    counts = np.stack([(stacked == k).sum(axis=0) for k in range(4)])
    np.testing.assert_array_equal(mode_allocation(snaps), counts.argmax(axis=0))
    np.testing.assert_array_equal(mode_allocation([np.array([2, 0]), np.array([1, 0])]), [1, 0])
