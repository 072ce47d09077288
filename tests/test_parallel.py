"""Full passes on threads: which passes get them, that none outlives its pass, and OpenBLAS's thread count."""

import multiprocessing
import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from digmix import model, parallel, samplers
from digmix.datagen import gen_miller_harrison
from digmix.model import PASS_ROWS, Dataset, empirical_bayes_hyperparams, pass_blocks
from digmix.samplers import DIG, SSG, SamplerConfig, run_chain


def test_thread_count_is_cores_capped_by_blocks(forced_pass_threads):
    assert [parallel.pass_threads(b) for b in (1, 2, 3, 4, 13)] == [1, 2, 3, 4, 4]


@pytest.mark.parametrize("forced_pass_threads, sizes",
                         [(1, [4]), (2, [2, 2]), (3, [1, 1, 2]), (4, [1, 1, 1, 1]), (9, [1, 1, 1, 1])],
                         indirect=["forced_pass_threads"])
def test_groups_take_consecutive_blocks(forced_pass_threads, sizes):
    n, K = 3 * PASS_ROWS + 100, 5
    P = np.empty((n, K))
    groups = pass_blocks(Dataset(x=np.zeros((n, 1))), P)
    assert [len(g) for g in groups] == sizes
    blocks = [b for g in groups for b in g]
    assert [b[0] for b in blocks] == [slice(lo, min(lo + PASS_ROWS, n)) for lo in range(0, n, PASS_ROWS)]
    assert all(np.shares_memory(b[3], P) for b in blocks)


def test_one_thread_for_one_block(forced_pass_threads):
    groups = pass_blocks(Dataset(x=np.zeros((PASS_ROWS, 1))), np.empty((PASS_ROWS, 3)))
    assert len(groups) == 1 and len(groups[0]) == 1


@pytest.mark.parametrize("reported", [2, None], ids=["two", "unavailable"])
def test_one_thread_unless_blas_runs_one(monkeypatch, forced_pass_threads, reported):
    monkeypatch.setattr(parallel, "blas_threads", lambda: reported)
    assert parallel.pass_threads(13) == 1


def test_no_openblas_means_no_count(monkeypatch):
    monkeypatch.setattr(parallel, "openblas", lambda: None)
    assert parallel.blas_threads() is None
    assert parallel.pass_threads(13) == 1


def pass_threads_in_worker(blocks):
    """Run in a pool worker: the pass's thread count there, with every other condition met."""
    parallel.blas_threads = lambda: 1
    parallel.usable_cpus = lambda: 4
    return parallel.pass_threads(blocks)


def test_one_thread_in_pool_worker(forced_pass_threads):
    assert parallel.pass_threads(5) == 4
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        assert pool.submit(pass_threads_in_worker, 5).result(timeout=120) == 1


@pytest.mark.parametrize("method", [SSG, DIG])
def test_no_thread_outlives_a_threaded_chain(monkeypatch, forced_pass_threads, method):
    ds = gen_miller_harrison(2 * PASS_ROWS + 27, 2, np.random.default_rng(0))
    prior = empirical_bayes_hyperparams(ds, 3)
    seen = []
    density = samplers.log_density_matrix

    def counted(*args, **kwargs):
        seen.append(threading.active_count())
        return density(*args, **kwargs)

    # SSG's sweep calls it through samplers, DIG's refresh through model.
    monkeypatch.setattr(samplers, "log_density_matrix", counted)
    monkeypatch.setattr(model, "log_density_matrix", counted)
    before = threading.active_count()
    run_chain(ds, 3, prior, SamplerConfig(method=method, T=3, m=50, seed=1, snapshot_every=0))
    assert max(seen) > before
    assert threading.active_count() == before


def test_an_error_on_any_thread_reaches_the_caller():
    def fail_on_last(group):
        if group == 2:
            raise FloatingPointError("overflow")

    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="overflow"):
        parallel.run_groups(fail_on_last, [0, 1, 2])
    assert threading.active_count() == before


def test_pin_blas_thread_sets_one_thread():
    handle = parallel.openblas()
    if handle is None:
        pytest.skip("numpy bundles no OpenBLAS")
    get, set_ = handle
    before = get()
    try:
        parallel.pin_blas_thread()
        assert parallel.blas_threads() == 1
    finally:
        set_(before)


def test_pin_blas_thread_without_openblas_does_nothing(monkeypatch):
    monkeypatch.setattr(parallel, "openblas", lambda: None)
    assert parallel.pin_blas_thread() is None
