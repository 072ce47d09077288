"""Shared fixtures."""

import os

import pytest

from digmix import parallel

# The float64 exp and log loops, and the OpenBLAS kernels, under which the
# golden digests were recorded.  numpy's X86_V4 (AVX-512) exp and log give
# some results a different last bit than its X86_V3 and baseline loops do,
# and OpenBLAS's kernels differ likewise, so a float-bearing digest holds
# only on a host that dispatches the same ones.
RECORDED_DISPATCH = "exp X86_V4, log X86_V4, OpenBLAS SkylakeX"


@pytest.fixture
def forced_pass_threads(request, monkeypatch):
    """Full passes of two blocks or more on up to ``request.param`` threads
    (4 when not parametrized), whatever this host's cores and BLAS threads.

    Request it before ``golden_host``, so that the failure text reports the forced count.
    """
    threads = getattr(request, "param", 4)
    monkeypatch.setattr(parallel, "blas_threads", lambda: 1)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: threads)
    return threads


@pytest.fixture
def golden_host():
    """Failure text for a float-bearing golden digest: the loops in use here beside the recorded ones,
    and the thread counts of BLAS and of full passes."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:         # numpy < 2 cannot report its loops
        here = "unknown"
    else:
        info = opt_func_info(func_name="^(exp|log)$", signature="float64")
        here = ", ".join(f"{name} {loop['current']}" for name, sigs in sorted(info.items())
                         for loop in sigs.values())
    coretype = os.environ.get("OPENBLAS_CORETYPE", "not set")
    return (f"digests recorded under {RECORDED_DISPATCH}; this host runs {here}, "
            f"OPENBLAS_CORETYPE {coretype}, OpenBLAS threads {parallel.blas_threads()}, "
            f"passes of many blocks on {parallel.pass_threads(parallel.usable_cpus())} thread(s).  "
            "On a host that differs, compare with the "
            "parent commit's digests taken on the same host (tests/test_sufficient_stats.py).")
