"""Threads for the row blocks of a full pass, and the BLAS thread count that gates them.

A full (n, K) pass runs its row blocks on one thread per usable core only when
all of these hold:

- it spans two blocks or more;
- this process is no pool worker: the command's pool already runs one chain
  per usable CPU;
- numpy's bundled OpenBLAS runs one thread.  With OpenBLAS on its default
  thread count its own threads compete with the pass's: at n=1e5, d=10, K=20
  on a 2-core Xeon, SSG iterations on two pass threads were slower than
  serial ones in 3 of 4 runs.

Otherwise the pass runs its blocks in turn on the calling thread.  numpy and
OpenBLAS release the interpreter lock inside each block's work, so threads
overlap nearly all of it.
"""

from __future__ import annotations

import ctypes
import functools
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np


@functools.cache
def openblas():
    """``(get, set)``: the thread count functions of numpy's bundled OpenBLAS, or None.

    None when numpy bundles no ``scipy_openblas64_`` library, as a numpy
    built against another BLAS does, or the library lacks them.
    """
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_-*.so"))
    if not libs:
        return None
    lib = ctypes.CDLL(str(libs[0]))
    try:
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except AttributeError:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def blas_threads() -> int | None:
    """OpenBLAS's thread count, or None when it cannot be asked."""
    handle = openblas()
    return None if handle is None else handle[0]()


def pin_blas_thread():
    """Set OpenBLAS to one thread; without a handle, do nothing.

    Each of the command's pool workers runs it first, so that one chain per
    core does not also start OpenBLAS threads for every core.
    """
    handle = openblas()
    if handle is not None:
        handle[1](1)


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def pass_threads(blocks: int) -> int:
    """Threads for a full pass of ``blocks`` row blocks: ``min(usable_cpus(), blocks)``
    where the module's conditions allow more than one, else 1."""
    if blocks < 2 or multiprocessing.parent_process() is not None or blas_threads() != 1:
        return 1
    return min(usable_cpus(), blocks)


def run_groups(fn, groups: list):
    """``fn(group)`` for every group: the first on this thread, each other on one of its own.

    Returns once every call has finished, and raises the first error of a
    call; no thread outlives it.
    """
    if len(groups) == 1:
        fn(groups[0])
        return
    with ThreadPoolExecutor(len(groups) - 1) as pool:
        futures = [pool.submit(fn, group) for group in groups[1:]]
        fn(groups[0])
        for future in futures:
            future.result()
