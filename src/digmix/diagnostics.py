"""Convergence detection and clustering-quality metrics for chain traces."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .samplers import ChainTrace

Z_THRESHOLD = 1.96
MIN_REFERENCE_SAMPLES = 10      # post-burn-in discomfort samples alpha_limit_check needs

# Rows of pair counts per block, and columns per product within a block.
# Each block widens the whole uint8 indicator to float once, a tile at a
# time: at n=1000, S=500, K=3 that was 4.5 ms of a 66 ms count on a 2-core
# x86 host.  A block and the next, both alive while the next is counted,
# take 2 * 64 * n * 4 bytes.  128 rows counted that shape in 54 ms, but took
# the command's PSM path at n=1500, S=60, K=3 from 1.5 to 2.0 MB, past a
# tenth of one float64 (n, n) array.
_BLOCK_ROWS = 64


@dataclass
class ConvergenceReport:
    t2c_iteration: int | None
    t2c_seconds: float | None


def ssg_reference(traces: list[ChainTrace], tail: int = 1000) -> tuple[float, float]:
    """Reference CLL level from systematic-scan chains.

    Per-chain mean over the final ``tail`` iterations, averaged across chains;
    the variance is the sample variance (n-1 denominator) of those per-chain
    means.
    """
    if len(traces) < 2:
        raise ValueError("need >=2 chains for variance")
    means = []
    for tr in traces:
        if tr.T < tail:
            raise ValueError("trace shorter than tail")
        means.append(tr.cll[-tail:].mean())
    means = np.array(means)
    return float(means.mean()), float(means.var(ddof=1))


def time_to_converge(
    trace: ChainTrace,
    reference: tuple[float, float],
    window: int = 1000,
) -> ConvergenceReport:
    """First sliding-window z-test pass against the reference CLL level.

    Window means stride by one iteration; the z denominator combines the
    within-window variance of the mean with the between-chain reference
    variance.  A zero denominator counts as converged only when the means
    agree exactly.
    """
    ref_mean, ref_var = reference
    cll = trace.cll
    if len(cll) < window:
        raise ValueError("trace shorter than window")
    c1 = np.concatenate(([0.0], np.cumsum(cll)))
    c2 = np.concatenate(([0.0], np.cumsum(cll ** 2)))
    ends = np.arange(window, len(cll) + 1)            # window end iterations, 1-based
    wsum = c1[ends] - c1[ends - window]
    wsq = c2[ends] - c2[ends - window]
    wmean = wsum / window
    wvar = np.maximum(wsq / window - wmean ** 2, 0.0)
    denom = np.sqrt(wvar / window + ref_var)
    diff = wmean - ref_mean
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(denom > 0, diff / denom, np.where(diff == 0, 0.0, np.inf))
    hits = np.nonzero(np.abs(z) < Z_THRESHOLD)[0]
    if hits.size == 0:
        return ConvergenceReport(None, None)
    t = int(ends[hits[0]])
    seconds = float(trace.wall_clock_ns[t - 1]) / 1e9
    return ConvergenceReport(t, seconds)


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Chance-corrected agreement of two partitions (pair-counting form)."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape:
        raise ValueError("label vectors must have equal length")
    n = a.size
    if n < 2:
        raise ValueError("need n >= 2")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    ka, kb = ai.max() + 1, bi.max() + 1
    contingency = np.zeros((ka, kb))
    np.add.at(contingency, (ai, bi), 1)

    def comb2(v):
        return v * (v - 1) / 2.0

    sum_ij = comb2(contingency).sum()
    sum_a = comb2(contingency.sum(axis=1)).sum()
    sum_b = comb2(contingency.sum(axis=0)).sum()
    total = comb2(n)
    expected = sum_a * sum_b / total
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        # Degenerate denominator: 1 on exact agreement, 0 otherwise.
        return 1.0 if np.array_equal(ai, bi) else 0.0
    return float((sum_ij - expected) / (max_index - expected))


def pair_count_blocks(snapshots):
    """The (n, n) pair counts of a snapshot set, as an iterator over blocks of rows.

    Entry (i, j) counts the snapshots in which observations i and j share a
    component: the product of rows i and j of the snapshots' one-hot
    indicator.  The indicator is held as uint8, n * S * K bytes, K/8 of the
    int64 snapshots themselves; each square tile of counts is the product
    of two of its row slices widened to float.  So no array is (n, n) or
    grows with n * n.  The counts are whole numbers no larger than S, exact
    in float32 while S < 2**24.  The snapshots are checked when this is
    called, not when the blocks are drawn.
    """
    snaps = [np.asarray(z) for z in snapshots]
    if not snaps:
        raise ValueError("need at least one snapshot")
    S, n = len(snaps), snaps[0].size
    K = max(int(z.max()) for z in snaps) + 1
    dtype = np.float32 if S < 2**24 else np.float64
    onehot = np.zeros((n, S, K), dtype=np.uint8)
    obs = np.arange(n)
    for s, z in enumerate(snaps):
        onehot[obs, s, z] = 1
    onehot = onehot.reshape(n, S * K)

    def blocks():
        for r0 in range(0, n, _BLOCK_ROWS):
            left = onehot[r0:r0 + _BLOCK_ROWS].astype(dtype)
            counts = np.empty((len(left), n), dtype=dtype)
            for c0 in range(0, n, _BLOCK_ROWS):
                right = onehot[c0:c0 + _BLOCK_ROWS].astype(dtype)
                np.matmul(left, right.T, out=counts[:, c0:c0 + _BLOCK_ROWS])
            yield counts

    return blocks()


def posterior_similarity_matrix(snapshots) -> np.ndarray:
    """(n, n) fraction of snapshots in which each pair shares a component.

    The pair counts of :func:`pair_count_blocks`, each block divided by S
    into its rows of the result.
    """
    snaps = list(snapshots)
    blocks = pair_count_blocks(snaps)
    n = np.asarray(snaps[0]).size
    psm = np.empty((n, n))
    r0 = 0
    for counts in blocks:
        np.divide(counts, len(snaps), out=psm[r0:r0 + len(counts)], dtype=np.float64)
        r0 += len(counts)
    return psm


def epochs(iteration, n: int, m: int) -> float:
    """Work-normalised iteration count: one epoch is n/m iterations."""
    if m < 1:
        raise ValueError("need m >= 1")
    return iteration * m / n


def mode_allocation(snapshots) -> np.ndarray:
    """Per-observation modal component over a set of allocation snapshots."""
    snaps = np.stack([np.asarray(z) for z in snapshots])
    n = snaps.shape[1]
    K = int(snaps.max()) + 1
    counts = np.bincount((snaps + K * np.arange(n)).ravel(), minlength=n * K)
    return counts.reshape(n, K).argmax(axis=1)


def alpha_limit_check(
    dig_trace: ChainTrace,
    ssg_trace: ChainTrace,
    checkpoints=None,
) -> dict[int, float]:
    """Max-norm gap between DIG selection weights and their theoretical limit.

    The limit is the normalised posterior mean of exp(-p_{i,z_i}) (discomfort
    at decay 1), estimated from the second half of a long systematic-scan run.
    Returns {checkpoint iteration: gap} at each recorded snapshot, or at the
    given ``checkpoints``, each of which must be a recorded snapshot.
    """
    if ssg_trace.discomfort_reference_count < MIN_REFERENCE_SAMPLES:     # 0 when not collected
        raise ValueError("reference chain lacks enough post-burn-in discomfort samples")
    if not dig_trace.alpha_snapshots:
        raise ValueError("adaptive chain recorded no selection-weight snapshots")
    ref = ssg_trace.discomfort_reference
    ref = ref / ref.sum()
    if checkpoints is None:
        checkpoints = sorted(dig_trace.alpha_snapshots)
    gaps = {}
    for t in checkpoints:
        if t not in dig_trace.alpha_snapshots:
            raise ValueError(f"no selection-weight snapshot at iteration {t}")
        gaps[t] = float(np.max(np.abs(dig_trace.alpha_snapshots[t] - ref)))
    return gaps
