"""Convergence detection and clustering-quality metrics for chain traces."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .samplers import ChainTrace

Z_THRESHOLD = 1.96


@dataclass
class ConvergenceReport:
    reference_mean: float
    reference_var: float
    t2c_iteration: int | None
    t2c_seconds: float | None
    window: int = 1000
    # Assumed z denominator, recorded explicitly since it is a convention.
    z_formula: str = "(window_mean - ref_mean) / sqrt(window_var/window + ref_var)"


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
    threshold: float = Z_THRESHOLD,
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
    hits = np.nonzero(np.abs(z) < threshold)[0]
    if hits.size == 0:
        return ConvergenceReport(ref_mean, ref_var, None, None, window)
    t = int(ends[hits[0]])
    seconds = float(trace.wall_clock_ns[t - 1]) / 1e9
    return ConvergenceReport(ref_mean, ref_var, t, seconds, window)


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


def posterior_similarity_matrix(snapshots) -> np.ndarray:
    """(n, n) fraction of snapshots in which each pair shares a component.

    Pair counts come from products of the one-hot allocation indicators,
    one block of snapshots at a time, so a block's (n, block*K) indicator
    holds at most half as many entries as the (n, n) result.  The counts are
    whole numbers no larger than S, exact in float32 while S < 2**24, which
    halves the memory of the indicator, the products and the running total;
    the peak is about 1.5 float64 (n, n) arrays, at the final division.
    """
    snaps = [np.asarray(z) for z in snapshots]
    if not snaps:
        raise ValueError("need at least one snapshot")
    S, n = len(snaps), snaps[0].size
    K = max(int(z.max()) for z in snaps) + 1
    dtype = np.float32 if S < 2**24 else np.float64
    eye = np.eye(K, dtype=dtype)
    block = max(1, n // (2 * K))
    counts = np.zeros((n, n), dtype=dtype)
    for s0 in range(0, S, block):
        onehot = eye[np.stack(snaps[s0:s0 + block], axis=1)].reshape(n, -1)
        counts += onehot @ onehot.T
        del onehot      # freed before the next block and the division
    return np.divide(counts, S, dtype=np.float64)


def occupied_components(z, K: int) -> tuple[int, np.ndarray]:
    """Count of non-empty components and the per-component occupancy proportions."""
    z = np.asarray(z)
    counts = np.bincount(z, minlength=K)
    return int(np.count_nonzero(counts)), counts / z.size


def epochs(iteration, n: int, m: int) -> float:
    """Work-normalised iteration count: one epoch is n/m iterations."""
    if m < 1:
        raise ValueError("need m >= 1")
    return iteration * m / n


def mode_allocation(snapshots) -> np.ndarray:
    """Per-observation modal component over a set of allocation snapshots."""
    snaps = np.stack([np.asarray(z) for z in snapshots])
    K = int(snaps.max()) + 1
    counts = np.stack([(snaps == k).sum(axis=0) for k in range(K)])
    return counts.argmax(axis=0)


def alpha_limit_check(
    dig_trace: ChainTrace,
    ssg_trace: ChainTrace,
    checkpoints=None,
) -> dict[int, float]:
    """Max-norm gap between DIG selection weights and their theoretical limit.

    The limit is the normalised posterior mean of exp(-p_{i,z_i}) (discomfort
    at decay 1), estimated from the second half of a long systematic-scan run.
    Returns {checkpoint iteration: gap}.
    """
    if ssg_trace.discomfort_reference is None or ssg_trace.discomfort_reference_count < 10:
        raise ValueError("reference chain lacks enough post-burn-in discomfort samples")
    if not dig_trace.alpha_snapshots:
        raise ValueError("adaptive chain recorded no selection-weight snapshots")
    ref = ssg_trace.discomfort_reference
    ref = ref / ref.sum()
    recorded = sorted(dig_trace.alpha_snapshots)
    if checkpoints is None:
        checkpoints = recorded
    gaps = {}
    for t in checkpoints:
        # Nearest recorded snapshot at or before the requested checkpoint.
        candidates = [r for r in recorded if r <= t]
        if not candidates:
            raise ValueError(f"no selection-weight snapshot at or before iteration {t}")
        tt = candidates[-1]
        gaps[t] = float(np.max(np.abs(dig_trace.alpha_snapshots[tt] - ref)))
    return gaps
