"""Correctness checks, computed apart from the program under test.

Each check returns a list of problems (empty when the output is right), so a
workload can count a failed operation and still say what went wrong.  Nothing
here calls into the digmix functions whose output it checks: the reference
computations use plain loops, ``collections.Counter``, ``scipy.stats`` and
``scipy.special`` instead.
"""

from __future__ import annotations

import csv
import hashlib
import math
from collections import Counter
from pathlib import Path

import numpy as np

Z_THRESHOLD = 1.96
# A window whose |z| lies this close to the threshold may fall either side of
# it under a different summation order; a disagreement there is not a fault.
Z_AMBIGUOUS = 1e-9


def reference_level(ssg_clls, tail: int) -> tuple[float, float]:
    """Mean and sample variance (n-1) of the per-chain means of the last ``tail`` values."""
    means = [math.fsum(c[-tail:]) / tail for c in ssg_clls]
    mean = math.fsum(means) / len(means)
    var = math.fsum((v - mean) ** 2 for v in means) / (len(means) - 1)
    return mean, var


def check_reference(ssg_clls, tail: int, program_reference) -> list[str]:
    mine = reference_level(ssg_clls, tail)
    if all(math.isclose(a, b, rel_tol=1e-9) for a, b in zip(mine, program_reference)):
        return []
    return [f"reference {program_reference} != recomputed {mine}"]


def window_z(cll, end: int, window: int, reference) -> float:
    """z statistic of the window that ends at 1-based iteration ``end``."""
    ref_mean, ref_var = reference
    w = cll[end - window:end]
    mean = math.fsum(w) / window
    var = math.fsum((v - mean) ** 2 for v in w) / window
    denom = math.sqrt(var / window + ref_var)
    diff = mean - ref_mean
    if denom > 0:
        return diff / denom
    return 0.0 if diff == 0 else math.inf


def first_converged(cll, window: int, reference) -> tuple[int | None, list[float]]:
    """First window end with |z| below the threshold, by a plain loop over windows."""
    cll = [float(v) for v in cll]
    zs = []
    for end in range(window, len(cll) + 1):
        z = window_z(cll, end, window, reference)
        zs.append(z)
        if abs(z) < Z_THRESHOLD:
            return end, zs
    return None, zs


def check_t2c_iteration(cll, window: int, reference, t2c_iteration) -> list[str]:
    """Program's convergence iteration against the plain-loop recomputation."""
    mine, zs = first_converged(cll, window, reference)
    if mine == t2c_iteration:
        return []
    # The earlier of the two answers names the one window they disagree on;
    # that is no fault only if its |z| sits on the threshold.
    end = min(t for t in (mine, t2c_iteration) if t is not None)
    if abs(abs(zs[end - window]) - Z_THRESHOLD) <= Z_AMBIGUOUS:
        return []
    return [f"t2c iteration {t2c_iteration} != plain loop {mine}"]


def check_t2c_seconds(wall_ns, t2c_iteration, t2c_seconds) -> list[str]:
    """t2c seconds must be the sampler's clock at the convergence iteration."""
    if t2c_iteration is None:
        return [] if t2c_seconds is None else ["censored chain reports t2c seconds"]
    expected = float(wall_ns[t2c_iteration - 1]) / 1e9
    if t2c_seconds != expected:
        return [f"t2c seconds {t2c_seconds} != wall clock {expected} at iteration {t2c_iteration}"]
    return []


def pair_counting_ari(a, b) -> float:
    """Adjusted Rand index from pair counts kept in Counters."""
    a = [int(v) for v in a]
    b = [int(v) for v in b]
    n = len(a)

    def pairs(counts):
        return sum(c * (c - 1) // 2 for c in counts.values())

    both = pairs(Counter(zip(a, b)))
    in_a = pairs(Counter(a))
    in_b = pairs(Counter(b))
    total = n * (n - 1) // 2
    expected = in_a * in_b / total
    top = 0.5 * (in_a + in_b)
    if top == expected:
        return 1.0 if both == in_a == in_b else 0.0
    return (both - expected) / (top - expected)


def check_ari(program_value: float, z, labels) -> list[str]:
    mine = pair_counting_ari(z, labels)
    if not math.isclose(program_value, mine, rel_tol=1e-9, abs_tol=1e-12):
        return [f"ARI {program_value} != pair counting {mine}"]
    return []


def check_chain(trace, method: str, n: int, K: int, variance_floor: float, Lambda: float) -> list[str]:
    """Properties every chain of the method must have."""
    problems = []
    T = len(trace.iteration)
    per_iter = n if method == "SSG" else trace.m
    if trace.allocation_draws != T * per_iter:
        problems.append(f"allocation_draws {trace.allocation_draws} != T*{per_iter} = {T * per_iter}")
    st = trace.final_state
    pi = np.asarray(st.pi)
    if not (np.all(pi > 0) and abs(math.fsum(pi.tolist()) - 1.0) <= 1e-12):
        problems.append("pi is off the simplex")
    if not np.all(np.asarray(st.sigma2) >= variance_floor):
        problems.append("sigma2 below the variance floor")
    z = np.asarray(st.z)
    if z.shape != (n,) or z.min() < 0 or z.max() >= K:
        problems.append("allocation out of range")
    wall = np.asarray(trace.wall_clock_ns)
    if wall.shape != (T,) or np.any(np.diff(wall) < 0) or wall[0] < 0:
        problems.append("wall_clock_ns decreases")
    if method == "DIG":
        s = trace.s
        g = np.asarray(trace.g_weight)
        for t in range(s + 1, T + 1):
            if g[t - 1] != 1.0 / (t - s + 2):
                problems.append(f"g_weight at t={t} is {g[t - 1]}, not 1/(t-s+2)")
                break
        lam = np.asarray(trace.lam)
        if not (np.all(lam >= 1.0) and np.all(lam <= Lambda)):
            problems.append("lambda outside [1, Lambda]")
    return problems


def same_initial_state(a, b) -> list[str]:
    for name in ("z", "pi", "mu", "sigma2"):
        if not np.array_equal(getattr(a, name), getattr(b, name)):
            return [f"initial {name} differs across methods"]
    return []


def check_final_likelihood(x, state, program_cll: float, program_resp, chunk: int = 10000) -> list[str]:
    """CLL from scipy.stats.norm.logpdf and responsibilities from logsumexp, row chunk by chunk."""
    from scipy import special, stats   # imported here, so set-up time holds only the program's imports

    z = np.asarray(state.z)
    sd = np.sqrt(state.sigma2)
    log_pi = np.log(state.pi)
    parts = []
    worst = 0.0
    for lo in range(0, x.shape[0], chunk):
        xs, zs = x[lo:lo + chunk], z[lo:lo + chunk]
        parts.append(float(np.sum(log_pi[zs]) + np.sum(stats.norm.logpdf(xs, state.mu[zs], sd[zs]))))
        joint = np.stack([log_pi[k] + stats.norm.logpdf(xs, state.mu[k], sd[k]).sum(axis=1)
                          for k in range(len(log_pi))], axis=1)
        resp = np.exp(joint - special.logsumexp(joint, axis=1, keepdims=True))
        worst = max(worst, float(np.max(np.abs(resp - program_resp[lo:lo + chunk]))))
    mine = math.fsum(parts)
    problems = []
    if not math.isclose(program_cll, mine, rel_tol=1e-10):
        problems.append(f"final CLL {program_cll} != norm.logpdf sum {mine}")
    if worst > 1e-10:
        problems.append(f"responsibilities differ from logsumexp by {worst}")
    return problems


# ---------------------------------------------------------------- CLI files

TRACE_HEADER = ["iter", "wall_ns", "cll", "lambda", "ess", "g_weight", "occupied"]


def read_trace_csv(path: Path) -> tuple[list[float], list[int]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != TRACE_HEADER:
        raise ValueError(f"{path.name}: unexpected header {rows[0]}")
    body = rows[1:]
    for t, row in enumerate(body, start=1):
        if int(row[0]) != t:
            raise ValueError(f"{path.name}: row {t} has iter {row[0]}")
    return [float(r[2]) for r in body], [int(r[1]) for r in body]


def read_kv(path: Path) -> dict[str, str]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["key", "value"]:
        raise ValueError(f"{path.name}: unexpected header")
    return {k: v for k, v in rows[1:]}


def read_matrix(path: Path) -> np.ndarray:
    """A CSV matrix, parsed a row at a time into one array.

    ``np.loadtxt`` holds the parsed text as well, and its peak depends on the
    values, so it would set the process's peak memory, not the program.
    """
    with open(path) as fh:
        rows = sum(1 for _ in fh)
        fh.seek(0)
        first = np.array(fh.readline().split(","), dtype=float)
        mat = np.empty((rows, first.size))
        mat[0] = first
        for i, line in enumerate(fh, start=1):
            mat[i] = np.array(line.split(","), dtype=float)
    return mat


def psm_problems(path: Path) -> list[str]:
    psm = read_matrix(path)
    problems = []
    if psm.ndim != 2 or psm.shape[0] != psm.shape[1]:
        return [f"{path.name}: not a square matrix"]
    if not np.array_equal(psm, psm.T):
        problems.append(f"{path.name}: not symmetric")
    if not np.all(np.diag(psm) == 1.0):
        problems.append(f"{path.name}: diagonal is not 1")
    if psm.min() < 0.0 or psm.max() > 1.0:
        problems.append(f"{path.name}: entries outside [0, 1]")
    return problems


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def check_cli_outputs(out: Path, methods, replicas: int, iters: int, window: int, n: int, m: int,
                      check_psm: bool = True) -> list[str]:
    """Every file the command should write exists, parses and agrees with the traces."""
    problems = []
    traces = {}
    for meth in methods:
        for rep in range(replicas):
            path = out / f"trace_{meth}_{rep:02d}.csv"
            cll, wall = read_trace_csv(path)
            if len(cll) != iters:
                problems.append(f"{path.name}: {len(cll)} rows, expected {iters}")
            traces[meth, rep] = (cll, wall)
    if problems:
        return problems
    reference = reference_level([traces["ssg", r][0] for r in range(replicas)], min(window, iters))
    for meth in methods:
        summary = read_kv(out / f"summary_{meth}.csv")
        its, secs, converged = [], [], 0
        for rep in range(replicas):
            cll, wall = traces[meth, rep]
            t, _ = first_converged(cll, window, reference)
            if t is None:
                its.append(iters)
                secs.append(wall[-1] / 1e9)
            else:
                its.append(t)
                secs.append(wall[t - 1] / 1e9)
                converged += 1
        mean_it = math.fsum(its) / replicas
        mean_s = math.fsum(secs) / replicas
        per_iter = n if meth == "ssg" else m
        if int(summary["t2c_converged"]) != converged:
            problems.append(f"summary_{meth}: t2c_converged {summary['t2c_converged']} != {converged}")
        if not math.isclose(float(summary["t2c_iters_mean"]), mean_it, rel_tol=1e-12):
            problems.append(f"summary_{meth}: t2c_iters_mean {summary['t2c_iters_mean']} != {mean_it}")
        if not math.isclose(float(summary["t2c_seconds_mean"]), mean_s, rel_tol=1e-9):
            problems.append(f"summary_{meth}: t2c_seconds_mean {summary['t2c_seconds_mean']} != {mean_s}")
        if not math.isclose(float(summary["t2c_epochs_mean"]), mean_it * per_iter / n, rel_tol=1e-12):
            problems.append(f"summary_{meth}: t2c_epochs_mean {summary['t2c_epochs_mean']} is off")
        if not math.isclose(float(summary["reference_cll_mean"]), reference[0], rel_tol=1e-12):
            problems.append(f"summary_{meth}: reference_cll_mean {summary['reference_cll_mean']} != {reference[0]}")
        if check_psm:
            problems += psm_problems(out / f"psm_{meth}_00.csv")
    with open(out / "alpha_gap.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["iter", "max_abs_gap"] or not all(0.0 <= float(g) <= 1.0 for _, g in rows[1:]):
        problems.append("alpha_gap.csv: bad header or gap outside [0, 1]")
    return problems
