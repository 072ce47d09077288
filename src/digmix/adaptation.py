"""Discomfort-driven selection machinery for the adaptive sampler.

Selection weights alpha over observations evolve as a convex combination of
their previous value and a discomfort vector, with an effective-sample-size
criterion tuning the discomfort decay parameter lambda during the greedy
phase, and polynomial weights taking over after the transition point s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Standard normal 99% quantile, fixed for bit-reproducibility.
Z_99 = 2.326348


@dataclass
class WeightSchedule:
    """Hyperbolic-tangent weights up to s, polynomial decay afterwards."""

    s: int
    a: float

    def __post_init__(self):
        if not (0 < self.a < math.inf and self.s >= 1):     # NaN fails it too
            raise ValueError("need a finite a > 0 and s >= 1")


def discomfort(p_assigned, lam: float):
    """Exponential discomfort exp(-lam * p) of observations given their assignment probabilities."""
    p = np.asarray(p_assigned, dtype=float)
    if not (p.min() >= 0 and p.max() <= 1):     # NaN fails it too
        raise ValueError("assignment probability outside [0, 1]")
    return np.exp(-lam * p)


def ess(p_assigned_vec, lam: float) -> float:
    """Effective sample size of the exponential discomfort weights."""
    p = np.asarray(p_assigned_vec, dtype=float)
    # Shift by the minimum so the weights never underflow collectively.
    shifted = -lam * (p - p.min())
    w = np.exp(shifted)
    return float(w.sum() ** 2 / np.sum(w ** 2))


def solve_lambda(p_assigned_vec, m: float, Lambda: float, lam0: float = 1.0) -> float:
    """Find lambda in [1, Lambda] with ESS(lambda) ~ m.

    ESS is non-increasing in lambda: with weights w_i proportional to
    exp(-lambda q_i) on the shifted probabilities q, normalised to sum 1,
    d/dlambda log sum w^2 = 2 (E_lambda[q] - E_2lambda[q]) >= 0.  So if
    ESS(1) <= m the answer is 1, and if ESS(Lambda) > m it is Lambda.
    Otherwise a Newton iteration on log ESS - log m, started from ``lam0``
    (the previous lambda, clipped into [1, Lambda]), runs until its step is
    below 1e-12.  A step that leaves the bracket known so far probes the
    endpoint not yet visited, or else bisects.
    """
    p = np.asarray(p_assigned_vec, dtype=float)
    n = p.size
    if m > n:
        raise ValueError("target exceeds population")
    xtol = 1e-12

    q = p - p.min()   # shift once; ESS is invariant and exp never underflows
    w = np.empty_like(q)
    log_m = math.log(m)

    def evaluate(lam):
        """(ESS - m, d/dlambda log ESS, log ESS - log m) at lam, from one exp."""
        np.multiply(q, -lam, out=w)
        np.exp(w, out=w)
        s1 = w.sum()
        e1 = (w @ q) / s1
        np.multiply(w, w, out=w)
        s2 = w.sum()
        e2 = (w @ q) / s2
        return s1 * s1 / s2 - m, 2.0 * (e2 - e1), 2.0 * math.log(s1) - math.log(s2) - log_m

    lo, hi = 1.0, float(Lambda)             # f(lo) > 0 >= f(hi) once both are visited
    lo_seen = hi_seen = False
    lam = min(max(float(lam0), lo), hi)
    while True:
        f, slope, g = evaluate(lam)
        if f > 0:
            if lam == hi:
                return hi
            lo, lo_seen = lam, True
        else:
            if lam == lo:
                return lo
            hi, hi_seen = lam, True
        if slope < 0:
            step = -g / slope
            if abs(step) <= xtol:
                return min(max(lam + step, lo), hi)
            nxt = lam + step
        else:
            nxt = math.inf if f > 0 else -math.inf
        if not lo < nxt < hi:
            if nxt >= hi and not hi_seen:
                nxt = hi
            elif nxt <= lo and not lo_seen:
                nxt = lo
            else:
                nxt = 0.5 * (lo + hi)
                if hi - lo <= xtol:
                    return nxt
        lam = nxt


def lambda_schedule(lam: float, greedy: bool, p_assigned_vec, m: float, Lambda: float) -> float:
    """New lambda at a responsibility-matrix refresh event, from the previous ``lam``.

    The greedy phase (t <= s, as the caller's schedule tells) re-solves the
    ESS equation on [1, Lambda]; afterwards lambda is pinned at 1.
    """
    return solve_lambda(p_assigned_vec, m, Lambda, lam) if greedy else 1.0


def lambda_bound_warning(at_bound: int, refreshes: int, Lambda: float) -> str | None:
    """Warn when lambda sat at its upper bound ``Lambda`` in over 25% of the greedy refreshes."""
    if refreshes == 0:
        return None
    frac = at_bound / refreshes
    if frac > 0.25:
        return (
            f"lambda hit its upper bound {Lambda:g} in {at_bound}/{refreshes} adaptation refreshes "
            f"({100 * frac:.0f}%); consider raising the bound"
        )
    return None


def weight_pair(t: int, schedule: WeightSchedule) -> tuple[float, float]:
    """(f, g) weights at iteration t; f + g = 1 in both regimes."""
    if t <= schedule.s:
        half_tanh = 0.5 * math.tanh((t - schedule.s) / schedule.a)
        f = 0.5 + half_tanh
        g = 0.5 - half_tanh
    else:
        g = 1.0 / (t - schedule.s + 2)
        f = 1.0 - g
    return f, g


def transition_point(n: int, K: int, m: float) -> int:
    """Iteration at which greedy adaptation hands over to diminishing decay.

    Negative-binomial waiting-time heuristic: mean n(K-1), sd sqrt(nK(K-1)),
    padded by the 99% normal quantile and divided by the per-iteration update
    count m.  Rounded up so the exploration phase is never shortened.
    """
    if K <= 1:
        return 1
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    raw = (n * (K - 1) + math.sqrt(n * K * (K - 1)) * Z_99) / m
    return max(1, math.ceil(raw))


def refresh_due(t: int, T: int) -> bool:
    """Responsibility-matrix refresh cadence: every 3, then 6, then 10 iterations.

    Iteration 1 always refreshes so the first selection sees fresh rows.
    """
    if t == 1:
        return True
    if t <= 0.25 * T:
        xi = 3
    elif t <= 0.5 * T:
        xi = 6
    else:
        xi = 10
    return t % xi == 0
