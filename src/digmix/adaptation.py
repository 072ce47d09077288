"""Discomfort-driven selection machinery for the adaptive sampler.

Selection weights alpha over observations evolve as a convex combination of
their previous value and a discomfort vector, with an effective-sample-size
criterion tuning the discomfort decay parameter lambda during the greedy
phase, and polynomial weights taking over after the transition point s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Standard normal 99% quantile, fixed for bit-reproducibility.
Z_99 = 2.326348

_KINDS = {"exponential", "generalized_entropy", "partial_entropy", "pareto", "weibull", "hyperbolic"}


@dataclass
class DiscomfortConfig:
    """Which discomfort function drives selection; exponential is the default.

    The alternatives are selectable for experimentation; the adaptive sampler
    itself uses the exponential kind unless told otherwise, flooring any
    non-positive values at 1e-12 when an alternative drives selection.
    """

    kind: str = "exponential"
    q: float | None = None           # generalized/partial entropy
    p_m: float | None = None         # pareto scale
    shape: float | None = None       # pareto / weibull shape
    scale: float | None = None       # weibull scale
    exponent: float | None = None    # hyperbolic exponent

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown discomfort kind: {self.kind}")
        if self.kind in ("generalized_entropy", "partial_entropy"):
            if self.q is None or self.q < 0 or self.q == 1:
                raise ValueError("entropy kinds need q >= 0, q != 1")
        if self.kind == "pareto":
            if self.p_m is None or not 0 < self.p_m < 1 or self.shape is None or self.shape <= 0:
                raise ValueError("pareto needs p_m in (0,1) and shape > 0")
        if self.kind == "weibull":
            if self.scale is None or self.scale <= 0 or self.shape is None or self.shape <= 0:
                raise ValueError("weibull needs scale > 0 and shape > 0")
        if self.kind == "hyperbolic":
            if self.exponent is None or self.exponent <= 0:
                raise ValueError("hyperbolic needs exponent > 0")


@dataclass
class AdaptiveState:
    """Per-chain adaptation variables: selection weights, lambda, counters."""

    alpha: np.ndarray
    lam: float
    Lambda: float = 100.0
    s: int = 1
    t: int = 0
    lambda_at_bound_count: int = 0
    refresh_count: int = 0

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        if abs(self.alpha.sum() - 1.0) > 1e-10 or np.any(self.alpha <= 0):
            raise ValueError("alpha must be a strictly positive simplex vector")
        if not 1.0 <= self.lam <= self.Lambda:
            raise ValueError("lambda must lie in [1, Lambda]")


@dataclass
class WeightSchedule:
    """Hyperbolic-tangent weights up to s, polynomial decay afterwards."""

    s: int
    a: float = 1.0

    def __post_init__(self):
        if self.a <= 0 or self.s < 1:
            raise ValueError("need a > 0 and s >= 1")


def discomfort(p_assigned, lam: float, config: DiscomfortConfig | None = None, p_row=None):
    """Discomfort score of an observation given its assignment probability.

    Vectorised over ``p_assigned``.  ``p_row`` (full probability rows) is only
    needed by the generalized-entropy kind.
    """
    config = config or DiscomfortConfig()
    p = np.asarray(p_assigned, dtype=float)
    if np.any(p < 0) or np.any(p > 1):
        raise ValueError("assignment probability outside [0, 1]")
    kind = config.kind
    if kind == "exponential":
        return np.exp(-lam * p)
    if kind == "generalized_entropy":
        if p_row is None:
            raise ValueError("generalized_entropy needs the full probability row(s)")
        rows = np.atleast_2d(np.asarray(p_row, dtype=float))
        return (1.0 - np.sum(rows ** config.q, axis=-1)) / (config.q - 1.0)
    if kind == "partial_entropy":
        return (1.0 - p ** config.q) / (config.q - 1.0)
    if kind == "pareto":
        with np.errstate(divide="ignore"):
            dense = config.shape * config.p_m ** config.shape / p ** (config.shape + 1.0)
        return np.where(p >= config.p_m, dense, 0.0)
    if kind == "weibull":
        r = p / config.scale
        k = config.shape
        with np.errstate(divide="ignore"):
            return (k / config.scale) * r ** (k - 1.0) * np.exp(-(r ** k))
    # hyperbolic
    with np.errstate(divide="ignore"):
        return (1.0 / p) ** config.exponent


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


def lambda_schedule(adaptive: AdaptiveState, p_assigned_vec, m: float) -> float:
    """New lambda at a responsibility-matrix refresh event.

    Greedy phase (t <= s) re-solves the ESS equation; afterwards lambda is
    pinned at 1.  Counters feed the bound warning.
    """
    if adaptive.t <= adaptive.s:
        lam = solve_lambda(p_assigned_vec, m, adaptive.Lambda, adaptive.lam)
        adaptive.refresh_count += 1
        if lam >= adaptive.Lambda:
            adaptive.lambda_at_bound_count += 1
    else:
        lam = 1.0
    adaptive.lam = lam
    return lam


def lambda_bound_warning(adaptive: AdaptiveState) -> str | None:
    """Warn when lambda sat at its upper bound for over 25% of adaptation refreshes."""
    if adaptive.refresh_count == 0:
        return None
    frac = adaptive.lambda_at_bound_count / adaptive.refresh_count
    if frac > 0.25:
        return (
            f"lambda hit its upper bound {adaptive.Lambda:g} in "
            f"{adaptive.lambda_at_bound_count}/{adaptive.refresh_count} adaptation refreshes "
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


def transition_point(n: int, K: int, m: float, quantile_z: float = Z_99) -> int:
    """Iteration at which greedy adaptation hands over to diminishing decay.

    Negative-binomial waiting-time heuristic: mean n(K-1), sd sqrt(nK(K-1)),
    padded by the 99% normal quantile and divided by the per-iteration update
    count m.  Rounded up so the exploration phase is never shortened.
    """
    if K <= 1:
        return 1
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    raw = (n * (K - 1) + math.sqrt(n * K * (K - 1)) * quantile_z) / m
    return max(1, math.ceil(raw))


def update_selection_weights(alpha_prev, discomfort_vec, f: float, g: float) -> np.ndarray:
    """Convex combination of previous weights and discomfort, renormalised."""
    alpha = f * np.asarray(alpha_prev, dtype=float) + g * np.asarray(discomfort_vec, dtype=float)
    total = alpha.sum()
    if total <= 0:
        raise ValueError("selection weights collapsed to zero")
    return alpha / total


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
