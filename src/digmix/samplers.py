"""Chain runners: systematic scan, random scan, and discomfort-informed Gibbs.

All three share the same iteration skeleton (allocations, then mixture
weights, then component parameters) and the same trace format.  Wall-clock
accounting covers only the sampling work; likelihood evaluation for the
trace and snapshot bookkeeping are excluded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .adaptation import (
    AdaptiveState,
    DiscomfortConfig,
    WeightSchedule,
    discomfort,
    ess,
    lambda_bound_warning,
    lambda_schedule,
    refresh_due,
    transition_point,
    weight_pair,
)
from .model import (
    VARIANCE_FLOOR,
    Dataset,
    MixtureState,
    PriorSpec,
    _normalise_rows,
    complete_log_likelihood,
    component_sufficient_stats,
    log_density_matrix,
    refresh_responsibilities,
    sample_allocations_rows,
    sample_component_params,
    sample_mixture_weights,
    update_sufficient_stats,
)

SSG = "SSG"
RSG = "RSG"
DIG = "DIG"


@dataclass
class SamplerConfig:
    method: str = DIG
    T: int = 5000
    m: int | None = None          # subset size; ignored by SSG
    Lambda: float = 100.0
    tanh_a: float = 1.0
    seed: int = 0
    snapshot_every: int = 10
    discomfort: DiscomfortConfig = field(default_factory=DiscomfortConfig)
    # When set, the runner accumulates the per-observation mean of
    # exp(-p_{i,z_i}) over the second half of the run (used as the
    # Monte Carlo reference for the selection-weight limit check).
    collect_discomfort_reference: bool = False
    # "running": trace CLL uses ergodic averages of (pi, mu, sigma2) up to t
    # (the benchmark definition); "state": uses the current draws.
    cll_mode: str = "running"

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("need T >= 1")
        if self.method not in (SSG, RSG, DIG):
            raise ValueError(f"unknown method: {self.method}")
        if self.cll_mode not in ("running", "state"):
            raise ValueError(f"unknown cll_mode: {self.cll_mode}")


@dataclass
class ChainTrace:
    """Per-iteration series plus allocation snapshots for one chain."""

    method: str
    n: int
    m: int                                 # effective per-iteration update count
    iteration: np.ndarray                  # (T,) 1-based
    wall_clock_ns: np.ndarray              # (T,) cumulative sampling time
    cll: np.ndarray
    lam: np.ndarray
    ess: np.ndarray
    g_weight: np.ndarray
    occupied: np.ndarray
    snapshots: dict[int, np.ndarray]
    final_state: MixtureState
    initial_state: MixtureState
    warnings: list[str] = field(default_factory=list)
    allocation_draws: int = 0
    variance_clamps: int = 0
    s: int | None = None                   # DIG transition point
    alpha_snapshots: dict[int, np.ndarray] = field(default_factory=dict)
    discomfort_reference: np.ndarray | None = None
    discomfort_reference_count: int = 0

    @property
    def T(self) -> int:
        return len(self.iteration)


def init_state(dataset: Dataset, K: int, prior: PriorSpec, rng) -> MixtureState:
    """Shared initialisation: uniform random allocations, uniform weights, prior parameter draws."""
    z = rng.integers(0, K, dataset.n)
    pi = np.full(K, 1.0 / K)
    mu = prior.m0 + np.sqrt(prior.tau2) * rng.standard_normal((K, dataset.d))
    if prior.spherical:
        s2 = prior.beta_sigma / rng.gamma(prior.alpha_sigma, size=K)
        sigma2 = np.repeat(s2[:, None], dataset.d, axis=1)
    else:
        sigma2 = prior.beta_sigma / rng.gamma(prior.alpha_sigma, size=(K, dataset.d))
    sigma2 = np.maximum(sigma2, VARIANCE_FLOOR)
    return MixtureState(z=z, pi=pi, mu=mu, sigma2=sigma2)


def sample_without_replacement(weights, m: int, rng) -> np.ndarray:
    """m distinct indices by successive weighted draws without replacement.

    Uses exponential race keys (key_i = Exp(1)/w_i, keep the m smallest),
    which matches successive renormalised draws in distribution.  Indices come
    back in draw order (ascending key).
    """
    w = np.asarray(weights, dtype=float)
    n = w.size
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    if np.any(w <= 0):
        raise ValueError("weights must be strictly positive")
    keys = rng.standard_exponential(n)
    np.divide(keys, w, out=keys)
    if m == n:
        return np.argsort(keys)
    part = np.argpartition(keys, m)[:m]
    return part[np.argsort(keys[part])]


def _resolve_m(config: SamplerConfig, n: int) -> int:
    if config.method == SSG:
        return n
    if config.m is None:
        raise ValueError(f"{config.method} needs a subset size m")
    if not 1 <= config.m <= n:
        raise ValueError("need 1 <= m <= n")
    return config.m


def run_chain(dataset: Dataset, K: int, prior: PriorSpec, config: SamplerConfig, rng=None) -> ChainTrace:
    """Run one chain of the configured method and return its trace."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    n, T = dataset.n, config.T
    m = _resolve_m(config, n)
    x = dataset.x

    state = init_state(dataset, K, prior, rng)
    initial_state = state.copy()

    iteration = np.arange(1, T + 1)
    wall = np.empty(T, dtype=np.int64)
    cll = np.empty(T)
    lam_tr = np.full(T, np.nan)
    ess_tr = np.full(T, np.nan)
    g_tr = np.full(T, np.nan)
    occupied = np.empty(T, dtype=int)
    snapshots: dict[int, np.ndarray] = {}
    alpha_snapshots: dict[int, np.ndarray] = {}
    warnings: list[str] = []
    draws = 0
    clamps = 0

    is_dig = config.method == DIG
    is_ssg = config.method == SSG

    # Buffers reused by every iteration: the full (n, K) pass of SSG's sweep
    # and DIG's refresh reads x * x computed once, and the m-row update
    # squares its own gathered rows.
    if is_ssg or is_dig:
        xsq = x * x
        full = np.empty((n, K))
        full_work = np.empty((n, K))
    if not is_ssg:
        x_sel = np.empty((m, dataset.d))
        x_sel_sq = np.empty((m, dataset.d))
        sel_logp = np.empty((m, K))
        sel_work = np.empty((m, K))

    if is_dig:
        s = transition_point(n, K, m)
        schedule = WeightSchedule(s=s, a=config.tanh_a)
        adaptive = AdaptiveState(alpha=np.full(n, 1.0 / n), lam=1.0, Lambda=config.Lambda, s=s)
        # The recursion runs on the unnormalised weight vector; normalising
        # inside the recursion would rescale the discomfort term by its sum
        # (~n/2) and keep the effective adaptation step large long after g
        # has decayed, so adaptation would never actually diminish.
        alpha_raw = np.full(n, 1.0 / n)
        resp = None          # bootstrapped at t = 1 via refresh_due
        cur_ess = np.nan
        idx_n = np.arange(n)
        idx_m = np.arange(m)
        d_buf = np.empty(n)
    else:
        s = None

    dref_sum = np.zeros(n) if config.collect_discomfort_reference else None
    dref_count = 0
    half = T // 2

    running = config.cll_mode == "running"
    if running:
        # Ergodic averages of the parameter blocks, updated each iteration;
        # the trace CLL plugs these in together with the current allocations.
        sum_pi = np.zeros(K)
        sum_mu = np.zeros((K, dataset.d))
        sum_sigma2 = np.zeros((K, dataset.d))
        est = MixtureState(z=state.z, pi=np.full(K, 1.0 / K), mu=np.zeros((K, dataset.d)),
                           sigma2=np.ones((K, dataset.d)))

    # Per-component (counts, sums, sqsums) of the current allocations, shared
    # by the pi and mu/sigma2 draws, the trace CLL and occupancy.  RSG and
    # DIG move only the changed rows, with a recompute once per epoch
    # (ceil(n/m) iterations) to bound rounding drift; at m = n every
    # iteration is an epoch start.
    epoch = -(-n // m)
    stats = None

    elapsed = 0
    for t in range(1, T + 1):
        tic = time.perf_counter_ns()
        update = not is_ssg and (t - 1) % epoch != 0

        if is_ssg:
            P = _normalise_rows(log_density_matrix(x, state, out=full, xsq=xsq, work=full_work))
            state.z = sample_allocations_rows(P, rng)
            draws += n
        else:
            if is_dig:
                adaptive.t = t
                if refresh_due(t, T) or resp is None:
                    resp = refresh_responsibilities(dataset, state, out=full, xsq=xsq, work=full_work)
                    # Assigned probabilities p_{i,z_i}; between refreshes only
                    # the m updated rows change, and they are overwritten below.
                    p_assigned = resp.p[idx_n, state.z]
                    lambda_schedule(adaptive, p_assigned, m)
                    cur_ess = ess(p_assigned, adaptive.lam)
                else:
                    resp.stale_age += 1
                f, g = weight_pair(t, schedule)
                if config.discomfort.kind == "exponential":
                    np.multiply(p_assigned, -adaptive.lam, out=d_buf)
                    np.exp(d_buf, out=d_buf)
                else:
                    d_buf = discomfort(p_assigned, adaptive.lam, config.discomfort, p_row=resp.p)
                    d_buf = np.maximum(d_buf, 1e-12)
                alpha_raw *= f
                d_buf *= g
                alpha_raw += d_buf
                # The race keys are scale-invariant in the weights, so the raw
                # vector can drive selection directly; normalisation happens
                # only in the untimed bookkeeping below.
                idx = sample_without_replacement(alpha_raw, m, rng)
            else:
                idx = rng.integers(0, n, m)
            np.take(x, idx, axis=0, out=x_sel)
            np.multiply(x_sel, x_sel, out=x_sel_sq)
            rows = _normalise_rows(log_density_matrix(x_sel, state, out=sel_logp, xsq=x_sel_sq,
                                                      work=sel_work))
            new_z = sample_allocations_rows(rows, rng)
            if update:
                # RSG's duplicate indices resolve to the last draw; each
                # changed row must enter the statistics update once.
                changed = idx if is_dig else np.unique(idx)
                z_old = state.z[changed]
            state.z[idx] = new_z
            if is_dig:
                resp.p[idx] = rows    # piggyback: selected rows are fresh
                p_assigned[idx] = rows[idx_m, new_z]
            draws += m

        if update:
            update_sufficient_stats(stats, x[changed], z_old, state.z[changed])
        else:
            stats = component_sufficient_stats(dataset, state.z, K)
        state.pi = sample_mixture_weights(state, prior, rng, stats)
        state.mu, state.sigma2, c = sample_component_params(dataset, state, prior, rng, stats)
        clamps += c

        elapsed += time.perf_counter_ns() - tic

        # Trace bookkeeping (untimed).
        wall[t - 1] = elapsed
        if running:
            sum_pi += state.pi
            sum_mu += state.mu
            sum_sigma2 += state.sigma2
            est.z = state.z
            np.divide(sum_pi, sum_pi.sum(), out=est.pi)
            np.divide(sum_mu, t, out=est.mu)
            np.divide(sum_sigma2, t, out=est.sigma2)
            cll[t - 1] = complete_log_likelihood(dataset, est, stats)
        else:
            cll[t - 1] = complete_log_likelihood(dataset, state, stats)
        occupied[t - 1] = np.count_nonzero(stats[0])
        if is_dig:
            lam_tr[t - 1] = adaptive.lam
            ess_tr[t - 1] = cur_ess
            g_tr[t - 1] = weight_pair(t, schedule)[1]
        if config.snapshot_every and t % config.snapshot_every == 0:
            snapshots[t] = state.z.astype(np.int32).copy()
            if is_dig:
                adaptive.alpha = alpha_raw / alpha_raw.sum()
                alpha_snapshots[t] = adaptive.alpha
        if dref_sum is not None and t > half:
            if is_ssg:
                p_now = P[np.arange(n), state.z]
            else:
                p_now = _normalise_rows(log_density_matrix(x, state))[np.arange(n), state.z]
            dref_sum += np.exp(-p_now)
            dref_count += 1

    if is_dig:
        msg = lambda_bound_warning(adaptive)
        if msg:
            warnings.append(msg)
    if clamps:
        warnings.append(f"variance draws clamped at the floor {clamps} time(s)")

    return ChainTrace(
        method=config.method,
        n=n,
        m=m,
        iteration=iteration,
        wall_clock_ns=wall,
        cll=cll,
        lam=lam_tr,
        ess=ess_tr,
        g_weight=g_tr,
        occupied=occupied,
        snapshots=snapshots,
        final_state=state,
        initial_state=initial_state,
        warnings=warnings,
        allocation_draws=draws,
        variance_clamps=clamps,
        s=s,
        alpha_snapshots=alpha_snapshots,
        discomfort_reference=None if dref_sum is None else dref_sum / max(dref_count, 1),
        discomfort_reference_count=dref_count,
    )


def run_ssg(dataset, K, prior, config: SamplerConfig, rng=None) -> ChainTrace:
    cfg = _with_method(config, SSG)
    return run_chain(dataset, K, prior, cfg, rng)


def run_rsg(dataset, K, prior, config: SamplerConfig, rng=None) -> ChainTrace:
    cfg = _with_method(config, RSG)
    return run_chain(dataset, K, prior, cfg, rng)


def run_dig(dataset, K, prior, config: SamplerConfig, rng=None) -> ChainTrace:
    cfg = _with_method(config, DIG)
    return run_chain(dataset, K, prior, cfg, rng)


def _with_method(config: SamplerConfig, method: str) -> SamplerConfig:
    if config.method == method:
        return config
    from dataclasses import replace

    return replace(config, method=method)
