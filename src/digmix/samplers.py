"""Chain runner for systematic scan, random scan, and discomfort-informed Gibbs.

The methods differ only in their allocation step, built once per chain: SSG
redraws every row, RSG m uniform rows, DIG m rows drawn by discomfort-driven
selection weights.  ``run_chain``'s one loop times the step, the statistics
upkeep and the weight and parameter draws; an untimed recorder keeps the trace.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .adaptation import (
    AdaptiveState,
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
    prior_constants,
    refresh_responsibilities,
    sample_allocations_rows,
    sample_component_params,
    sample_mixture_weights,
    update_sufficient_stats,
)

SSG = "SSG"
RSG = "RSG"
DIG = "DIG"


class ChainError(RuntimeError):
    """Raised by :func:`run_chain` for a chain whose numerical step failed,
    naming the iteration (0 while initialising) and the cause."""


# The failures of a numerical step, re-raised as a ChainError.  Any other
# exception (a TypeError, a MemoryError) propagates as it is.
_NUMERICAL_ERRORS = (ArithmeticError, ValueError, np.linalg.LinAlgError)


@dataclass
class SamplerConfig:
    method: str = DIG
    T: int = 5000
    m: int | None = None          # subset size; ignored by SSG
    Lambda: float = 100.0
    tanh_a: float = 1.0
    seed: int = 0
    snapshot_every: int = 10       # 0: no snapshots
    # SSG only: accumulate the per-observation mean of exp(-p_{i,z_i}) over
    # the second half of the run (the Monte Carlo reference for the
    # selection-weight limit check).
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
        if self.snapshot_every < 0:
            raise ValueError("need snapshot_every >= 0")
        if self.collect_discomfort_reference and self.method != SSG:
            raise ValueError("only SSG collects the discomfort reference")


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
    if not w.min() > 0:     # one call; NaN fails it too
        raise ValueError("weights must be strictly positive")
    keys = rng.standard_exponential(n)
    np.divide(keys, w, out=keys)
    part = keys.argpartition(m - 1)[:m]
    return part[keys[part].argsort()]


def _resolve_m(config: SamplerConfig, n: int) -> int:
    if config.method == SSG:
        return n
    if config.m is None:
        raise ValueError(f"{config.method} needs a subset size m")
    if not 1 <= config.m <= n:
        raise ValueError("need 1 <= m <= n")
    return config.m


class _SystematicScan:
    """SSG's allocation step: every row redrawn from one full (n, K) pass.

    The pass leaves the probabilities in the buffer ``P``; it returns no
    moved rows, so the statistics are recomputed.
    """

    def __init__(self, dataset: Dataset, K: int, m: int, config: SamplerConfig):
        self.x, self.xsq = dataset.x, dataset.xsq
        self.P = np.empty((dataset.n, K))
        self.work = np.empty((dataset.n, K))

    def __call__(self, t: int, state: MixtureState, rng):
        _normalise_rows(log_density_matrix(self.x, self.xsq, state, out=self.P, work=self.work))
        state.z = sample_allocations_rows(self.P, rng)


class _RandomScan:
    """RSG's allocation step: m rows drawn uniformly with replacement and redrawn.

    Returns the moved rows as ``(x rows, old z, new z, x rows squared)``,
    each row once, for the statistics update.  The m-row pass gathers its
    rows of ``x`` and of ``dataset.xsq``; when the rows are distinct (DIG),
    those buffers are returned, valid until the next step.
    """

    def __init__(self, dataset: Dataset, K: int, m: int, config: SamplerConfig):
        self.x, self.xsq, self.n, self.m = dataset.x, dataset.xsq, dataset.n, m
        self.x_sel = np.empty((m, dataset.d))
        self.x_sel_sq = np.empty((m, dataset.d))
        self.sel_logp = np.empty((m, K))
        self.sel_work = np.empty((m, K))
        self.first = np.ones(m, dtype=bool)    # [0] stays True

    def select(self, t: int, state: MixtureState, rng):
        """The rows to redraw, and each changed row once, in the order the statistics take them."""
        idx = rng.integers(0, self.n, self.m)
        # Duplicate indices resolve to the last draw.  The sorted distinct
        # indices, as np.unique gives them, for a sort and one comparison.
        srt = np.sort(idx)
        np.not_equal(srt[1:], srt[:-1], out=self.first[1:])
        return idx, srt[self.first]

    def __call__(self, t: int, state: MixtureState, rng):
        idx, changed = self.select(t, state, rng)
        self.x.take(idx, axis=0, out=self.x_sel)
        self.xsq.take(idx, axis=0, out=self.x_sel_sq)
        rows = _normalise_rows(log_density_matrix(self.x_sel, self.x_sel_sq, state, out=self.sel_logp,
                                                  work=self.sel_work))
        new_z = sample_allocations_rows(rows, rng)
        z_old = state.z[changed]
        state.z[idx] = new_z
        self.redrawn(idx, rows, new_z)
        if changed is idx:
            return self.x_sel, z_old, new_z, self.x_sel_sq
        return self.x.take(changed, axis=0), z_old, state.z[changed], self.xsq.take(changed, axis=0)

    def redrawn(self, idx: np.ndarray, rows: np.ndarray, new_z: np.ndarray):
        """Sees each redrawn row's fresh probabilities; RSG keeps nothing of them."""


class _AdaptiveScan(_RandomScan):
    """DIG's allocation step: m distinct rows drawn by their selection weights.

    The weights follow alpha <- f alpha + g exp(-lambda p) on the
    unnormalised vector ``alpha_raw``; normalising inside the recursion would
    rescale the discomfort term by its sum (~n/2) and keep the effective
    adaptation step large long after g has decayed, so adaptation would never
    actually diminish.  ``discomfort`` holds exp(-lambda p_{i,z_i}), by
    :func:`discomfort`: computed anew from the full responsibility pass at
    each refresh, where lambda may change, and overwritten on the m redrawn
    rows from their fresh probability rows.
    """

    def __init__(self, dataset: Dataset, K: int, m: int, config: SamplerConfig):
        super().__init__(dataset, K, m, config)
        n = dataset.n
        self.dataset, self.T = dataset, config.T
        self.schedule = WeightSchedule(s=transition_point(n, K, m), a=config.tanh_a)
        self.adaptive = AdaptiveState(lam=1.0, Lambda=config.Lambda)
        self.alpha_raw = np.full(n, 1.0 / n)
        self.ess = np.nan
        self.g = np.nan
        self.full = np.empty((n, K))
        self.full_work = np.empty((n, K))
        self.idx_n = np.arange(n)
        self.idx_m = np.arange(m)
        self.d_buf = np.empty(n)

    def select(self, t: int, state: MixtureState, rng):
        adaptive = self.adaptive
        if refresh_due(t, self.T):      # always at t = 1
            # p_{i,z_i}, read by this refresh only but held until the next: as a
            # local it raised the benchmark's large-n peak RSS from 166 to 171 MB.
            self.p_assigned = refresh_responsibilities(self.dataset, state, out=self.full,
                                                       work=self.full_work).p[self.idx_n, state.z]
            lambda_schedule(adaptive, t <= self.schedule.s, self.p_assigned, self.m)
            self.ess = ess(self.p_assigned, adaptive.lam)
            self.discomfort = discomfort(self.p_assigned, adaptive.lam)
        f, self.g = weight_pair(t, self.schedule)
        self.alpha_raw *= f
        np.multiply(self.discomfort, self.g, out=self.d_buf)
        self.alpha_raw += self.d_buf
        # The race keys are scale-invariant in the weights, so the raw vector
        # drives selection directly; it is normalised only for snapshots.
        idx = sample_without_replacement(self.alpha_raw, self.m, rng)
        return idx, idx

    def redrawn(self, idx: np.ndarray, rows: np.ndarray, new_z: np.ndarray):
        self.discomfort[idx] = discomfort(rows[self.idx_m, new_z], self.adaptive.lam)


_STEPS = {SSG: _SystematicScan, RSG: _RandomScan, DIG: _AdaptiveScan}


class _Recorder:
    """The untimed bookkeeping of one chain, called once per iteration.

    It fills the chain's trace: the CLL, occupancy and DIG's lambda, ESS and g
    columns, the allocation and selection-weight snapshots, and SSG's
    discomfort reference, the mean of exp(-p_{i,z_i}) over the second half of
    the run, read from the sweep's own probability matrix.
    """

    def __init__(self, dataset: Dataset, K: int, m: int, config: SamplerConfig, step, state: MixtureState):
        T, n, d = config.T, dataset.n, dataset.d
        self.dataset, self.step, self.config = dataset, step, config
        self.dig = step if config.method == DIG else None
        self.trace = ChainTrace(
            method=config.method, n=n, m=m, iteration=np.arange(1, T + 1),
            wall_clock_ns=np.empty(T, dtype=np.int64), cll=np.empty(T), lam=np.full(T, np.nan),
            ess=np.full(T, np.nan), g_weight=np.full(T, np.nan), occupied=np.empty(T, dtype=int),
            snapshots={}, final_state=state, initial_state=state.copy(), allocation_draws=T * m,
            s=None if self.dig is None else self.dig.schedule.s,
            discomfort_reference=np.zeros(n) if config.collect_discomfort_reference else None,
        )
        self.running = config.cll_mode == "running"
        if self.running:
            # Ergodic averages of the parameter blocks, updated each iteration;
            # the trace CLL plugs these in together with the current allocations.
            # mu's and sigma2's sums share one array, and so do their averages,
            # so that one division updates both.
            self.sum_pi = np.zeros(K)
            self.sum_params = np.zeros((2, K, d))
            self.sum_mu, self.sum_sigma2 = self.sum_params
            self.avg_params = np.ones((2, K, d))
            self.est = MixtureState(z=state.z, pi=np.full(K, 1.0 / K), mu=self.avg_params[0],
                                    sigma2=self.avg_params[1])
        self.idx_n = np.arange(n)

    def __call__(self, t: int, state: MixtureState, stats, elapsed: int):
        tr, i = self.trace, t - 1
        tr.wall_clock_ns[i] = elapsed
        if self.running:
            est = self.est
            self.sum_pi += state.pi
            self.sum_mu += state.mu
            self.sum_sigma2 += state.sigma2
            est.z = state.z
            np.divide(self.sum_pi, self.sum_pi.sum(), out=est.pi)
            np.divide(self.sum_params, t, out=self.avg_params)
            tr.cll[i] = complete_log_likelihood(self.dataset, est, stats)
        else:
            tr.cll[i] = complete_log_likelihood(self.dataset, state, stats)
        tr.occupied[i] = np.count_nonzero(stats[0])
        dig = self.dig
        if dig is not None:
            tr.lam[i] = dig.adaptive.lam
            tr.ess[i] = dig.ess
            tr.g_weight[i] = dig.g
        every = self.config.snapshot_every
        if every and t % every == 0:
            tr.snapshots[t] = state.z.astype(np.int32)
            if dig is not None:
                tr.alpha_snapshots[t] = dig.alpha_raw / dig.alpha_raw.sum()
        if tr.discomfort_reference is not None and t > self.config.T // 2:
            tr.discomfort_reference += discomfort(self.step.P[self.idx_n, state.z], 1.0)
            tr.discomfort_reference_count += 1

    def finish(self, clamps: int) -> ChainTrace:
        tr = self.trace
        if tr.discomfort_reference is not None:
            tr.discomfort_reference /= max(tr.discomfort_reference_count, 1)
        if self.dig is not None:
            msg = lambda_bound_warning(self.dig.adaptive)
            if msg:
                tr.warnings.append(msg)
        if clamps:
            tr.warnings.append(f"variance draws clamped at the floor {clamps} time(s)")
        tr.variance_clamps = clamps
        return tr


def run_chain(dataset: Dataset, K: int, prior: PriorSpec, config: SamplerConfig) -> ChainTrace:
    """Run one chain of the configured method, seeded by ``config.seed``, and return its trace."""
    rng = np.random.default_rng(config.seed)
    n = dataset.n
    m = _resolve_m(config, n)
    t = 0
    try:
        state = init_state(dataset, K, prior, rng)
        step = _STEPS[config.method](dataset, K, m, config)
        record = _Recorder(dataset, K, m, config, step, state)

        # Per-component (counts, sums, sqsums) of the current allocations, shared
        # by the pi and mu/sigma2 draws, the trace CLL and occupancy.  A step that
        # returns its moved rows has them moved in place, with a recompute once
        # per epoch (ceil(n/m) iterations) to bound rounding drift; a full sweep
        # (and every iteration at m = n) recomputes.
        epoch = -(-n // m)
        const = prior_constants(prior, K)
        eye = np.eye(K)
        stats = None
        elapsed = clamps = 0
        for t in range(1, config.T + 1):
            tic = time.perf_counter_ns()
            moved = step(t, state, rng)
            if moved is not None and (t - 1) % epoch != 0:
                update_sufficient_stats(stats, *moved, eye=eye)
            else:
                stats = component_sufficient_stats(dataset, state.z, K)
            state.pi = sample_mixture_weights(rng, stats, const)
            state.mu, state.sigma2, c = sample_component_params(state, prior, rng, stats, const)
            clamps += c
            elapsed += time.perf_counter_ns() - tic
            record(t, state, stats, elapsed)
        return record.finish(clamps)
    except _NUMERICAL_ERRORS as exc:
        raise ChainError(f"iteration {t}: {type(exc).__name__}: {exc}") from exc
