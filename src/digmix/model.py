"""Finite Gaussian mixture with diagonal covariance: conjugate updates and likelihoods.

All samplers share the operations here.  The model is

    x_i | z_i, mu, sigma2 ~ N(mu_{z_i}, diag(sigma2_{z_i}))
    z_i | pi              ~ Categorical(pi)
    pi                    ~ Dirichlet(a/K, ..., a/K)
    mu_kj                 ~ N(m0_j, tau2)
    sigma2_kj             ~ InverseGamma(alpha_sigma, beta_sigma)

with mu and sigma2 given independent priors, updated by semi-conjugate
sub-steps (mu | sigma2 then sigma2 | mu).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .parallel import pass_threads, run_groups

LOG_2PI = float(np.log(2.0 * np.pi))

# Variance draws are clamped below this to keep log densities finite.
VARIANCE_FLOOR = 1e-12

# Shifted log weights are floored here before exponentiating; exp(-700) is
# about 1e-304, still a normal double.
LOG_FLOOR = -700.0

# Most rows per block of a full (n, K) pass.  An (8192, 20) float64 block is
# 1.3 MB, so it stays in a 2 MiB per-core L2 cache between the steps of the
# pass, on whichever core's thread runs it (parallel.pass_threads).  On a
# 2-core Xeon with that cache, SSG's serial pass at n=1e5, K=20 took 20.5,
# 18.5, 17.7, 17.7 and 19.3 ms at 1024, 2048, 4096, 8192 and 16384 rows per
# block, and 22.7 ms unblocked.
PASS_ROWS = 8192


@dataclass
class Dataset:
    """Observation matrix (n, d) with optional ground-truth labels.

    Labels are normalised to 0-based contiguous integers on construction and
    are only consumed by diagnostics, never by the samplers.
    """

    x: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        if self.x.ndim != 2:
            raise ValueError("x must be a 2-d matrix")
        if self.x.shape[0] < 1 or self.x.shape[1] < 1:
            raise ValueError("need n >= 1 and d >= 1")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("non-finite input")
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.shape != (self.x.shape[0],):
                raise ValueError("labels must have length n")
            uniq = np.unique(labels)
            lo = uniq.min()
            if lo not in (0, 1) or not np.array_equal(uniq, np.arange(lo, lo + len(uniq))):
                raise ValueError("labels must be a contiguous range starting at 0 or 1")
            self.labels = (labels - lo).astype(int)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @cached_property
    def xsq(self) -> np.ndarray:
        """``x * x``, computed when first read; a dataset pickled before then carries no copy."""
        return self.x * self.x

    @cached_property
    def flat_columns(self) -> np.ndarray:
        """Column index of each entry of ``x.ravel()``, as int32, computed when first read."""
        return np.tile(np.arange(self.d, dtype=np.int32), self.n)


@dataclass
class PriorSpec:
    """Hyperparameters of the mixture prior.

    ``a`` is the total Dirichlet concentration; each component gets a/K.
    """

    m0: np.ndarray
    tau2: float
    alpha_sigma: float
    beta_sigma: float
    a: float = 1.0

    def __post_init__(self):
        self.m0 = np.atleast_1d(np.asarray(self.m0, dtype=float))
        # Written so that a NaN fails each comparison.
        if not all(0 < v < math.inf for v in (self.a, self.tau2, self.alpha_sigma, self.beta_sigma)):
            raise ValueError("prior hyperparameters must be strictly positive and finite")
        if not np.isfinite(self.m0).all():
            raise ValueError("prior mean m0 must be finite")


@dataclass
class MixtureState:
    """Current allocations and component parameters of one chain."""

    z: np.ndarray        # (n,) ints in {0..K-1}
    pi: np.ndarray       # (K,) simplex
    mu: np.ndarray       # (K, d)
    sigma2: np.ndarray   # (K, d) strictly positive

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=int)
        self.pi = np.asarray(self.pi, dtype=float)
        self.mu = np.atleast_2d(np.asarray(self.mu, dtype=float))
        self.sigma2 = np.atleast_2d(np.asarray(self.sigma2, dtype=float))
        self.validate()

    @property
    def K(self) -> int:
        return self.pi.shape[0]

    def validate(self):
        # Written so that a NaN fails each comparison.
        if self.pi.ndim != 1 or self.mu.shape[0] != self.K or self.sigma2.shape != self.mu.shape:
            raise ValueError("pi, mu and sigma2 must agree on K, and mu and sigma2 on d")
        if not (abs(self.pi.sum() - 1.0) <= 1e-12 and self.pi.min() > 0):
            raise ValueError("pi must be a strictly positive simplex vector")
        if not np.isfinite(self.mu).all():
            raise ValueError("mu must be finite")
        if not (self.sigma2.min() > 0 and self.sigma2.max() < math.inf):
            raise ValueError("sigma2 must be strictly positive and finite")
        if np.any(self.z < 0) or np.any(self.z >= self.K):
            raise ValueError("allocation out of range")

    def copy(self) -> "MixtureState":
        return MixtureState(self.z.copy(), self.pi.copy(), self.mu.copy(), self.sigma2.copy())


@dataclass
class ResponsibilityMatrix:
    """Posterior allocation probabilities, row i = p(z_i = . | pi, mu, sigma2, x_i)."""

    p: np.ndarray


def pass_blocks(dataset: Dataset, P: np.ndarray) -> list[list[tuple]]:
    """The row blocks of a full pass over ``dataset`` into the (n, K) buffer ``P``, one group per thread.

    Blocks hold ``PASS_ROWS`` rows each, the last one the rest.  The
    :func:`parallel.pass_threads` threads each take a group: a run of
    consecutive blocks, the group sizes differing by one block at most.  Each
    block is ``(rows, x, xsq, P)``: its row slice and its rows of x, x**2 and
    ``P``.  The groups share nothing but ``P``, in disjoint rows.
    """
    n = P.shape[0]
    blocks = [slice(lo, min(lo + PASS_ROWS, n)) for lo in range(0, n, PASS_ROWS)]
    threads = pass_threads(len(blocks))
    cuts = [g * len(blocks) // threads for g in range(threads + 1)]
    return [[(rows, dataset.x[rows], dataset.xsq[rows], P[rows]) for rows in blocks[cuts[g]:cuts[g + 1]]]
            for g in range(threads)]


def log_density_matrix(x: np.ndarray, xsq: np.ndarray, state: MixtureState, out=None) -> np.ndarray:
    """(n, K) matrix of log pi_k + log N(x_i | mu_k, sigma2_k), where ``xsq`` holds the squares of ``x``.

    The quadratic form is expanded so the whole matrix comes from two
    matrix products instead of a per-component pass.  The result goes into
    the (n, K) buffer ``out`` when given; the quadratic term is a fresh
    (n, K) temporary, which in a full pass is one block's.
    """
    inv = 1.0 / state.sigma2                               # (K, d)
    const = (
        np.log(state.pi)
        - 0.5 * (LOG_2PI * x.shape[1] + np.log(state.sigma2).sum(axis=1))
        - 0.5 * (state.mu ** 2 * inv).sum(axis=1)
    )                                                      # (K,)
    out = np.matmul(x, (state.mu * inv).T, out=out)        # cross terms
    # Scaling by -0.5 is exact, so this adds the same values as
    # subtracting half of the unscaled product.
    out += xsq @ (-0.5 * inv.T)
    out += const
    return out


def _normalise_rows(logp: np.ndarray) -> np.ndarray:
    """Turn each row of log weights into probabilities, in place.

    The shifted log weights are floored at ``LOG_FLOOR`` before ``exp``,
    which is many times slower when its result is subnormal or zero; only
    probabilities below about 1e-304 change, and no draw does.
    """
    logp -= logp.max(axis=1, keepdims=True)
    np.maximum(logp, LOG_FLOOR, out=logp)
    np.exp(logp, out=logp)
    logp /= logp.sum(axis=1, keepdims=True)
    return logp


def refresh_responsibilities(dataset: Dataset, state: MixtureState, out=None) -> ResponsibilityMatrix:
    """Full (n, K) recomputation of the responsibility matrix, into ``out`` when given.

    The pass runs in the row blocks of :func:`pass_blocks`, each group of
    blocks on its own thread; each row's probabilities are those of one
    whole-matrix pass, bit for bit, whatever the thread count.
    """
    p = np.empty((dataset.n, state.K)) if out is None else out

    def normalise(blocks):
        for _, x, xsq, P in blocks:
            _normalise_rows(log_density_matrix(x, xsq, state, out=P))

    run_groups(normalise, pass_blocks(dataset, p))
    return ResponsibilityMatrix(p=p)


def complete_log_likelihood(dataset: Dataset, state: MixtureState, stats=None) -> float:
    """Sum over observations of log pi_{z_i} + log N(x_i | component z_i).

    Computed from the per-component statistics ``(counts, sums, sqsums)`` of
    ``state.z`` in O(Kd); they are recomputed from the data when not given.
    """
    if stats is None:
        stats = component_sufficient_stats(dataset, state.z, state.K)
    counts, sums, sqsums = stats
    nk = counts[:, None]
    quad = (sqsums - 2.0 * state.mu * sums + nk * state.mu ** 2) / state.sigma2
    logdet = nk * (LOG_2PI + np.log(state.sigma2))
    cll = float(counts @ np.log(state.pi) - 0.5 * (logdet + quad).sum())
    if not math.isfinite(cll):
        raise ValueError("non-finite complete log-likelihood")
    return cll


def sample_allocations_rows(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Vectorised categorical draw, one per probability row, from the uniforms ``u``.

    Row i draws the number of its running sums below u_i, capped at K - 1.
    The running sum is kept as one n-vector over the first K - 1 columns,
    added column by column as ``cumsum`` adds them, so the draws equal
    ``np.minimum((rows.cumsum(axis=1) < u[:, None]).sum(axis=1), K - 1)``
    bit for bit without its two (n, K) temporaries.
    """
    n, K = rows.shape
    z = np.zeros(n, dtype=np.intp)
    c = rows[:, 0].copy()
    below = np.empty(n, dtype=bool)
    for k in range(1, K):
        np.less(c, u, out=below)
        z += below
        if k < K - 1:
            np.add(c, rows[:, k], out=c)
    return z


def prior_constants(prior: PriorSpec, K: int):
    """``(a/K, 1/tau2, m0/tau2)``: the prior's terms in the conjugate draws, computed once per chain."""
    return prior.a / K, 1.0 / prior.tau2, prior.m0 / prior.tau2


def sample_mixture_weights(rng, stats, const) -> np.ndarray:
    """Dirichlet(a/K + n_1, ..., a/K + n_K) draw given the allocations.

    The counts come from ``stats`` and a/K from ``const`` (:func:`prior_constants`).
    """
    pi = rng.dirichlet(const[0] + stats[0])
    # Guard against exact zeros from extreme Dirichlet draws.
    np.maximum(pi, 1e-300, out=pi)
    pi /= pi.sum()
    return pi


def component_sufficient_stats(dataset: Dataset, z: np.ndarray, K: int):
    """Per-component counts, and sums and sums of squares of each dimension.

    Entry (i, j) of the data goes to bin z_i * d + j, so one ``bincount``
    over the flattened data gives all K * d sums.  Each bin adds its rows in
    row order, as a per-column ``bincount`` does, so the sums are the same
    bit for bit.
    """
    counts = np.bincount(z, minlength=K).astype(float)
    d = dataset.d
    bins = np.repeat(z * d, d)
    bins += dataset.flat_columns
    sums = np.bincount(bins, weights=dataset.x.ravel(), minlength=K * d).reshape(K, d)
    sqsums = np.bincount(bins, weights=dataset.xsq.ravel(), minlength=K * d).reshape(K, d)
    return counts, sums, sqsums


def update_sufficient_stats(stats, dataset: Dataset, rows: np.ndarray, z_old: np.ndarray, z_new: np.ndarray,
                            *, eye: np.ndarray):
    """Move ``rows`` of ``dataset`` from components ``z_old`` to ``z_new`` in ``stats``, in place.

    Each row must appear once; its x and x**2 are gathered from the dataset.
    Costs O(md + Kd) for m rows: the one-hot difference matrix (zero on rows
    that stay) enters two (K, m) x (m, d) products.  ``eye`` is
    ``np.eye(K)``, built once by the caller.
    """
    counts, sums, sqsums = stats
    diff = eye.take(z_new, axis=0)     # take gathers rows faster than eye[z_new]
    diff -= eye.take(z_old, axis=0)
    counts += diff.sum(axis=0)
    sums += diff.T @ dataset.x.take(rows, axis=0)
    sqsums += diff.T @ dataset.xsq.take(rows, axis=0)
    if not counts.all():
        # An emptied component keeps the exact zeros a recompute gives,
        # not the rounding residue of its departed rows.
        empty = counts == 0
        sums[empty] = 0.0
        sqsums[empty] = 0.0


def sample_component_params(state: MixtureState, prior: PriorSpec, rng, stats, const):
    """One semi-conjugate sweep: mu | sigma2 then sigma2 | mu, all components.

    ``stats`` are the ``(counts, sums, sqsums)`` of ``state.z`` and ``const``
    is :func:`prior_constants`' tuple.  Empty components fall through to
    prior draws.  Returns (mu, sigma2, clamp_events) where clamp_events
    counts variance draws hitting the floor.
    """
    _, tau2_inv, m0_tau2 = const
    counts, sums, sqsums = stats
    nk = counts[:, None]  # (K, 1)

    prec = tau2_inv + nk / state.sigma2
    mean = (m0_tau2 + sums / state.sigma2) / prec
    mu = mean + rng.standard_normal(sums.shape) / np.sqrt(prec)

    # Residual sum of squares around the freshly drawn means.
    rss = sqsums - 2.0 * mu * sums + nk * mu ** 2
    rss = np.maximum(rss, 0.0)

    # standard_gamma draws what gamma(shape) (scale 1) draws, at half the cost.
    shape = prior.alpha_sigma + nk / 2.0
    rate = prior.beta_sigma + 0.5 * rss
    sigma2 = rate / rng.standard_gamma(shape)

    if sigma2.min() >= VARIANCE_FLOOR:
        return mu, sigma2, 0
    clamped = int(np.count_nonzero(sigma2 < VARIANCE_FLOOR))
    return mu, np.maximum(sigma2, VARIANCE_FLOOR), clamped


def empirical_bayes_hyperparams(dataset: Dataset, K: int) -> PriorSpec:
    """Data-driven prior built from column moments.

    Component means get a broad prior (four times the mean column variance)
    centred on the data mean, so that the prior draws for empty components do
    not sit on top of dense regions.  The variance prior is a heavy-tailed
    inverse gamma with prior mean twice the column variance: wide enough that
    surplus components in overfitted models can be absorbed rather than
    persisting as small tight clusters.  The Dirichlet mass is a small total
    (0.2) split over components, which empties surplus components.

    Sample variances use the population convention (divide by n) so that row
    duplication leaves the result unchanged.
    """
    if dataset.n < 2:
        raise ValueError("need n >= 2")
    col_var = dataset.x.var(axis=0)  # population convention
    if np.any(col_var <= 0):
        raise ValueError("degenerate column")
    mean_var = float(col_var.mean())
    return PriorSpec(
        m0=dataset.x.mean(axis=0),
        tau2=4.0 * mean_var,
        alpha_sigma=2.0,
        beta_sigma=2.0 * mean_var,
        a=0.2,
    )
