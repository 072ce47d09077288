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

LOG_2PI = float(np.log(2.0 * np.pi))

# Variance draws are clamped below this to keep log densities finite.
VARIANCE_FLOOR = 1e-12

# Shifted log weights are floored here before exponentiating; exp(-700) is
# about 1e-304, still a normal double.
LOG_FLOOR = -700.0


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


def log_component_density(x_row, mu_k, sigma2_k) -> float:
    """Diagonal-Gaussian log density of one observation under one component."""
    x_row = np.atleast_1d(np.asarray(x_row, dtype=float))
    mu_k = np.atleast_1d(np.asarray(mu_k, dtype=float))
    sigma2_k = np.atleast_1d(np.asarray(sigma2_k, dtype=float))
    if not (np.all(np.isfinite(x_row)) and np.all(np.isfinite(mu_k)) and np.all(np.isfinite(sigma2_k))):
        raise ValueError("non-finite input")
    if np.any(sigma2_k <= 0):
        raise ValueError("sigma2 must be strictly positive")
    return float(-0.5 * np.sum(LOG_2PI + np.log(sigma2_k) + (x_row - mu_k) ** 2 / sigma2_k))


def log_density_matrix(x: np.ndarray, xsq: np.ndarray, state: MixtureState, out=None,
                       work=None) -> np.ndarray:
    """(n, K) matrix of log pi_k + log N(x_i | mu_k, sigma2_k), where ``xsq`` holds the squares of ``x``.

    The quadratic form is expanded so the whole matrix comes from two
    matrix products instead of a per-component pass.  Repeated callers pass
    the (n, K) result buffer ``out`` and an (n, K) scratch ``work`` for the
    quadratic term; whatever is left out is allocated.
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
    out += np.matmul(xsq, -0.5 * inv.T, out=work)
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


def refresh_responsibilities(dataset: Dataset, state: MixtureState, out=None,
                             work=None) -> ResponsibilityMatrix:
    """Full (n, K) recomputation of the responsibility matrix.

    ``out`` and ``work`` are the buffers of :func:`log_density_matrix`; the
    matrix is written into ``out`` when given.
    """
    logp = log_density_matrix(dataset.x, dataset.xsq, state, out=out, work=work)
    return ResponsibilityMatrix(p=_normalise_rows(logp))


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


def sample_allocations_rows(rows: np.ndarray, rng) -> np.ndarray:
    """Vectorised categorical draw, one per probability row.

    Row i draws the number of its running sums below u_i, capped at K - 1.
    The running sum is kept as one n-vector over the first K - 1 columns,
    added column by column as ``cumsum`` adds them, so the draws equal
    ``np.minimum((rows.cumsum(axis=1) < u[:, None]).sum(axis=1), K - 1)``
    bit for bit without its two (n, K) temporaries.
    """
    n, K = rows.shape
    u = rng.random(n)
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
    """Per-component counts, sums and sums of squares, each dimension separately."""
    counts = np.bincount(z, minlength=K).astype(float)
    d = dataset.d
    sums = np.empty((K, d))
    sqsums = np.empty((K, d))
    for j in range(d):
        sums[:, j] = np.bincount(z, weights=dataset.x[:, j], minlength=K)
        sqsums[:, j] = np.bincount(z, weights=dataset.xsq[:, j], minlength=K)
    return counts, sums, sqsums


def update_sufficient_stats(stats, x_rows: np.ndarray, z_old: np.ndarray, z_new: np.ndarray,
                            x_rows_sq: np.ndarray, *, eye: np.ndarray):
    """Move rows ``x_rows`` from components ``z_old`` to ``z_new`` in ``stats``, in place.

    ``x_rows_sq`` holds the rows' squares.  Each row must appear once.
    Costs O(md + Kd) for m rows: the one-hot difference matrix (zero on rows
    that stay) enters two (K, m) x (m, d) products.  ``eye`` is
    ``np.eye(K)``, built once by the caller.
    """
    counts, sums, sqsums = stats
    diff = eye.take(z_new, axis=0)     # take gathers rows faster than eye[z_new]
    diff -= eye.take(z_old, axis=0)
    counts += diff.sum(axis=0)
    sums += diff.T @ x_rows
    sqsums += diff.T @ x_rows_sq
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
