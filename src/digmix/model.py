"""Finite Gaussian mixture with diagonal covariance: conjugate updates and likelihoods.

All samplers share the operations here.  The model is

    x_i | z_i, mu, sigma2 ~ N(mu_{z_i}, diag(sigma2_{z_i}))
    z_i | pi              ~ Categorical(pi)
    pi                    ~ Dirichlet(a/K, ..., a/K)
    mu_kj                 ~ N(m0_j, tau2)
    sigma2_kj             ~ InverseGamma(alpha_sigma, beta_sigma)

with mu and sigma2 given independent priors, updated by semi-conjugate
sub-steps (mu | sigma2 then sigma2 | mu).  A spherical option ties
sigma2 across dimensions within a component by pooling residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    spherical: bool = False

    def __post_init__(self):
        self.m0 = np.atleast_1d(np.asarray(self.m0, dtype=float))
        if self.a <= 0 or self.tau2 <= 0 or self.alpha_sigma <= 0 or self.beta_sigma <= 0:
            raise ValueError("prior hyperparameters must be strictly positive")


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
        if abs(self.pi.sum() - 1.0) > 1e-12 or np.any(self.pi <= 0):
            raise ValueError("pi must be a strictly positive simplex vector")
        if np.any(self.sigma2 <= 0) or not np.all(np.isfinite(self.sigma2)):
            raise ValueError("sigma2 must be strictly positive and finite")
        if np.any(self.z < 0) or np.any(self.z >= self.K):
            raise ValueError("allocation out of range")

    def copy(self) -> "MixtureState":
        return MixtureState(self.z.copy(), self.pi.copy(), self.mu.copy(), self.sigma2.copy())


@dataclass
class ResponsibilityMatrix:
    """Posterior allocation probabilities, row i = p(z_i = . | pi, mu, sigma2, x_i)."""

    p: np.ndarray
    stale_age: int = 0


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


def log_density_matrix(x: np.ndarray, state: MixtureState, out=None, xsq=None, work=None) -> np.ndarray:
    """(n, K) matrix of log pi_k + log N(x_i | mu_k, sigma2_k).

    The quadratic form is expanded so the whole matrix comes from two
    matrix products instead of a per-component pass.  Repeated callers pass
    ``xsq`` (``x * x``, computed once), the (n, K) result buffer ``out`` and
    an (n, K) scratch ``work`` for the quadratic term; whatever is left out
    is allocated.
    """
    inv = 1.0 / state.sigma2                               # (K, d)
    const = (
        np.log(state.pi)
        - 0.5 * (LOG_2PI * x.shape[1] + np.log(state.sigma2).sum(axis=1))
        - 0.5 * (state.mu ** 2 * inv).sum(axis=1)
    )                                                      # (K,)
    if xsq is None:
        xsq = x * x
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


def responsibilities_row(x_row, state: MixtureState) -> np.ndarray:
    """Posterior allocation probabilities for one observation (log-sum-exp stable)."""
    x_row = np.atleast_1d(np.asarray(x_row, dtype=float))
    logp = log_density_matrix(x_row[None, :], state)
    return _normalise_rows(logp)[0]


def refresh_responsibilities(dataset: Dataset, state: MixtureState, out=None, xsq=None,
                             work=None) -> ResponsibilityMatrix:
    """Full (n, K) recomputation of the responsibility matrix; resets staleness.

    ``out``, ``xsq`` and ``work`` are the buffers of :func:`log_density_matrix`;
    the matrix is written into ``out`` when given.
    """
    logp = log_density_matrix(dataset.x, state, out=out, xsq=xsq, work=work)
    return ResponsibilityMatrix(p=_normalise_rows(logp), stale_age=0)


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
    if not np.isfinite(cll):
        raise ValueError("non-finite complete log-likelihood")
    return cll


def sample_allocation(i: int, dataset: Dataset, state: MixtureState, rng) -> tuple[int, np.ndarray]:
    """Draw a new allocation for observation i; also returns the probability row.

    The returned row lets callers overwrite the matching responsibility-matrix
    row at no extra cost.
    """
    if not 0 <= i < dataset.n:
        raise ValueError("index out of range")
    row = responsibilities_row(dataset.x[i], state)
    k = int(np.searchsorted(np.cumsum(row), rng.random(), side="right"))
    return min(k, state.K - 1), row


def sample_allocations_rows(rows: np.ndarray, rng) -> np.ndarray:
    """Vectorised categorical draw, one per probability row."""
    c = np.cumsum(rows, axis=1)
    u = rng.random(rows.shape[0])
    draws = (c < u[:, None]).sum(axis=1)
    return np.minimum(draws, rows.shape[1] - 1)


def sample_mixture_weights(state: MixtureState, prior: PriorSpec, rng, stats=None) -> np.ndarray:
    """Dirichlet(a/K + n_1, ..., a/K + n_K) draw given the allocations.

    The counts are taken from ``stats`` (see :func:`component_sufficient_stats`)
    when given, else counted from ``state.z``.
    """
    counts = np.bincount(state.z, minlength=state.K) if stats is None else stats[0]
    pi = rng.dirichlet(prior.a / state.K + counts)
    # Guard against exact zeros from extreme Dirichlet draws.
    pi = np.maximum(pi, 1e-300)
    return pi / pi.sum()


def component_sufficient_stats(dataset: Dataset, z: np.ndarray, K: int):
    """Per-component counts, sums and sums of squares, each dimension separately."""
    counts = np.bincount(z, minlength=K).astype(float)
    d = dataset.d
    sums = np.empty((K, d))
    sqsums = np.empty((K, d))
    for j in range(d):
        sums[:, j] = np.bincount(z, weights=dataset.x[:, j], minlength=K)
        sqsums[:, j] = np.bincount(z, weights=dataset.x[:, j] ** 2, minlength=K)
    return counts, sums, sqsums


def update_sufficient_stats(stats, x_rows: np.ndarray, z_old: np.ndarray, z_new: np.ndarray):
    """Move rows ``x_rows`` from components ``z_old`` to ``z_new`` in ``stats``, in place.

    Each row must appear once.  Costs O(md + Kd) for m rows: the one-hot
    difference matrix (zero on rows that stay) enters two (K, m) x (m, d)
    products.
    """
    counts, sums, sqsums = stats
    eye = np.eye(counts.size)
    diff = eye[z_new] - eye[z_old]
    counts += diff.sum(axis=0)
    sums += diff.T @ x_rows
    sqsums += diff.T @ (x_rows * x_rows)
    if not counts.all():
        # An emptied component keeps the exact zeros a recompute gives,
        # not the rounding residue of its departed rows.
        empty = counts == 0
        sums[empty] = 0.0
        sqsums[empty] = 0.0


def sample_component_params(dataset: Dataset, state: MixtureState, prior: PriorSpec, rng, stats=None):
    """One semi-conjugate sweep: mu | sigma2 then sigma2 | mu, all components.

    ``stats`` are the ``(counts, sums, sqsums)`` of ``state.z``, recomputed
    from the data when not given.  Empty components fall through to prior
    draws.  Returns (mu, sigma2, clamp_events) where clamp_events counts
    variance draws hitting the floor.
    """
    K = state.K
    if stats is None:
        stats = component_sufficient_stats(dataset, state.z, K)
    counts, sums, sqsums = stats
    nk = counts[:, None]  # (K, 1)

    prec = 1.0 / prior.tau2 + nk / state.sigma2
    mean = (prior.m0 / prior.tau2 + sums / state.sigma2) / prec
    mu = mean + rng.standard_normal((K, dataset.d)) / np.sqrt(prec)

    # Residual sum of squares around the freshly drawn means.
    rss = sqsums - 2.0 * mu * sums + nk * mu ** 2
    rss = np.maximum(rss, 0.0)

    if prior.spherical:
        shape = prior.alpha_sigma + counts * dataset.d / 2.0
        rate = prior.beta_sigma + 0.5 * rss.sum(axis=1)
        draw = rate / rng.gamma(shape)
        sigma2 = np.repeat(draw[:, None], dataset.d, axis=1)
    else:
        shape = prior.alpha_sigma + nk / 2.0
        rate = prior.beta_sigma + 0.5 * rss
        sigma2 = rate / rng.gamma(shape)

    clamped = int(np.sum(sigma2 < VARIANCE_FLOOR))
    sigma2 = np.maximum(sigma2, VARIANCE_FLOOR)
    return mu, sigma2, clamped


def empirical_bayes_hyperparams(dataset: Dataset, K: int, spherical: bool = False) -> PriorSpec:
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
        spherical=spherical,
    )
