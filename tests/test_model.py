"""Model-core tests: densities, conditionals, conjugate updates, empirical Bayes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from digmix.model import (
    Dataset,
    MixtureState,
    PriorSpec,
    complete_log_likelihood,
    empirical_bayes_hyperparams,
    log_component_density,
    log_density_matrix,
    refresh_responsibilities,
    responsibilities_row,
    sample_allocation,
    sample_allocations_rows,
    sample_component_params,
    sample_mixture_weights,
)

# Closed-form reference values, frozen from independent arithmetic.
LOG_STD_NORMAL_AT_0 = -0.9189385332046727            # -0.5 ln(2 pi)
LOG_DENS_2D = -3.5310242469692907                    # x=(1,2), mu=0, s2=(1,4)
LOGISTIC_2 = 0.8807970779778823                      # 1 / (1 + e^{-2})


def make_state(z, pi, mu, sigma2):
    return MixtureState(z=np.asarray(z), pi=np.asarray(pi, dtype=float),
                        mu=np.asarray(mu, dtype=float), sigma2=np.asarray(sigma2, dtype=float))


# ---------------------------------------------------------------- densities

def test_log_density_standard_normal_origin():
    assert log_component_density([0.0], [0.0], [1.0]) == pytest.approx(LOG_STD_NORMAL_AT_0, abs=1e-12)


def test_log_density_two_dims():
    assert log_component_density([1.0, 2.0], [0.0, 0.0], [1.0, 4.0]) == pytest.approx(LOG_DENS_2D, abs=1e-12)


def test_log_density_rejects_bad_variance():
    with pytest.raises(ValueError):
        log_component_density([0.0], [0.0], [0.0])
    with pytest.raises(ValueError):
        log_component_density([np.nan], [0.0], [1.0])


def test_log_density_matrix_matches_scalar():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((7, 3))
    state = make_state(z=np.zeros(7, dtype=int), pi=[0.2, 0.3, 0.5],
                       mu=rng.standard_normal((3, 3)), sigma2=rng.uniform(0.5, 2.0, (3, 3)))
    mat = log_density_matrix(x, state)
    for i in range(7):
        for k in range(3):
            expect = np.log(state.pi[k]) + log_component_density(x[i], state.mu[k], state.sigma2[k])
            assert mat[i, k] == pytest.approx(expect, rel=1e-10, abs=1e-10)


def test_responsibilities_logistic_pair():
    # Two unit-variance components whose log densities differ by exactly 2.
    state = make_state(z=[0], pi=[0.5, 0.5], mu=[[0.0], [2.0]], sigma2=[[1.0], [1.0]])
    row = responsibilities_row([2.0], state)
    assert row[1] == pytest.approx(LOGISTIC_2, abs=1e-12)
    assert row.sum() == pytest.approx(1.0, abs=1e-12)


def test_responsibilities_extreme_logits_stable():
    state = make_state(z=[0], pi=[0.5, 0.5], mu=[[0.0], [500.0]], sigma2=[[1.0], [1.0]])
    row = responsibilities_row([0.0], state)
    assert np.all(np.isfinite(row))
    assert row[0] == pytest.approx(1.0, abs=1e-12)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_responsibility_rows_normalised(seed):
    rng = np.random.default_rng(seed)
    n, d, K = 5, 2, 4
    x = rng.standard_normal((n, d)) * 10
    pi = rng.dirichlet(np.ones(K))
    state = make_state(z=np.zeros(n, dtype=int), pi=pi,
                       mu=rng.standard_normal((K, d)) * 5, sigma2=rng.uniform(0.1, 3.0, (K, d)))
    resp = refresh_responsibilities(Dataset(x=x), state)
    assert resp.p.shape == (n, K)
    assert np.all(resp.p >= 0)
    np.testing.assert_allclose(resp.p.sum(axis=1), 1.0, atol=1e-12)


def floor_problem():
    """Rows whose log-density gaps reach the subnormal band of exp and beyond.

    Unit variances, x in [-0.5, 0.5]: the components at 0 and 1 lie within a
    gap of 1.2 of the row maximum; those at 37.7 to 38.5 lie 691-761 below
    it, many in the band -708 to -745 where exp is subnormal, and those at
    39, 45, 100 and -60 lie up to 5000 below it, where exp is zero.
    """
    mu = np.array([0.0, 1.0, 37.7, 38.0, 38.5, 39.0, 45.0, 100.0, -60.0])
    K = mu.size
    rng = np.random.default_rng(0)
    x = np.concatenate([np.linspace(-0.5, 0.5, 11), rng.uniform(-0.5, 0.5, 2000)])[:, None]
    state = make_state(z=np.zeros(x.shape[0], dtype=int), pi=np.full(K, 1.0 / K),
                       mu=mu[:, None], sigma2=np.ones((K, 1)))
    return Dataset(x=x), state


def test_floored_responsibilities_match_logsumexp():
    data, state = floor_problem()
    logp = log_density_matrix(data.x, state)
    gaps = logp.max(axis=1, keepdims=True) - logp
    assert np.count_nonzero((gaps > 708) & (gaps < 745)) > 1000
    assert np.count_nonzero(gaps > 745) > 1000
    ref = np.exp(logp - special.logsumexp(logp, axis=1, keepdims=True))
    p = refresh_responsibilities(data, state).p
    big = ref > 1e-300
    np.testing.assert_allclose(p[big], ref[big], rtol=1e-15, atol=0.0)
    assert np.all(p[~big] <= 1e-300)


def test_floored_components_never_drawn():
    data, state = floor_problem()
    p = refresh_responsibilities(data, state).p
    floored = p < 1e-300
    rng = np.random.default_rng(1)
    for _ in range(10):
        rows = rng.integers(0, p.shape[0], 100_000)
        draws = sample_allocations_rows(p[rows], rng)
        assert not np.any(floored[rows, draws])


def test_complete_log_likelihood_matches_sum():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((6, 2))
    state = make_state(z=[0, 1, 0, 1, 1, 0], pi=[0.4, 0.6],
                       mu=rng.standard_normal((2, 2)), sigma2=rng.uniform(0.5, 2.0, (2, 2)))
    expect = sum(
        np.log(state.pi[state.z[i]]) + log_component_density(x[i], state.mu[state.z[i]], state.sigma2[state.z[i]])
        for i in range(6)
    )
    assert complete_log_likelihood(Dataset(x=x), state) == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------- allocation draws

def test_sample_allocation_distribution():
    state = make_state(z=[0], pi=[0.5, 0.5], mu=[[0.0], [2.0]], sigma2=[[1.0], [1.0]])
    rng = np.random.default_rng(7)
    draws = np.array([sample_allocation(0, Dataset(x=np.array([[2.0]])), state, rng)[0]
                      for _ in range(20000)])
    assert draws.mean() == pytest.approx(LOGISTIC_2, abs=0.01)


def test_sample_allocation_index_check():
    state = make_state(z=[0], pi=[1.0], mu=[[0.0]], sigma2=[[1.0]])
    with pytest.raises(ValueError):
        sample_allocation(5, Dataset(x=np.array([[0.0]])), state, np.random.default_rng(0))


# ---------------------------------------------------------------- conjugate updates

def test_dirichlet_posterior_moments():
    # z fixed -> pi | z ~ Dirichlet(a/K + counts); check mean and variance over many draws.
    rng = np.random.default_rng(3)
    z = np.array([0] * 5 + [1] * 3 + [2] * 2)
    state = make_state(z=z, pi=np.full(3, 1 / 3), mu=np.zeros((3, 1)), sigma2=np.ones((3, 1)))
    prior = PriorSpec(m0=[0.0], tau2=1.0, alpha_sigma=2.0, beta_sigma=1.0, a=1.5)
    conc = 1.5 / 3 + np.array([5, 3, 2])
    total = conc.sum()
    draws = np.array([sample_mixture_weights(state, prior, rng) for _ in range(100000)])
    mean = conc / total
    var = conc * (total - conc) / (total ** 2 * (total + 1))
    se_mean = np.sqrt(var / len(draws))
    assert np.all(np.abs(draws.mean(axis=0) - mean) < 3 * se_mean + 1e-9)
    # Variance within 3 sigma using the asymptotic SE of a sample variance.
    sample_var = draws.var(axis=0)
    se_var = draws.var(axis=0) * np.sqrt(2 / len(draws)) * 3
    assert np.all(np.abs(sample_var - var) < 3e-5 + se_var)


def test_mu_conditional_ks():
    # One component, sigma2 fixed -> mu | rest is Normal with known moments.
    rng = np.random.default_rng(4)
    x = rng.standard_normal((50, 1)) + 2.0
    data = Dataset(x=x)
    prior = PriorSpec(m0=[0.0], tau2=2.0, alpha_sigma=2.0, beta_sigma=1.0, a=1.0)
    sigma2 = 1.3
    prec = 1 / prior.tau2 + 50 / sigma2
    mean = (0.0 / prior.tau2 + x.sum() / sigma2) / prec
    draws = []
    for _ in range(4000):
        state = make_state(z=np.zeros(50, dtype=int), pi=[1.0], mu=[[0.0]], sigma2=[[sigma2]])
        mu, _, _ = sample_component_params(data, state, prior, rng)
        draws.append(mu[0, 0])
    ks = stats.kstest(draws, "norm", args=(mean, 1 / np.sqrt(prec))).statistic
    assert ks < 0.03


def test_sigma2_conditional_ks():
    # One component, mu fixed -> sigma2 | rest is InverseGamma with known parameters.
    rng = np.random.default_rng(5)
    x = rng.standard_normal((40, 1)) * 1.5
    data = Dataset(x=x)
    prior = PriorSpec(m0=[0.0], tau2=1e-12, alpha_sigma=2.0, beta_sigma=1.0, a=1.0)
    # tau2 ~ 0 pins mu at m0 = 0, so the residuals are around zero.
    shape = prior.alpha_sigma + 40 / 2
    rate = prior.beta_sigma + 0.5 * float((x ** 2).sum())
    draws = []
    for _ in range(4000):
        state = make_state(z=np.zeros(40, dtype=int), pi=[1.0], mu=[[0.0]], sigma2=[[1.0]])
        _, s2, _ = sample_component_params(data, state, prior, rng)
        draws.append(s2[0, 0])
    ks = stats.kstest(draws, "invgamma", args=(shape, 0, rate)).statistic
    assert ks < 0.03


def test_empty_component_falls_back_to_prior():
    rng = np.random.default_rng(6)
    x = np.zeros((5, 1))
    data = Dataset(x=x)
    prior = PriorSpec(m0=[10.0], tau2=0.5, alpha_sigma=3.0, beta_sigma=2.0, a=1.0)
    mus = []
    for _ in range(3000):
        state = make_state(z=np.zeros(5, dtype=int), pi=[0.5, 0.5],
                          mu=[[0.0], [0.0]], sigma2=[[1.0], [1.0]])
        mu, _, _ = sample_component_params(data, state, prior, rng)
        mus.append(mu[1, 0])  # component 1 is empty
    mus = np.array(mus)
    assert mus.mean() == pytest.approx(10.0, abs=4 * np.sqrt(0.5 / len(mus)) + 0.05)
    assert mus.std() == pytest.approx(np.sqrt(0.5), rel=0.1)


def test_spherical_ties_dimensions():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((30, 3))
    data = Dataset(x=x)
    prior = PriorSpec(m0=np.zeros(3), tau2=1.0, alpha_sigma=2.0, beta_sigma=1.0, a=1.0, spherical=True)
    state = make_state(z=np.zeros(30, dtype=int), pi=[1.0], mu=[np.zeros(3)], sigma2=[np.ones(3)])
    _, s2, _ = sample_component_params(data, state, prior, rng)
    assert s2.shape == (1, 3)
    assert s2[0, 0] == s2[0, 1] == s2[0, 2]


# ---------------------------------------------------------------- validation

def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(x=np.array([1.0, 2.0]))          # 1-d
    with pytest.raises(ValueError):
        Dataset(x=np.array([[np.inf]]))
    with pytest.raises(ValueError):
        Dataset(x=np.zeros((3, 1)), labels=np.array([0, 2, 3]))   # gap in labels
    ds = Dataset(x=np.zeros((3, 1)), labels=np.array([1, 2, 1]))  # 1-based ok
    np.testing.assert_array_equal(ds.labels, [0, 1, 0])


def test_state_validation():
    with pytest.raises(ValueError):
        make_state(z=[0], pi=[0.7, 0.2], mu=np.zeros((2, 1)), sigma2=np.ones((2, 1)))
    with pytest.raises(ValueError):
        make_state(z=[3], pi=[0.5, 0.5], mu=np.zeros((2, 1)), sigma2=np.ones((2, 1)))
    with pytest.raises(ValueError):
        make_state(z=[0], pi=[0.5, 0.5], mu=np.zeros((2, 1)), sigma2=-np.ones((2, 1)))


def test_prior_validation():
    with pytest.raises(ValueError):
        PriorSpec(m0=[0.0], tau2=-1.0, alpha_sigma=1.0, beta_sigma=1.0)
    with pytest.raises(ValueError):
        PriorSpec(m0=[0.0], tau2=1.0, alpha_sigma=1.0, beta_sigma=1.0, a=0.0)


# ---------------------------------------------------------------- empirical Bayes

def test_empirical_bayes_duplication_invariant():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((40, 2)) * 3 + 1
    p1 = empirical_bayes_hyperparams(Dataset(x=x), K=5)
    p2 = empirical_bayes_hyperparams(Dataset(x=np.vstack([x, x])), K=5)
    np.testing.assert_allclose(p1.m0, p2.m0)
    assert p1.tau2 == pytest.approx(p2.tau2)
    assert p1.beta_sigma == pytest.approx(p2.beta_sigma)


def test_empirical_bayes_values():
    x = np.array([[0.0, 0.0], [2.0, 4.0]])
    prior = empirical_bayes_hyperparams(Dataset(x=x), K=3)
    np.testing.assert_allclose(prior.m0, [1.0, 2.0])
    mean_var = (1.0 + 4.0) / 2          # population variances 1 and 4
    assert prior.tau2 == pytest.approx(4.0 * mean_var)
    assert prior.beta_sigma == pytest.approx(2.0 * mean_var)
    assert prior.alpha_sigma == 2.0
    assert prior.a == pytest.approx(0.2)


def test_empirical_bayes_rejects_degenerate():
    with pytest.raises(ValueError):
        empirical_bayes_hyperparams(Dataset(x=np.ones((5, 1))), K=2)
    with pytest.raises(ValueError):
        empirical_bayes_hyperparams(Dataset(x=np.zeros((1, 1))), K=2)
