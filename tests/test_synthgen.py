import math

import numpy as np
import pytest

from missfair.data_model import ConfigurationError
from missfair.synthgen import ClusterSpec, PopulationSpec, generate


def _spec(**kwargs):
    base = dict(
        n_majority=4000, n_marginalised=1000,
        prevalence_majority=0.5, prevalence_marginalised=0.5,
        negative_cluster=ClusterSpec((0.0, 0.0), 0.0625),
        positive_majority_cluster=ClusterSpec((0.0, 1.0), 0.0625),
        positive_marginalised_cluster=ClusterSpec((1.0, 0.0), 0.0625),
        seed=0)
    base.update(kwargs)
    return PopulationSpec(**base)


def test_group_sizes_are_exact_and_ordered():
    c = generate(_spec())
    assert c.n == 5000
    assert (c.group[:4000] == 0).all()
    assert (c.group[4000:] == 1).all()


def test_prevalence_is_binomial_per_group():
    c = generate(_spec(n_majority=50000, prevalence_majority=0.66))
    assert c.outcome[:50000].mean() == pytest.approx(0.66, abs=0.01)


def test_cluster_means_and_variance():
    c = generate(_spec(n_majority=100000, n_marginalised=50000))
    X, g, y = c.covariates, c.group, c.outcome
    neg = X[y == 0]
    assert np.allclose(neg.mean(axis=0), (0.0, 0.0), atol=0.01)
    assert np.allclose(neg.var(axis=0), 0.0625, atol=0.005)
    pos_maj = X[(y == 1) & (g == 0)]
    assert np.allclose(pos_maj.mean(axis=0), (0.0, 1.0), atol=0.01)
    pos_marg = X[(y == 1) & (g == 1)]
    assert np.allclose(pos_marg.mean(axis=0), (1.0, 0.0), atol=0.01)


def test_correlated_second_covariate():
    c = generate(_spec(n_majority=100000, correlate_x2_with_x1=True))
    r = np.corrcoef(c.covariates[:, 0], c.covariates[:, 1])[0, 1]
    assert r > 0.3


def test_seed_determinism():
    a, b = generate(_spec(seed=9)), generate(_spec(seed=9))
    assert np.array_equal(a.covariates, b.covariates)
    assert np.array_equal(a.outcome, b.outcome)
    c = generate(_spec(seed=10))
    assert not np.array_equal(a.covariates, c.covariates)


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        _spec(n_majority=0)
    with pytest.raises(ConfigurationError):
        _spec(prevalence_majority=1.5)
    with pytest.raises(ConfigurationError):
        ClusterSpec((0.0, 0.0), 0.0)
    for mean, variance in (((0.0, 0.0), math.nan), ((0.0, 0.0), math.inf),
                           ((math.nan, 0.0), 0.1), ((0.0, math.inf), 0.1)):
        with pytest.raises(ConfigurationError):
            ClusterSpec(mean, variance)
    with pytest.raises(ConfigurationError):
        _spec(positive_majority_cluster=ClusterSpec((0.0, 1.0, 2.0), 0.1))
