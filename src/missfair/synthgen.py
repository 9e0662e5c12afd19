"""Synthetic cohort generator: three isotropic Gaussian clusters, two groups."""

import math
from dataclasses import dataclass

import numpy as np

from .data_model import Cohort, ConfigurationError


@dataclass(frozen=True)
class ClusterSpec:
    mean: tuple
    variance: float

    def __post_init__(self):
        object.__setattr__(self, "mean", tuple(float(m) for m in self.mean))
        # written so that nan fails it
        if not (0 < self.variance < math.inf and all(map(math.isfinite, self.mean))):
            raise ConfigurationError("cluster mean must be finite, variance finite and positive")


@dataclass(frozen=True)
class PopulationSpec:
    n_majority: int
    n_marginalised: int
    prevalence_majority: float
    prevalence_marginalised: float
    negative_cluster: ClusterSpec
    positive_majority_cluster: ClusterSpec
    positive_marginalised_cluster: ClusterSpec
    correlate_x2_with_x1: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.n_majority < 1 or self.n_marginalised < 1:
            raise ConfigurationError("both groups need at least one member")
        for p in (self.prevalence_majority, self.prevalence_marginalised):
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError("prevalence must lie in [0, 1]")
        d = len(self.negative_cluster.mean)
        if d < 2:
            raise ConfigurationError("generator needs at least two covariates")
        if len(self.positive_majority_cluster.mean) != d or \
           len(self.positive_marginalised_cluster.mean) != d:
            raise ConfigurationError("all clusters must share dimensionality")


def generate(spec):
    """Draw a Cohort from the spec. Group sizes are exact; outcomes are Bernoulli per row.

    Negatives come from the shared negative cluster; positives from their group's
    cluster. With correlate_x2_with_x1 the sampled X1 value is added to X2.
    """
    rng = np.random.default_rng(spec.seed)
    d = len(spec.negative_cluster.mean)
    blocks = []
    for g, n_g, prev, pos_cluster in (
        (0, spec.n_majority, spec.prevalence_majority, spec.positive_majority_cluster),
        (1, spec.n_marginalised, spec.prevalence_marginalised, spec.positive_marginalised_cluster),
    ):
        y = (rng.random(n_g) < prev).astype(np.int8)
        X = np.empty((n_g, d))
        for cluster, rows in ((spec.negative_cluster, y == 0), (pos_cluster, y == 1)):
            k = int(rows.sum())
            X[rows] = np.asarray(cluster.mean) + \
                np.sqrt(cluster.variance) * rng.standard_normal((k, d))
        blocks.append((X, np.full(n_g, g, dtype=np.int8), y))

    X = np.vstack([b[0] for b in blocks])
    group = np.concatenate([b[1] for b in blocks])
    outcome = np.concatenate([b[2] for b in blocks])
    if spec.correlate_x2_with_x1:
        X[:, 1] = X[:, 1] + X[:, 0]
    return Cohort(X, group, outcome)
