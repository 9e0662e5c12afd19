"""Core tabular types: complete cohorts, observation masks, imputation outputs, splits."""

from dataclasses import dataclass, field

import numpy as np


class ConfigurationError(ValueError):
    """Invalid specification (bad fractions, empty partition, ...)."""


def _freeze(arr):
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Cohort:
    """Complete ground-truth table: n x d covariates, binary group, binary outcome.

    group == 1 marks the marginalised group; outcome == 1 marks a positive case.
    """

    covariates: np.ndarray
    group: np.ndarray
    outcome: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.covariates, dtype=float)
        g = np.asarray(self.group)
        y = np.asarray(self.outcome)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise ConfigurationError("covariates must be a non-empty 2-D matrix")
        n = X.shape[0]
        if g.shape != (n,) or y.shape != (n,):
            raise ConfigurationError("group and outcome must have one entry per row")
        if not np.isfinite(X).all():
            raise ConfigurationError("ground-truth covariates must be complete and finite")
        # Checked on the values as given: the int8 cast would turn 1.7 into 1 and 256 into 0.
        if not (((g == 0) | (g == 1)).all() and ((y == 0) | (y == 1)).all()):
            raise ConfigurationError("group and outcome must be binary")
        object.__setattr__(self, "covariates", _freeze(X))
        object.__setattr__(self, "group", _freeze(g.astype(np.int8, copy=False)))
        object.__setattr__(self, "outcome", _freeze(y.astype(np.int8, copy=False)))

    @property
    def n(self):
        return self.covariates.shape[0]

    @property
    def d(self):
        return self.covariates.shape[1]


@dataclass(frozen=True)
class ObservationMask:
    """n x d indicator matrix, True/1 where the covariate value is observed."""

    observed: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.observed)
        if m.ndim != 2:
            raise ConfigurationError("mask must be 2-D")
        if m.dtype != bool and not np.isin(m, (0, 1)).all():
            raise ConfigurationError("mask entries must be binary")
        object.__setattr__(self, "observed", _freeze(m.astype(bool)))

    @property
    def shape(self):
        return self.observed.shape


@dataclass(frozen=True)
class MaskedCohort:
    """The only view imputation may read: masked covariate values plus the mask.

    Ground truth at masked positions is kept on the private cohort and is meant
    for reconstruction metrics and test oracles only; `covariates_masked` zeroes
    those positions so imputation code cannot accidentally use them.
    """

    cohort: Cohort
    mask: ObservationMask
    covariates_masked: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.mask.shape != self.cohort.covariates.shape:
            raise ConfigurationError("mask dimensions must match the cohort")
        masked = np.where(self.mask.observed, self.cohort.covariates, 0.0)
        object.__setattr__(self, "covariates_masked", _freeze(masked))

    @property
    def n(self):
        return self.cohort.n

    @property
    def d(self):
        return self.cohort.d

    @property
    def group(self):
        return self.cohort.group

    @property
    def outcome(self):
        return self.cohort.outcome

    def take(self, rows):
        rows = np.asarray(rows)
        return MaskedCohort(
            Cohort(self.cohort.covariates[rows], self.group[rows], self.outcome[rows]),
            ObservationMask(self.mask.observed[rows]),
        )


@dataclass(frozen=True)
class ImputationResult:
    """I >= 1 completed covariate matrices, plus optional missingness-indicator columns."""

    completed: tuple
    indicator_columns: np.ndarray = None

    def __post_init__(self):
        mats = tuple(_freeze(np.asarray(m, dtype=float)) for m in self.completed)
        if len(mats) < 1:
            raise ConfigurationError("at least one completed matrix required")
        object.__setattr__(self, "completed", mats)
        if self.indicator_columns is not None:
            object.__setattr__(self, "indicator_columns",
                               _freeze(np.asarray(self.indicator_columns, dtype=float)))

    @property
    def n_draws(self):
        return len(self.completed)

    @property
    def n_features(self):
        """Model input width: the covariates plus any indicator columns."""
        extra = 0 if self.indicator_columns is None else self.indicator_columns.shape[1]
        return self.completed[0].shape[1] + extra


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float
    tune_fraction: float
    test_fraction: float
    seed: int = 0

    def __post_init__(self):
        fracs = (self.train_fraction, self.tune_fraction, self.test_fraction)
        if not all(0 <= f <= 1 for f in fracs):     # written so that nan fails it
            raise ConfigurationError("fractions must lie in [0, 1]")
        if abs(sum(fracs) - 1.0) > 1e-12:
            raise ConfigurationError("fractions must sum to 1")


def partition_sizes(n, fractions):
    """Largest-remainder rounding of n * fractions; ties go to the later partition."""
    raw = [n * f for f in fractions]
    sizes = [int(np.floor(r)) for r in raw]
    remainders = [r - s for r, s in zip(raw, sizes)]
    short = n - sum(sizes)
    order = sorted(range(len(fractions)), key=lambda i: (-remainders[i], -i))
    for i in order[:short]:
        sizes[i] += 1
    return sizes


def split_indices(n, spec):
    """Row indices for the (train, tune, test) partitions via a seeded shuffle."""
    fractions = (spec.train_fraction, spec.tune_fraction, spec.test_fraction)
    sizes = partition_sizes(n, fractions)
    for f, s in zip(fractions, sizes):
        if f > 0 and s == 0:
            raise ConfigurationError(f"partition with fraction {f} would be empty at n={n}")
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(n)
    bounds = np.cumsum([0] + sizes)
    return tuple(np.sort(perm[bounds[k]:bounds[k + 1]]) for k in range(3))


def split(cohort, mask, spec):
    """Seeded row-uniform split into (train, tune, test) MaskedCohort partitions.

    Partitions with fraction 0 come back as None; a partition that would be empty
    despite a positive fraction is a configuration error.
    """
    full = MaskedCohort(cohort, mask)
    return tuple(full.take(rows) if rows.size else None
                 for rows in split_indices(cohort.n, spec))
