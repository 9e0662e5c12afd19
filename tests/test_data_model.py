import math

import numpy as np
import pytest

from missfair.data_model import (Cohort, ConfigurationError, ImputationResult,
                                 MaskedCohort, ObservationMask, SplitSpec,
                                 partition_sizes, split, split_indices)


def _cohort(n=10, d=2, seed=0):
    rng = np.random.default_rng(seed)
    return Cohort(rng.standard_normal((n, d)),
                  (rng.random(n) < 0.3).astype(int),
                  (rng.random(n) < 0.5).astype(int))


def test_cohort_validates_shapes_and_values():
    with pytest.raises(ConfigurationError):
        Cohort(np.zeros((3,)), np.zeros(3), np.zeros(3))
    with pytest.raises(ConfigurationError):
        Cohort(np.zeros((3, 2)), np.zeros(4), np.zeros(3))
    with pytest.raises(ConfigurationError):
        Cohort(np.full((3, 2), np.nan), np.zeros(3), np.zeros(3))
    with pytest.raises(ConfigurationError):
        Cohort(np.zeros((3, 2)), np.array([0, 1, 2]), np.zeros(3))


@pytest.mark.parametrize("bad", [1.7, 256, -1])
@pytest.mark.parametrize("column", ["group", "outcome"])
def test_cohort_rejects_non_binary_values_before_the_int8_cast(column, bad):
    # the int8 cast turned 1.7 into 1 and 256 into 0, so both used to pass
    columns = {"group": np.zeros(2), "outcome": np.zeros(2)}
    columns[column] = np.array([0, bad])
    with pytest.raises(ConfigurationError, match="binary"):
        Cohort(np.zeros((2, 1)), **columns)


@pytest.mark.parametrize("values", [
    np.array([False, True]), np.array([0, 1], dtype=np.int8),
    np.array([0, 1], dtype=np.int64), np.array([0.0, 1.0])])
def test_cohort_accepts_binary_values_of_any_dtype(values):
    c = Cohort(np.zeros((2, 1)), values, values)
    for column in (c.group, c.outcome):
        assert column.dtype == np.int8
        assert column.tolist() == [0, 1]


def test_cohort_arrays_are_read_only():
    c = _cohort()
    with pytest.raises(ValueError):
        c.covariates[0, 0] = 99.0


def test_masked_cohort_zeroes_hidden_values():
    c = _cohort(n=6)
    observed = np.ones((6, 2), dtype=bool)
    observed[1, 0] = False
    observed[4, 1] = False
    mc = MaskedCohort(c, ObservationMask(observed))
    assert mc.covariates_masked[1, 0] == 0.0
    assert mc.covariates_masked[4, 1] == 0.0
    visible = observed & (mc.covariates_masked == c.covariates)
    assert (visible == observed).all() or np.allclose(
        mc.covariates_masked[observed], c.covariates[observed])


def test_mask_shape_must_match():
    c = _cohort(n=5)
    with pytest.raises(ConfigurationError):
        MaskedCohort(c, ObservationMask(np.ones((4, 2), dtype=bool)))


def test_imputation_result_features_appends_indicators():
    X = np.arange(6.0).reshape(3, 2)
    ind = np.array([[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
    r = ImputationResult((X,), indicator_columns=ind)
    assert r.n_features == 4
    r2 = ImputationResult((X,))
    assert r2.n_features == 2


def test_partition_sizes_example():
    assert partition_sizes(36296, (0.8, 0.1, 0.1)) == [29037, 3629, 3630]


def test_partition_sizes_sum_and_bounds():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 10000))
        a = rng.random(3)
        fracs = tuple(a / a.sum())
        sizes = partition_sizes(n, fracs)
        assert sum(sizes) == n
        for f, s in zip(fracs, sizes):
            assert abs(s - n * f) < 1.0


def test_split_indices_partition_rows_exactly():
    spec = SplitSpec(0.8, 0.1, 0.1, seed=42)
    parts = split_indices(1000, spec)
    joined = np.concatenate(parts)
    assert len(joined) == 1000
    assert len(np.unique(joined)) == 1000
    for p in parts:
        assert np.array_equal(p, np.sort(p))


def test_split_is_seed_deterministic():
    spec = SplitSpec(0.7, 0.1, 0.2, seed=5)
    a = split_indices(500, spec)
    b = split_indices(500, spec)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    c = split_indices(500, SplitSpec(0.7, 0.1, 0.2, seed=6))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_split_zero_fraction_returns_none():
    c = _cohort(n=20)
    mask = ObservationMask(np.ones((20, 2), dtype=bool))
    train, tune, test = split(c, mask, SplitSpec(0.8, 0.0, 0.2, seed=0))
    assert tune is None
    assert train.n + test.n == 20


def test_split_empty_positive_partition_raises():
    with pytest.raises(ConfigurationError):
        split_indices(4, SplitSpec(0.9, 0.05, 0.05, seed=0))


def test_split_spec_fraction_validation():
    with pytest.raises(ConfigurationError):
        SplitSpec(0.5, 0.5, 0.5, seed=0)
    with pytest.raises(ConfigurationError):
        SplitSpec(-0.1, 0.6, 0.5, seed=0)
    with pytest.raises(ConfigurationError):
        SplitSpec(math.nan, 0.0, 1.0, seed=0)
