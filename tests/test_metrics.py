import math

import numpy as np
import pytest

from missfair import metrics
from missfair.data_model import (Cohort, ImputationResult, MaskedCohort,
                                 ObservationMask)
from missfair.metrics import (UndefinedMetricError, UnreliableBootstrapError,
                              _auc_core, auc, bootstrap, reconstruction_error,
                              threshold_metrics)


def _pairwise_auc(scores, outcomes):
    pos = scores[outcomes == 1]
    neg = scores[outcomes == 0]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def test_auc_matches_pairwise_oracle_with_ties():
    rng = np.random.default_rng(0)
    for seed in range(5):
        r = np.random.default_rng(seed)
        scores = np.round(r.random(60), 1)       # coarse rounding forces ties
        outcomes = (r.random(60) < 0.4).astype(int)
        assert _auc_core(scores, outcomes) == pytest.approx(
            _pairwise_auc(scores, outcomes), abs=1e-12)


def test_auc_single_class_is_nan():
    assert math.isnan(_auc_core(np.array([0.1, 0.9]), np.array([1, 1])))


def _loop_auc(scores, outcomes):
    """The tie-run loop _auc_core used before its ranks were vectorised."""
    pos = outcomes == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        return math.nan
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.size)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum = ranks[pos].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _rankdata_auc(scores, outcomes):
    """Mann-Whitney AUC from scipy's average ranks."""
    rankdata = pytest.importorskip("scipy.stats").rankdata
    pos = outcomes == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    return (rankdata(scores)[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@pytest.mark.parametrize("kind", ["random", "tie_heavy", "all_equal"])
def test_auc_core_equals_tie_loop_and_rankdata(kind):
    for seed in range(5):
        r = np.random.default_rng(seed)
        scores = {"random": r.random(500), "tie_heavy": np.round(r.random(500), 1),
                  "all_equal": np.full(500, 0.3)}[kind]
        outcomes = (r.random(500) < 0.4).astype(int)
        value = _auc_core(scores, outcomes)
        assert value == _loop_auc(scores, outcomes)
        assert value == pytest.approx(_rankdata_auc(scores, outcomes), abs=1e-12)
        if kind == "all_equal":
            assert value == 0.5


def test_auc_core_one_class_is_nan_like_tie_loop():
    scores = np.round(np.random.default_rng(0).random(50), 1)
    for label in (0, 1):
        outcomes = np.full(50, label)
        assert math.isnan(_auc_core(scores, outcomes))
        assert math.isnan(_loop_auc(scores, outcomes))


def test_auc_invariant_under_increasing_transform():
    rng = np.random.default_rng(1)
    scores = rng.random(200)
    outcomes = (rng.random(200) < 0.5).astype(int)
    group = (rng.random(200) < 0.3).astype(int)
    a = auc(scores, outcomes, group)
    b = auc(np.exp(3 * scores) + 7, outcomes, group)
    assert a.overall == pytest.approx(b.overall, abs=1e-12)
    assert a.gap == pytest.approx(b.gap, abs=1e-12)


def test_gap_is_marginalised_minus_majority():
    gm = metrics.GroupMetric(overall=0.5, majority=0.7, marginalised=0.4)
    assert gm.gap == pytest.approx(-0.3)


def test_reconstruction_error_handcrafted():
    X = np.array([[0.0, 2.0], [0.0, 4.0], [0.0, 6.0], [0.0, 8.0]])
    g = np.array([0, 0, 1, 1])
    cohort = Cohort(X, g, np.zeros(4, dtype=int))
    observed = np.ones((4, 2), dtype=bool)
    observed[1, 1] = observed[3, 1] = False
    mask = ObservationMask(observed)
    imputed = X.copy()
    imputed[1, 1] = 3.0      # error 1
    imputed[3, 1] = 5.0      # error 9
    r = reconstruction_error([(MaskedCohort(cohort, mask), ImputationResult((imputed,)))], 1)
    assert r.majority == pytest.approx(1.0)
    assert r.marginalised == pytest.approx(9.0)
    assert r.overall == pytest.approx(5.0)
    assert r.gap == pytest.approx(8.0)


def test_reconstruction_error_pools_partitions():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(40, 2))
    group = (rng.random(40) < 0.4).astype(int)
    observed = rng.random((40, 2)) < 0.6
    whole = MaskedCohort(Cohort(X, group, np.zeros(40, dtype=int)), ObservationMask(observed))
    draws = (X + rng.normal(size=(40, 2)), X + rng.normal(size=(40, 2)))
    perm = rng.permutation(40)
    parts = [(whole.take(rows), ImputationResult(tuple(d[rows] for d in draws)))
             for rows in (np.sort(perm[:25]), np.sort(perm[25:]))]
    pooled = reconstruction_error(parts, 1)
    single = reconstruction_error([(whole, ImputationResult(draws))], 1)
    for name in ("overall", "majority", "marginalised"):
        assert getattr(pooled, name) == pytest.approx(getattr(single, name), rel=1e-12)


def test_reconstruction_error_averages_draws():
    X = np.array([[0.0, 2.0]])
    cohort = Cohort(X, np.array([1]), np.array([0]))
    mask = ObservationMask(np.array([[True, False]]))
    a, b = X.copy(), X.copy()
    a[0, 1], b[0, 1] = 3.0, 1.0          # errors 1 and 1
    r = reconstruction_error([(MaskedCohort(cohort, mask), ImputationResult((a, b)))], 1)
    assert r.marginalised == pytest.approx(1.0)
    assert math.isnan(r.majority)


def test_reconstruction_error_requires_missing_entries():
    cohort = Cohort(np.zeros((2, 2)), np.zeros(2, dtype=int), np.zeros(2, dtype=int))
    mask = ObservationMask(np.ones((2, 2), dtype=bool))
    with pytest.raises(UndefinedMetricError):
        reconstruction_error(
            [(MaskedCohort(cohort, mask), ImputationResult((np.zeros((2, 2)),)))], 1)


def test_threshold_selection_and_fnr_handcrafted():
    scores = np.array([0.9, 0.8, 0.7, 0.6, 0.5, 0.4])
    outcomes = np.array([1, 0, 1, 1, 0, 1])
    group = np.array([0, 0, 0, 1, 1, 1])
    tm = threshold_metrics(scores, outcomes, group, capacity=0.5)
    assert tm.prioritisation_rate.overall == 0.5
    assert tm.fnr.majority == pytest.approx(0.0)          # both majority positives kept
    assert tm.fnr.marginalised == pytest.approx(1.0)      # both marginalised positives dropped
    assert tm.fnr.gap == pytest.approx(1.0)
    assert tm.prioritisation_rate.majority == pytest.approx(1.0)
    assert tm.prioritisation_rate.marginalised == pytest.approx(0.0)


def test_threshold_ties_break_by_row_index():
    scores = np.array([0.5, 0.5, 0.5, 0.5])
    outcomes = np.array([1, 1, 1, 1])
    group = np.array([0, 0, 1, 1])
    tm = threshold_metrics(scores, outcomes, group, capacity=0.5)
    assert tm.fnr.majority == pytest.approx(0.0)
    assert tm.fnr.marginalised == pytest.approx(1.0)


def test_fnr_monotone_nonincreasing_in_capacity():
    rng = np.random.default_rng(2)
    scores = rng.random(300)
    outcomes = (rng.random(300) < 0.4).astype(int)
    group = (rng.random(300) < 0.3).astype(int)
    values = [threshold_metrics(scores, outcomes, group, c).fnr.overall
              for c in (0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.95)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_fnr_nan_without_group_positives():
    scores = np.array([0.9, 0.1])
    outcomes = np.array([1, 0])
    group = np.array([0, 1])
    tm = threshold_metrics(scores, outcomes, group, capacity=0.5)
    assert math.isnan(tm.fnr.marginalised)
    assert math.isnan(tm.fnr.gap)


def test_capacity_bounds_enforced():
    with pytest.raises(UndefinedMetricError):
        threshold_metrics(np.array([0.5]), np.array([1]), np.array([0]), 0.0)
    with pytest.raises(UndefinedMetricError):
        threshold_metrics(np.array([0.5]), np.array([1]), np.array([0]), 1.0)


def test_bootstrap_recovers_mean_and_is_deterministic():
    rng = np.random.default_rng(3)
    values = rng.standard_normal(2000) + 5.0

    def fn(rows):
        return {"m": float(values[rows].mean())}

    a = bootstrap(fn, len(values), n_resamples=200, seed=9)
    b = bootstrap(fn, len(values), n_resamples=200, seed=9)
    assert a["m"].mean == pytest.approx(5.0, abs=0.05)
    assert a["m"].lower < 5.0 < a["m"].upper
    assert a["m"].mean == b["m"].mean and a["m"].std == b["m"].std


def test_bootstrap_drops_occasional_nan():
    count = [0]

    def fn(rows):
        count[0] += 1
        return {"m": math.nan if count[0] % 5 == 0 else 1.0}

    out = bootstrap(fn, 10, n_resamples=100, seed=0)
    assert out["m"].n_dropped == 20
    assert out["m"].n_effective == 80


def test_bootstrap_mostly_undefined_raises():
    def fn(rows):
        return {"m": math.nan}

    with pytest.raises(UnreliableBootstrapError):
        bootstrap(fn, 10, n_resamples=20, seed=0)
