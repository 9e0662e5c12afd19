import math
import tracemalloc

import numpy as np
import pytest

from missfair import metrics
from missfair.data_model import (Cohort, ImputationResult, MaskedCohort,
                                 ObservationMask)
from missfair.metrics import (GROUPS, UndefinedMetricError, UnreliableBootstrapError,
                              _auc_core, auc, bootstrap, reconstruction_error,
                              score_metrics, threshold_metrics)


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


def test_reconstruction_error_equals_the_stacked_mean_over_every_draw():
    # unequal masked counts per group, and a last partition that masks only the majority
    rng = np.random.default_rng(5)
    parts = []
    for n, masks_marginalised in ((60, True), (35, True), (20, False)):
        X = rng.normal(size=(n, 3))
        group = (rng.random(n) < 0.3).astype(int)
        observed = rng.random((n, 3)) < 0.5
        if not masks_marginalised:
            observed[group == 1, 2] = True
        draws = tuple(X + rng.normal(size=(n, 3)) for _ in range(3))
        parts.append((MaskedCohort(Cohort(X, group, np.zeros(n, dtype=int)),
                                   ObservationMask(observed)), ImputationResult(draws)))

    # reference: stack every draw's masked squared errors, then take three means
    errors = np.concatenate([np.stack([(m[~p.mask.observed[:, 2], 2]
                                        - p.cohort.covariates[~p.mask.observed[:, 2], 2]) ** 2
                                       for m in r.completed]) for p, r in parts], axis=1)
    group = np.concatenate([p.group[~p.mask.observed[:, 2]] for p, _ in parts])
    majority_masked, marginalised_masked = np.bincount(group)
    assert majority_masked != marginalised_masked > 0

    recon = reconstruction_error(parts, 2)
    assert recon.overall == pytest.approx(errors.mean(), rel=1e-12)
    assert recon.majority == pytest.approx(errors[:, group == 0].mean(), rel=1e-12)
    assert recon.marginalised == pytest.approx(errors[:, group == 1].mean(), rel=1e-12)


def test_reconstruction_error_holds_no_copy_of_every_draw():
    n, n_draws = 50_000, 10
    rng = np.random.default_rng(6)
    parts = []
    for _ in range(2):
        X = rng.normal(size=(n, 2))
        observed = np.ones((n, 2), dtype=bool)
        observed[:, 1] = False
        cohort = Cohort(X, (rng.random(n) < 0.3).astype(int), np.zeros(n, dtype=int))
        parts.append((MaskedCohort(cohort, ObservationMask(observed)),
                      ImputationResult(tuple(X + rng.normal(size=(n, 2))
                                             for _ in range(n_draws)))))
    one_draw_bytes = 2 * n * 8          # one draw's squared errors over both partitions
    tracemalloc.start()
    try:
        reconstruction_error(parts, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * one_draw_bytes


def test_reconstruction_error_requires_missing_entries():
    # nothing masked: every group is nan, not an error for the whole cell
    cohort = Cohort(np.zeros((2, 2)), np.zeros(2, dtype=int), np.zeros(2, dtype=int))
    mask = ObservationMask(np.ones((2, 2), dtype=bool))
    recon = reconstruction_error(
        [(MaskedCohort(cohort, mask), ImputationResult((np.zeros((2, 2)),)))], 1)
    assert all(math.isnan(getattr(recon, g)) for g in ("overall", "majority", "marginalised"))


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

    def fn(counts):
        return {"m": counts @ values / len(values)}

    a = bootstrap(fn, len(values), n_resamples=200, seed=9)
    b = bootstrap(fn, len(values), n_resamples=200, seed=9)
    assert a["m"].mean == pytest.approx(5.0, abs=0.05)
    assert a["m"].lower < 5.0 < a["m"].upper
    assert a["m"].mean == b["m"].mean and a["m"].std == b["m"].std


def test_bootstrap_drops_occasional_nan():
    count = [0]

    def fn(counts):
        index = count[0] + np.arange(1, len(counts) + 1)
        count[0] += len(counts)
        return {"m": np.where(index % 5 == 0, math.nan, 1.0)}

    out = bootstrap(fn, 10, n_resamples=100, seed=0)
    assert out["m"].n_dropped == 20
    assert out["m"].n_effective == 80


def _separate_statistics(values):
    """The per-row statistics report rows were built from before `summarise`."""
    arr = np.asarray(values, dtype=float)
    ok = arr[~np.isnan(arr)]
    return (float(ok.mean()) if ok.size else math.nan,
            float(ok.std(ddof=1)) if ok.size > 1 else (0.0 if ok.size else math.nan),
            float(np.quantile(ok, 0.025)) if ok.size else math.nan,
            float(np.quantile(ok, 0.975)) if ok.size else math.nan,
            int(ok.size))


@pytest.mark.parametrize("values", [
    [0.3, math.nan, 0.1, 0.7, math.nan, 0.2],
    [math.nan, math.nan, math.nan],
    [0.42],
    [0.9, 0.1],
    [-0.0],
    [-0.0, 0.0, -0.0],
    [],
    list(np.where(np.random.default_rng(5).random(137) < 0.2, math.nan,
                  np.random.default_rng(6).standard_normal(137))),
])
def test_summarise_is_bitwise_the_separate_statistics(values):
    summary = metrics.summarise(values)
    expected = _separate_statistics(values)
    assert np.array(summary[:4]).view(np.int64).tolist() == \
        np.array(expected[:4]).view(np.int64).tolist()
    assert summary.n_effective == expected[4]
    assert summary.n_dropped == sum(math.isnan(v) for v in values)
    if len(values) == 1:
        assert summary.std == 0.0


def test_bootstrap_mostly_undefined_raises():
    def fn(counts):
        return {"m": np.full(len(counts), math.nan)}

    with pytest.raises(UnreliableBootstrapError):
        bootstrap(fn, 10, n_resamples=20, seed=0)


def _resampled_reference(scores, outcomes, group, capacities, rows, tie_key):
    """The metrics of one resample from its fancy-indexed rows.

    Selection takes the top ceil(c * n) resampled rows by score, ties broken
    by `tie_key` (one entry per resampled row), with a lexsort.
    """
    s, y, g = scores[rows], outcomes[rows], group[rows]
    members = {"overall": np.ones(s.size, dtype=bool), "majority": g == 0,
               "marginalised": g == 1}
    out = {("auc", name): _loop_auc(s[m], y[m]) for name, m in members.items()}
    for c in capacities:
        selected = np.zeros(s.size, dtype=bool)
        selected[np.lexsort((tie_key, -s))[:math.ceil(c * s.size)]] = True
        for name, m in members.items():
            pos = m & (y == 1)
            out[(f"fnr@{c:g}", name)] = (
                (pos & ~selected).sum() / pos.sum() if pos.any() else math.nan)
            out[(f"prioritisation@{c:g}", name)] = (
                selected[m].mean() if m.any() else math.nan)
    for metric in {metric for metric, _ in out}:
        out[(metric, "gap")] = out[(metric, "marginalised")] - out[(metric, "majority")]
    return out


def _draws(n, n_resamples, seed):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, n, size=n) for _ in range(n_resamples)]


def _counts(draws, n):
    return np.stack([np.bincount(rows, minlength=n) for rows in draws])


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


CAPACITIES = (0.1, 0.25, 0.5)


def test_score_metrics_equals_resampled_arrays():
    # 70 resamples of 301 rows fill one of the kernel's blocks and part of a second;
    # no capacity times 301 is a whole number, so the ceiling matters
    r = np.random.default_rng(4)
    n = 301
    scores, outcomes = r.random(n), (r.random(n) < 0.4).astype(int)
    group = (r.random(n) < 0.2).astype(int)
    draws = _draws(n, 70, seed=5)
    values = score_metrics(scores, outcomes, group, CAPACITIES, _counts(draws, n))
    assert set(values) == {(m, g) for m in ["auc"] + [f"{k}@{c:g}" for c in CAPACITIES
                                                     for k in ("fnr", "prioritisation")]
                           for g in GROUPS}
    for i, rows in enumerate(draws):
        ref = _resampled_reference(scores, outcomes, group, CAPACITIES, rows,
                                   np.arange(n))
        for key, value in ref.items():
            assert _same(values[key][i], value), (i, key)


def test_score_metrics_with_ties_breaks_them_by_row_index():
    r = np.random.default_rng(6)
    n = 201
    scores = np.round(r.random(n), 1)            # coarse rounding forces ties
    outcomes, group = (r.random(n) < 0.4).astype(int), (r.random(n) < 0.3).astype(int)
    draws = _draws(n, 40, seed=7)
    values = score_metrics(scores, outcomes, group, CAPACITIES, _counts(draws, n))
    for i, rows in enumerate(draws):
        # AUC does not depend on the tie rule; selection ranks tied copies by row index
        ref = _resampled_reference(scores, outcomes, group, CAPACITIES, rows, rows)
        for key, value in ref.items():
            assert _same(values[key][i], value), (i, key)


def test_score_metrics_of_ones_is_the_scored_set():
    r = np.random.default_rng(8)
    scores, outcomes = r.random(150), (r.random(150) < 0.5).astype(int)
    group = (r.random(150) < 0.3).astype(int)
    values = score_metrics(scores, outcomes, group, (0.25,), np.ones((1, 150), dtype=int))
    a, tm = auc(scores, outcomes, group), threshold_metrics(scores, outcomes, group, 0.25)
    for g in GROUPS:
        assert values[("auc", g)][0] == getattr(a, g)
        assert values[("fnr@0.25", g)][0] == getattr(tm.fnr, g)
        assert values[("prioritisation@0.25", g)][0] == getattr(tm.prioritisation_rate, g)


def test_bootstrap_passes_the_per_resample_draws_as_counts():
    seen = []

    def fn(counts):
        seen.append(counts.copy())
        return {"m": counts[:, 0].astype(float)}

    bootstrap(fn, 50, n_resamples=30, seed=11)
    assert len(seen) == 1
    assert np.array_equal(seen[0], _counts(_draws(50, 30, seed=11), 50))


def test_resample_without_marginalised_positives_is_nan_then_dropped():
    # row 0 is the only marginalised positive; rows 1-2 are marginalised negatives
    n = 20
    r = np.random.default_rng(12)
    scores = r.random(n)
    outcomes = np.r_[1, 0, 0, (r.random(n - 3) < 0.5).astype(int)]
    group = np.r_[1, 1, 1, np.zeros(n - 3, dtype=int)]
    counts = np.ones((2, n), dtype=int)
    counts[1, 0], counts[1, 3] = 0, 2
    values = score_metrics(scores, outcomes, group, (0.5,), counts)
    for metric in ("auc", "fnr@0.5"):
        assert not math.isnan(values[(metric, "marginalised")][0])
        assert math.isnan(values[(metric, "marginalised")][1])
        assert math.isnan(values[(metric, "gap")][1])
    assert not math.isnan(values[("prioritisation@0.5", "marginalised")][1])

    out = bootstrap(lambda c: score_metrics(scores, outcomes, group, (0.5,), c), n,
                    n_resamples=50, seed=13)
    held = _counts(_draws(n, 50, seed=13), n)
    no_positive = held[:, 0] == 0
    # the marginalised AUC also needs a marginalised negative
    undefined = {"fnr@0.5": no_positive,
                 "auc": no_positive | (held[:, 1] + held[:, 2] == 0)}
    for metric, rows in undefined.items():
        assert 0 < rows.sum() <= 25
        assert out[(metric, "marginalised")].n_dropped == rows.sum()
        assert out[(metric, "marginalised")].n_effective == 50 - rows.sum()
        assert out[(metric, "gap")].n_dropped == rows.sum()
    assert out[("auc", "overall")].n_dropped == 0
