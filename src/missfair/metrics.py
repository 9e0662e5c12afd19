"""Group-wise audit metrics: reconstruction error, AUC, capacity-threshold rates, bootstrap.

Every gap follows the same sign convention: marginalised value minus majority value.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np


class UndefinedMetricError(ValueError):
    """The metric has no value on this data (e.g. nothing is missing)."""


class UnreliableBootstrapError(RuntimeError):
    """More than half of the bootstrap resamples left the metric undefined."""


@dataclass(frozen=True)
class GroupMetric:
    """One metric evaluated overall, per group, and as a marginalised-minus-majority gap."""

    overall: float
    majority: float
    marginalised: float

    @property
    def gap(self):
        return self.marginalised - self.majority


def reconstruction_error(parts, covariate):
    """Mean squared imputation error on masked entries, pooled over partitions and draws.

    `parts` pairs each partition (a MaskedCohort) with its ImputationResult.
    Reads ground truth at the masked positions, so it applies to synthetic data
    where the truth is known. Groups with no masked entry come back as nan.
    """
    sums, counts = np.zeros(2), np.zeros(2)
    for part, result in parts:
        rows = np.flatnonzero(~part.mask.observed[:, covariate])
        truth = part.cohort.covariates[rows, covariate]
        group = part.group[rows]
        counts += result.n_draws * np.bincount(group, minlength=2)
        for m in result.completed:
            sums += np.bincount(group, (m[rows, covariate] - truth) ** 2, minlength=2)
    majority, marginalised = _ratio(sums, counts).tolist()
    return GroupMetric(overall=float(_ratio(sums.sum(), counts.sum())),
                       majority=majority, marginalised=marginalised)


GROUPS = ("overall", "majority", "marginalised", "gap")

# Count-matrix entries scored together: bounds each of the kernel's
# (resamples, n) temporaries to 128 KiB of int64.
_BLOCK_ENTRIES = 16384


def score_metrics(scores, outcomes, group, capacities, counts):
    """Group-wise AUC and capacity metrics of one score vector under row-count weights.

    `counts` is an (R, n) integer matrix: row r holds how many copies of each
    scored row resample r contains (a row of ones is the scored set itself).
    Returns {(metric, group): (R,) array} for "auc" and, per capacity c,
    "fnr@c" and "prioritisation@c", over GROUPS; a value is nan where its
    (sub)population lacks a class the metric needs.

    The scores are sorted twice, whatever R. Ascending, their tie runs give the
    Mann-Whitney AUC from weighted negatives below each run, in exact integers:
    2U = sum(P * (2 * neg_below + N)) over runs holding P positive and N
    negative copies, so AUC = U / (n_pos * n_neg) is rounded once, as from
    tie-averaged ranks. Descending, ties broken by row index, the top
    ceil(c * copies) copies are selected; see `threshold_metrics`.
    """
    scores = np.asarray(scores, dtype=float)
    outcomes = np.asarray(outcomes)
    group = np.asarray(group)
    counts = np.asarray(counts)
    if any(not 0.0 < c < 1.0 for c in capacities):
        raise UndefinedMetricError("capacity must lie strictly in (0, 1)")
    n = scores.size
    pos = outcomes == 1
    selectors = (np.ones(n, dtype=bool), group == 0, group == 1)

    up = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[up]
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    runs = starts if starts.size < n else None       # None: no ties to pool
    # per selector: its positive and its negative rows, in ascending order
    auc_masks = [((rows & pos)[up], (rows & ~pos)[up]) for rows in selectors]

    down = np.lexsort((np.arange(n), -scores))
    # columns: each selector's positive rows, then all its rows; descending order
    count_masks = np.stack([m for rows in selectors for m in (rows & pos, rows)],
                           axis=1)[down].astype(float)

    names = ["auc"] + [f"{m}@{c:g}" for c in capacities
                       for m in ("fnr", "prioritisation")]
    out = {(name, g): np.empty(len(counts)) for name in names for g in GROUPS}
    step = max(1, _BLOCK_ENTRIES // max(n, 1))
    for b in range(0, len(counts), step):
        block = slice(b, b + step)
        c_up = counts[block][:, up]
        for g, (pos_rows, neg_rows) in zip(GROUPS, auc_masks):
            out[("auc", g)][block] = _weighted_auc(c_up * pos_rows, c_up * neg_rows, runs)

        c_down = counts[block][:, down]
        above = np.cumsum(c_down, axis=1) - c_down  # copies ranked before each row
        held = c_down @ count_masks
        for c in capacities:
            k = np.ceil(c * c_down.sum(axis=1))
            chosen = np.clip(k[:, None] - above, 0, c_down) @ count_masks
            for i, g in enumerate(GROUPS[:3]):
                positives, members = held[:, 2 * i], held[:, 2 * i + 1]
                out[(f"fnr@{c:g}", g)][block] = _ratio(
                    positives - chosen[:, 2 * i], positives)
                out[(f"prioritisation@{c:g}", g)][block] = _ratio(
                    chosen[:, 2 * i + 1], members)
    for name in names:
        out[(name, "gap")] = out[(name, "marginalised")] - out[(name, "majority")]
    return out


def _weighted_auc(positives, negatives, runs):
    """(B,) AUC from (B, n) positive and negative copy counts in ascending score order."""
    if runs is not None:
        positives = np.add.reduceat(positives, runs, axis=1)
        negatives = np.add.reduceat(negatives, runs, axis=1)
    neg_to = np.cumsum(negatives, axis=1)          # negatives in this run or below
    twice_u = np.sum(positives * (2 * neg_to - negatives), axis=1)
    pairs = positives.sum(axis=1) * negatives.sum(axis=1)
    return _ratio(twice_u * 0.5, pairs)


def _ratio(numerator, denominator):
    """numerator / denominator elementwise; nan where the denominator is 0."""
    out = np.full(np.shape(denominator), math.nan)
    np.divide(numerator, denominator, out=out, where=denominator > 0)
    return out


def point_metrics(scores, outcomes, group, capacities=()):
    """`score_metrics` of the scored set itself: {(metric, group): float}."""
    values = score_metrics(scores, outcomes, group, capacities,
                           np.ones((1, len(scores)), dtype=np.intp))
    return {key: float(value[0]) for key, value in values.items()}


def _group_metric(values, name):
    return GroupMetric(*(values[(name, g)] for g in GROUPS[:3]))


def _auc_core(scores, outcomes):
    """Mann-Whitney AUC, a tie counting one half; nan if a class is absent."""
    return point_metrics(scores, outcomes, np.zeros(len(scores)))[("auc", "overall")]


def auc(scores, outcomes, group):
    """Group-wise ranking AUC of risk scores against binary outcomes."""
    return _group_metric(point_metrics(scores, outcomes, group), "auc")


@dataclass(frozen=True)
class ThresholdMetrics:
    fnr: GroupMetric
    prioritisation_rate: GroupMetric


def threshold_metrics(scores, outcomes, group, capacity):
    """Select the top ceil(capacity * n) rows by score and audit the decision.

    Score ties are broken by ascending row index so the selection is exact and
    deterministic. Under resampling weights (`score_metrics`) the copies of
    one row are interchangeable, and ties between distinct rows still break by
    their index in the scored set, not by their position in the resample. FNR
    is the fraction of true positives left unselected; the prioritisation rate
    is the fraction of the (sub)population selected.
    """
    values = point_metrics(scores, outcomes, group, (capacity,))
    return ThresholdMetrics(fnr=_group_metric(values, f"fnr@{capacity:g}"),
                            prioritisation_rate=_group_metric(
                                values, f"prioritisation@{capacity:g}"))


Summary = namedtuple("Summary", "mean std lower upper n_effective n_dropped")


def summarise(values):
    """Summary of one metric's draws, nan values dropped: `std` has ddof 1 (0.0 for one
    value), `lower` and `upper` are the 2.5% and 97.5% quantiles, all nan for no value."""
    arr = np.asarray(values, dtype=float)
    ok = arr[~np.isnan(arr)]
    if not ok.size:
        return Summary(*[math.nan] * 4, 0, arr.size)
    lower, upper = np.quantile(ok, (0.025, 0.975)).tolist()
    return Summary(float(ok.mean()), float(ok.std(ddof=1)) if ok.size > 1 else 0.0,
                   lower, upper, ok.size, arr.size - ok.size)


def bootstrap(metric_fn, n_rows, n_resamples=100, seed=0):
    """Nonparametric row-resampling bootstrap over a dict-valued metric function.

    Each resample draws n_rows row indices with replacement and is passed on as
    its row counts: `metric_fn(counts)` gets the (n_resamples, n_rows) count
    matrix and returns {name: (n_resamples,) values}, summarised as {name: Summary}.
    A field undefined (nan) in more than half the resamples raises UnreliableBootstrapError.
    """
    rng = np.random.default_rng(seed)
    counts = np.empty((n_resamples, n_rows), dtype=np.intp)
    for r in range(n_resamples):
        counts[r] = np.bincount(rng.integers(0, n_rows, size=n_rows), minlength=n_rows)
    out = {name: summarise(values) for name, values in metric_fn(counts).items()}
    for name, summary in out.items():
        if summary.n_dropped > n_resamples // 2:
            raise UnreliableBootstrapError(
                f"metric {name!r} undefined in {summary.n_dropped}/{n_resamples} resamples")
    return out
