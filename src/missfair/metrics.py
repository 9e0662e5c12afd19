"""Group-wise audit metrics: reconstruction error, AUC, capacity-threshold rates, bootstrap.

Every gap follows the same sign convention: marginalised value minus majority value.
"""

import math
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
    errors, groups = [], []
    for part, result in parts:
        missing = ~part.mask.observed[:, covariate]
        truth = part.cohort.covariates[missing, covariate]
        errors.append(np.stack([(m[missing, covariate] - truth) ** 2
                                for m in result.completed]))
        groups.append(part.group[missing])
    group = np.concatenate(groups)
    if not group.size:
        raise UndefinedMetricError("no masked entries to score")
    errors = np.concatenate(errors, axis=1)

    def _mse(rows):
        return float(errors[:, rows].mean()) if rows.any() else math.nan

    return GroupMetric(
        overall=_mse(np.ones(group.size, dtype=bool)),
        majority=_mse(group == 0),
        marginalised=_mse(group == 1),
    )


def _auc_core(scores, outcomes):
    """Mann-Whitney AUC with tie-averaged ranks; nan if a class is absent."""
    pos = outcomes == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        return math.nan
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    # a tie run spans sorted positions start..end; each member gets the run's mean rank
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[starts[1:], scores.size] - 1
    ranks = np.empty(scores.size)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    rank_sum = ranks[pos].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def auc(scores, outcomes, group):
    """Group-wise ranking AUC of risk scores against binary outcomes."""
    scores = np.asarray(scores, dtype=float)
    outcomes = np.asarray(outcomes)
    return GroupMetric(
        overall=_auc_core(scores, outcomes),
        majority=_auc_core(scores[group == 0], outcomes[group == 0]),
        marginalised=_auc_core(scores[group == 1], outcomes[group == 1]),
    )


@dataclass(frozen=True)
class ThresholdMetrics:
    fnr: GroupMetric
    prioritisation_rate: GroupMetric


def threshold_metrics(scores, outcomes, group, capacity):
    """Select the top ceil(capacity * n) rows by score and audit the decision.

    Score ties are broken by ascending row index so the selection is exact and
    deterministic. FNR is the fraction of true positives left unselected; the
    prioritisation rate is the fraction of the (sub)population selected.
    """
    if not 0.0 < capacity < 1.0:
        raise UndefinedMetricError("capacity must lie strictly in (0, 1)")
    scores = np.asarray(scores, dtype=float)
    outcomes = np.asarray(outcomes)
    n = scores.size
    k = int(math.ceil(capacity * n))
    order = np.lexsort((np.arange(n), -scores))
    selected = np.zeros(n, dtype=bool)
    selected[order[:k]] = True

    def _fnr(rows):
        pos = rows & (outcomes == 1)
        if not pos.any():
            return math.nan
        return float((pos & ~selected).sum() / pos.sum())

    def _rate(rows):
        return float(selected[rows].mean()) if rows.any() else math.nan

    everyone = np.ones(n, dtype=bool)
    maj, marg = group == 0, group == 1
    return ThresholdMetrics(
        fnr=GroupMetric(_fnr(everyone), _fnr(maj), _fnr(marg)),
        prioritisation_rate=GroupMetric(_rate(everyone), _rate(maj), _rate(marg)),
    )


@dataclass(frozen=True)
class BootstrapSummary:
    mean: float
    std: float
    lower: float
    upper: float
    n_effective: int
    n_dropped: int


def bootstrap(metric_fn, n_rows, n_resamples=100, seed=0, confidence=0.95):
    """Nonparametric row-resampling bootstrap over a dict-valued metric function.

    `metric_fn(rows)` must return {name: value} for an index array of resampled
    rows; nan values count as undefined and are dropped per field. A field that
    is undefined in more than half the resamples raises UnreliableBootstrapError.
    """
    rng = np.random.default_rng(seed)
    samples = {}
    for _ in range(n_resamples):
        rows = rng.integers(0, n_rows, size=n_rows)
        for name, value in metric_fn(rows).items():
            samples.setdefault(name, []).append(value)
    tail = 0.5 * (1.0 - confidence)
    out = {}
    for name, values in samples.items():
        arr = np.asarray(values, dtype=float)
        ok = arr[~np.isnan(arr)]
        dropped = arr.size - ok.size
        if dropped > arr.size // 2:
            raise UnreliableBootstrapError(
                f"metric {name!r} undefined in {dropped}/{arr.size} resamples")
        out[name] = BootstrapSummary(
            mean=float(ok.mean()),
            std=float(ok.std(ddof=1)) if ok.size > 1 else 0.0,
            lower=float(np.quantile(ok, tail)),
            upper=float(np.quantile(ok, 1.0 - tail)),
            n_effective=int(ok.size),
            n_dropped=int(dropped),
        )
    return out
