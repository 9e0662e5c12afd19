"""Imputation strategies: population/group means and (group-)MICE chained equations.

Fit learns everything from a training partition; transform completes any
partition with the same schema without touching its ground truth.
"""

from dataclasses import dataclass

import numpy as np

from .data_model import ConfigurationError, ImputationResult
from .linalg_stat import ols_solve

STRATEGIES = ("population_mean", "group_mean", "mice", "group_mice")
MEAN_STRATEGIES = ("population_mean", "group_mean")


@dataclass(frozen=True)
class ImputerSpec:
    strategy: str
    append_indicators: bool = False
    mice_iterations: int = 10
    mice_draws: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigurationError(f"strategy must be one of {STRATEGIES}")
        if self.mice_iterations < 1 or self.mice_draws < 1:
            raise ConfigurationError("mice_iterations and mice_draws must be >= 1")

    @property
    def uses_group(self):
        return self.strategy in ("group_mean", "group_mice")

    def label(self):
        name = {"population_mean": "PopulationMean", "group_mean": "GroupMean",
                "mice": "MICE", "group_mice": "GroupMICE"}[self.strategy]
        return name + ("+indicators" if self.append_indicators else "")


@dataclass(frozen=True)
class ChainRegression:
    column: int
    coefficients: np.ndarray    # intercept first, then remaining columns (and group)
    residual_std: float


@dataclass(frozen=True)
class FittedImputer:
    spec: ImputerSpec
    fills: np.ndarray               # (2, d): row g is what a missing entry of group g starts as
    chains: tuple = ()              # per chain: tuple of ChainRegression
    warnings: tuple = ()
    indicated: tuple = ()           # columns given an indicator: those missing in training


def _mice_design(X, column, group, use_group):
    others = np.delete(X, column, axis=1)
    parts = [np.ones((X.shape[0], 1)), others]
    if use_group:
        parts.append(group[:, None].astype(float))
    return np.hstack(parts)


def fit(train, spec):
    """Learn imputation parameters from the training partition only."""
    X = train.covariates_masked
    observed = train.mask.observed
    group = train.group
    d = X.shape[1]

    fully_missing = np.flatnonzero(~observed.any(axis=0))
    if fully_missing.size:
        raise ConfigurationError(
            f"covariates with zero observed training values: {fully_missing.tolist()}")

    incomplete = [j for j in range(d) if not observed[:, j].all()]
    population_means = np.array([X[observed[:, j], j].mean() for j in range(d)])
    fills = np.tile(population_means, (2, 1))
    warnings = []
    if spec.strategy == "group_mean":
        for g in (0, 1):
            for j in range(d):
                rows = (group == g) & observed[:, j]
                if rows.any():
                    fills[g, j] = X[rows, j].mean()
                else:
                    warnings.append(f"group {g} has no observed values for covariate {j}; "
                                    "falling back to the population mean")

    chains = ()
    if spec.strategy in ("mice", "group_mice"):
        medians = np.array([np.median(X[observed[:, j], j]) for j in range(d)])
        fallback_columns = {j for j in incomplete if observed[:, j].sum() < d + 2}
        # With at most one incomplete column every regression has complete predictors,
        # so all chains and iterations would repeat one solve: make it once and share it.
        solo = len(incomplete) <= 1
        missing = {j: np.flatnonzero(~observed[:, j]) for j in incomplete}
        chains = []
        for c in range(1 if solo else spec.mice_draws):
            rng = np.random.default_rng(np.random.SeedSequence((spec.seed, c)))
            work = np.where(observed, X, medians)
            regressions = {}
            for _ in range(1 if solo else spec.mice_iterations):
                for j, rows in missing.items():
                    if j in fallback_columns:
                        work[rows, j] = population_means[j]
                        continue
                    fit_rows = observed[:, j]
                    coef, resid_std = ols_solve(
                        _mice_design(work[fit_rows], j, group[fit_rows], spec.uses_group),
                        work[fit_rows, j])
                    regressions[j] = ChainRegression(j, coef, resid_std)
                    if not solo:    # the draw feeds the other columns' regressions
                        pred = _mice_design(work[rows], j, group[rows], spec.uses_group) @ coef
                        work[rows, j] = pred + resid_std * rng.standard_normal(pred.size)
            chains.append(tuple(regressions.values()))
        chains = tuple(chains) * (spec.mice_draws if solo else 1)
        regressed = [r.column for r in chains[0]]
        fills[:, regressed] = medians[regressed]    # chains start from the median
        if fallback_columns:
            warnings.append(f"MICE fell back to mean imputation for columns "
                            f"{sorted(fallback_columns)}: too few observed rows")

    # a column complete in training gets no indicator: one all zero there carries no weight
    indicated = tuple(incomplete) if spec.append_indicators else ()
    return FittedImputer(spec, fills, chains, tuple(warnings), indicated)


def _run_chain(spec, start, data, regressions, rng):
    """Draw the regressed columns' missing rows on a copy of the filled start matrix."""
    X = start.copy()
    missing = ((r.column, np.flatnonzero(~data.mask.observed[:, r.column]), r)
               for r in regressions)
    drawn = [(j, rows, reg) for j, rows, reg in missing if rows.size]
    if len(drawn) == 1:
        # one drawn column: its predictors never change, so each iteration redraws
        # around the same prediction and only the last iteration's draw is kept
        (j, rows, reg), = drawn
        pred = _mice_design(X[rows], j, data.group[rows], spec.uses_group) @ reg.coefficients
        noise = rng.standard_normal((spec.mice_iterations, rows.size))[-1]
        X[rows, j] = pred + reg.residual_std * noise
        return X
    for _ in range(spec.mice_iterations):
        for j, rows, reg in drawn:
            pred = _mice_design(X[rows], j, data.group[rows], spec.uses_group) @ reg.coefficients
            X[rows, j] = pred + reg.residual_std * rng.standard_normal(pred.size)
    return X


def transform(fitted, data):
    """Complete a partition; observed entries are copied verbatim."""
    d = fitted.fills.shape[1]
    if data.d != d:
        raise ConfigurationError(
            f"schema mismatch: fitted on {d} covariates, data has {data.d}")
    spec = fitted.spec
    start = fitted.fills[data.group]
    np.copyto(start, data.covariates_masked, where=data.mask.observed)
    if spec.strategy in MEAN_STRATEGIES:
        completed = (start,)
    else:
        completed = tuple(
            _run_chain(spec, start, data, regressions,
                       np.random.default_rng(np.random.SeedSequence((spec.seed, 1000 + c))))
            for c, regressions in enumerate(fitted.chains))
    indicators = None
    if spec.append_indicators:
        indicators = (~data.mask.observed[:, fitted.indicated]).astype(float)
    return ImputationResult(completed, indicator_columns=indicators)
