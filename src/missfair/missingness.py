"""Masking processes: the three clinical scenarios plus a calibrated (alpha, rho) mechanism."""

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .data_model import ConfigurationError, ObservationMask

SCENARIOS = ("S1", "S2", "S3")
STANDARD_NORMAL = NormalDist()


class InfeasibleCorrelationError(ValueError):
    """Target rho exceeds what a latent-threshold mechanism can realise."""


@dataclass(frozen=True)
class ScenarioSpec:
    scenario: str
    target_covariate: int = 1
    trigger_covariate: int = 0
    threshold: float = 0.5
    mask_probability: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigurationError(f"scenario must be one of {SCENARIOS}")
        if not 0.0 <= self.mask_probability <= 1.0:
            raise ConfigurationError("mask_probability must lie in [0, 1]")
        if not math.isfinite(self.threshold):
            raise ConfigurationError("threshold must be a finite number")


@dataclass(frozen=True)
class CalibratedMechanismSpec:
    """Per-group targets for the latent-threshold mechanism; index 0 = majority."""

    alpha: tuple            # per-group observation rate, each in (0, 1)
    rho: tuple              # per-group Corr(O, X | G) target
    target_covariate: int = 1
    seed: int = 0

    def __post_init__(self):
        if len(self.alpha) != 2 or len(self.rho) != 2:
            raise ConfigurationError("alpha and rho need one entry per group")
        for a, r in zip(self.alpha, self.rho):
            if not 0.0 < a < 1.0:
                raise ConfigurationError("alpha must lie strictly in (0, 1)")
            latent_threshold(a, r)


def rho_feasible_bound(alpha):
    """Largest |Corr(O, X)| a Gaussian latent threshold at rate alpha can produce."""
    z = STANDARD_NORMAL.inv_cdf(alpha)
    return STANDARD_NORMAL.pdf(z) / math.sqrt(alpha * (1.0 - alpha))


def latent_threshold(alpha, rho):
    """(z_alpha, r) of the Gaussian latent threshold O = 1[Z <= z_alpha], Corr(Z, X_std) = r,
    that realises observation rate alpha and Corr(O, X) = rho by the bivariate-normal
    point-biserial identity. Raises InfeasibleCorrelationError when |r| > 1."""
    z_alpha = STANDARD_NORMAL.inv_cdf(alpha)
    r = -rho * math.sqrt(alpha * (1.0 - alpha)) / STANDARD_NORMAL.pdf(z_alpha)
    if abs(r) > 1.0:
        raise InfeasibleCorrelationError(
            f"rho={rho} infeasible at alpha={alpha}: latent-threshold bound is "
            f"|rho| <= {rho_feasible_bound(alpha):.6f}")
    return z_alpha, r


def apply_scenario(cohort, spec):
    """Mask the target covariate per scenario; every other entry stays observed.

    S1 masks marginalised rows with the given probability; S2 masks rows whose
    trigger covariate exceeds the threshold; S3 masks rows whose own target value
    exceeds the threshold (MNAR by construction: the rule reads what it hides).
    """
    X = cohort.covariates
    if not (0 <= spec.target_covariate < cohort.d and 0 <= spec.trigger_covariate < cohort.d):
        raise ConfigurationError("covariate index out of range")
    rng = np.random.default_rng(spec.seed)
    if spec.scenario == "S1":
        eligible = cohort.group == 1
    elif spec.scenario == "S2":
        eligible = X[:, spec.trigger_covariate] > spec.threshold
    else:
        eligible = X[:, spec.target_covariate] > spec.threshold
    masked = eligible & (rng.random(cohort.n) < spec.mask_probability)
    observed = np.ones((cohort.n, cohort.d), dtype=bool)
    observed[masked, spec.target_covariate] = False
    return ObservationMask(observed)


def apply_calibrated(cohort, spec):
    """Realise target (alpha_g, rho_g) on the target covariate per group through
    the latent threshold of `latent_threshold`.

    Exact for Gaussian covariates; approximate otherwise.
    """
    j = spec.target_covariate
    x = cohort.covariates[:, j]
    rng = np.random.default_rng(spec.seed)
    column = np.empty(cohort.n, dtype=bool)
    for g in (0, 1):
        rows = cohort.group == g
        z_alpha, r = latent_threshold(spec.alpha[g], spec.rho[g])
        xg = x[rows]                        # a copy: standardised in place below
        sd = xg.std()
        if sd > 0:
            xg -= xg.mean()
            xg /= sd
        else:
            xg.fill(0.0)
        z = rng.standard_normal(xg.size)
        z *= math.sqrt(1.0 - r * r)
        xg *= r
        z += xg                             # r * x_std + sqrt(1 - r^2) * noise
        column[rows] = z <= z_alpha
    observed = np.ones((cohort.n, cohort.d), dtype=bool)
    observed[:, j] = column
    return ObservationMask(observed)


@dataclass(frozen=True)
class GroupDescriptor:
    alpha: float
    rho: float                  # nan when undefined (fully observed / fully missing)
    mean_observed: float
    mean_true: float
    std_true: float
    var_unobserved: float       # nan when no unobserved value exists


@dataclass(frozen=True)
class MissingnessDescriptor:
    per_group: dict
    alpha_overall: float
    mean_observed_overall: float


def describe(cohort, mask, covariate):
    """Sample (alpha_g, rho_g, mu_g^O, sigma) descriptor per group plus pooled values.

    Reads ground truth at masked positions, so this is a simulation/test-side tool.
    """
    x = cohort.covariates[:, covariate]
    o = mask.observed[:, covariate]
    per_group = {}
    for g in (0, 1):
        rows = cohort.group == g
        xg, og = x[rows], o[rows]
        alpha = float(og.mean())
        if 0.0 < alpha < 1.0:
            rho = float(np.corrcoef(og.astype(float), xg)[0, 1])
            var_unobs = float(xg[~og].var())
        else:
            rho = math.nan
            var_unobs = float(xg[~og].var()) if (~og).any() else math.nan
        per_group[g] = GroupDescriptor(
            alpha=alpha,
            rho=rho,
            mean_observed=float(xg[og].mean()) if og.any() else math.nan,
            mean_true=float(xg.mean()),
            std_true=float(xg.std()),
            var_unobserved=var_unobs,
        )
    return MissingnessDescriptor(
        per_group=per_group,
        alpha_overall=float(o.mean()),
        mean_observed_overall=float(x[o].mean()) if o.any() else math.nan,
    )
