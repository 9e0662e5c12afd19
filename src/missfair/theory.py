"""Closed-form reconstruction-error evaluators for the two mean-imputation strategies.

Everything here works on population-level quantities: per-group observation rates,
observation/value correlations (floats, or numpy arrays evaluated elementwise), and
covariate moments. The Monte Carlo validator grounds the closed forms against actual
imputation on simulated data.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .data_model import Cohort, ConfigurationError
from .missingness import (STANDARD_NORMAL, CalibratedMechanismSpec, apply_calibrated,
                          latent_threshold)


class SingularityError(ValueError):
    """Observation rate 0 or 1, or zero covariate spread: formulas are undefined."""


class AssumptionError(ValueError):
    """A theorem hypothesis (equal unobserved variance, mu_g^O > mu^O) is violated."""


class InconsistentInputsError(ValueError):
    """Both true and observed means supplied but violating the linking identity."""


@dataclass(frozen=True)
class TheoremInputs:
    """Full symbol set for the closed forms; index g = marginalised group.

    Supply either the true group means (mu_g, mu_ng) or the observed group means
    (mu_obs_g, mu_obs_ng); the other pair is derived through
    mu_g^O = mu_g + rho_g * sqrt((1 - alpha_g) / alpha_g) * sigma_g.
    Supplying both is allowed only when they agree within 1e-9.
    """

    alpha_g: float
    alpha_ng: float
    rho_g: float
    rho_ng: float
    r_g: float
    sigma_g: float
    sigma_ng: float
    var_unobs_g: float
    var_unobs_ng: float
    mu_g: float = None
    mu_ng: float = None
    mu_obs_g: float = None
    mu_obs_ng: float = None

    def __post_init__(self):
        for rate, name in ((self.alpha_g, "alpha_g"), (self.alpha_ng, "alpha_ng"),
                           (self.r_g, "r_g")):
            if not 0.0 < rate < 1.0:
                raise SingularityError(f"{name} must lie strictly in (0, 1), got {rate}")
        for rho, name in ((self.rho_g, "rho_g"), (self.rho_ng, "rho_ng")):
            if not np.all(np.abs(rho) <= 1.0):
                raise ValueError(f"{name} must lie in [-1, 1], got {rho}")
        for sig, name in ((self.sigma_g, "sigma_g"), (self.sigma_ng, "sigma_ng")):
            if not sig > 0:
                raise SingularityError(f"{name} must be positive, got {sig}")
        for v, name in ((self.var_unobs_g, "var_unobs_g"), (self.var_unobs_ng, "var_unobs_ng")):
            if v < 0:
                raise ValueError(f"{name} must be non-negative, got {v}")

        true_given = self.mu_g is not None and self.mu_ng is not None
        obs_given = self.mu_obs_g is not None and self.mu_obs_ng is not None
        if not true_given and not obs_given:
            raise ValueError("supply either true means or observed means")

        off_g = self.rho_g * math.sqrt((1 - self.alpha_g) / self.alpha_g) * self.sigma_g
        off_ng = self.rho_ng * math.sqrt((1 - self.alpha_ng) / self.alpha_ng) * self.sigma_ng
        if true_given and obs_given:
            if np.any(np.abs(self.mu_g + off_g - self.mu_obs_g) > 1e-9) or \
               np.any(np.abs(self.mu_ng + off_ng - self.mu_obs_ng) > 1e-9):
                raise InconsistentInputsError(
                    "true and observed means violate the observed-mean identity")
        elif true_given:
            object.__setattr__(self, "mu_obs_g", self.mu_g + off_g)
            object.__setattr__(self, "mu_obs_ng", self.mu_ng + off_ng)
        else:
            object.__setattr__(self, "mu_g", self.mu_obs_g - off_g)
            object.__setattr__(self, "mu_ng", self.mu_obs_ng - off_ng)
        for value, name in ((self.mu_obs_g, "mu_obs_g"), (self.mu_obs_ng, "mu_obs_ng")):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} is not finite")

    @property
    def alpha_overall(self):
        return self.alpha_g * self.r_g + self.alpha_ng * (1.0 - self.r_g)

    @property
    def mu_obs_overall(self):
        return (self.alpha_g * self.r_g * self.mu_obs_g
                + self.alpha_ng * (1.0 - self.r_g) * self.mu_obs_ng) / self.alpha_overall


def group_bias(inputs, marginalised=True):
    """Mean shift of unobserved vs observed values: E[X | not O, G] - E[X | O, G]."""
    if marginalised:
        alpha, rho, sigma = inputs.alpha_g, inputs.rho_g, inputs.sigma_g
    else:
        alpha, rho, sigma = inputs.alpha_ng, inputs.rho_ng, inputs.sigma_ng
    return -rho * sigma / math.sqrt(alpha * (1.0 - alpha))


def population_bias_expanded(inputs):
    """Group-g population-imputation bias via the Bayes-rule expansion.

    Algebraically identical to group_bias + mu_obs_g - mu_obs_overall; kept as an
    independent route for consistency checking.
    """
    gamma = (inputs.rho_g * math.sqrt((1 - inputs.alpha_g) / inputs.alpha_g) * inputs.sigma_g
             + inputs.mu_g - inputs.mu_ng
             - inputs.rho_ng * math.sqrt((1 - inputs.alpha_ng) / inputs.alpha_ng) * inputs.sigma_ng)
    weight = inputs.alpha_ng * (1.0 - inputs.r_g) / inputs.alpha_overall
    return group_bias(inputs) + weight * gamma


def reconstruction_closed_form(inputs, marginalised=True):
    """(L_group, L_pop) for one group under group-mean and population-mean imputation."""
    B = group_bias(inputs, marginalised)
    mu_obs = inputs.mu_obs_g if marginalised else inputs.mu_obs_ng
    var_unobs = inputs.var_unobs_g if marginalised else inputs.var_unobs_ng
    l_group = B * B + var_unobs
    l_pop = (B + mu_obs - inputs.mu_obs_overall) ** 2 + var_unobs
    return l_group, l_pop


def gaps(inputs):
    """(delta_group, delta_pop): marginalised minus rest, per imputation strategy."""
    lg_g, lp_g = reconstruction_closed_form(inputs, marginalised=True)
    lg_ng, lp_ng = reconstruction_closed_form(inputs, marginalised=False)
    return lg_g - lg_ng, lp_g - lp_ng


def theorem2_predicate(inputs):
    """True iff group-mean imputation is strictly worse for group g than population mean."""
    ratio = (inputs.mu_obs_g - inputs.mu_obs_overall) / (2.0 * inputs.sigma_g)
    scaled_rho = inputs.rho_g / math.sqrt(inputs.alpha_g * (1.0 - inputs.alpha_g))
    return ((scaled_rho < ratio) & (ratio < 0.0)) | ((0.0 < ratio) & (ratio < scaled_rho))


def _f(alpha, r, alpha_other):
    a = alpha_other * (1.0 - r)
    return 2.0 * a / math.sqrt(alpha * (1.0 - alpha)) \
        - math.sqrt((1.0 - alpha) / alpha) * (a - alpha * r)


def _e(alpha):
    return math.sqrt(alpha / (1.0 - alpha))


def _h(alpha, r, alpha_other):
    a = alpha_other * (1.0 - r)
    return (alpha * r + a) / math.sqrt(alpha * (1.0 - alpha)) \
        - math.sqrt((1.0 - alpha) / alpha) * (a - alpha * r)


def theorem3_predicate(inputs):
    """True iff both strategies penalise group g and group imputation widens the gap,
    i.e. delta_group > delta_pop > 0, under the stated hypotheses."""
    if abs(inputs.var_unobs_g - inputs.var_unobs_ng) > 1e-12:
        raise AssumptionError("theorem requires equal unobserved variances across groups")
    if not np.all(inputs.mu_obs_g > inputs.mu_obs_overall):
        raise AssumptionError("theorem requires mu_g^O > mu^O")

    a_g, a_ng, r_g = inputs.alpha_g, inputs.alpha_ng, inputs.r_g
    sg_rho = inputs.rho_g * inputs.sigma_g
    sng_rho = inputs.rho_ng * inputs.sigma_ng
    mu_diff = inputs.mu_g - inputs.mu_ng
    rhs = ((1.0 - r_g) * a_ng - r_g * a_g) * mu_diff

    f_ok = sg_rho * _f(a_g, r_g, a_ng) + sng_rho * _f(a_ng, 1.0 - r_g, a_g) > rhs
    e_lhs = sg_rho * _e(a_g) - sng_rho * _e(a_ng)
    h_lhs = sg_rho * _h(a_g, r_g, a_ng) + sng_rho * _h(a_ng, 1.0 - r_g, a_g)
    return f_ok & (((e_lhs > mu_diff) & (h_lhs > rhs)) | ((e_lhs < mu_diff) & (h_lhs < rhs)))


REGION_FIELDS = np.dtype([
    ("rho_g", float), ("rho_ng", float), ("delta_pop", float), ("delta_group", float),
    ("diff", float), ("theorem3", int), ("dotted", int), ("feasible", int)])


def region_scan(base, rho_g_values, rho_ng_values):
    """The gap difference over a (rho_g, rho_ng) grid around base inputs, as one
    structured array of REGION_FIELDS with one record per cell.

    The observed means stay at the base's. rho_g varies fastest. A cell with
    |rho| > 1 is infeasible: nan gaps and 0 flags. theorem3 is 0 everywhere when
    its hypotheses fail, which does not depend on rho.
    """
    rho_ng, rho_g = (axis.ravel() for axis in np.meshgrid(
        np.asarray(rho_ng_values, dtype=float), np.asarray(rho_g_values, dtype=float),
        indexing="ij"))
    feasible = (np.abs(rho_g) <= 1.0) & (np.abs(rho_ng) <= 1.0)
    inputs = replace(base, rho_g=np.where(feasible, rho_g, 0.0),
                     rho_ng=np.where(feasible, rho_ng, 0.0), mu_g=None, mu_ng=None)
    delta_group, delta_pop = (np.where(feasible, gap, math.nan) for gap in gaps(inputs))
    try:
        theorem3 = theorem3_predicate(inputs) & feasible
    except AssumptionError:
        theorem3 = np.zeros_like(feasible)
    cells = np.empty(rho_g.size, dtype=REGION_FIELDS)
    cells["rho_g"], cells["rho_ng"] = rho_g, rho_ng
    cells["delta_pop"], cells["delta_group"] = delta_pop, delta_group
    cells["diff"] = delta_pop - delta_group
    cells["theorem3"] = theorem3
    cells["dotted"] = np.abs(delta_pop) < np.abs(delta_group)
    cells["feasible"] = feasible
    return cells


def latent_threshold_unobserved_variance(alpha, rho, sigma):
    """Var(X | not O) implied by the calibrated latent-threshold mechanism."""
    z, r = latent_threshold(alpha, rho)
    # Z | Z > z, the unobserved side (P = 1 - alpha), has variance 1 - hazard * (hazard - z).
    hazard = STANDARD_NORMAL.pdf(z) / (1.0 - alpha)
    delta = hazard * (hazard - z)
    return sigma * sigma * (1.0 - r * r * delta)


def latent_threshold_inputs(alpha_g, rho_g, alpha_ng, rho_ng, r_g,
                            mu_g, mu_ng, sigma_g, sigma_ng):
    """TheoremInputs whose unobserved variances match the calibrated mechanism,
    so Monte Carlo runs built with apply_calibrated reproduce the closed forms."""
    return TheoremInputs(
        alpha_g=alpha_g, alpha_ng=alpha_ng, rho_g=rho_g, rho_ng=rho_ng, r_g=r_g,
        sigma_g=sigma_g, sigma_ng=sigma_ng,
        var_unobs_g=latent_threshold_unobserved_variance(alpha_g, rho_g, sigma_g),
        var_unobs_ng=latent_threshold_unobserved_variance(alpha_ng, rho_ng, sigma_ng),
        mu_g=mu_g, mu_ng=mu_ng,
    )


@dataclass(frozen=True)
class GroupValidation:
    closed_group: float
    closed_pop: float
    empirical_group: float
    empirical_pop: float

    @property
    def rel_error_group(self):
        return abs(self.empirical_group - self.closed_group) / abs(self.closed_group)

    @property
    def rel_error_pop(self):
        return abs(self.empirical_pop - self.closed_pop) / abs(self.closed_pop)


def monte_carlo_validate(inputs, n, seed):
    """Simulate the calibrated mechanism at the given inputs and compare empirical
    group/population mean-imputation errors against the closed forms.

    The closed forms are evaluated with mechanism-implied unobserved variances
    (see latent_threshold_inputs); returns {'g': GroupValidation, 'ng': ...}.
    """
    consistent = latent_threshold_inputs(
        inputs.alpha_g, inputs.rho_g, inputs.alpha_ng, inputs.rho_ng, inputs.r_g,
        inputs.mu_g, inputs.mu_ng, inputs.sigma_g, inputs.sigma_ng)

    rng = np.random.default_rng(seed)
    n_g = int(round(inputs.r_g * n))
    n_ng = n - n_g
    for name, size in (("marginalised", n_g), ("majority", n_ng)):
        if size == 0:
            raise ConfigurationError(
                f"n={n} at r_g={inputs.r_g} leaves the {name} group no rows")
    # Majority rows first, then marginalised rows, each block drawn in place.
    x = np.empty(n)
    for block, mu, sigma in ((x[:n_ng], inputs.mu_ng, inputs.sigma_ng),
                             (x[n_ng:], inputs.mu_g, inputs.sigma_g)):
        rng.standard_normal(out=block)
        block *= sigma
        block += mu
    group = np.zeros(n, dtype=np.int8)
    group[n_ng:] = 1
    cohort = Cohort(x[:, None], group, np.zeros(n, dtype=np.int8))
    mask = apply_calibrated(cohort, CalibratedMechanismSpec(
        alpha=(inputs.alpha_ng, inputs.alpha_g),
        rho=(inputs.rho_ng, inputs.rho_g),
        target_covariate=0,
        seed=int(rng.integers(2**63)),
    ))

    # Gathered once each, in row order, so every group's observed and missing
    # values are a contiguous slice. np.compress selects the same values as x[o]
    # and is faster than boolean indexing for a scattered mask.
    o = mask.observed[:, 0]
    observed, missing = np.compress(o, x), np.compress(~o, x)
    n_obs_ng = np.count_nonzero(o[:n_ng])
    n_miss_ng = n_ng - n_obs_ng
    slices = (("g", "marginalised", observed[n_obs_ng:], missing[n_miss_ng:]),
              ("ng", "majority", observed[:n_obs_ng], missing[:n_miss_ng]))
    for _, name, obs, miss in slices:
        for kind, values in (("observed", obs), ("missing", miss)):
            if values.size == 0:
                raise ConfigurationError(
                    f"n={n} leaves the {name} group no {kind} values; use more samples")
    mu_obs_pop = observed.mean()
    report = {}
    for key, _, obs, miss in slices:
        mu_obs_group = obs.mean()
        emp_group = float(((miss - mu_obs_group) ** 2).mean())
        emp_pop = float(((miss - mu_obs_pop) ** 2).mean())
        closed_group, closed_pop = reconstruction_closed_form(consistent, marginalised=key == "g")
        report[key] = GroupValidation(closed_group, closed_pop, emp_group, emp_pop)
    return report
