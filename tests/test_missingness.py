import math

import numpy as np
import pytest

from missfair.data_model import Cohort, ConfigurationError
from missfair.missingness import (CalibratedMechanismSpec, InfeasibleCorrelationError,
                                  ScenarioSpec, apply_calibrated, apply_scenario,
                                  describe, latent_threshold, rho_feasible_bound)


def _cohort(n=40000, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 2))
    g = (np.arange(n) >= n // 2).astype(int)     # second half marginalised
    y = (rng.random(n) < 0.5).astype(int)
    return Cohort(X, g, y)


def test_s1_masks_only_marginalised_rows():
    c = _cohort()
    mask = apply_scenario(c, ScenarioSpec("S1", seed=1))
    hidden = ~mask.observed[:, 1]
    assert not hidden[c.group == 0].any()
    assert hidden[c.group == 1].mean() == pytest.approx(0.5, abs=0.02)
    assert mask.observed[:, 0].all()


def test_s2_masks_only_high_trigger_rows():
    c = _cohort()
    mask = apply_scenario(c, ScenarioSpec("S2", seed=2))
    hidden = ~mask.observed[:, 1]
    assert not hidden[c.covariates[:, 0] <= 0.5].any()
    eligible = c.covariates[:, 0] > 0.5
    assert hidden[eligible].mean() == pytest.approx(0.5, abs=0.02)


def test_s3_masks_only_high_target_rows():
    c = _cohort()
    mask = apply_scenario(c, ScenarioSpec("S3", seed=3))
    hidden = ~mask.observed[:, 1]
    assert not hidden[c.covariates[:, 1] <= 0.5].any()
    eligible = c.covariates[:, 1] > 0.5
    assert hidden[eligible].mean() == pytest.approx(0.5, abs=0.02)


def test_scenario_mask_is_deterministic():
    c = _cohort()
    a = apply_scenario(c, ScenarioSpec("S2", seed=7))
    b = apply_scenario(c, ScenarioSpec("S2", seed=7))
    assert np.array_equal(a.observed, b.observed)


def test_scenario_validation():
    with pytest.raises(ConfigurationError):
        ScenarioSpec("S4")
    with pytest.raises(ConfigurationError):
        ScenarioSpec("S1", mask_probability=1.5)
    with pytest.raises(ConfigurationError):
        ScenarioSpec("S1", mask_probability=math.nan)
    with pytest.raises(ConfigurationError):
        ScenarioSpec("S2", threshold=math.nan)
    with pytest.raises(ConfigurationError):
        apply_scenario(_cohort(n=10), ScenarioSpec("S1", target_covariate=5))


def test_calibrated_hits_alpha_and_rho_targets():
    c = _cohort(n=200000, seed=5)
    spec = CalibratedMechanismSpec(alpha=(0.8, 0.6), rho=(0.2, -0.3), seed=4)
    mask = apply_calibrated(c, spec)
    d = describe(c, mask, 1)
    assert d.per_group[0].alpha == pytest.approx(0.8, abs=0.01)
    assert d.per_group[1].alpha == pytest.approx(0.6, abs=0.01)
    assert d.per_group[0].rho == pytest.approx(0.2, abs=0.02)
    assert d.per_group[1].rho == pytest.approx(-0.3, abs=0.02)


def _calibrated_reference(cohort, spec):
    """The mechanism written out with fresh temporaries and a 2-D boolean scatter."""
    j = spec.target_covariate
    x = cohort.covariates[:, j]
    rng = np.random.default_rng(spec.seed)
    observed = np.ones((cohort.n, cohort.d), dtype=bool)
    for g in (0, 1):
        rows = cohort.group == g
        z_alpha, r = latent_threshold(spec.alpha[g], spec.rho[g])
        xg = x[rows]
        sd = xg.std()
        x_std = (xg - xg.mean()) / sd if sd > 0 else np.zeros_like(xg)
        z = r * x_std + math.sqrt(1.0 - r * r) * rng.standard_normal(xg.size)
        observed[rows, j] = z <= z_alpha
    return observed


@pytest.mark.parametrize("seed", range(6))
def test_calibrated_mask_equals_reference_exactly(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(500, 5000))
    X = rng.normal(rng.uniform(-2, 2), rng.uniform(0.1, 3), (n, 3))
    g = (rng.random(n) < rng.uniform(0.1, 0.5)).astype(int)     # interleaved groups
    c = Cohort(X, g, np.zeros(n, dtype=int))
    alpha = tuple(rng.uniform(0.2, 0.9, 2))
    rho = tuple(rng.uniform(-0.9, 0.9) * rho_feasible_bound(a) for a in alpha)
    spec = CalibratedMechanismSpec(alpha=alpha, rho=rho, seed=int(rng.integers(2**63)))
    assert np.array_equal(apply_calibrated(c, spec).observed, _calibrated_reference(c, spec))


def test_calibrated_zero_spread_group_is_pure_noise():
    rng = np.random.default_rng(11)
    n = 3000
    X = rng.standard_normal((n, 2))
    g = (rng.random(n) < 0.3).astype(int)
    X[g == 1, 1] = 4.0                          # the marginalised values have no spread
    c = Cohort(X, g, np.zeros(n, dtype=int))
    spec = CalibratedMechanismSpec(alpha=(0.7, 0.4), rho=(0.3, -0.4), seed=5)
    observed = apply_calibrated(c, spec).observed
    assert np.array_equal(observed, _calibrated_reference(c, spec))
    assert observed[:, 0].all()
    hidden = ~observed[g == 1, 1]
    assert 0 < hidden.sum() < hidden.size


def test_calibrated_mask_follows_rows_when_groups_interleave():
    # Moving rows while keeping each group's internal order moves the mask with them.
    rng = np.random.default_rng(3)
    n, n_g = 4000, 900
    X = rng.standard_normal((n, 2))
    g = np.repeat([0, 1], [n - n_g, n_g])
    spec = CalibratedMechanismSpec(alpha=(0.75, 0.55), rho=(-0.2, 0.35), seed=9)
    contiguous = apply_calibrated(Cohort(X, g, np.zeros(n, dtype=int)), spec).observed

    g_mixed = np.zeros(n, dtype=int)
    g_mixed[rng.choice(n, n_g, replace=False)] = 1
    order = np.concatenate([np.flatnonzero(g_mixed == 0), np.flatnonzero(g_mixed == 1)])
    X_mixed = np.empty_like(X)
    X_mixed[order] = X
    mixed = apply_calibrated(Cohort(X_mixed, g_mixed, np.zeros(n, dtype=int)), spec).observed
    assert np.array_equal(mixed[order], contiguous)
    assert not np.array_equal(mixed, contiguous)


def test_infeasible_rho_rejected_at_construction():
    bound = rho_feasible_bound(0.5)
    with pytest.raises(InfeasibleCorrelationError):
        CalibratedMechanismSpec(alpha=(0.5, 0.5), rho=(bound + 0.01, 0.0))
    CalibratedMechanismSpec(alpha=(0.5, 0.5), rho=(bound - 0.01, 0.0))


def test_feasible_bound_is_symmetric_and_below_one():
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
        b = rho_feasible_bound(alpha)
        assert 0 < b < 1
        assert b == pytest.approx(rho_feasible_bound(1 - alpha), abs=1e-12)


RATES = np.linspace(1e-9, 1 - 1e-9, 4001)


def test_latent_threshold_quantile_matches_reference():
    stats = pytest.importorskip("scipy.stats")
    ours = np.array([latent_threshold(a, 0.0)[0] for a in RATES])
    assert np.max(np.abs(ours - stats.norm.ppf(RATES))) < 1e-12


def test_latent_threshold_quantile_round_trips_through_reference_cdf():
    stats = pytest.importorskip("scipy.stats")
    ours = np.array([latent_threshold(a, 0.0)[0] for a in RATES])
    assert np.max(np.abs(stats.norm.cdf(ours) - RATES)) < 1e-14


def test_feasible_bound_matches_reference():
    stats = pytest.importorskip("scipy.stats")
    ours = np.array([rho_feasible_bound(a) for a in RATES])
    expected = stats.norm.pdf(stats.norm.ppf(RATES)) / np.sqrt(RATES * (1 - RATES))
    assert np.max(np.abs(ours / expected - 1)) < 1e-12


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.1])
def test_latent_threshold_rejects_rates_outside_the_open_unit_interval(alpha):
    with pytest.raises(ValueError):
        latent_threshold(alpha, 0.0)


def test_describe_handcrafted_values():
    X = np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0], [0.0, 4.0],
                  [0.0, 10.0], [0.0, 20.0]])
    g = np.array([0, 0, 0, 0, 1, 1])
    c = Cohort(X, g, np.zeros(6, dtype=int))
    observed = np.ones((6, 2), dtype=bool)
    observed[2, 1] = observed[3, 1] = False     # hide the two high majority values
    from missfair.data_model import ObservationMask
    d = describe(c, ObservationMask(observed), 1)
    maj = d.per_group[0]
    assert maj.alpha == pytest.approx(0.5)
    assert maj.mean_observed == pytest.approx(1.5)
    assert maj.mean_true == pytest.approx(2.5)
    assert maj.rho < 0                          # high values hidden: negative correlation
    assert maj.var_unobserved == pytest.approx(0.25)
    marg = d.per_group[1]
    assert marg.alpha == pytest.approx(1.0)
    assert math.isnan(marg.rho)
    assert d.alpha_overall == pytest.approx(4 / 6)
    assert d.mean_observed_overall == pytest.approx((1 + 2 + 10 + 20) / 4)
