import math
import warnings

import numpy as np
import pytest

from missfair import harness, theory
from missfair.data_model import Cohort, ConfigurationError
from missfair.missingness import (CalibratedMechanismSpec, InfeasibleCorrelationError,
                                  apply_calibrated, rho_feasible_bound)
from missfair.theory import (AssumptionError, InconsistentInputsError,
                             SingularityError, TheoremInputs)

# Frozen reference values computed independently from the closed-form definitions
# (bisection-based normal quantiles, direct formula transcription).
ORACLE = dict(
    mu_obs_g=1.065465367071, mu_obs_ng=-0.025, mu_obs_overall=0.221234115145,
    alpha_overall=0.775,
    bias_g=-0.218217890236, l_group_g=0.297619047619, l_pop_g=0.641892729014,
    l_group_ng=0.265625, l_pop_ng=0.264697710675,
    delta_group=0.031994047619, delta_pop=0.377195018339,
    mu_unobs_g=0.847247476835,
    latent_var_unobs=0.237224278301,
)


def _inputs(**kwargs):
    base = dict(alpha_g=0.7, alpha_ng=0.8, rho_g=0.2, rho_ng=-0.1, r_g=0.25,
                sigma_g=0.5, sigma_ng=0.5, var_unobs_g=0.25, var_unobs_ng=0.25,
                mu_g=1.0, mu_ng=0.0)
    base.update(kwargs)
    return TheoremInputs(**base)


def test_observed_means_derived_from_true_means():
    t = _inputs()
    assert t.mu_obs_g == pytest.approx(ORACLE["mu_obs_g"], abs=1e-9)
    assert t.mu_obs_ng == pytest.approx(ORACLE["mu_obs_ng"], abs=1e-9)
    assert t.alpha_overall == pytest.approx(ORACLE["alpha_overall"], abs=1e-12)
    assert t.mu_obs_overall == pytest.approx(ORACLE["mu_obs_overall"], abs=1e-9)


def test_true_means_derived_from_observed_means():
    t = _inputs(mu_g=None, mu_ng=None,
                mu_obs_g=ORACLE["mu_obs_g"], mu_obs_ng=ORACLE["mu_obs_ng"])
    assert t.mu_g == pytest.approx(1.0, abs=1e-9)
    assert t.mu_ng == pytest.approx(0.0, abs=1e-9)


def test_inconsistent_mean_pair_rejected():
    with pytest.raises(InconsistentInputsError):
        _inputs(mu_obs_g=0.5, mu_obs_ng=0.5)
    _inputs(mu_obs_g=ORACLE["mu_obs_g"], mu_obs_ng=ORACLE["mu_obs_ng"])


def test_input_validation():
    with pytest.raises(SingularityError):
        _inputs(alpha_g=1.0)
    with pytest.raises(SingularityError):
        _inputs(r_g=0.0)
    with pytest.raises(SingularityError):
        _inputs(sigma_g=0.0)
    with pytest.raises(ValueError):
        _inputs(rho_g=1.5)
    with pytest.raises(ValueError):
        TheoremInputs(alpha_g=0.7, alpha_ng=0.8, rho_g=0.2, rho_ng=-0.1, r_g=0.25,
                      sigma_g=0.5, sigma_ng=0.5, var_unobs_g=0.25, var_unobs_ng=0.25)


def test_closed_forms_match_frozen_oracle():
    t = _inputs()
    assert theory.group_bias(t) == pytest.approx(ORACLE["bias_g"], abs=1e-9)
    lg, lp = theory.reconstruction_closed_form(t, marginalised=True)
    assert lg == pytest.approx(ORACLE["l_group_g"], abs=1e-9)
    assert lp == pytest.approx(ORACLE["l_pop_g"], abs=1e-9)
    lg, lp = theory.reconstruction_closed_form(t, marginalised=False)
    assert lg == pytest.approx(ORACLE["l_group_ng"], abs=1e-9)
    assert lp == pytest.approx(ORACLE["l_pop_ng"], abs=1e-9)
    dg, dp = theory.gaps(t)
    assert dg == pytest.approx(ORACLE["delta_group"], abs=1e-9)
    assert dp == pytest.approx(ORACLE["delta_pop"], abs=1e-9)
    mu_unobs_g = t.mu_obs_g + theory.group_bias(t)
    assert mu_unobs_g == pytest.approx(ORACLE["mu_unobs_g"], abs=1e-9)


def test_constant_imputation_interpolates_both_strategies():
    # Imputing group g's missing values with a constant c costs
    # (E[X | not O, g] - c)^2 + Var(X | not O, g); both strategies are such a c.
    t = _inputs()
    mu_unobs = t.mu_obs_g + theory.group_bias(t)

    def error(c):
        return (mu_unobs - c) ** 2 + t.var_unobs_g

    lg, lp = theory.reconstruction_closed_form(t, marginalised=True)
    assert error(t.mu_obs_g) == pytest.approx(lg, abs=1e-12)
    assert error(t.mu_obs_overall) == pytest.approx(lp, abs=1e-12)
    assert error(mu_unobs) == pytest.approx(t.var_unobs_g, abs=1e-12)


def _random_inputs(rng):
    while True:
        try:
            return TheoremInputs(
                alpha_g=rng.uniform(0.05, 0.95), alpha_ng=rng.uniform(0.05, 0.95),
                rho_g=rng.uniform(-0.9, 0.9), rho_ng=rng.uniform(-0.9, 0.9),
                r_g=rng.uniform(0.01, 0.5),
                sigma_g=rng.uniform(0.1, 3.0), sigma_ng=rng.uniform(0.1, 3.0),
                var_unobs_g=0.3, var_unobs_ng=0.3,
                mu_g=rng.uniform(-2, 2), mu_ng=rng.uniform(-2, 2))
        except ValueError:
            continue


def test_two_bias_routes_agree():
    rng = np.random.default_rng(0)
    for _ in range(500):
        t = _random_inputs(rng)
        direct = theory.group_bias(t) + t.mu_obs_g - t.mu_obs_overall
        assert theory.population_bias_expanded(t) == pytest.approx(direct, abs=1e-12)


def test_theorem2_predicate_equals_direct_comparison():
    rng = np.random.default_rng(1)
    for _ in range(2000):
        t = _random_inputs(rng)
        lg, lp = theory.reconstruction_closed_form(t, marginalised=True)
        assert theory.theorem2_predicate(t) == (lg > lp)


def test_theorem3_predicate_equals_direct_comparison():
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 1000:
        t = _random_inputs(rng)
        try:
            pred = theory.theorem3_predicate(t)
        except AssumptionError:
            continue
        dg, dp = theory.gaps(t)
        assert pred == (dg > dp > 0)
        checked += 1


def test_theorem3_assumption_violations_raise():
    with pytest.raises(AssumptionError):
        theory.theorem3_predicate(_inputs(var_unobs_ng=0.4))
    low = _inputs(mu_g=-2.0)          # pushes mu_obs_g below the pooled observed mean
    with pytest.raises(AssumptionError):
        theory.theorem3_predicate(low)


def test_swapped_preserves_population_quantities():
    # The same population seen from the other group's perspective.
    t = _inputs()
    s = TheoremInputs(
        alpha_g=t.alpha_ng, alpha_ng=t.alpha_g, rho_g=t.rho_ng, rho_ng=t.rho_g,
        r_g=1.0 - t.r_g, sigma_g=t.sigma_ng, sigma_ng=t.sigma_g,
        var_unobs_g=t.var_unobs_ng, var_unobs_ng=t.var_unobs_g,
        mu_g=t.mu_ng, mu_ng=t.mu_g)
    assert s.alpha_overall == pytest.approx(t.alpha_overall, abs=1e-12)
    assert s.mu_obs_overall == pytest.approx(t.mu_obs_overall, abs=1e-12)
    dg, dp = theory.gaps(t)
    sdg, sdp = theory.gaps(s)
    assert sdg == pytest.approx(-dg, abs=1e-12)
    assert sdp == pytest.approx(-dp, abs=1e-12)


def test_latent_threshold_variance_matches_oracle():
    v = theory.latent_threshold_unobserved_variance(0.7, 0.2, 0.5)
    assert v == pytest.approx(ORACLE["latent_var_unobs"], abs=1e-9)
    # rho = 0 leaves the variance untouched
    assert theory.latent_threshold_unobserved_variance(0.6, 0.0, 2.0) == \
        pytest.approx(4.0, abs=1e-12)
    with pytest.raises(InfeasibleCorrelationError):
        theory.latent_threshold_unobserved_variance(0.5, rho_feasible_bound(0.5) + 0.01, 1.0)


def test_latent_threshold_variance_matches_truncated_normal():
    stats = pytest.importorskip("scipy.stats")
    sigma = 1.3
    for alpha in np.linspace(0.05, 0.95, 19):
        for share in (-0.9, -0.4, 0.0, 0.4, 0.9):
            rho = share * rho_feasible_bound(alpha)
            z = stats.norm.ppf(alpha)
            r = -rho * math.sqrt(alpha * (1 - alpha)) / stats.norm.pdf(z)
            hazard = stats.norm.pdf(z) / stats.norm.sf(z)
            expected = sigma ** 2 * (1 - r * r * hazard * (hazard - z))
            ours = theory.latent_threshold_unobserved_variance(alpha, rho, sigma)
            assert ours == pytest.approx(expected, rel=1e-12)


def test_region_scan_shape_and_flags():
    base = _inputs(mu_g=None, mu_ng=None, mu_obs_g=0.5, mu_obs_ng=0.0,
                   rho_g=0.0, rho_ng=0.0)
    grid = np.linspace(-0.3, 0.3, 11)
    cells = theory.region_scan(base, grid, grid)
    assert len(cells) == 121
    feasible = [c for c in cells if c["feasible"]]
    assert feasible
    for c in feasible[:20]:
        assert c["diff"] == pytest.approx(c["delta_pop"] - c["delta_group"], abs=1e-12)
        assert c["dotted"] == (abs(c["delta_pop"]) < abs(c["delta_group"]))


def test_region_scan_holds_observed_means_fixed():
    base = _inputs(mu_g=None, mu_ng=None, mu_obs_g=0.5, mu_obs_ng=0.0,
                   rho_g=0.0, rho_ng=0.0)
    cells = theory.region_scan(base, [0.1, -0.1], [0.2])
    # Cells differ in rho, so the derived true means must differ while the
    # observed-side quantities stay pinned to the base configuration.
    dg0, _ = theory.gaps(theory.replace(base, rho_g=0.1, rho_ng=0.2,
                                        mu_g=None, mu_ng=None))
    assert cells[0]["delta_group"] == pytest.approx(dg0, abs=1e-12)


def _scalar_region_cell(base, rho_g, rho_ng):
    """One region cell from scalar TheoremInputs: (feasible, delta_group, delta_pop, theorem3)."""
    try:
        t = theory.replace(base, rho_g=rho_g, rho_ng=rho_ng, mu_g=None, mu_ng=None)
    except ValueError:
        return 0, math.nan, math.nan, 0
    delta_group, delta_pop = theory.gaps(t)
    try:
        t3 = int(theory.theorem3_predicate(t))
    except AssumptionError:
        t3 = 0
    return 1, delta_group, delta_pop, t3


@pytest.mark.parametrize("mu_obs_g", [0.5, -0.5])   # -0.5 puts mu_obs_g below mu_obs_overall
def test_region_scan_matches_scalar_evaluation(mu_obs_g):
    base = _inputs(mu_g=None, mu_ng=None, mu_obs_g=mu_obs_g, mu_obs_ng=0.0,
                   rho_g=0.0, rho_ng=0.0)
    rho_g_values = np.linspace(-1.2, 1.2, 13)           # includes |rho| > 1 cells
    rho_ng_values = np.linspace(-1.1, 0.9, 11)
    cells = theory.region_scan(base, rho_g_values, rho_ng_values)
    expected = [(float(rg), float(rng)) for rng in rho_ng_values for rg in rho_g_values]
    assert [(c["rho_g"], c["rho_ng"]) for c in cells] == expected
    assert {c["feasible"] for c in cells} == {0, 1}
    if mu_obs_g < base.mu_obs_overall:
        assert all(c["theorem3"] == 0 for c in cells)
    else:
        assert any(c["theorem3"] for c in cells)
    for c, (rg, rng) in zip(cells, expected):
        feasible, delta_group, delta_pop, t3 = _scalar_region_cell(base, rg, rng)
        assert (c["feasible"], c["theorem3"]) == (feasible, t3)
        assert c["dotted"] == int(abs(delta_pop) < abs(delta_group))
        for key, value in (("delta_group", delta_group), ("delta_pop", delta_pop),
                           ("diff", delta_pop - delta_group)):
            assert c[key] == pytest.approx(value, abs=1e-12, nan_ok=True)


REGION_HEADER = ["rho_g", "rho_ng", "delta_pop", "delta_group", "diff",
                 "theorem3", "dotted", "feasible"]


def _exact(row):
    """A row's (key, type, value) triples with nan spelled out, so rows compare exactly."""
    return [(k, type(v), "nan" if v != v else v) for k, v in row.items()]


def test_region_scan_report_contract(tmp_path):
    config = harness.load_config()
    config["region"].update(steps=13, rho_min=-1.2, rho_max=1.2)   # |rho| > 1 cells too
    base, grid = harness._plan(config)["region"]
    assert len(theory.region_scan(base, grid, grid[:5])) == len(grid) * 5
    cells = theory.region_scan(base, grid, grid)
    assert list(cells.dtype.names) == REGION_HEADER

    report = harness.run_region_scan(config)
    assert list(report.columns) == REGION_HEADER
    expected = []
    for rho_ng in grid.tolist():
        for rho_g in grid.tolist():
            feasible, delta_group, delta_pop, t3 = _scalar_region_cell(base, rho_g, rho_ng)
            expected.append({
                "rho_g": rho_g, "rho_ng": rho_ng, "delta_pop": delta_pop,
                "delta_group": delta_group, "diff": delta_pop - delta_group, "theorem3": t3,
                "dotted": int(abs(delta_pop) < abs(delta_group)), "feasible": feasible})
    rows = report.rows
    assert len(rows) == len(expected)
    assert {row["feasible"] for row in rows} == {0, 1} and any(row["theorem3"] for row in rows)
    for row, want in zip(rows, expected):
        assert _exact(row) == _exact(want)
    with open(report.write(str(tmp_path))) as handle:
        assert handle.readline() == ",".join(REGION_HEADER) + "\n"


def test_monte_carlo_validation_close_at_moderate_size():
    inputs = theory.latent_threshold_inputs(
        alpha_g=0.7, rho_g=0.2, alpha_ng=0.8, rho_ng=-0.1, r_g=0.25,
        mu_g=1.0, mu_ng=0.0, sigma_g=0.5, sigma_ng=0.5)
    report = theory.monte_carlo_validate(inputs, n=400000, seed=0)
    for key in ("g", "ng"):
        assert report[key].rel_error_group < 0.05
        assert report[key].rel_error_pop < 0.05


def _monte_carlo_reference(inputs, n, seed):
    """monte_carlo_validate's empirical errors from concatenated draws and row masks."""
    rng = np.random.default_rng(seed)
    n_g = int(round(inputs.r_g * n))
    n_ng = n - n_g
    x_ng = inputs.mu_ng + inputs.sigma_ng * rng.standard_normal(n_ng)
    x_g = inputs.mu_g + inputs.sigma_g * rng.standard_normal(n_g)
    x = np.concatenate([x_ng, x_g])
    group = np.concatenate([np.zeros(n_ng, dtype=np.int8), np.ones(n_g, dtype=np.int8)])
    mask = apply_calibrated(Cohort(x[:, None], group, np.zeros(n, dtype=np.int8)),
                            CalibratedMechanismSpec(
                                alpha=(inputs.alpha_ng, inputs.alpha_g),
                                rho=(inputs.rho_ng, inputs.rho_g),
                                target_covariate=0, seed=int(rng.integers(2**63))))
    o = mask.observed[:, 0]
    mu_obs_pop = x[o].mean()
    empirical = {}
    for key, g in (("g", 1), ("ng", 0)):
        rows = group == g
        missing = rows & ~o
        mu_obs_group = x[rows & o].mean()
        empirical[key] = (float(((x[missing] - mu_obs_group) ** 2).mean()),
                          float(((x[missing] - mu_obs_pop) ** 2).mean()))
    return empirical


@pytest.mark.parametrize("n, name", [(1, "marginalised"), (3, "group")])
def test_monte_carlo_validation_rejects_too_few_samples(n, name):
    # n=1 leaves the marginalised block empty (round(0.25) == 0); at n=3 the one
    # marginalised row is either observed or missing, so a group slice is empty.
    inputs = theory.latent_threshold_inputs(
        alpha_g=0.7, rho_g=0.2, alpha_ng=0.8, rho_ng=-0.1, r_g=0.25,
        mu_g=1.0, mu_ng=0.0, sigma_g=0.5, sigma_ng=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match=f"n={n} .*{name}"):
            theory.monte_carlo_validate(inputs, n=n, seed=0)


@pytest.mark.parametrize("seed", [3, 2024])
def test_monte_carlo_validation_equals_reference_exactly(seed):
    inputs = theory.latent_threshold_inputs(
        alpha_g=0.65, rho_g=-0.3, alpha_ng=0.85, rho_ng=0.15, r_g=0.3,
        mu_g=0.4, mu_ng=-0.2, sigma_g=1.3, sigma_ng=0.7)
    report = theory.monte_carlo_validate(inputs, n=200_000, seed=seed)
    reference = _monte_carlo_reference(inputs, n=200_000, seed=seed)
    for key in ("g", "ng"):
        assert (report[key].empirical_group, report[key].empirical_pop) == reference[key]
