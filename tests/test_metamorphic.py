"""Metamorphic relations: input rewrites whose effect on the report is known exactly.

Relabelling the groups swaps every majority/marginalised pair and negates every
gap; an affine map of a covariate leaves every metric unchanged, because the
model standardises its features and OLS and the mean fills are scale
equivariant. They hold for any input, so they guard refactors beyond the seeds
that byte-identity checks cover.
"""

import csv
import math
from dataclasses import replace

import pytest

from missfair import harness
from missfair.data_model import Cohort, MaskedCohort, SplitSpec, split
from missfair.missingness import ScenarioSpec, apply_scenario
from missfair.synthgen import generate

SWAP = {"overall": "overall", "majority": "marginalised",
        "marginalised": "majority", "gap": "gap"}


@pytest.fixture(scope="module")
def standin(tmp_path_factory):
    return harness.make_standin(str(tmp_path_factory.mktemp("standin") / "standin.csv"),
                                seed=3, n_majority=4000, n_marginalised=800)


def _audit(path, **csv_spec):
    config = harness.load_config()
    config["seed"] = 3
    config["bootstrap_resamples"] = 20
    config["csv"] = {"path": path, **csv_spec}
    rows = harness.run_csv_audit(config).rows
    assert not any(r["error"] for r in rows)
    return {(r["imputer"], r["metric"], r["group"]): r for r in rows}


def test_audit_group_relabel_swaps_groups_and_negates_gaps(standin):
    base = _audit(standin)
    relabelled = _audit(standin, marginalised_value="0")
    assert base.keys() == relabelled.keys()
    for (imputer, metric, group), row in base.items():
        other = relabelled[(imputer, metric, SWAP[group])]
        assert other["mean"] == (-row["mean"] if group == "gap" else row["mean"])
        if group != "gap":
            assert (other["lower"], other["upper"]) == (row["lower"], row["upper"])


def test_audit_affine_covariate_map_changes_nothing(standin, tmp_path):
    with open(standin, newline="") as handle:
        table = list(csv.reader(handle))
    column = table[0].index("x2")
    for row in table[1:]:
        if row[column]:
            row[column] = repr(8.0 * float(row[column]) + 3.0)
    mapped = str(tmp_path / "mapped.csv")
    with open(mapped, "w", newline="") as handle:
        csv.writer(handle).writerows(table)
    base, after = _audit(standin), _audit(mapped)
    assert base.keys() == after.keys()
    for key, row in base.items():
        assert [after[key][f] for f in ("mean", "lower", "upper")] == \
            [row[f] for f in ("mean", "lower", "upper")], key


def _relabelled(part):
    """The same rows with the group flipped; the mask (drawn before) is kept."""
    cohort = part.cohort
    return MaskedCohort(Cohort(cohort.covariates, 1 - cohort.group, cohort.outcome),
                        part.mask)


def _close(a, b, tolerance=1e-12):
    return (math.isnan(a) and math.isnan(b)) or abs(a - b) <= tolerance


@pytest.mark.parametrize("scenario", ["S1", "S2", "S3"])
def test_run_cell_group_relabel_after_masking(scenario):
    config = harness.load_config()
    config["population"].update(n_majority=3000, n_marginalised=600)
    plan = harness._plan(config)
    cohort = generate(replace(plan["population"], seed=5))
    # S1 masks by group, so the groups are relabelled after masking.
    mask = apply_scenario(cohort, ScenarioSpec(scenario, seed=6))
    partitions = split(cohort, mask, SplitSpec(0.8, 0.0, 0.2, 7))
    flipped = tuple(None if p is None else _relabelled(p) for p in partitions)
    logistic = plan["model"]
    for index, spec in enumerate(plan["imputers"]):
        spec = replace(spec, seed=8 + index)
        base, error = harness._run_cell(spec, logistic, partitions, config["capacities"], 1)
        assert error is None, error
        other, error = harness._run_cell(spec, logistic, flipped, config["capacities"], 1)
        assert error is None, error
        for (metric, group), value in base.items():
            expected = -value if group == "gap" else value
            assert _close(other[(metric, SWAP[group])], expected), \
                (spec.label(), metric, group, value, other[(metric, SWAP[group])])
