import concurrent.futures
import csv
import json
import math
import multiprocessing
import os
import pathlib
import re

import numpy as np
import pytest
import yaml

from missfair import cli, harness, impute, metrics, predict, theory
from missfair.data_model import (Cohort, ConfigurationError, MaskedCohort,
                                 ObservationMask)
from missfair.predict import ConvergenceError

SMALL_POPULATION = {
    "n_majority": 3000, "n_marginalised": 600,
    "prevalence_majority": 0.66, "prevalence_marginalised": 0.66,
    "negative_cluster": {"mean": [0.0, 0.0], "variance": 0.0625},
    "positive_majority_cluster": {"mean": [0.0, 1.0], "variance": 0.0625},
    "positive_marginalised_cluster": {"mean": [1.0, 0.0], "variance": 0.0625},
    "correlate_x2_with_x1": False,
}


def _small_config(**kwargs):
    config = harness.load_config()
    config["population"] = dict(SMALL_POPULATION)
    config["repetitions"] = 2
    config["scenarios"] = ["S1", "S3"]
    config["imputers"] = [{"strategy": "population_mean"}, {"strategy": "group_mean"}]
    config["capacities"] = [0.25]
    config.update(kwargs)
    return config


def test_load_config_defaults_file_and_overrides(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump({"repetitions": 7, "split": {"train": 0.7, "test": 0.3}}))
    config = harness.load_config(str(path), {"seed": 42})
    assert config["repetitions"] == 7
    assert config["seed"] == 42
    assert config["split"]["train"] == 0.7
    assert config["split"]["tune"] == 0.0          # merged, not replaced
    assert config["population"]["n_majority"] == 100000


def test_load_config_returns_independent_copies():
    config = harness.load_config()
    config["region"]["steps"] = 21
    config["population"]["negative_cluster"]["mean"][0] = 5.0
    config["imputers"].append({"strategy": "mice"})
    fresh = harness.load_config()
    assert fresh == harness.DEFAULT_CONFIG
    assert fresh["region"]["steps"] == 101
    assert fresh["population"]["negative_cluster"]["mean"] == [0.0, 0.0]
    assert len(fresh["imputers"]) == 5


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump({"repetition": 7}))
    with pytest.raises(ConfigurationError):
        harness.load_config(str(path))


@pytest.mark.parametrize("text, key", [
    ("repetitions: 0", "repetitions"),              # ran nothing, yet printed a report path
    ("capacities: [1.5]", "capacities"),            # made every cell an UndefinedMetricError
    ('threads: "two"', "threads"),                  # bare ValueError from int()
    ("model: {fixed_penalty: abc}", "model.fixed_penalty"),   # bare ValueError from float()
    ("population: {n_majority: abc}", "population.n_majority"),   # bare ValueError from int()
    ("split: {train: abc}", "split.train"),                # bare ValueError from float()
    ("region: {sigma: abc}", "region.sigma"),              # bare ValueError from float()
    # Spec-building sections raised a bare ValueError only once simulate had started.
    ("scenarios: [{scenario: S1, mask_probability: high}]", "scenarios[0].mask_probability"),
    ("imputers: [{strategy: mice, mice_draws: abc}]", "imputers[0].mice_draws"),
    ("population: {negative_cluster: {mean: [0, 0], variance: abc}}",
     "population.negative_cluster.variance"),
    ("scenarios: [S4]", "scenarios[0]"),
    ("imputers: [{strategy: bogus}]", "imputers[0]"),
    # bool("false") is True: the string ran with indicators appended
    ('imputers: [{strategy: group_mice, append_indicators: "false"}]',
     "imputers[0].append_indicators"),
    # int() truncated these to 2 draws or iterations
    ("imputers: [{strategy: mice, mice_draws: 2.7}]", "imputers[0].mice_draws"),
    ("imputers: [{strategy: mice, mice_iterations: 2.7}]", "imputers[0].mice_iterations"),
    # csv was checked by nothing: a bare IndexError, a bare ValueError, open(5) read fd 5
    ("csv: {path: data.csv, fractions: [0.8, 0.2]}", "csv"),
    ('csv: {path: data.csv, fractions: ["a", 0.1, 0.1]}', "csv.fractions"),
    ("csv: {path: 5}", "csv.path"),
    ("csv: notadict", "csv"),
    # loaded, then failed only after the cohort was generated
    ("split: {train: 0.5}", "split"),
    # loaded, then died with AttributeError in impute.transform or impute.fit
    ("split: {train: 1.0, tune: 0.0, test: 0.0}", "split"),
    ("split: {train: 0.0, tune: 0.5, test: 0.5}", "split"),
    ("csv: {path: s.csv, fractions: [0.9, 0.1, 0.0]}", "csv"),
    # both printed as fnr@0.1, one row holding whichever was scored last
    ("capacities: [0.1, 0.1000001, 0.5]", "capacities[1]"),
    # a non-mapping entry escaped as AttributeError
    ("imputers: [5]", "imputers[0]"),
    ("scenarios: [5]", "scenarios[0]"),
    ("population: {negative_cluster: 5}", "population.negative_cluster"),
    # bool("false") is True: the string ran the correlated generator
    ('population: {correlate_x2_with_x1: "false"}', "population.correlate_x2_with_x1"),
    # a report cell is keyed by (scenario, imputer label): the two entries merged
    ("scenarios: [{scenario: S1, target_covariate: 0}, S1]", "scenarios[1]"),
    ("imputers: [{strategy: mice}, {strategy: mice, mice_draws: 2}]", "imputers[1]"),
    # loaded, then exited 2 once the cohort was generated, naming no key
    ("scenarios: [{scenario: S2, trigger_covariate: 5}]", "scenarios[0]"),
    # audit-csv died with ValueError: cannot convert float NaN to integer
    ("csv: {path: s.csv, fractions: [.nan, 0.1, 0.1]}", "csv.fractions"),
    # the run exited 2 with "ground-truth covariates must be complete and finite"
    ("population: {negative_cluster: {mean: [0, 0], variance: .inf}}",
     "population.negative_cluster.variance"),
    ("population: {negative_cluster: {mean: [0, 0], variance: .nan}}",
     "population.negative_cluster.variance"),
    ("population: {negative_cluster: {mean: [.nan, 0], variance: 0.1}}",
     "population.negative_cluster.mean"),
    # the only report row was "UndefinedMetricError: no masked entries to score"
    ("scenarios: [{scenario: S2, threshold: .nan}]", "scenarios[0].threshold"),
    # audit-csv, which tunes the penalty, died with IndexError
    ("model: {penalty_grid: []}", "model"),
    # ran no cell, printed "wrote <out>/report.csv" and wrote only manifest.json
    ("scenarios: []", "scenarios"),
    ("imputers: []", "imputers"),
])
def test_load_config_rejects_unusable_numbers(tmp_path, capsys, text, key):
    path = tmp_path / "run.yaml"
    path.write_text(text + "\n")
    with pytest.raises(ConfigurationError, match=rf"^{re.escape(key)} must be"):
        harness.load_config(str(path))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["simulate", "--config", str(path), "--out", str(out)])
    assert exit_info.value.code == 2
    assert "wrote" not in capsys.readouterr().out
    assert not out.exists()


def test_config_messages_name_the_key_or_the_entry(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("scenarios: [{scenario: S2, threshold: .nan}]\n")
    with pytest.raises(ConfigurationError) as error:
        harness.load_config(str(path))
    assert str(error.value) == "scenarios[0].threshold must be a finite number, got nan"
    path.write_text("split: {train: 0.5}\n")
    with pytest.raises(ConfigurationError) as error:
        harness.load_config(str(path))
    assert str(error.value) == \
        "split must be a usable entry (ConfigurationError: fractions must sum to 1)"


@pytest.mark.parametrize("text, key, misspelled", [
    # each misspelling loaded and silently ran the default
    ("population: {n_majorty: 5}", "population must be", "n_majorty"),
    ("split: {tune_frac: 0.1}", "split must be", "tune_frac"),
    ("scenarios: [{scenario: S1, mask_prob: 0.9}]", "scenarios[0] must be", "mask_prob"),
    ("imputers: [{strategy: mice, mice_draw: 2}]", "imputers[0] must be", "mice_draw"),
    ("population: {negative_cluster: {mean: [0, 0], variance: 0.1, varience: 2}}",
     "population.negative_cluster must be", "varience"),
    ("csv: {path: data.csv, group_colum: outcome}", "csv must be", "group_colum"),
    # each scenario entry owns its masked covariate
    ("target_covariate: 0", "unknown configuration key", "target_covariate"),
])
def test_load_config_rejects_misspelled_nested_keys(tmp_path, text, key, misspelled):
    path = tmp_path / "run.yaml"
    path.write_text(text + "\n")
    with pytest.raises(ConfigurationError, match=rf"^{re.escape(key)}.*{misspelled}"):
        harness.load_config(str(path))


def test_readme_example_config_loads(tmp_path):
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as handle:
        blocks = re.findall(r"```yaml\n(.*?)```", handle.read(), re.S)
    assert blocks
    for block in blocks:
        path = tmp_path / "run.yaml"
        path.write_text(block)
        harness.load_config(str(path))


def test_runners_check_the_config_they_are_handed(tmp_path):
    config = _small_config(csv={"path": str(tmp_path / "absent.csv"), "fractions": [0.8, 0.2]})
    with pytest.raises(ConfigurationError, match="^csv must be"):
        harness.run_csv_audit(config)
    with pytest.raises(ConfigurationError, match="^csv must be"):
        harness._simulate_repetition(config, 0)
    with pytest.raises(ConfigurationError, match="csv.path must be set"):
        harness.run_csv_audit(_small_config(csv={"group_column": "g"}))
    plan = harness._plan(_small_config())
    specs = [plan["population"], plan["split"], *plan["scenarios"], *plan["imputers"]]
    assert all(spec.seed == 0 for spec in specs)     # the runners stamp the seeds


def test_reconstruction_is_scored_on_each_scenario_target(monkeypatch):
    covariates = []
    original = metrics.reconstruction_error

    def spy(parts, covariate):
        covariates.append(covariate)
        return original(parts, covariate)

    monkeypatch.setattr(metrics, "reconstruction_error", spy)
    config = _small_config(scenarios=[{"scenario": "S1", "target_covariate": 0}, "S2"])
    rows = harness.run_simulation(config).rows
    assert covariates == [0, 0, 1, 1] * config["repetitions"]
    assert not [r for r in rows if r["error"]]
    s1 = [r for r in rows if r["scenario"] == "S1" and r["metric"] == "reconstruction"]
    # S1 masks marginalised rows only: the majority and the gap have no masked entry
    assert len(s1) == 8 and all(r["n_values"] == (r["group"] in ("overall", "marginalised")) * 2
                                for r in s1)


def test_a_scenario_that_masks_nothing_keeps_its_rate_metrics():
    # no masked entry gives nan reconstruction, which must not cost the cell its rates
    config = _small_config(scenarios=[{"scenario": "S1", "mask_probability": 0}])
    rows = harness.run_simulation(config).rows
    rates = [r for r in rows if r["metric"] != "reconstruction"]
    recon = [r for r in rows if r["metric"] == "reconstruction"]
    assert rates and all(r["n_values"] == r["n_repetitions"] and r["error"] == ""
                         for r in rates)
    assert recon and all(r["n_values"] == 0 and r["error"] == "" for r in recon)


def test_load_config_accepts_numeric_text_and_defaults(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("model: {fixed_penalty: 1e-3}\ncapacities: [0.1]\n")
    assert harness.load_config(str(path))["model"]["fixed_penalty"] == "1e-3"
    assert harness.load_config() == harness.DEFAULT_CONFIG


def test_capacities_given_as_numeric_text_run_as_numbers(tmp_path):
    # loaded, then simulate and audit-csv died comparing a float with a str (exit 1)
    path = tmp_path / "run.yaml"
    path.write_text('capacities: ["0.5"]\n')
    config = harness.load_config(str(path))
    assert config["capacities"] == ["0.5"] and harness._plan(config)["run"]["capacities"] == (0.5,)
    config = _small_config(repetitions=1, scenarios=["S1"], capacities=["0.5"])
    rows = harness.run_simulation(config).rows
    assert {r["metric"] for r in rows} >= {"fnr@0.5", "prioritisation@0.5"}
    assert not [r for r in rows if r["error"]]


@pytest.mark.parametrize("text, value", [("output_dir: 5", "5"), ("output_dir: null", "None")])
def test_load_config_rejects_an_output_dir_that_is_not_text(tmp_path, monkeypatch, capsys,
                                                             text, value):
    # loaded, ran the whole experiment, then Report.write raised TypeError (exit 1)
    path = tmp_path / "run.yaml"
    path.write_text(f"{text}\nrepetitions: 1\n")
    with pytest.raises(ConfigurationError) as error:
        harness.load_config(str(path))
    assert str(error.value) == f"output_dir must be a string, got {value}"
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["simulate", "--config", str(path)])
    assert exit_info.value.code == 2
    assert "wrote" not in capsys.readouterr().out
    assert sorted(os.listdir(tmp_path)) == ["run.yaml"]


def test_simulation_report_structure_and_sign_audit(tmp_path):
    report = harness.run_simulation(_small_config())
    rows = list(report.rows)
    cells = {(r["scenario"], r["imputer"]) for r in rows}
    assert cells == {(s, i) for s in ("S1", "S3")
                     for i in ("PopulationMean", "GroupMean")}
    metrics_seen = {r["metric"] for r in rows}
    assert {"reconstruction", "auc", "fnr@0.25", "prioritisation@0.25"} <= metrics_seen
    assert harness.audit_sign_convention(rows) == []
    path = report.write(str(tmp_path))
    assert os.path.exists(path)
    assert os.path.exists(os.path.join(str(tmp_path), "manifest.json"))
    with open(os.path.join(str(tmp_path), "manifest.json")) as handle:
        manifest = json.load(handle)
    assert manifest["mode"] == "simulate"
    assert manifest["config"]["repetitions"] == 2


def test_small_marginalised_group_reports_its_undefined_repetitions():
    # About 8 in 20 marginalised test sets hold one class: the run raised in the sign audit.
    config = _small_config(repetitions=20, scenarios=["S1", "S2", "S3"], capacities=[0.25],
                           population={**SMALL_POPULATION, "n_majority": 2000,
                                       "n_marginalised": 12})
    rows = {(r["scenario"], r["imputer"], r["metric"], r["group"]): r
            for r in harness.run_simulation(config).rows}
    short = [key for key, r in rows.items()
             if key[2:] == ("auc", "marginalised") and r["n_values"] < r["n_repetitions"]]
    assert short
    for scenario, imputer, _, _ in short:
        assert rows[(scenario, imputer, "auc", "gap")]["n_values"] == \
            rows[(scenario, imputer, "auc", "marginalised")]["n_values"]
        assert rows[(scenario, imputer, "auc", "majority")]["n_values"] == 20
    assert harness.audit_sign_convention(list(rows.values())) == []


def test_gap_sign_is_checked_on_every_draw(monkeypatch, tmp_path):
    original = metrics.point_metrics

    def skewed(*args):
        return {key: value + 0.1 if key[1] == "gap" else value
                for key, value in original(*args).items()}

    standin = harness.make_standin(str(tmp_path / "standin.csv"), seed=0,
                                   n_majority=500, n_marginalised=200, n_noise=1)
    config = _small_config(csv={"path": standin}, bootstrap_resamples=10)
    monkeypatch.setattr(metrics, "point_metrics", skewed)
    # with the report-level check off, only the per-draw check can stop the runs
    monkeypatch.setattr(harness, "audit_sign_convention", lambda rows: [])
    with pytest.raises(RuntimeError, match="gap sign-convention audit failed"):
        harness.run_simulation(config)
    with pytest.raises(RuntimeError, match="gap sign-convention audit failed"):
        harness.run_csv_audit(config)


def test_sign_audit_compares_means_over_one_set_of_draws():
    def row(group, mean, n_values):
        return {"scenario": "S1", "imputer": "GroupMean", "metric": "auc", "group": group,
                "mean": mean, "n_values": n_values}

    assert harness.audit_sign_convention(
        [row("marginalised", 0.8, 12), row("majority", 0.9, 12), row("gap", 0.0, 12)]) == \
        [("S1", "GroupMean", "auc")]
    assert harness.audit_sign_convention(
        [row("marginalised", 0.8, 12), row("majority", 0.9, 20), row("gap", 0.0, 12)]) == []


def test_simulation_deterministic_across_thread_counts(tmp_path):
    a = harness.run_simulation(_small_config(threads=1))
    b = harness.run_simulation(_small_config(threads=3))
    pa = a.write(str(tmp_path / "a"))
    pb = b.write(str(tmp_path / "b"))
    assert pathlib.Path(pa).read_bytes() == pathlib.Path(pb).read_bytes()


# two rows leave the 0.2 test partition empty: split raises inside every repetition
_EMPTY_TEST = {"n_majority": 1, "n_marginalised": 1}


@pytest.mark.parametrize("threads", [1, 2])
def test_a_repetition_error_reaches_the_caller_unchanged(threads):
    with pytest.raises(ConfigurationError) as error:
        harness.run_simulation(_small_config(population=dict(SMALL_POPULATION, **_EMPTY_TEST),
                                             threads=threads))
    assert type(error.value) is ConfigurationError
    assert str(error.value) == "partition with fraction 0.2 would be empty at n=2"
    assert multiprocessing.active_children() == []


def test_simulate_reports_a_worker_error_as_one_usage_error(tmp_path, capsys):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump({"population": _EMPTY_TEST, "repetitions": 2}))
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["simulate", "--config", str(path), "--threads", "2",
                  "--out", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        "missfair simulate: error: partition with fraction 0.2 would be empty at n=2"]
    assert "Traceback" not in err
    assert multiprocessing.active_children() == []


def test_simulation_starts_one_worker_per_repetition_at_most(monkeypatch):
    started = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    report = harness.run_simulation(_small_config(threads=3, repetitions=2))
    assert started == [2]
    assert {row["n_repetitions"] for row in report.rows} == {2}
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("threads, in_caller", [(1, 3), (2, 0)])
def test_only_one_thread_runs_the_repetitions_in_the_calling_process(monkeypatch, threads,
                                                                     in_caller):
    pids = []
    original = harness.generate

    def counted(spec):
        pids.append(os.getpid())
        return original(spec)

    monkeypatch.setattr(harness, "generate", counted)
    report = harness.run_simulation(_small_config(threads=threads, repetitions=3))
    assert pids == [os.getpid()] * in_caller
    assert {row["n_repetitions"] for row in report.rows} == {3}
    assert multiprocessing.active_children() == []


def test_simulation_contains_cell_errors(monkeypatch):
    calls = []
    original = impute.fit

    def flaky(train, spec):
        calls.append(spec.label())
        if spec.label() == "GroupMean":
            raise ConvergenceError("boom")
        return original(train, spec)

    monkeypatch.setattr(impute, "fit", flaky)
    report = harness.run_simulation(_small_config())
    rows = list(report.rows)
    failed = [r for r in rows if r["imputer"] == "GroupMean"]
    assert failed and all("ConvergenceError: boom" in r["error"] for r in failed)
    ok = [r for r in rows if r["imputer"] == "PopulationMean" and r["metric"] == "auc"]
    assert ok and all(r["error"] == "" for r in ok)


def test_programming_errors_in_a_cell_propagate(monkeypatch, tmp_path):
    def broken(train, spec):
        raise TypeError("stale signature")

    standin = harness.make_standin(str(tmp_path / "standin.csv"), seed=0,
                                   n_majority=500, n_marginalised=200, n_noise=1)
    config = _small_config()
    config["csv"] = {"path": standin}
    monkeypatch.setattr(impute, "fit", broken)
    with pytest.raises(TypeError, match="stale signature"):
        harness.run_simulation(config)
    with pytest.raises(TypeError, match="stale signature"):
        harness.run_csv_audit(config)


def test_unpenalised_model_with_indicators_writes_a_report():
    # every covariate's indicator made all-zero design rows, and with no penalty
    # a singular Newton Hessian that escaped the cell as numpy's LinAlgError
    config = _small_config(repetitions=1, scenarios=["S1"],
                           imputers=[{"strategy": "population_mean", "append_indicators": True}])
    config["population"] = {**SMALL_POPULATION, "n_majority": 5000, "n_marginalised": 500}
    config["model"] = {**config["model"], "fixed_penalty": 0}
    rows = harness.run_simulation(config).rows
    auc = [r for r in rows if r["metric"] == "auc"]
    assert len(auc) == 4 and all(r["error"] == "" and r["n_values"] == 1 for r in auc)


def test_simulation_tunes_penalty_and_completes_each_row_once(monkeypatch):
    transformed, tuned = [], []
    original_transform, original_train = impute.transform, predict.train

    def counting_transform(fitted, data):
        transformed.append(data.n)
        return original_transform(fitted, data)

    def spying_train(train_result, train_outcome, spec=None, tune_result=None,
                     tune_outcome=None):
        tuned.append(tune_result is not None)
        return original_train(train_result, train_outcome, spec, tune_result, tune_outcome)

    monkeypatch.setattr(impute, "transform", counting_transform)
    monkeypatch.setattr(predict, "train", spying_train)
    config = _small_config(scenarios=["S2", "S3"],
                           split={"train": 0.7, "tune": 0.1, "test": 0.2})
    rows = list(harness.run_simulation(config).rows)
    assert all(r["error"] == "" for r in rows)
    recon = [r for r in rows if r["metric"] == "reconstruction"]
    assert recon and all(r["n_values"] == r["n_repetitions"] for r in recon)
    cells = config["repetitions"] * 2 * len(config["imputers"])
    n = SMALL_POPULATION["n_majority"] + SMALL_POPULATION["n_marginalised"]
    assert sum(transformed) == cells * n
    assert tuned == [True] * cells


def test_repetition_seeds_differ_but_runs_reproduce():
    config = _small_config()
    a, _ = harness._simulate_repetition(config, 0)
    b, _ = harness._simulate_repetition(config, 0)
    c, _ = harness._simulate_repetition(config, 1)
    key = ("S1", "PopulationMean")

    def _equal(x, y):
        return x.keys() == y.keys() and all(
            (math.isnan(x[k]) and math.isnan(y[k])) or x[k] == y[k] for k in x)

    assert _equal(a[key], b[key])
    assert not _equal(a[key], c[key])


def test_a_one_class_tuning_partition_is_a_contained_cell_error():
    rng = np.random.default_rng(9)

    def part(n, outcome):
        cohort = Cohort(rng.standard_normal((n, 2)), (rng.random(n) < 0.3).astype(int), outcome)
        observed = np.ones((n, 2), dtype=bool)
        observed[::4, 1] = False
        return MaskedCohort(cohort, ObservationMask(observed))
    partitions = (part(400, rng.integers(0, 2, 400)), part(50, np.zeros(50, dtype=int)),
                  part(100, rng.integers(0, 2, 100)))
    values, error = harness._run_cell(impute.ImputerSpec("population_mean"),
                                      predict.LogisticSpec(), partitions, (0.25,), target=1)
    assert values is None
    assert error == ("UndefinedMetricError: the tuning partition holds one outcome class, "
                     "so its AUC cannot choose a penalty")


def test_read_csv_cohort_missing_cells(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x1,x2,group,outcome\n1.0,2.0,0,1\n3.0,,1,0\n,5.0,1,1\n")
    cohort, mask, names = harness.read_csv_cohort(str(path), "group", "outcome")
    assert names == ["x1", "x2"]
    assert cohort.n == 3
    assert not mask.observed[1, 1] and not mask.observed[2, 0]
    assert mask.observed[0].all()
    assert cohort.group.tolist() == [0, 1, 1]
    assert cohort.outcome.tolist() == [1, 0, 1]


@pytest.mark.parametrize("body, where", [
    ("1.0,2.0,0,1\n3.0,1,0\n", "line 3:"),
    ("1.0,2.0,0,1\n3.0,2.0,1,0,9\n", "line 3:"),
    ("1.0,abc,0,1\n", "line 2, column 'x2'"),
    ("1.0,2.0,0,1\nnan,2.0,1,0\n", "line 3, column 'x1'"),
    ("inf,2.0,0,1\n", "line 2, column 'x1'"),
    ("1.0,2.0,0,1\n1.0,2.0,1,1\n1.0,2.0,2,1\n", "line 4, column 'group'"),
    ("1.0,2.0,0,0\n1.0,2.0,1,1\n1.0,2.0,1,yes\n", "line 4, column 'outcome'"),
], ids=["short-row", "long-row", "non-numeric", "nan", "inf", "third-group", "third-outcome"])
def test_read_csv_cohort_rejects_malformed_cells(tmp_path, body, where):
    path = tmp_path / "t.csv"
    path.write_text("x1,x2,group,outcome\n" + body)
    with pytest.raises(ConfigurationError, match=where):
        harness.read_csv_cohort(str(path), "group", "outcome")


def _csv_with_blocks(path, n=2600, edits=()):
    """A CRLF table longer than one parse block; `edits` maps (row, column) to cell text."""
    rng = np.random.default_rng(3)
    rows = [[repr(v) for v in rng.standard_normal(3).tolist()] + [str(g), str(y)]
            for g, y in zip(rng.integers(0, 2, n), rng.integers(0, 2, n))]
    for (row, column), text in dict(edits).items():
        rows[row][column] = text
    path.write_bytes("".join(",".join(row) + "\r\n"
                             for row in [["x1", "x2", "x3", "group", "outcome"], *rows]).encode())
    return str(path)


_ODD_CELLS = {(5, 0): " 1.5 ", (6, 1): "1e-3", (7, 2): "-0", (2100, 0): "+.5",
              (2101, 1): "1_000", (2102, 2): "", (8, 0): '"2.5"', (2103, 3): " 1 ",
              (2104, 4): "0 "}


def _float_of_each_cell(path):
    """(covariates, group/outcome flags) of a `_csv_with_blocks` table read one cell at a
    time: float() of each stripped covariate cell, nan for an empty one, 1 for a label "1"."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    X = [[float(cell.strip()) if cell.strip() else math.nan for cell in row[:3]] for row in rows]
    return np.array(X), np.array([[int(cell.strip() == "1") for cell in row[3:]] for row in rows])


def _assert_reads_as_float_of_each_cell(path):
    cohort, mask, names = harness.read_csv_cohort(path)
    X, binary = _float_of_each_cell(path)
    assert names == ["x1", "x2", "x3"]
    assert cohort.covariates.tobytes() == np.nan_to_num(X).tobytes()
    assert np.array_equal(mask.observed, ~np.isnan(X))
    assert np.array_equal(np.column_stack([cohort.group, cohort.outcome]), binary)
    return cohort, mask


def test_read_csv_cohort_blocks_parse_bitwise_as_float_of_each_cell(tmp_path):
    path = _csv_with_blocks(tmp_path / "t.csv", edits=_ODD_CELLS)
    cohort, mask = _assert_reads_as_float_of_each_cell(path)
    X = cohort.covariates
    assert (X[5, 0], X[6, 1], X[8, 0], X[2100, 0], X[2101, 1]) == (1.5, 1e-3, 2.5, 0.5, 1000.0)
    assert np.signbit(X[7, 2]) and X[7, 2] == 0.0 and not mask.observed[2102, 2]
    assert cohort.group[2103] == 1 and cohort.outcome[2104] == 0


def test_read_csv_cohort_whitespace_only_cells_are_missing(tmp_path):
    path = _csv_with_blocks(tmp_path / "t.csv", edits={**_ODD_CELLS, (2200, 1): "   "})
    cohort, mask = _assert_reads_as_float_of_each_cell(path)
    assert np.flatnonzero(~mask.observed.ravel()).tolist() == [2102 * 3 + 2, 2200 * 3 + 1]
    assert cohort.covariates[2200, 1] == 0.0 and cohort.covariates[7, 2] == 0.0


@pytest.mark.parametrize("edits, message", [
    ({(2300, 4): "1,7"}, "line 2302: 6 fields where the header has 5"),
    ({(2300, 1): "inf"}, "line 2302, column 'x2': 'inf' is not a finite number"),
    ({(2300, 1): "  nan "}, "line 2302, column 'x2': 'nan' is not a finite number"),
    # the first block holds no group 0, the second holds 0 and then a third value
    ({**{(row, 3): "1" for row in range(2300)}, (2301, 3): "2"},
     "line 2303, column 'group': '2' is a third value besides '1' and '0'"),
], ids=["ragged", "non-finite", "nan", "third-label"])
def test_read_csv_cohort_names_a_bad_cell_in_a_later_block(tmp_path, edits, message):
    path = _csv_with_blocks(tmp_path / "t.csv", edits=edits)
    with pytest.raises(ConfigurationError) as error:
        harness.read_csv_cohort(path)
    assert str(error.value) == f"{path}, {message}"


def test_read_csv_cohort_names_the_first_bad_line_among_several(tmp_path):
    # the block check meets the ragged row (line 2306) first; the message names line 2302
    path = _csv_with_blocks(tmp_path / "t.csv",
                            edits={(2300, 1): "abc", (2302, 3): "2", (2304, 4): "1,7"})
    with pytest.raises(ConfigurationError) as error:
        harness.read_csv_cohort(path)
    assert str(error.value) == f"{path}, line 2302, column 'x2': 'abc' is not a finite number"


def test_read_csv_cohort_opens_a_malformed_table_once(tmp_path, monkeypatch):
    opened = []

    def counting_open(path, **kwargs):
        opened.append(path)
        return open(path, **kwargs)
    monkeypatch.setattr(harness, "_open", counting_open)
    path = _csv_with_blocks(tmp_path / "t.csv", edits={(2300, 1): "inf"})
    with pytest.raises(ConfigurationError, match="line 2302, column 'x2'"):
        harness.read_csv_cohort(path)
    assert opened == [path]


def test_read_csv_cohort_skips_blank_lines(tmp_path):
    def with_blank_lines(path):
        """A copy with a blank line inside the second parse block and one at the end."""
        lines = pathlib.Path(path).read_bytes().split(b"\r\n")   # header, 2600 rows, ""
        copy = tmp_path / "blank.csv"
        copy.write_bytes(b"\r\n".join(lines[:2102] + [b""] + lines[2102:]) + b"\r\n")
        return str(copy)

    plain = _csv_with_blocks(tmp_path / "plain.csv")
    blank = with_blank_lines(plain)
    (cohort, mask, names), expected = harness.read_csv_cohort(blank), harness.read_csv_cohort(plain)
    assert names == expected[2] and np.array_equal(mask.observed, expected[1].observed)
    for field in ("covariates", "group", "outcome"):
        assert np.array_equal(getattr(cohort, field), getattr(expected[0], field))
    blank = with_blank_lines(_csv_with_blocks(tmp_path / "bad.csv", edits={(2300, 1): "inf"}))
    with pytest.raises(ConfigurationError) as error:     # data row 2300 is now on line 2303
        harness.read_csv_cohort(blank)
    assert str(error.value) == f"{blank}, line 2303, column 'x2': 'inf' is not a finite number"


@pytest.mark.parametrize("header", ["x1, x2, group, outcome\n", "\nx1,x2,group,outcome\n",
                                    "\r\n\n x1 ,x2,group , outcome\n"],
                         ids=["spaced", "blank-first", "both"])
def test_read_csv_cohort_reads_the_header_like_a_data_row(tmp_path, header):
    path = tmp_path / "t.csv"
    path.write_text(header + "1.0,2.0,0,1\n3.0,,1,0\n")
    cohort, mask, names = harness.read_csv_cohort(str(path))
    assert names == ["x1", "x2"]
    assert cohort.group.tolist() == [0, 1] and cohort.outcome.tolist() == [1, 0]
    assert mask.observed.tolist() == [[True, True], [True, False]]


def test_read_csv_cohort_names_the_line_of_a_bad_cell_after_a_blank_first_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("\nx1,x2,group,outcome\n1.0,2.0,0,1\n3.0,abc,1,0\n")
    with pytest.raises(ConfigurationError) as error:
        harness.read_csv_cohort(str(path))
    assert str(error.value) == f"{path}, line 4, column 'x2': 'abc' is not a finite number"


def test_read_csv_cohort_skips_a_whitespace_only_line_before_the_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(" \t\nx1,x2,group,outcome\n1.0,2.0,0,1\n3.0,,1,0\n")
    cohort, mask, names = harness.read_csv_cohort(str(path))
    assert names == ["x1", "x2"]
    assert cohort.group.tolist() == [0, 1] and cohort.outcome.tolist() == [1, 0]
    assert cohort.covariates.tolist() == [[1.0, 2.0], [3.0, 0.0]]
    assert mask.observed.tolist() == [[True, True], [True, False]]


def test_read_csv_cohort_skips_a_whitespace_only_line_inside_the_table(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("group,x1,outcome\n1,0.5,0\n \t\n0,,1\n")
    cohort, mask, names = harness.read_csv_cohort(str(path))
    assert names == ["x1"]
    assert cohort.group.tolist() == [1, 0] and cohort.outcome.tolist() == [0, 1]
    assert cohort.covariates.tolist() == [[0.5], [0.0]]
    assert mask.observed.tolist() == [[True], [False]]
    path.write_text("group,x1,outcome\n1,0.5,0\n \t\n0,abc,1\n")
    with pytest.raises(ConfigurationError) as error:
        harness.read_csv_cohort(str(path))
    assert str(error.value) == f"{path}, line 4, column 'x1': 'abc' is not a finite number"


def test_read_csv_cohort_ignores_a_byte_order_mark(tmp_path):
    plain = _csv_with_blocks(tmp_path / "plain.csv", edits=_ODD_CELLS)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + pathlib.Path(plain).read_bytes())
    (cohort, mask, names), expected = harness.read_csv_cohort(str(marked)), \
        harness.read_csv_cohort(plain)
    assert names == expected[2] == ["x1", "x2", "x3"]
    for got, want in ((cohort.covariates, expected[0].covariates),
                      (cohort.group, expected[0].group), (cohort.outcome, expected[0].outcome),
                      (mask.observed, expected[1].observed)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # with the group column first, the mark stood before its name
    marked.write_bytes("\ufeffgroup,x1,outcome\n1,0.5,0\n0,,1\n".encode())
    assert harness.read_csv_cohort(str(marked))[2] == ["x1"]


def test_read_csv_cohort_rejects_a_repeated_column_name(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("group,x1,group,outcome\n1,0.5,1,0\n0,1.5,0,1\n")
    # the second group column was read as a covariate: the model saw the group
    with pytest.raises(ConfigurationError) as error:
        harness.read_csv_cohort(str(path))
    assert str(error.value) == "the CSV header names column 'group' more than once"
    path.write_text("group,x1, group,outcome\n1,0.5,1,0\n0,1.5,0,1\n")
    with pytest.raises(ConfigurationError, match="names column 'group' more than once"):
        harness.read_csv_cohort(str(path))


def test_read_csv_cohort_requires_columns(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ConfigurationError):
        harness.read_csv_cohort(str(path), "group", "outcome")
    # one column as both group and outcome read the group as the outcome
    with pytest.raises(ConfigurationError, match="group and outcome columns must differ"):
        harness.read_csv_cohort(str(path), "a", "a")


def test_make_standin_and_csv_audit(tmp_path):
    standin = harness.make_standin(str(tmp_path / "standin.csv"), seed=0,
                                   n_majority=3000, n_marginalised=600, n_noise=2)
    with open(standin) as handle:
        header = handle.readline().strip().split(",")
    assert header[-2:] == ["group", "outcome"]

    config = harness.load_config()
    config["csv"] = {"path": standin}
    config["imputers"] = [{"strategy": "population_mean"}, {"strategy": "group_mean"}]
    config["capacities"] = [0.25]
    config["bootstrap_resamples"] = 25
    report = harness.run_csv_audit(config)
    rows = [r for r in report.rows if r["metric"]]
    assert {r["imputer"] for r in rows} == {"PopulationMean", "GroupMean"}
    aucs = [r for r in rows if r["metric"] == "auc" and r["group"] == "overall"]
    assert all(0.5 < r["mean"] <= 1.0 for r in aucs)
    assert all(r["lower"] <= r["mean"] <= r["upper"] for r in aucs)


def _audit_csv(capsys, tmp_path, out, *lines):
    """(exit code, report.csv bytes or None, stderr) of one audit-csv command on a small
    stand-in; `lines` are added to its config."""
    standin = tmp_path / "standin.csv"
    if not standin.exists():
        harness.make_standin(str(standin), seed=2, n_majority=1500, n_marginalised=300,
                             n_noise=1)
    config = tmp_path / "audit.yaml"
    config.write_text("\n".join(["bootstrap_resamples: 5", "capacities: [0.25]", *lines]) + "\n")
    try:
        code = cli.main(["audit-csv", "--config", str(config), "--input", str(standin),
                         "--out", str(tmp_path / out)])
    except SystemExit as exit_info:
        code = exit_info.code
    report = tmp_path / out / "report.csv"
    return code, report.read_bytes() if report.exists() else None, capsys.readouterr().err


def _record_pools(monkeypatch):
    """A list to which every worker pool started from now on appends its worker count."""
    started = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return started


def test_csv_audit_writes_the_same_bytes_on_one_and_two_cpus(monkeypatch, capsys, tmp_path):
    original = impute.fit

    def flaky(train, spec):
        if spec.label() == "GroupMean":
            raise ConvergenceError("no fit")
        return original(train, spec)

    monkeypatch.setattr(impute, "fit", flaky)
    outputs = []
    for cpus in (1, 2):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        outputs.append(_audit_csv(capsys, tmp_path, f"cpus{cpus}"))
    assert outputs[0] == outputs[1]
    code, report, _ = outputs[0]
    assert code == 0 and b"csv,GroupMean,,,nan,nan,nan,nan,0,5,ConvergenceError: no fit" in report
    assert len({line.split(b",")[1] for line in report.splitlines()[1:]}) == 5
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus, imputers, workers", [(2, 5, [2]), (4, 2, [2]), (1, 5, []),
                                                     (2, 1, [])])
def test_csv_audit_starts_one_worker_per_cpu_up_to_the_imputers(monkeypatch, capsys, tmp_path,
                                                                cpus, imputers, workers):
    started = _record_pools(monkeypatch)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    battery = harness.DEFAULT_CONFIG["imputers"][:imputers]
    code, report, _ = _audit_csv(capsys, tmp_path, "out", f"imputers: {json.dumps(battery)}",
                                 "model: {penalty_grid: [1.0]}")
    assert code == 0 and started == workers
    assert len({line.split(b",")[1] for line in report.splitlines()[1:]}) == imputers
    assert multiprocessing.active_children() == []


def test_a_one_thread_simulation_starts_no_worker(monkeypatch):
    started = _record_pools(monkeypatch)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 4)
    harness.run_simulation(_small_config(threads=1))
    assert started == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_csv_audit_cell_bug_reaches_the_caller_unchanged(monkeypatch, tmp_path, cpus):
    def broken(fitted, data):
        raise TypeError("stale transform signature")

    standin = harness.make_standin(str(tmp_path / "standin.csv"), seed=0,
                                   n_majority=500, n_marginalised=200, n_noise=1)
    config = _small_config(csv={"path": standin}, bootstrap_resamples=5)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(impute, "transform", broken)
    with pytest.raises(TypeError) as error:
        harness.run_csv_audit(config)
    assert type(error.value) is TypeError and str(error.value) == "stale transform signature"
    assert multiprocessing.active_children() == []


def test_region_scan_report(tmp_path):
    config = harness.load_config()
    config["region"]["steps"] = 21
    report = harness.run_region_scan(config)
    assert len(report.rows) == 441
    diffs = [r["diff"] for r in report.rows if r["feasible"] and not math.isnan(r["diff"])]
    assert any(d > 0 for d in diffs) and any(d < 0 for d in diffs)
    path = report.write(str(tmp_path))
    with open(path) as handle:
        parsed = list(csv.DictReader(handle))
    assert len(parsed) == 441


def _per_value_write(rows, path):
    """The writer Report.write replaced: every value through one format call."""
    def format_value(value):
        return format(value, ".10g") if isinstance(value, float) else value
    with open(path, "w", newline="") as handle:
        fields = list(rows[0])
        writer = csv.writer(handle)
        writer.writerow(fields)
        writer.writerows([format_value(row[k]) for k in fields] for row in rows)


def test_report_write_matches_the_per_value_writer(tmp_path):
    floats = [math.nan, -0.0, 0.0, 1e-17, 0.1, -0.0, 1e-17, math.nan, 0.0, 2.5e300]
    columns = {
        "listed": floats,
        "array": np.array(floats[::-1]),
        "count": np.arange(len(floats)) - 3,
        "n": list(range(len(floats))),
        "text": ['a, "quoted" cell', "", "plain", "x,y", '"', "", "a", "b", "c", "d"],
        "mixed": [1.5, 2, "s", None, -0.0, 0.0, math.nan, 1e-17, True, 3],
    }
    report = harness.Report(columns, {"mode": "test"})
    path = report.write(str(tmp_path / "columns"))
    _per_value_write(report.rows, str(tmp_path / "reference.csv"))
    with open(path, "rb") as ours, open(tmp_path / "reference.csv", "rb") as reference:
        assert ours.read() == reference.read()
    assert report.rows[1]["count"] == -2 and type(report.rows[1]["count"]) is int

    empty = tmp_path / "empty"
    harness.Report({}, {"mode": "test"}).write(str(empty))
    harness.Report({"x": np.array([])}, {"mode": "test"}).write(str(tmp_path / "no-rows"))
    assert not (empty / "report.csv").exists() and (empty / "manifest.json").exists()
    assert not (tmp_path / "no-rows" / "report.csv").exists()


def test_theorem_validation_runs_small():
    lines, ok = harness.run_theorem_validation(n_cases=2, n=150000, seed=0, tolerance=0.1)
    assert ok
    assert len(lines) == 5


def _validate_theorems(capsys, *argv):
    """(exit code, stdout, stderr) of one validate-theorems command."""
    try:
        code = cli.main(["validate-theorems", *argv])
    except SystemExit as exit_info:
        code = exit_info.code
    return (code, *capsys.readouterr())


def test_theorem_validation_prints_the_same_bytes_on_one_and_two_cpus(monkeypatch, capsys):
    outputs = []
    for cpus in (1, 2):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        outputs.append(_validate_theorems(capsys, "--cases", "3", "--samples", "20000"))
    assert outputs[0] == outputs[1]
    assert outputs[0][1].count("\n") == 1 + 2 * 3 + 1
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus, cases, workers", [(2, 3, [2]), (4, 2, [2]), (1, 3, []),
                                                  (2, 1, [])])
def test_theorem_validation_starts_one_worker_per_cpu_up_to_the_cases(monkeypatch, cpus,
                                                                      cases, workers):
    started = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    lines, _ = harness.run_theorem_validation(n_cases=cases, n=2000, seed=1)
    assert started == workers
    assert len(lines) == 1 + 2 * cases
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus, cases", [(1, 3), (2, 1)])
def test_one_cpu_or_one_case_validates_in_the_calling_process(monkeypatch, cpus, cases):
    pids = []
    original = theory.monte_carlo_validate

    def counted(*args, **kwargs):
        pids.append(os.getpid())
        return original(*args, **kwargs)

    monkeypatch.setattr(theory, "monte_carlo_validate", counted)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    harness.run_theorem_validation(n_cases=cases, n=2000, seed=1)
    assert pids == [os.getpid()] * cases


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_validation_case_error_reaches_the_caller_unchanged(monkeypatch, capsys, cpus):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    message = "n=1 at r_g=0.4439810717600817 leaves the marginalised group no rows"
    with pytest.raises(ConfigurationError) as error:
        harness.run_theorem_validation(n_cases=3, n=1, seed=0)
    assert type(error.value) is ConfigurationError and str(error.value) == message
    code, out, err = _validate_theorems(capsys, "--cases", "3", "--samples", "1")
    assert code == 2 and out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"missfair validate-theorems: error: {message}"]
    assert "Traceback" not in err
    assert multiprocessing.active_children() == []


def test_usable_cpus_counts_the_cpus_this_process_may_run_on(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert harness._usable_cpus() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert harness._usable_cpus() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert harness._usable_cpus() == 3


@pytest.mark.parametrize("args", [
    (["--cases", "0"], "must be greater than 0"),   # printed "all within tolerance"
    (["--samples", "0"], "must be greater than 0"),  # ended in a ConfigurationError traceback
    (["--tolerance", "0"], "must be greater than 0"),
    (["--tolerance", "-0.5"], "must be greater than 0"),
    # a ConfigurationError traceback with exit code 1
    (["--cases", "1", "--samples", "1"], "leaves the marginalised group no rows"),
    (["--seed", "-1"], "must be 0 or more"),    # numpy's ValueError traceback, exit 1
])
def test_validate_theorems_rejects_non_positive_arguments(capsys, args):
    argv, message = args
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["validate-theorems", *argv])
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


def test_make_standin_rejects_a_negative_seed_and_an_unopenable_path(capsys, tmp_path):
    # each died with a traceback and exit 1: numpy's ValueError, then FileNotFoundError
    for argv in (["--out", str(tmp_path / "s.csv"), "--seed", "-1"],
                 ["--out", str(tmp_path / "absent" / "s.csv")]):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["make-standin", *argv])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert "wrote" not in out and err.count("error:") == 1
    assert list(tmp_path.iterdir()) == []


def test_region_scan_takes_no_seed(capsys, tmp_path):
    # the scan draws nothing at random: --seed 5 and --seed 6 wrote the same report
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["region-scan", "--seed", "5", "--out", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_reports_configuration_errors_as_usage_errors(capsys, tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("region: {steps: 0}\n")
    absent = tmp_path / "absent.file"
    for argv in (["region-scan", "--config", str(path)], ["audit-csv"],
                 ["simulate", "--config", str(absent)], ["audit-csv", "--input", str(absent)]):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*argv, "--out", str(tmp_path / "out")])
        assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert "wrote" not in out and err.count("error:") == 4
    # each error is reported with its subcommand's usage, as argparse reports its own
    assert [line.split(": error:")[0] for line in err.splitlines() if "error:" in line] == [
        "missfair region-scan", "missfair audit-csv", "missfair simulate", "missfair audit-csv"]
    assert err.count("usage: missfair simulate ") == 1
    assert "error: region.steps must be" in err and "error: csv.path must be set" in err
    assert err.count(f"error: cannot open {absent}: No such file or directory") == 2
    assert not (tmp_path / "out").exists()



def test_cli_rejects_an_unusable_output_dir_before_the_run(capsys, tmp_path, monkeypatch):
    afile = tmp_path / "afile"
    afile.write_text("")
    config = tmp_path / "run.yaml"
    config.write_text("region: {steps: 3}\n")

    def never(config):
        raise AssertionError("the runner was called")

    for name in ("run_simulation", "run_csv_audit", "run_region_scan"):
        monkeypatch.setattr(harness, name, never)
    for command in ("simulate", "audit-csv", "region-scan"):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, "--config", str(config), "--out", str(afile / "out")])
        assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert "wrote" not in out and "Traceback" not in err
    assert err.count(f"error: cannot write {afile / 'out'}: {afile} is not a writable "
                     "directory") == 3


def test_audit_csv_flags_layer_over_the_config_csv_section(tmp_path):
    standin = harness.make_standin(str(tmp_path / "standin.csv"), seed=1,
                                   n_majority=1500, n_marginalised=300, n_noise=1)
    common = ["imputers: [{strategy: population_mean}, {strategy: group_mean}]",
              "bootstrap_resamples: 5", "capacities: [0.25]"]
    whole, partial = tmp_path / "whole.yaml", tmp_path / "partial.yaml"
    whole.write_text("\n".join(common + [
        f"csv: {{path: {standin}, group_column: group, outcome_column: outcome}}"]) + "\n")
    partial.write_text("\n".join(common + [f"csv: {{path: {standin}}}"]) + "\n")
    assert cli.main(["audit-csv", "--config", str(whole), "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["audit-csv", "--config", str(partial), "--group-column", "group",
                     "--outcome-column", "outcome", "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "report.csv").read_bytes() == \
        (tmp_path / "b" / "report.csv").read_bytes()
