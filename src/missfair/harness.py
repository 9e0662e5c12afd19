"""Config-driven experiment runner producing deterministic CSV reports.

Three entry points: `run_simulation` (synthetic cohorts, repeated end to end),
`run_csv_audit` (one external table, bootstrap CIs), and `run_region_scan`
(closed-form gap maps over a correlation grid). All of them write a long-format
`report.csv` plus a `manifest.json` capturing the resolved configuration.
`run_simulation` runs `threads` repetitions at once, `run_csv_audit` one imputer cell
per usable CPU and `run_theorem_validation` (a Monte Carlo check of the closed forms)
one case per usable CPU, each in a worker process; with one worker they run one after
another in the calling process. Their output is the same for any number of workers.
"""

import concurrent.futures
import copy
import csv
import itertools
import json
import math
import os
from array import array
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np
import yaml

from . import impute, linalg_stat, metrics, predict, theory
from .data_model import Cohort, ConfigurationError, ObservationMask, SplitSpec, split
from .missingness import ScenarioSpec, apply_scenario, rho_feasible_bound
from .synthgen import ClusterSpec, PopulationSpec, generate

DEFAULT_CONFIG = {
    "seed": 20240601,
    "repetitions": 100,
    "threads": 1,
    "output_dir": "results",
    "population": {
        "n_majority": 100000,
        "n_marginalised": 1000,
        "prevalence_majority": 0.66,
        "prevalence_marginalised": 0.66,
        "negative_cluster": {"mean": [0.0, 0.0], "variance": 0.0625},
        "positive_majority_cluster": {"mean": [0.0, 1.0], "variance": 0.0625},
        "positive_marginalised_cluster": {"mean": [1.0, 0.0], "variance": 0.0625},
        "correlate_x2_with_x1": False,
    },
    "scenarios": ["S1", "S2", "S3"],
    "imputers": [
        {"strategy": "population_mean"},
        {"strategy": "group_mean"},
        {"strategy": "mice"},
        {"strategy": "group_mice"},
        {"strategy": "group_mice", "append_indicators": True},
    ],
    "model": {"fixed_penalty": 1.0, "penalty_grid": [0.1, 1.0, 10.0, 100.0]},
    "split": {"train": 0.8, "tune": 0.0, "test": 0.2},
    "capacities": [0.1, 0.25, 0.5],
    "bootstrap_resamples": 100,
    "region": {
        "alpha_g": 0.7, "alpha_ng": 0.8, "r_g": 0.25,
        "mu_obs_g": 0.5, "mu_obs_ng": 0.0, "sigma": 0.5,
        "rho_min": -0.3, "rho_max": 0.3, "steps": 101,
    },
    "csv": None,
}

# Domain errors that contain one cell of a run; anything else is a bug and propagates.
CELL_ERRORS = (ConfigurationError, predict.ConvergenceError, linalg_stat.SingularSystemError,
               metrics.UndefinedMetricError, metrics.UnreliableBootstrapError)


def _merge(base, override):
    out = dict(base)
    for key, value in (override or {}).items():
        if key not in base:
            raise ConfigurationError(f"unknown configuration key: {key}")
        # a section's given values over its defaults; `_plan` checks every nested key
        out[key] = ({**base[key], **value} if isinstance(base[key], dict)
                    and isinstance(value, dict) else value)
    return out


def _open(path, **kwargs):
    """open(path, ...); a path that cannot be opened raises ConfigurationError naming it."""
    try:
        return open(path, **kwargs)
    except OSError as exc:
        raise ConfigurationError(f"cannot open {path}: {exc.strerror}") from None


def load_config(path=None, overrides=None):
    """Resolve a run configuration: defaults, then YAML file, then CLI overrides."""
    config = DEFAULT_CONFIG
    if path is not None:
        with _open(path, mode="rb") as handle:     # PyYAML reads UTF-8 or UTF-16, as YAML says
            try:
                loaded = yaml.safe_load(handle) or {}
            except yaml.YAMLError as exc:
                message = " ".join(str(exc).split())     # one line, as a usage error prints
                raise ConfigurationError(f"cannot parse {path}: {message}") from None
        if not isinstance(loaded, dict):
            raise ConfigurationError("configuration file must hold a mapping")
        config = _merge(config, loaded)
    config = _merge(config, {k: v for k, v in (overrides or {}).items() if v is not None})
    _plan(config)
    return copy.deepcopy(config)    # editing a run's config must not touch the defaults


def _plan(config):
    """Seed-free specs of every section and the run settings ("run"); the runners stamp
    the seeds. `_entry` reads every value, so what loads is what runs. A section that
    cannot be built, or a scenario or imputer entry that repeats a report cell, raises
    ConfigurationError naming its key. `csv` is None when the section is unset.
    """
    for section in ("scenarios", "imputers"):
        if not (isinstance(config[section], list) and config[section]):
            raise ConfigurationError(f"{section} must be a non-empty list, got {config[section]!r}")
    population = _entry("population", PopulationSpec, config["population"], _POPULATION_KINDS)
    d = len(population.negative_cluster.mean)
    plan = {
        "run": _entry("", dict, {key: config[key] for key in _RUN_KINDS}, _RUN_KINDS),
        "population": population,
        "split": _entry("split", _split_spec, config["split"],
                        dict.fromkeys(("train", "tune", "test"), _RATE)),
        "model": _entry("model", predict.LogisticSpec, config["model"], _MODEL_KINDS),
        "region": _entry("region", _region_spec, config["region"], _REGION_KINDS),
        "scenarios": [_entry(f"scenarios[{i}]", partial(_scenario_spec, d),
                             {"scenario": entry} if isinstance(entry, str) else entry,
                             _SCENARIO_KINDS)
                      for i, entry in enumerate(config["scenarios"])],
        "imputers": [_entry(f"imputers[{i}]", impute.ImputerSpec, entry, _IMPUTER_KINDS)
                     for i, entry in enumerate(config["imputers"])],
        "csv": None if config["csv"] is None else _entry("csv", _csv_spec, config["csv"],
                                                         _CSV_KINDS),
    }
    # a report cell is keyed by (scenario, imputer label) and a row by its metric's label,
    # which prints the capacity with :g: a repeat would merge two cells or two rows
    for section, labels in (("scenarios", [spec.scenario for spec in plan["scenarios"]]),
                            ("imputers", [spec.label() for spec in plan["imputers"]]),
                            ("capacities", [f"{c:g}" for c in plan["run"]["capacities"]])):
        for i, label in enumerate(labels):
            if label in labels[:i]:
                raise ConfigurationError(f"{section}[{i}] must be unique, got a second {label}")
    return plan


def _entry(where, build, entry, kinds):
    """build(**values), each value of the mapping `entry` read by its kind; an omitted key
    keeps build's default. A value its kind cannot read raises `<where>.<key> must be
    <requirement>, got <value>`; a non-mapping, a misspelled key (which would silently run
    its default) or values `build` rejects raise `<where> must be a usable entry (...)`."""
    if not isinstance(entry, dict):
        problem = TypeError(f"expected a mapping, got {entry!r}")
    elif unknown := sorted(entry.keys() - kinds.keys()):
        problem = ValueError(f"unknown key {unknown[0]!r}")
    else:
        values = {key: kinds[key](f"{where}.{key}" if where else key, value)
                  for key, value in entry.items()}
        try:
            return build(**values)
        except (TypeError, ValueError) as exc:
            problem = exc
    raise ConfigurationError(
        f"{where} must be a usable entry ({type(problem).__name__}: {problem})") from problem


class _Kind(NamedTuple):
    """How `_entry` reads a key: `read` returns the value as the specs take it, or raises
    TypeError or ValueError where the value is not `requirement`."""
    requirement: str
    read: Callable

    def __call__(self, where, value):
        try:
            return self.read(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigurationError(f"{where} must be {self.requirement}, got {value!r}") from None


def _typed(kind, ok=lambda value: True):
    """Reads a value already of type `kind` that passes `ok`; a bool is only a bool."""
    def read(value):
        if isinstance(value, kind) and isinstance(value, bool) == (kind is bool) and ok(value):
            return value
        raise TypeError
    return read


def _number(ok=lambda number: True):
    """Reads a finite number that passes `ok`, given as a number or as numeric text such
    as "1e-3", which YAML keeps as text; a bool is not a number."""
    def read(value):
        number = math.nan if isinstance(value, bool) else float(value)
        if math.isfinite(number) and ok(number):
            return number
        raise ValueError
    return read


def _items(read):
    """Reads a list, as a tuple, whose every item `read` reads."""
    return lambda value: tuple(map(read, _typed((list, tuple))(value)))


_INT = _Kind("an integer", _typed(int))
_BOOL = _Kind("true or false", _typed(bool))
_STR = _Kind("a string", _typed(str))
_COUNT = _Kind("an integer >= 1", _typed(int, lambda value: value >= 1))
_FINITE = _Kind("a finite number", _number())
_RATE = _Kind("a number in [0, 1]", _number(lambda number: 0 <= number <= 1))
_POSITIVE = _Kind("a finite number > 0", _number(lambda number: number > 0))
_RUN_KINDS = {"seed": _Kind("an integer >= 0", _typed(int, lambda value: value >= 0)),
              "repetitions": _COUNT, "threads": _COUNT, "bootstrap_resamples": _COUNT,
              "capacities": _Kind("a list of numbers in (0, 1)",
                                  _items(_number(lambda capacity: 0 < capacity < 1))),
              "output_dir": _STR}
_CLUSTER_KINDS = {"mean": _Kind("a list of finite numbers", _items(_FINITE.read)),
                  "variance": _POSITIVE}
_POPULATION_KINDS = {
    "n_majority": _COUNT, "n_marginalised": _COUNT, "prevalence_majority": _RATE,
    "prevalence_marginalised": _RATE, "correlate_x2_with_x1": _BOOL,
    **dict.fromkeys(("negative_cluster", "positive_majority_cluster",
                     "positive_marginalised_cluster"),
                    lambda where, entry: _entry(where, ClusterSpec, entry, _CLUSTER_KINDS))}
_MODEL_KINDS = {
    "fixed_penalty": _Kind("a finite number >= 0", _number(lambda number: number >= 0)),
    "penalty_grid": _Kind("a list of finite numbers > 0", _items(_POSITIVE.read))}
_REGION_KINDS = {**dict.fromkeys(("alpha_g", "alpha_ng", "r_g", "mu_obs_g", "mu_obs_ng",
                                  "sigma", "rho_min", "rho_max"), _FINITE), "steps": _COUNT}
_SCENARIO_KINDS = {"scenario": _STR, "target_covariate": _INT, "trigger_covariate": _INT,
                   "threshold": _FINITE, "mask_probability": _RATE}
_IMPUTER_KINDS = {"strategy": _STR, "append_indicators": _BOOL, "mice_iterations": _COUNT,
                  "mice_draws": _COUNT}
_CSV_KINDS = {"path": _STR, "group_column": _STR, "outcome_column": _STR,
              **dict.fromkeys(("marginalised_value", "positive_value"),
                              _Kind("any value", lambda value: value)),
              "fractions": _Kind("a list of numbers in [0, 1]", _items(_RATE.read))}


def _scenario_spec(d, **values):
    """A ScenarioSpec over covariates [0, d)."""
    spec = ScenarioSpec(**values)
    if not (0 <= spec.target_covariate < d and 0 <= spec.trigger_covariate < d):
        raise ValueError(f"target_covariate and trigger_covariate must lie in [0, {d}), "
                         f"got {spec.target_covariate} and {spec.trigger_covariate}")
    return spec


def _region_spec(alpha_g, alpha_ng, r_g, mu_obs_g, mu_obs_ng, sigma, rho_min, rho_max, steps):
    """The region section as the scan's base TheoremInputs and its rho grid."""
    return theory.TheoremInputs(
        alpha_g=alpha_g, alpha_ng=alpha_ng, rho_g=0.0, rho_ng=0.0, r_g=r_g,
        sigma_g=sigma, sigma_ng=sigma, var_unobs_g=sigma * sigma, var_unobs_ng=sigma * sigma,
        mu_obs_g=mu_obs_g, mu_obs_ng=mu_obs_ng,
    ), np.linspace(rho_min, rho_max, steps)


def _csv_spec(fractions=(0.8, 0.1, 0.1), **arguments):
    """The csv section as (read_csv_cohort keyword arguments, seed-free SplitSpec);
    an omitted column or value keeps read_csv_cohort's default."""
    if len(fractions) != 3:
        raise ValueError(f"fractions must be three numbers (train, tune, test), got {fractions!r}")
    return arguments, _split_spec(*fractions)


def _split_spec(train, tune, test):
    """A seed-free SplitSpec. The model is fitted on the train rows and scored on the
    test rows, so both fractions must be > 0; tune 0 leaves the penalty fixed."""
    spec = SplitSpec(train, tune, test)
    if not (train > 0 and test > 0):
        raise ValueError(f"train and test fractions must be > 0, got {train} and {test}")
    return spec


def _derived_seed(*entropy):
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def _run_cell(imputer_spec, logistic_spec, partitions, capacities, target=None,
              resamples=0, bootstrap_seed=0):
    """Fit on train, complete each partition once, train, score test; (values, error).

    `values` maps (metric, group) to a test-row metric, or to (value, Summary)
    with `resamples`; `target` adds its reconstruction error. A domain error
    contains the cell as (None, message); others propagate, as does a defined
    gap that is not marginalised minus majority (RuntimeError).
    """
    train, tune, test = partitions
    try:
        fitted = impute.fit(train, imputer_spec)
        done = [(part, impute.transform(fitted, part)) for part in (train, tune)
                if part is not None]
        model = predict.train(done[0][1], train.outcome, logistic_spec,
                              *((done[1][1], tune.outcome) if tune is not None else ()))
        done.append((test, impute.transform(fitted, test)))
        scores = predict.predict(model, done[-1][1])
        values = metrics.point_metrics(scores, test.outcome, test.group, capacities)
        if target is not None:
            recon = metrics.reconstruction_error(done, target)
            values.update({("reconstruction", g): getattr(recon, g) for g in metrics.GROUPS})
        wrong = sorted(metric for (metric, group), gap in values.items()
                       if group == "gap" and not math.isnan(gap)
                       and gap != values[(metric, "marginalised")] - values[(metric, "majority")])
        if wrong:
            raise RuntimeError(f"gap sign-convention audit failed: {imputer_spec.label()} {wrong}")
        del done    # scored: free the completions before resampling
        if resamples:
            summaries = metrics.bootstrap(
                partial(metrics.score_metrics, scores, test.outcome, test.group, capacities),
                test.n, n_resamples=resamples, seed=bootstrap_seed)
            values = {key: (value, summaries[key]) for key, value in values.items()}
        return values, None
    except CELL_ERRORS as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _simulate_repetition(config, rep):
    """One end-to-end repetition; returns (records, errors) keyed by cell."""
    plan = _plan(config)
    seed = plan["run"]["seed"]
    cohort = generate(replace(plan["population"], seed=_derived_seed(seed, rep, 0)))
    split_spec = replace(plan["split"], seed=_derived_seed(seed, rep, 1))
    records, errors = {}, {}
    for s_index, scenario_spec in enumerate(plan["scenarios"]):
        mask = apply_scenario(cohort, replace(scenario_spec,
                                              seed=_derived_seed(seed, rep, 2, s_index)))
        # the repetition is the unit that runs at once, so its cells run in this process
        for label, values, error in _run_imputers(plan, rep, split(cohort, mask, split_spec),
                                                  scenario_spec.target_covariate, workers=1):
            if error:
                errors[(scenario_spec.scenario, label)] = error
            else:
                records[(scenario_spec.scenario, label)] = values
    return records, errors


def _run_imputers(plan, rep, partitions, target=None, resamples=0, *, workers):
    """(imputer label, values, error) of every configured imputer's `_run_cell` on one
    split, in configuration order, on up to `workers` worker processes; repetition `rep`
    stamps the imputer and bootstrap seeds, so no cell reads another's result."""
    seed = plan["run"]["seed"]
    specs = [replace(spec, seed=_derived_seed(seed, rep, 3, i))
             for i, spec in enumerate(plan["imputers"])]
    shared = map(itertools.repeat, (plan["model"], partitions, plan["run"]["capacities"],
                                    target, resamples))
    cells = _map(_run_cell, specs, *shared,
                 [_derived_seed(seed, rep, 4, i) for i in range(len(specs))], workers=workers)
    return [(spec.label(), *cell) for spec, cell in zip(specs, cells)]


@dataclass(frozen=True)
class Report:
    columns: dict        # column name -> one value per row, in row order
    manifest: dict

    @property
    def rows(self):
        """The report as dict rows, rebuilt from the columns."""
        values = [c.tolist() if isinstance(c, np.ndarray) else c for c in self.columns.values()]
        return tuple(dict(zip(self.columns, row)) for row in zip(*values))

    def write(self, output_dir):
        os.makedirs(output_dir, exist_ok=True)
        report_path = os.path.join(output_dir, "report.csv")
        formatted = [_format_column(column, ".10g") for column in self.columns.values()]
        if formatted and formatted[0]:
            with open(report_path, "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(self.columns)
                writer.writerows(zip(*formatted))
        with open(os.path.join(output_dir, "manifest.json"), "w") as handle:
            json.dump(self.manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return report_path


def _format_column(values, spec):
    """One column's csv cells: each float formatted with `spec`, any other value
    left for csv.writer. A column of floats is formatted once per distinct bit
    pattern, which keeps -0.0 apart from 0.0. A numpy column is float64 or integer."""
    if isinstance(values, np.ndarray):
        if values.dtype != np.float64:
            return values.tolist()
    elif all(isinstance(v, float) for v in values):
        values = np.array(values, dtype=np.float64)
    else:
        return [format(v, spec) if isinstance(v, float) else v for v in values]
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array([format(v, spec) for v in bits.view(np.float64).tolist()], dtype=object)
    return text[inverse].tolist()


def _row(cell, n_repetitions, error="", metric="", group="", mean=math.nan, std=math.nan,
         lower=math.nan, upper=math.nan, n_values=0):
    """One report row; the defaults give the row standing in for a cell with no value."""
    return {"scenario": cell[0], "imputer": cell[1], "metric": metric, "group": group,
            "mean": mean, "std": std, "lower": lower, "upper": upper,
            "n_values": n_values, "n_repetitions": n_repetitions, "error": error}


def _aggregate(results, repetitions):
    """Long-format rows, each summarised from one row of a (report rows x repetitions)
    array of the records, nan where a cell errored or a metric is undefined."""
    keys = sorted({(cell, *key) for records, _ in results
                   for cell, values in records.items() for key in values})
    index = {key: i for i, key in enumerate(keys)}
    table = np.full((len(keys), repetitions), math.nan)
    messages = {}
    for rep, (records, errors) in enumerate(results):
        for cell, values in records.items():
            for (metric, group), value in values.items():
                table[index[(cell, metric, group)], rep] = value
        for cell, message in errors.items():
            messages.setdefault(cell, set()).add(message)
    messages = {cell: "; ".join(sorted(texts)) for cell, texts in messages.items()}
    rows = [_row(cell, repetitions, messages.get(cell, ""), metric, group,
                 *metrics.summarise(values)[:5])
            for (cell, metric, group), values in zip(keys, table)]
    unscored = sorted(messages.keys() - {cell for cell, _, _ in keys})
    return rows + [_row(cell, repetitions, messages[cell]) for cell in unscored]


def audit_sign_convention(rows, tolerance=1e-9):
    """Check every gap row's mean equals marginalised minus majority; returns problems.

    Means are compared where the three rows hold equally many values: a gap is
    defined exactly where both groups are, so equal counts are one set of draws.
    The rounding of the sums grows with the means, so a gap may miss by `tolerance`
    times the largest of 1 and the two group means' magnitudes.
    """
    table = {(r["scenario"], r["imputer"], r["metric"], r["group"]): (r["mean"], r["n_values"])
             for r in rows}
    problems = []
    for (scenario, imputer, metric, group), (value, count) in table.items():
        marg = table.get((scenario, imputer, metric, "marginalised"))
        maj = table.get((scenario, imputer, metric, "majority"))
        if group != "gap" or marg is None or maj is None or not count == marg[1] == maj[1]:
            continue
        scale = max(1.0, abs(marg[0]), abs(maj[0]))
        if not math.isnan(value) and abs(value - (marg[0] - maj[0])) > tolerance * scale:
            problems.append((scenario, imputer, metric))
    return problems


def run_simulation(config):
    """Repeat generate/mask/split/impute/train/audit; aggregate across repetitions."""
    run = _plan(config)["run"]
    results = _map(partial(_simulate_repetition, config), range(run["repetitions"]),
                   workers=run["threads"])
    return _audited_report(_aggregate(results, run["repetitions"]),
                           {"mode": "simulate", "config": _manifest_config(config)})


def _map(function, *iterables, workers):
    """list(map(function, *iterables)) on min(workers, number of items) worker processes,
    in item order; a worker's exception reaches the caller unchanged. With one worker
    the calling process runs every item, so `function` need not pickle."""
    workers = min(workers, len(iterables[0]))
    if workers <= 1:
        return list(map(function, *iterables))
    # the pool class is looked up here, so a one-worker run never imports multiprocessing
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(function, *iterables))


def _usable_cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _audited_report(rows, manifest):
    problems = audit_sign_convention(rows)
    if problems:
        raise RuntimeError(f"gap sign-convention audit failed for cells: {problems}")
    return Report({name: [row[name] for row in rows] for name in (rows[0] if rows else ())},
                  manifest)


def _manifest_config(config):
    out = {k: v for k, v in config.items() if k != "csv" or v is not None}
    return json.loads(json.dumps(out))


# read_csv_cohort parses a block of rows at a time: numpy's object-to-float cast calls
# float() once per cell, without holding every row's strings. A block with a bad line
# ends the read, and a walk over that block alone names the line.
_CSV_BLOCK_ROWS = 2048


def read_csv_cohort(path, group_column="group", outcome_column="outcome",
                    marginalised_value="1", positive_value="1"):
    """Load an external table: empty covariate cells become missing entries.

    All columns except the group and outcome columns are treated as numeric
    covariates. Returns (Cohort, ObservationMask, covariate_names); ground truth
    at missing positions is unknowable, so those cells carry 0 under the mask.
    Cells and header names are stripped, so a whitespace-only covariate cell is
    missing too, and blank or whitespace-only lines (before the header too) and a
    leading byte-order mark are skipped. A header that names a column twice
    raises ConfigurationError; so do ragged rows, non-finite covariates and a
    third value in the group or outcome column, naming the first bad line and its column,
    and a byte that is not UTF-8 text, naming its line.
    """
    if group_column == outcome_column:
        raise ConfigurationError(f"the group and outcome columns must differ, both are "
                                 f"{group_column!r}")
    try:
        X, binary, names = _read_table(path, group_column, outcome_column,
                                       (str(marginalised_value), str(positive_value)))
    except UnicodeDecodeError:
        _raise_not_utf8(path)
        raise
    if not len(X) or not names:
        raise ConfigurationError("CSV needs at least one row and one covariate column")
    group, outcome = binary.T
    return Cohort(np.nan_to_num(X), group, outcome), ObservationMask(~np.isnan(X)), names


def _read_table(path, group_column, outcome_column, marks):
    """(covariates with nan where missing, (n, 2) group/outcome flags, covariate names)."""
    with _open(path, newline="", encoding="utf-8-sig") as handle:
        numbers = array("q")    # the line number of each row of the block in hand
        lines = _numbered_rows(csv.reader(handle), numbers)
        header = [name.strip() for name in next(lines, [])]
        if repeated := sorted({name for name in header if header.count(name) > 1}):
            raise ConfigurationError(f"the CSV header names column {repeated[0]!r} more than once")
        if group_column not in header or outcome_column not in header:
            raise ConfigurationError(
                f"columns '{group_column}' and '{outcome_column}' must exist in the CSV")
        g_idx, y_idx = header.index(group_column), header.index(outcome_column)
        cov_idx = [i for i in range(len(header)) if i not in (g_idx, y_idx)]
        labels = {g_idx: (marks[0],), y_idx: (marks[1],)}
        blocks = []
        del numbers[:]      # the header's
        while rows := list(itertools.islice(lines, _CSV_BLOCK_ROWS)):
            block = _parse_block(rows, len(header), cov_idx, labels)
            if block is None:
                _raise_first_bad_line(path, header, rows, numbers, cov_idx, labels)
            *block, labels = block
            blocks.append(block)
            del numbers[:]
        X, binary = (np.concatenate(parts) for parts in zip(*blocks)) if blocks else ((), ())
    return X, binary, [header[i] for i in cov_idx]


def _raise_not_utf8(path):
    """Raise ConfigurationError naming the line and the value of the first byte of `path`
    that is not UTF-8 text; the file is read again, whole, on this error path."""
    with _open(path, mode="rb") as handle:
        data = handle.read()
    try:
        data.decode()
    except UnicodeDecodeError as exc:
        line = len(data[:exc.start + 1].splitlines())     # csv ends a line at \r, \n or \r\n
        raise ConfigurationError(
            f"{path}, line {line}: byte 0x{data[exc.start]:02x} is not UTF-8 text") from None


def _numbered_rows(reader, numbers):
    """Non-blank rows ([] and [' \t'] are blank); appends the number of each one's last
    line to the array `numbers`."""
    for row in reader:
        if len(row) > 1 or row and row[0].strip():
            numbers.append(reader.line_num)
            yield row


def _parse_block(rows, width, cov_idx, labels):
    """One block of CSV rows as (covariates, group/outcome flags, labels after the
    block), or None for a ragged row, a covariate cell that is not a finite number,
    empty or whitespace-only, or a third group or outcome value. `labels` maps each
    label column to the tuple of its values seen so far, the marked value first."""
    if set(map(len, rows)) != {width}:
        return None
    block = np.array(rows, dtype=object)
    flags = []      # per label column: whether each raw cell strips to its marked value
    after = {}
    for i, seen in labels.items():
        raw = set(block[:, i].tolist())
        seen = after[i] = seen + tuple({cell.strip() for cell in raw}.difference(seen))
        if len(seen) > 2:
            return None
        flags.append(np.isin(block[:, i], [cell for cell in raw if cell.strip() == seen[0]]))
    try:
        X, missing = _floats(block[:, cov_idx])
    except ValueError:      # float() reads " 1.5 " but not "  ": strip, and cast once more
        try:
            X, missing = _floats(_STRIP(block[:, cov_idx]))
        except ValueError:
            return None
    if not (np.isfinite(X) | missing).all():
        return None
    return X, np.array(flags, dtype=np.int64).T, after


_STRIP = np.frompyfunc(str.strip, 1, 1)


def _floats(cells):
    """(floats, missing) of an object array of cell texts, nan where a cell is empty;
    ValueError where a cell is not a number. Writes nan into `cells`."""
    missing = cells == ""
    cells[missing] = math.nan
    return cells.astype(float), missing


def _raise_first_bad_line(path, header, rows, numbers, cov_idx, labels):
    """Raise ConfigurationError naming the first bad line of a block that `_parse_block`
    refused, and its column: the first row it refuses after the rows before it, judged
    again on no column (its width), on each label and on each covariate alone. `numbers`
    holds each row's line number and `labels` the values seen before the block."""
    width = len(header)
    for row, line in zip(rows, numbers):
        if (parsed := _parse_block([row], width, cov_idx, labels)) is not None:
            labels = parsed[2]
            continue
        where = f"{path}, line {line}"
        if _parse_block([row], width, [], {}) is None:
            raise ConfigurationError(f"{where}: {len(row)} fields where the header has {width}")
        for i, seen in labels.items():
            if _parse_block([row], width, [], {i: seen}) is None:
                raise ConfigurationError(
                    f"{where}, column '{header[i]}': {row[i].strip()!r} is a third value "
                    f"besides {seen[0]!r} and {seen[1]!r}")
        for i in cov_idx:
            if _parse_block([row], width, [i], {}) is None:
                raise ConfigurationError(
                    f"{where}, column '{header[i]}': {row[i].strip()!r} is not a finite number")


def run_csv_audit(config):
    """Audit the configured imputers on one external CSV with bootstrap intervals.

    The table is split by `csv.fractions` (0.8/0.1/0.1 by default); the ridge
    penalty is tuned on the middle partition; metrics are bootstrapped over test
    rows. No reconstruction error is reported: ground truth at missing cells is unknown.
    The imputer cells run at once (`_map`), one per usable CPU, and the report does not
    depend on how many CPUs run them.
    """
    plan = _plan(config)
    seed, resamples = plan["run"]["seed"], plan["run"]["bootstrap_resamples"]
    if plan["csv"] is None or "path" not in plan["csv"][0]:
        raise ConfigurationError("csv.path must be set for audit-csv")
    arguments, split_spec = plan["csv"]
    cohort, mask, names = read_csv_cohort(**arguments)
    partitions = split(cohort, mask, replace(split_spec, seed=_derived_seed(seed, 0, 1)))
    rows = []
    for label, values, error in _run_imputers(plan, 0, partitions, resamples=resamples,
                                              workers=_usable_cpus()):
        cell = ("csv", label)
        rows += ([_row(cell, resamples, error)] if error else
                 [_row(cell, resamples, "", metric, group, point, *boot[1:5])
                  for (metric, group), (point, boot) in sorted(values.items())])
    return _audited_report(rows, {"mode": "audit-csv", "covariates": names,
                                  "config": _manifest_config(config)})


def run_region_scan(config):
    """Closed-form gap map over the (rho_g, rho_ng) grid from the configuration."""
    base, grid = _plan(config)["region"]
    cells = theory.region_scan(base, grid, grid)
    return Report({name: cells[name] for name in cells.dtype.names},
                  {"mode": "region-scan", "config": _manifest_config(config)})


def sample_feasible_inputs(rng):
    """One random TheoremInputs comfortably inside the latent-threshold bounds."""
    alpha_g = float(rng.uniform(0.2, 0.85))
    alpha_ng = float(rng.uniform(0.2, 0.85))
    rho_g = float(rng.uniform(-0.8, 0.8) * rho_feasible_bound(alpha_g))
    rho_ng = float(rng.uniform(-0.8, 0.8) * rho_feasible_bound(alpha_ng))
    return theory.latent_threshold_inputs(
        alpha_g=alpha_g, rho_g=rho_g, alpha_ng=alpha_ng, rho_ng=rho_ng,
        r_g=float(rng.uniform(0.2, 0.5)),
        mu_g=float(rng.uniform(-1.0, 1.0)), mu_ng=float(rng.uniform(-1.0, 1.0)),
        sigma_g=float(rng.uniform(0.5, 2.0)), sigma_ng=float(rng.uniform(0.5, 2.0)))


def run_theorem_validation(n_cases=20, n=1_000_000, seed=0, tolerance=0.02):
    """Monte Carlo check of the closed-form errors on random feasible inputs.

    Returns (lines, ok): a printable table and whether every relative error, in
    both groups, stayed within tolerance. Every case's inputs and seed are drawn
    first, so the cases run at once (`_map`) and the table does not depend on how
    many CPUs run them.
    """
    rng = np.random.default_rng(seed)
    cases = [(sample_feasible_inputs(rng), int(rng.integers(2 ** 63))) for _ in range(n_cases)]
    inputs, seeds = zip(*cases) if cases else ((), ())
    reports = _map(theory.monte_carlo_validate, inputs, [n] * n_cases, seeds,
                   workers=_usable_cpus())
    lines = ["case  group  closed_group  empirical  closed_pop  empirical  rel_g  rel_pop"]
    ok = True
    for case, report in enumerate(reports):
        for key in ("g", "ng"):
            v = report[key]
            within = v.rel_error_group <= tolerance and v.rel_error_pop <= tolerance
            ok = ok and within
            lines.append(
                f"{case:4d}  {key:5s}  {v.closed_group:12.6f}  {v.empirical_group:9.6f}  "
                f"{v.closed_pop:10.6f}  {v.empirical_pop:9.6f}  "
                f"{v.rel_error_group:5.3f}  {v.rel_error_pop:7.3f}"
                + ("" if within else "  <-- exceeds tolerance"))
    return lines, ok


# make_standin formats a block of rows at a time. The text of all 22,000 x 12 cells
# at once raised a make-standin run's peak RSS by 17 MB, and that of a process that
# then runs audit-csv on it by 5 MB.
_STANDIN_BLOCK_ROWS = 256


def make_standin(path, seed=0, n_majority=20000, n_marginalised=2000, n_noise=8):
    """Write a schema-compatible stand-in CSV with group-correlated missingness.

    Mirrors the synthetic geometry (two signal covariates, three clusters) plus
    noise columns, then hides high values of the second covariate (a rule that
    reads what it hides), which strikes the two groups very differently because
    their positive clusters sit on different axes.
    """
    rng = np.random.default_rng(seed)
    cohort = generate(replace(_plan(DEFAULT_CONFIG)["population"], n_majority=n_majority,
                              n_marginalised=n_marginalised, seed=int(rng.integers(2 ** 63))))
    mask = apply_scenario(cohort, ScenarioSpec(
        "S3", seed=int(rng.integers(2 ** 63))))
    noise = rng.standard_normal((cohort.n, n_noise))
    header = [f"x{j + 1}" for j in range(2 + n_noise)] + ["group", "outcome"]
    values = (*cohort.covariates[:, :2].T, *noise.T, cohort.group, cohort.outcome)
    with _open(path, mode="w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for start in range(0, cohort.n, _STANDIN_BLOCK_ROWS):
            rows = slice(start, start + _STANDIN_BLOCK_ROWS)
            columns = [_format_column(column[rows], ".6g") for column in values]
            for j in range(2):
                columns[j] = [text if seen else "" for text, seen in
                              zip(columns[j], mask.observed[rows, j].tolist())]
            writer.writerows(zip(*columns))
    return path
