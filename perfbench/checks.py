"""Output checks for the benchmark's workloads.

Each check returns a list of problems (empty when the output is correct) and
reads only the files the CLI wrote, so run.py runs it without importing
missfair.
"""

import csv
import json
import math
import os

REPORT_COLUMNS = ["scenario", "imputer", "metric", "group", "mean", "std", "lower",
                  "upper", "n_values", "n_repetitions", "error"]
REGION_COLUMNS = ["rho_g", "rho_ng", "delta_pop", "delta_group", "diff", "theorem3",
                  "dotted", "feasible"]
GROUPS = ("gap", "majority", "marginalised", "overall")
CAPACITIES = ("0.1", "0.25", "0.5")
RATE_METRICS = ("auc",) + tuple(f"{m}@{c}" for m in ("fnr", "prioritisation")
                                for c in CAPACITIES)
SIM_METRICS = ("reconstruction",) + RATE_METRICS
SCENARIOS = ("S1", "S2", "S3")
FULL_IMPUTERS = ("PopulationMean", "GroupMean", "MICE", "GroupMICE",
                 "GroupMICE+indicators")
MEAN_IMPUTERS = ("PopulationMean", "GroupMean", "PopulationMean+indicators")
NUMERIC = ("mean", "std", "lower", "upper")

# (scenario, imputer, metric, group): (centre, tolerance, sign must match centre).
# Centres and widths come from the acceptance tests (criteria 1-4) where they
# name the cell. The MICE centres are the mean of 12 single-repetition runs
# (seeds 0-11) at the default config. A single repetition scatters more than
# the acceptance tests' 100-repetition means, so each width is the acceptance
# width for that metric, widened to 5 standard deviations of those 12 runs.
FULL_TARGETS = {
    ("S1", "PopulationMean", "reconstruction", "marginalised"): (0.493, 0.083, False),
    ("S1", "GroupMean", "reconstruction", "marginalised"): (0.062, 0.018, False),
    ("S1", "PopulationMean", "auc", "marginalised"): (0.679, 0.149, False),
    ("S1", "GroupMean", "auc", "marginalised"): (0.872, 0.125, False),
    ("S2", "PopulationMean", "reconstruction", "gap"): (0.204, 0.106, True),
    ("S2", "GroupMean", "reconstruction", "gap"): (-0.224, 0.055, True),
    ("S3", "PopulationMean", "reconstruction", "gap"): (-0.313, 0.037, True),
    ("S3", "GroupMean", "reconstruction", "gap"): (0.045, 0.173, False),
    ("S1", "MICE", "reconstruction", "marginalised"): (0.764, 0.080, False),
    ("S1", "GroupMICE", "reconstruction", "marginalised"): (0.348, 0.050, False),
    ("S1", "GroupMICE+indicators", "reconstruction", "marginalised"):
        (0.345, 0.052, False),
    ("S1", "MICE", "auc", "marginalised"): (0.610, 0.175, False),
    ("S1", "GroupMICE", "auc", "marginalised"): (0.706, 0.142, False),
    ("S1", "GroupMICE+indicators", "auc", "marginalised"): (0.634, 0.154, False),
    ("S2", "MICE", "auc", "marginalised"): (0.830, 0.120, False),
    ("S2", "GroupMICE", "auc", "marginalised"): (0.822, 0.120, False),
    ("S2", "GroupMICE+indicators", "auc", "marginalised"): (0.815, 0.127, False),
    ("S3", "MICE", "auc", "marginalised"): (0.660, 0.191, False),
    ("S3", "GroupMICE", "auc", "marginalised"): (0.644, 0.201, False),
    ("S3", "GroupMICE+indicators", "auc", "marginalised"): (0.766, 0.130, False),
}

# The acceptance tests' own targets and widths (criteria 1-4), applied to
# the 10-repetition means of the mean-imputer workload.
MEAN_TARGETS = {
    ("S1", "PopulationMean", "reconstruction", "marginalised"): (0.493, 0.05, False),
    ("S1", "GroupMean", "reconstruction", "marginalised"): (0.062, 0.013, False),
    ("S2", "PopulationMean", "reconstruction", "gap"): (0.204, 3 * 0.021, True),
    ("S2", "GroupMean", "reconstruction", "gap"): (-0.224, 3 * 0.009, True),
    ("S3", "PopulationMean", "reconstruction", "gap"): (-0.313, 3 * 0.010, True),
    ("S3", "GroupMean", "reconstruction", "gap"): (0.045, 3 * 0.035, True),
    ("S1", "PopulationMean", "auc", "marginalised"): (0.679, 0.12, False),
    ("S1", "GroupMean", "auc", "marginalised"): (0.872, 0.08, False),
    ("S3", "PopulationMean+indicators", "auc", "marginalised"): (0.773, 0.10, False),
    ("S3", "PopulationMean", "auc", "marginalised"): (0.641, 0.12, False),
}


def read_csv(path):
    """(header, rows as dicts) of a CSV file."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        return header, [dict(zip(header, row)) if len(row) == len(header)
                        else {"__ragged__": row} for row in reader]


def _float(text):
    try:
        return float(text)
    except ValueError:
        return None


def check_manifest(out_dir, mode):
    path = os.path.join(out_dir, "manifest.json")
    try:
        with open(path) as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as exc:
        return [f"manifest.json unreadable: {exc}"]
    if manifest.get("mode") != mode:
        return [f"manifest mode {manifest.get('mode')!r}, expected {mode!r}"]
    return []


def check_report(out_dir, cells, metrics, repetitions, undefined=(), targets=None):
    """Schema, row set, errors and value ranges of a simulate/audit report.csv.

    `cells` are the expected (scenario, imputer) pairs, `metrics` the metric
    names each cell reports, `undefined` the (scenario, metric, group) rows
    that are nan by construction, and `targets` maps a row key to
    (centre, tolerance, sign_must_match).
    """
    path = os.path.join(out_dir, "report.csv")
    try:
        header, rows = read_csv(path)
    except OSError as exc:
        return [f"report.csv unreadable: {exc}"]
    if header != REPORT_COLUMNS:
        return [f"report.csv columns {header}, expected {REPORT_COLUMNS}"]
    problems = []
    seen = {}
    for row in rows:
        if "__ragged__" in row:
            problems.append(f"ragged row {row['__ragged__']}")
            continue
        key = (row["scenario"], row["imputer"], row["metric"], row["group"])
        if key in seen:
            problems.append(f"duplicate row {key}")
        seen[key] = row
    expected = {(s, i, m, g) for s, i in cells for m in metrics for g in GROUPS}
    missing, extra = expected - set(seen), set(seen) - expected
    if missing:
        problems.append(f"{len(missing)} rows missing, e.g. {sorted(missing)[0]}")
    if extra:
        problems.append(f"{len(extra)} unexpected rows, e.g. {sorted(extra)[0]}")
    for key, row in sorted(seen.items()):
        problems.extend(_check_row(key, row, repetitions,
                                   (key[0], key[2], key[3]) in undefined))
    for key, (centre, tol, sign) in (targets or {}).items():
        value = _float(seen[key]["mean"]) if key in seen else None
        if value is None or math.isnan(value):
            problems.append(f"{key}: no value to compare with {centre}")
        elif abs(value - centre) > tol or (sign and value * centre <= 0):
            problems.append(f"{key}: {value:.4f} outside {centre} +/- {tol:.3g}"
                            + (" with matching sign" if sign else ""))
    return problems


def _check_row(key, row, repetitions, undefined):
    problems = []
    if row["error"]:
        problems.append(f"{key}: error cell: {row['error']}")
    values = {k: _float(row[k]) for k in NUMERIC}
    n_values, n_reps = _float(row["n_values"]), _float(row["n_repetitions"])
    if None in values.values() or n_values is None or n_reps is None:
        return problems + [f"{key}: non-numeric field in {row}"]
    if n_reps != repetitions:
        problems.append(f"{key}: n_repetitions {n_reps:g}, expected {repetitions}")
    if undefined:
        if n_values != 0 or not all(math.isnan(v) for v in values.values()):
            problems.append(f"{key}: expected an undefined (nan) row")
        return problems
    if any(math.isnan(v) or math.isinf(v) for v in values.values()):
        return problems + [f"{key}: non-finite value in {row}"]
    if not 0 < n_values <= repetitions:
        problems.append(f"{key}: n_values {n_values:g} outside (0, {repetitions}]")
    metric, group = key[2], key[3]
    if metric == "reconstruction":
        lo, hi = (-math.inf, math.inf) if group == "gap" else (0.0, math.inf)
    else:
        lo, hi = (-1.0, 1.0) if group == "gap" else (0.0, 1.0)
    for name in ("mean", "lower", "upper"):
        if not lo <= values[name] <= hi:
            problems.append(f"{key}: {name} {values[name]} outside [{lo}, {hi}]")
    if values["std"] < 0 or values["lower"] > values["upper"]:
        problems.append(f"{key}: std < 0 or lower > upper in {row}")
    return problems


def compare_reports(out_dir, reference_dir, tolerance=1e-9):
    """Numeric fields of two report.csv files agree to `tolerance`, other fields exactly."""
    _, rows = read_csv(os.path.join(out_dir, "report.csv"))
    _, ref = read_csv(os.path.join(reference_dir, "report.csv"))
    if len(rows) != len(ref):
        return [f"{len(rows)} rows against {len(ref)} in the reference"]
    problems = []
    for row, expect in zip(rows, ref):
        for column in REPORT_COLUMNS:
            a, b = row.get(column), expect.get(column)
            if column in NUMERIC:
                fa, fb = _float(a or ""), _float(b or "")
                same = (fa is not None and fb is not None
                        and ((math.isnan(fa) and math.isnan(fb))
                             or abs(fa - fb) <= tolerance))
            else:
                same = a == b
            if not same:
                problems.append(f"row {expect.get('scenario')}/{expect.get('imputer')}/"
                                f"{expect.get('metric')}/{expect.get('group')}: "
                                f"{column} {a!r} != reference {b!r}")
    return problems


def check_theorem_lines(lines, returncode, cases):
    """validate-theorems printed one line per (case, group) and exited 0.

    Returns (problems, failed cases).
    """
    table = [line.split() for line in lines[1:] if line.strip()[:1].isdigit()]
    failed = {row[0] for row in table if "exceeds" in " ".join(row)}
    problems = []
    if returncode != 0:
        problems.append(f"validate-theorems exited {returncode}")
    if len(table) != 2 * cases:
        problems.append(f"validate-theorems printed {len(table)} case lines, "
                        f"expected {2 * cases}")
    if not lines or lines[-1].strip() != "all within tolerance":
        problems.append("validate-theorems did not report all within tolerance")
    return problems, len(failed)


def check_region(out_dir, steps, rho_min=-0.3, rho_max=0.3):
    """Full steps x steps grid, exact diff column, both gap orderings present."""
    try:
        header, rows = read_csv(os.path.join(out_dir, "report.csv"))
    except OSError as exc:
        return [f"region report.csv unreadable: {exc}"]
    if header != REGION_COLUMNS:
        return [f"region columns {header}, expected {REGION_COLUMNS}"]
    if len(rows) != steps * steps:
        return [f"region-scan wrote {len(rows)} rows, expected {steps * steps}"]
    problems = []
    positive = negative = theorem3 = 0
    grid = set()
    for row in rows:
        values = {k: _float(row.get(k, "")) for k in REGION_COLUMNS}
        if None in values.values():
            return [f"non-numeric region row {row}"]
        grid.add((values["rho_g"], values["rho_ng"]))
        if any(values[k] not in (0.0, 1.0) for k in ("theorem3", "dotted", "feasible")):
            problems.append(f"flag outside {{0, 1}} in {row}")
        if values["feasible"] == 1.0:
            diff = values["delta_pop"] - values["delta_group"]
            if abs(diff - values["diff"]) > 1e-8 * max(1.0, abs(diff)):
                problems.append(f"diff != delta_pop - delta_group in {row}")
            positive += values["diff"] > 0
            negative += values["diff"] < 0
            theorem3 += values["theorem3"] == 1.0
    rhos = sorted({g for g, _ in grid})
    if len(grid) != steps * steps or len(rhos) != steps:
        problems.append(f"grid has {len(grid)} distinct points, expected {steps * steps}")
    elif abs(rhos[0] - rho_min) > 1e-12 or abs(rhos[-1] - rho_max) > 1e-12:
        problems.append(f"grid spans [{rhos[0]}, {rhos[-1]}], expected "
                        f"[{rho_min}, {rho_max}]")
    if not (positive and negative and theorem3):
        problems.append(f"region lacks a gap ordering or theorem-3 cell "
                        f"({positive} positive, {negative} negative, {theorem3} theorem 3)")
    return problems[:20]
