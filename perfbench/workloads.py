"""The four benchmark workloads: inputs made from the workload seed, CLI calls, checks.

`prepare` and `commands` run in the measured child process: `prepare` is
part of set-up (it writes the config and, for audit-csv, the stand-in CSV),
`commands` are the `missfair.cli.main` argument lists that make up the timed
wall. `check` runs in run.py on what one child wrote.
"""

import os

import checks

REPETITIONS_FULL = 1
REPETITIONS_MEAN = 10
THEORY_CASES = 20
THEORY_SAMPLES = 1_000_000
REGION_STEPS = 301
STANDIN_ROWS = 22_000


def _write_config(path, lines):
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


class SimulateFull:
    name = "simulate-full"
    why = ("one repetition of the README headline run: 101,000 rows, S1-S3 x all 5 "
           "imputers, 1 thread; MICE imputation and Newton training dominate")
    threads = 1
    operations = REPETITIONS_FULL * len(checks.SCENARIOS) * len(checks.FULL_IMPUTERS)
    needs_reference = False

    def prepare(self, seed, work, threads=None):
        _write_config(os.path.join(work, "config.yaml"), [
            f"seed: {seed}", f"repetitions: {REPETITIONS_FULL}",
            f"threads: {threads or self.threads}"])

    def commands(self, seed, work):
        return [["simulate", "--config", os.path.join(work, "config.yaml"),
                 "--out", os.path.join(work, "out")]]

    def check(self, work, child, reference=None):
        out = os.path.join(work, "out")
        problems = checks.check_manifest(out, "simulate") + checks.check_report(
            out, [(s, i) for s in checks.SCENARIOS for i in checks.FULL_IMPUTERS],
            checks.SIM_METRICS, REPETITIONS_FULL,
            undefined={("S1", "reconstruction", "majority"),
                       ("S1", "reconstruction", "gap")},
            targets=checks.FULL_TARGETS)
        return problems, _failed_cells(out, REPETITIONS_FULL)


class SimulateMean(SimulateFull):
    name = "simulate-mean"
    why = ("10 repetitions, same cohort, only the 3 mean imputers, 2 threads: bypasses "
           "MICE and linalg_stat; Newton and the pure-Python AUC loop dominate")
    threads = 2
    operations = REPETITIONS_MEAN * len(checks.SCENARIOS) * len(checks.MEAN_IMPUTERS)
    # A threads: 1 run of the same inputs; every timed run must match it.
    needs_reference = True

    def prepare(self, seed, work, threads=None):
        _write_config(os.path.join(work, "config.yaml"), [
            f"seed: {seed}", f"repetitions: {REPETITIONS_MEAN}",
            f"threads: {threads or self.threads}",
            "imputers:",
            "  - {strategy: population_mean}",
            "  - {strategy: group_mean}",
            "  - {strategy: population_mean, append_indicators: true}"])

    def check(self, work, child, reference=None):
        out = os.path.join(work, "out")
        problems = checks.check_manifest(out, "simulate") + checks.check_report(
            out, [(s, i) for s in checks.SCENARIOS for i in checks.MEAN_IMPUTERS],
            checks.SIM_METRICS, REPETITIONS_MEAN,
            undefined={("S1", "reconstruction", "majority"),
                       ("S1", "reconstruction", "gap")},
            targets=checks.MEAN_TARGETS)
        if reference is not None:
            problems += checks.compare_reports(out, os.path.join(reference, "out"))
        return problems, _failed_cells(out, REPETITIONS_MEAN)


class AuditCsv:
    name = "audit-csv"
    why = ("make-standin CSV (22,000 x 10), 5 imputers, 100 bootstrap resamples: many "
           "small auc/threshold calls, penalty tuning, d=10 MICE, the CSV reader")
    threads = 1
    operations = len(checks.FULL_IMPUTERS)
    needs_reference = False

    def prepare(self, seed, work, threads=None):
        from missfair import cli
        cli.main(["make-standin", "--out", os.path.join(work, "standin.csv"),
                  "--seed", str(seed)])
        _write_config(os.path.join(work, "config.yaml"), [f"seed: {seed}"])

    def commands(self, seed, work):
        return [["audit-csv", "--config", os.path.join(work, "config.yaml"),
                 "--input", os.path.join(work, "standin.csv"),
                 "--out", os.path.join(work, "out")]]

    def check(self, work, child, reference=None):
        out = os.path.join(work, "out")
        problems = checks.check_manifest(out, "audit-csv") + checks.check_report(
            out, [("csv", i) for i in checks.FULL_IMPUTERS], checks.RATE_METRICS, 100)
        try:
            with open(os.path.join(work, "standin.csv")) as handle:
                rows = sum(1 for _ in handle) - 1
        except OSError as exc:
            rows = f"unreadable ({exc})"
        if rows != STANDIN_ROWS:
            problems.append(f"stand-in CSV has {rows} rows, expected {STANDIN_ROWS}")
        return problems, _failed_cells(out, 1)


class Theory:
    name = "theory"
    why = ("validate-theorems (20 cases x 1M samples) then a 301x301 region-scan: "
           "the only run of theory, apply_calibrated and the normal helpers")
    threads = 1
    operations = THEORY_CASES
    needs_reference = False

    def prepare(self, seed, work, threads=None):
        _write_config(os.path.join(work, "config.yaml"), [
            f"seed: {seed}", f"region: {{steps: {REGION_STEPS}}}"])

    def commands(self, seed, work):
        return [["validate-theorems", "--cases", str(THEORY_CASES),
                 "--samples", str(THEORY_SAMPLES), "--seed", str(seed)],
                ["region-scan", "--config", os.path.join(work, "config.yaml"),
                 "--out", os.path.join(work, "out")]]

    def check(self, work, child, reference=None):
        out = os.path.join(work, "out")
        problems, failed = checks.check_theorem_lines(
            child["stdout"][0], child["returncodes"][0], THEORY_CASES)
        problems += checks.check_manifest(out, "region-scan")
        problems += checks.check_region(out, REGION_STEPS)
        return problems, failed


def _failed_cells(out, repetitions):
    """Failed (repetition, cell) operations: an error cell lost the repetitions
    that contributed no value to any of its rows, and at least one."""
    try:
        _, rows = checks.read_csv(os.path.join(out, "report.csv"))
    except OSError:
        return 0
    best = {}
    for row in rows:
        if row.get("error"):
            cell = (row["scenario"], row["imputer"])
            n = int(float(row.get("n_values") or 0))
            best[cell] = max(best.get(cell, 0), n)
    return sum(max(1, repetitions - n) for n in best.values())


WORKLOADS = {w.name: w for w in (SimulateFull(), SimulateMean(), AuditCsv(), Theory())}
