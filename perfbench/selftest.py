"""Fast self-test of the benchmark code: span math, metric names, output checks.

    python3 perfbench/selftest.py

Needs neither missfair nor numpy and runs in about a second; its temporary
files go under perfbench/out.
"""

import json
import os
import re
import shutil
import sys
import tempfile
import unittest

import checks
import contract
import tracing
import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def span(id_, name, start, end, parent=None, thread=1, **attrs):
    return {"id": id_, "name": name, "start": start, "end": end, "parent": parent,
            "thread": thread, "errors": 0, **attrs}


class SpanMath(unittest.TestCase):
    def test_covered_merges_overlaps(self):
        self.assertEqual(tracing.covered([]), 0.0)
        self.assertAlmostEqual(tracing.covered([(0, 2), (1, 3), (5, 6)]), 4.0)
        self.assertAlmostEqual(tracing.covered([(4, 5), (0, 10)]), 10.0)
        self.assertAlmostEqual(tracing.covered([(0, 1), (1, 2)]), 2.0)

    def test_self_time_subtracts_children_once(self):
        spans = [span(0, "metrics.bootstrap", 0.0, 10.0),
                 span(1, "metrics.auc", 1.0, 4.0, parent=0),
                 span(2, "metrics.auc", 3.0, 5.0, parent=0),      # overlaps sibling
                 span(3, "metrics.threshold_metrics", 6.0, 7.0, parent=0),
                 span(4, "linalg_stat.ols_solve", 1.5, 2.0, parent=1)]
        selfs = tracing.self_times(spans)
        self.assertAlmostEqual(selfs[0], 10.0 - 4.0 - 1.0)
        self.assertAlmostEqual(selfs[1], 3.0 - 0.5)
        self.assertAlmostEqual(selfs[3], 1.0)

    def test_outermost_layer_spans_skip_command_spans(self):
        spans = [span(0, "harness.run_simulation", 0.0, 10.0),
                 span(1, "impute.fit", 1.0, 3.0, parent=0),
                 span(2, "linalg_stat.ols_solve", 1.5, 2.0, parent=1),
                 span(3, "predict.train", 4.0, 8.0, thread=2)]
        self.assertEqual([s["id"] for s in tracing.outermost_layer_spans(spans)], [1, 3])

    def test_layer_metrics_from_a_known_trace(self):
        spans = [
            span(0, "harness.run_simulation", 0.0, 9.0),
            span(1, "synthgen.generate", 0.5, 1.0, parent=0, cohort_rows=100),
            span(2, "impute.fit", 1.0, 3.0, parent=0, label="GroupMICE+indicators",
                 mice=True),
            span(3, "linalg_stat.ols_solve", 1.0, 1.5, parent=2),
            span(4, "linalg_stat.ols_solve", 2.0, 2.5, parent=2),
            span(5, "impute.transform", 3.0, 4.0, parent=0,
                 label="GroupMICE+indicators", rows=100, draw_rows=1000),
            span(6, "impute.transform", 4.0, 5.0, parent=0,
                 label="GroupMICE+indicators", rows=80, draw_rows=800),
            span(7, "impute.fit", 5.0, 6.0, parent=0, label="GroupMean", mice=False),
            span(8, "harness.Report.write", 9.0, 9.5, bytes=123),
        ]
        v = tracing.layer_metrics(spans, wall_s=10.0, threads=1)
        self.assertAlmostEqual(v["impute.fit.busy_s"], 3.0)
        self.assertAlmostEqual(v["impute.fit.GroupMICE_indicators.busy_s"], 2.0)
        self.assertEqual(v["impute.fit.calls"], 2)
        self.assertAlmostEqual(v["impute.transform.rows_per_cohort_row"], 180 / 200)
        self.assertEqual(v["impute.transform.draw_rows"], 1800)
        self.assertEqual(v["linalg_stat.ols_solve.calls"], 2)
        self.assertAlmostEqual(v["linalg_stat.ols_solve.calls_per_mice_fit"], 2.0)
        self.assertEqual(v["harness.Report.write.bytes"], 123)
        # layer spans cover [0.5, 6.0] and [9.0, 9.5] of the 10 s wall
        self.assertAlmostEqual(v["harness.self_s"], 10.0 - 5.5 - 0.5)
        self.assertAlmostEqual(v["harness.thread_busy_ratio"], 6.0 / 10.0)
        self.assertEqual(list(v) + list(tracing.OVERHEAD_METRICS),
                         [n for n, _, _ in tracing.layer_metric_names()])

    def test_tracer_records_parents_and_errors(self):
        tracer = tracing.Tracer()

        def inner(x):
            if x < 0:
                raise ValueError("negative")
            return x

        traced_inner = tracer.wrap("inner", inner)
        outer = tracer.wrap("outer", lambda x: traced_inner(x) + 1,
                            attrs=lambda args, result: {"seen": result})
        self.assertEqual(outer(1), 2)
        with self.assertRaises(ValueError):
            outer(-1)
        by_id = {s["id"]: s for s in tracer.spans}
        for s in tracer.spans:
            if s["name"] == "inner":
                self.assertEqual(by_id[s["parent"]]["name"], "outer")
                self.assertLessEqual(by_id[s["parent"]]["start"], s["start"])
        self.assertEqual(sorted(s["errors"] for s in tracer.spans), [0, 0, 1, 1])
        self.assertEqual([s.get("seen") for s in tracer.spans if s["name"] == "outer"],
                         [2, None])


class Contract(unittest.TestCase):
    def test_names_follow_the_grammar_and_are_unique(self):
        bench = contract.benchmark()
        names = [w["name"] for w in bench["workloads"]] + \
            [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))
        for metric in bench["end_to_end"] + bench["per_layer"]:
            self.assertTrue(UNIT.fullmatch(metric["unit"]), metric)
            self.assertIn(metric["better"], ("lower", "higher"))
        for metric in bench["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in bench["end_to_end"]))
        for w in bench["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        self.assertLessEqual(len(bench["per_layer"]), 128)

    def test_benchmark_json_matches_the_contract(self):
        with open(contract.BENCHMARK_JSON) as handle:
            self.assertEqual(json.load(handle), contract.benchmark())


def _report_rows(cells, metrics, repetitions, undefined, targets):
    rows = []
    for scenario, imputer in cells:
        for metric in metrics:
            for group in checks.GROUPS:
                key = (scenario, imputer, metric, group)
                if (scenario, metric, group) in undefined:
                    values, n = ["nan"] * 4, 0
                else:
                    mean = targets.get(key, (0.0 if group == "gap" else 0.5,))[0]
                    values, n = [str(mean), "0.01", str(mean - 0.01),
                                 str(mean + 0.01)], repetitions
                rows.append([scenario, imputer, metric, group] + values
                            + [str(n), str(repetitions), ""])
    return rows


class OutputChecks(unittest.TestCase):
    def setUp(self):
        out_root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
        os.makedirs(out_root, exist_ok=True)
        self.dir = tempfile.mkdtemp(dir=out_root)
        self.out = os.path.join(self.dir, "out")
        os.makedirs(self.out)
        self.undefined = {("S1", "reconstruction", "majority"),
                          ("S1", "reconstruction", "gap")}
        self.cells = [(s, i) for s in checks.SCENARIOS for i in checks.FULL_IMPUTERS]
        self.rows = _report_rows(self.cells, checks.SIM_METRICS, 1, self.undefined,
                                 checks.FULL_TARGETS)
        with open(os.path.join(self.out, "manifest.json"), "w") as handle:
            json.dump({"mode": "simulate"}, handle)

    def tearDown(self):
        shutil.rmtree(self.dir)

    def write(self, rows, header=checks.REPORT_COLUMNS):
        with open(os.path.join(self.out, "report.csv"), "w") as handle:
            handle.write(",".join(header) + "\n")
            for row in rows:
                handle.write(",".join(row) + "\n")

    def problems(self):
        child = {"stdout": [["wrote report.csv"]], "returncodes": [0]}
        return workloads.WORKLOADS["simulate-full"].check(self.dir, child)

    def doctor(self, key, column, value):
        index = checks.REPORT_COLUMNS.index(column)
        rows = [list(r) for r in self.rows]
        for row in rows:
            if tuple(row[:4]) == key:
                row[index] = value
        self.write(rows)
        return self.problems()

    def test_a_well_formed_report_passes(self):
        self.write(self.rows)
        self.assertEqual(self.problems(), ([], 0))

    def test_doctored_reports_are_rejected(self):
        auc = ("S2", "MICE", "auc", "overall")
        recon = ("S1", "MICE", "reconstruction", "marginalised")
        cases = {
            "auc above 1": self.doctor(auc, "mean", "1.2"),
            "error cell": self.doctor(auc, "error", "ConvergenceError: no"),
            "nan value": self.doctor(auc, "mean", "nan"),
            "MICE off target": self.doctor(recon, "mean", "0.062"),
            "wrong repetitions": self.doctor(auc, "n_repetitions", "2"),
            "defined undefined row": self.doctor(
                ("S1", "MICE", "reconstruction", "majority"), "mean", "0.3"),
        }
        for what, (problems, _) in cases.items():
            self.assertTrue(problems, what)
        self.assertEqual(cases["error cell"][1], 1)

    def test_missing_rows_and_wrong_schema_are_rejected(self):
        self.write(self.rows[:-1])
        self.assertTrue(self.problems()[0])
        self.write(self.rows, header=checks.REPORT_COLUMNS[:-1] + ["err"])
        self.assertTrue(self.problems()[0])

    def test_reference_comparison_tolerance(self):
        ref = os.path.join(self.dir, "ref")
        os.makedirs(ref)
        self.write(self.rows)
        shutil.copy(os.path.join(self.out, "report.csv"), ref)
        self.assertEqual(checks.compare_reports(self.out, ref), [])
        rows = [list(r) for r in self.rows]
        rows[5][4] = str(float(rows[5][4]) + 1e-6)
        self.write(rows)
        self.assertTrue(checks.compare_reports(self.out, ref))

    def test_region_and_theorem_checks(self):
        steps = 5
        grid = [-0.3 + 0.15 * k for k in range(steps)]
        rows = []
        for rho_ng in grid:
            for rho_g in grid:
                diff = rho_g - rho_ng
                rows.append([repr(rho_g), repr(rho_ng), repr(diff), "0", repr(diff),
                             "1" if diff > 0 else "0", "0", "1"])
        self.write(rows, header=checks.REGION_COLUMNS)
        self.assertEqual(checks.check_region(self.out, steps), [])
        self.write(rows[:-1], header=checks.REGION_COLUMNS)
        self.assertTrue(checks.check_region(self.out, steps))
        rows[7][4] = "9"
        self.write(rows, header=checks.REGION_COLUMNS)
        self.assertTrue(checks.check_region(self.out, steps))

        lines = ["case  group ..."] + [f"{c:4d}  {g}  1 1 1 1 0.001 0.001"
                                       for c in range(2) for g in ("g", "ng")]
        self.assertEqual(checks.check_theorem_lines(lines + ["all within tolerance"], 0, 2),
                         ([], 0))
        lines[2] += "  <-- exceeds tolerance"
        problems, failed = checks.check_theorem_lines(lines + ["TOLERANCE EXCEEDED"], 1, 2)
        self.assertTrue(problems)
        self.assertEqual(failed, 1)


if __name__ == "__main__":
    unittest.main(argv=sys.argv[:1] + sys.argv[1:], verbosity=1)
