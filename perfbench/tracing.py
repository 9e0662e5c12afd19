"""Span recording around missfair's public functions, and the per-layer metrics.

`install()` replaces each traced function with a wrapper at the name the
caller looks it up under (a module attribute, or a name a module imported
with `from ... import`). Spans stay in memory as plain dicts and are dumped
once, when the measured commands have returned. Everything below
`install()` is pure Python over those dicts, so the parent process and the
self-test can use it without importing missfair or numpy.
"""

import functools
import importlib
import inspect
import itertools
import os
import threading
import time

# Top-level harness entry points called by the CLI. Their spans frame a
# command; every other span is a layer span.
COMMAND_SPANS = ("harness.run_simulation", "harness.run_csv_audit",
                 "harness.run_region_scan", "harness.run_theorem_validation")

# Imputer labels as ImputerSpec.label() prints them; metric names swap "+" for "_".
IMPUTER_LABELS = ("PopulationMean", "GroupMean", "MICE", "GroupMICE",
                  "GroupMICE+indicators", "PopulationMean+indicators")

COHORT_SPANS = ("synthgen.generate", "harness.read_csv_cohort")


def metric_label(label):
    return label.replace("+", "_")


class Tracer:
    """Collects one span dict per traced call; thread-safe under the GIL."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, attrs=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = {"id": next(self._ids), "name": name,
                    "parent": stack[-1]["id"] if stack else None,
                    "thread": threading.get_ident(), "errors": 0}
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["errors"] = 1
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if attrs is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(attrs(bound.arguments, result))
            return result

        return traced


def _label_attrs(arguments, result):
    spec = arguments["spec"]
    return {"label": spec.label(), "mice": spec.strategy in ("mice", "group_mice")}


def _transform_attrs(arguments, result):
    data = arguments["data"]
    return {"label": arguments["fitted"].spec.label(), "rows": int(data.n),
            "draw_rows": int(data.n) * int(result.n_draws)}


def _train_attrs(arguments, result):
    spec = arguments["spec"]
    penalties = 1 if arguments["tune_result"] is None else len(spec.penalty_grid)
    return {"draw_fits": int(arguments["train_result"].n_draws) * penalties}


def _bootstrap_attrs(arguments, result):
    dropped = sum(s.n_dropped for s in result.values())
    total = sum(s.n_dropped + s.n_effective for s in result.values())
    return {"resamples": int(arguments["n_resamples"]), "dropped": int(dropped),
            "values": int(total)}


def _write_attrs(arguments, result):
    out = arguments["output_dir"]
    size = 0
    for name in ("report.csv", "manifest.json"):
        path = os.path.join(out, name)
        if os.path.exists(path):
            size += os.path.getsize(path)
    return {"bytes": size}


# (module under missfair, attribute path the caller looks up, span name, attrs).
# Names bound with `from ... import` are patched in the importing module.
TARGETS = (
    ("harness", "run_simulation", "harness.run_simulation", None),
    ("harness", "run_csv_audit", "harness.run_csv_audit", None),
    ("harness", "run_region_scan", "harness.run_region_scan", None),
    ("harness", "run_theorem_validation", "harness.run_theorem_validation", None),
    ("harness", "read_csv_cohort", "harness.read_csv_cohort",
     lambda a, r: {"cohort_rows": int(r[0].n)}),
    ("harness", "generate", "synthgen.generate", lambda a, r: {"cohort_rows": int(r.n)}),
    ("harness", "apply_scenario", "missingness.apply_scenario", None),
    ("harness", "split", "data_model.split", None),
    ("impute", "fit", "impute.fit", _label_attrs),
    ("impute", "transform", "impute.transform", _transform_attrs),
    ("impute", "ols_solve", "linalg_stat.ols_solve", None),
    ("predict", "train", "predict.train", _train_attrs),
    ("predict", "predict", "predict.predict", None),
    ("metrics", "auc", "metrics.auc", lambda a, r: {"rows": len(a["scores"])}),
    ("metrics", "threshold_metrics", "metrics.threshold_metrics", None),
    ("metrics", "reconstruction_error", "metrics.reconstruction_error", None),
    ("metrics", "bootstrap", "metrics.bootstrap", _bootstrap_attrs),
    ("theory", "monte_carlo_validate", "theory.monte_carlo_validate",
     lambda a, r: {"samples": int(a["n"])}),
    ("theory", "region_scan", "theory.region_scan", lambda a, r: {"cells": len(r)}),
    ("theory", "apply_calibrated", "missingness.apply_calibrated", None),
    ("harness", "Report.write", "harness.Report.write", _write_attrs),
)

TRACED_SPANS = tuple(name for _, _, name, _ in TARGETS)


def install(tracer):
    """Wrap every TARGETS entry in place; returns a function restoring the originals."""
    originals = []
    for module, path, name, attrs in TARGETS:
        owner = importlib.import_module(f"missfair.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        originals.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, attrs))

    def restore():
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)

    return restore


# --- span math ------------------------------------------------------------

def covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """{span id: duration minus the part of it covered by its child spans}.

    A child starts and ends inside its parent (both ran on one thread's
    stack), so the children's union needs no clipping.
    """
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - covered(children.get(s["id"], ()))
            for s in spans}


def outermost_layer_spans(spans):
    """Layer spans with no layer-span ancestor (command spans do not count)."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        if s["name"] in COMMAND_SPANS:
            continue
        parent = by_id.get(s["parent"])
        while parent is not None and parent["name"] in COMMAND_SPANS:
            parent = by_id.get(parent["parent"])
        if parent is None:
            out.append(s)
    return out


# --- per-layer metrics ------------------------------------------------------

OVERHEAD_METRICS = ("trace.overhead_s", "trace.overhead_frac")
HIGHER_IS_BETTER = ("harness.thread_busy_ratio",)


def metric_unit(name):
    suffix = name.rsplit(".", 1)[1]
    if suffix.endswith("_s"):
        return "s"
    if suffix == "bytes":
        return "B"
    if suffix.endswith(("ratio", "frac", "_per_cohort_row", "_per_mice_fit")):
        return "ratio"
    return "count"


def layer_metric_names():
    """[(name, unit, better)] for every per-layer metric, in report order."""
    names = list(layer_metrics([], 1.0, 1)) + list(OVERHEAD_METRICS)
    return [(n, metric_unit(n), "higher" if n in HIGHER_IS_BETTER else "lower")
            for n in names]


def layer_metrics(spans, wall_s, threads):
    """Per-layer values from one traced child's spans (tracing overhead excluded).

    `wall_s` is the traced child's measured wall time and `threads` the
    number of worker threads the command ran with.
    """
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    selfs = self_times(spans)

    def busy(name, label=None):
        return sum(s["end"] - s["start"] for s in by_name.get(name, ())
                   if label is None or s.get("label") == label)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name, key):
        return sum(s.get(key, 0) for s in by_name.get(name, ()))

    values = {
        "impute.fit.busy_s": busy("impute.fit"),
        "impute.fit.calls": calls("impute.fit"),
        "impute.transform.busy_s": busy("impute.transform"),
        "impute.transform.calls": calls("impute.transform"),
    }
    for label in IMPUTER_LABELS:
        values[f"impute.fit.{metric_label(label)}.busy_s"] = busy("impute.fit", label)
        values[f"impute.transform.{metric_label(label)}.busy_s"] = \
            busy("impute.transform", label)

    cohort_rows = _cohort_rows_per_fit(spans)
    values["impute.transform.rows_per_cohort_row"] = (
        total("impute.transform", "rows") / cohort_rows if cohort_rows else 0.0)
    values["impute.transform.draw_rows"] = total("impute.transform", "draw_rows")

    mice_fits = sum(1 for s in by_name.get("impute.fit", ()) if s.get("mice"))
    values["linalg_stat.ols_solve.calls"] = calls("linalg_stat.ols_solve")
    values["linalg_stat.ols_solve.busy_s"] = busy("linalg_stat.ols_solve")
    values["linalg_stat.ols_solve.calls_per_mice_fit"] = (
        calls("linalg_stat.ols_solve") / mice_fits if mice_fits else 0.0)

    values["predict.train.busy_s"] = busy("predict.train")
    values["predict.train.draw_fits"] = total("predict.train", "draw_fits")
    values["predict.predict.busy_s"] = busy("predict.predict")

    values["metrics.auc.busy_s"] = busy("metrics.auc")
    values["metrics.auc.calls"] = calls("metrics.auc")
    values["metrics.auc.rows"] = total("metrics.auc", "rows")
    values["metrics.threshold_metrics.busy_s"] = busy("metrics.threshold_metrics")
    values["metrics.threshold_metrics.calls"] = calls("metrics.threshold_metrics")
    values["metrics.reconstruction_error.busy_s"] = busy("metrics.reconstruction_error")
    values["metrics.bootstrap.self_s"] = sum(
        selfs[s["id"]] for s in by_name.get("metrics.bootstrap", ()))
    values["metrics.bootstrap.resamples"] = total("metrics.bootstrap", "resamples")
    boot_values = total("metrics.bootstrap", "values")
    values["metrics.bootstrap.dropped_frac"] = (
        total("metrics.bootstrap", "dropped") / boot_values if boot_values else 0.0)

    for name in ("synthgen.generate", "missingness.apply_scenario",
                 "missingness.apply_calibrated", "data_model.split"):
        values[f"{name}.busy_s"] = busy(name)
        values[f"{name}.calls"] = calls(name)

    values["theory.monte_carlo_validate.busy_s"] = busy("theory.monte_carlo_validate")
    values["theory.monte_carlo_validate.samples"] = total(
        "theory.monte_carlo_validate", "samples")
    values["theory.region_scan.busy_s"] = busy("theory.region_scan")
    values["theory.region_scan.cells"] = total("theory.region_scan", "cells")

    values["harness.read_csv_cohort.busy_s"] = busy("harness.read_csv_cohort")
    values["harness.Report.write.busy_s"] = busy("harness.Report.write")
    values["harness.Report.write.bytes"] = total("harness.Report.write", "bytes")
    outer = outermost_layer_spans(spans)
    values["harness.self_s"] = wall_s - covered((s["start"], s["end"]) for s in outer)
    values["harness.thread_busy_ratio"] = (
        sum(s["end"] - s["start"] for s in outer) / (wall_s * threads)
        if wall_s > 0 else 0.0)

    for name in TRACED_SPANS:
        values[f"{name}.errors"] = total(name, "errors")
    values["trace.spans"] = len(spans)
    return values


def _cohort_rows_per_fit(spans):
    """Sum, over impute.fit spans, of the rows of the cohort the fit belongs to.

    A fit belongs to the latest cohort (generated or read) that ended before
    it started on the same thread.
    """
    cohorts = sorted((s["end"], s["thread"], s["cohort_rows"]) for s in spans
                     if s["name"] in COHORT_SPANS and "cohort_rows" in s)
    rows = 0
    for fit in spans:
        if fit["name"] != "impute.fit":
            continue
        latest = 0
        for end, thread, n in cohorts:
            if end > fit["start"]:
                break
            if thread == fit["thread"]:
                latest = n
        rows += latest
    return rows
