"""Benchmark entry point: one workload, one seed, measured for a fixed time.

    python3 perfbench/run.py --workload simulate-full --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. Each measurement is a fresh child
process (perfbench/child.py) that sets up the workload and calls
`missfair.cli.main` end to end, with BLAS pinned to one thread. Children are
started one after another until --seconds have passed (at least
MIN_CHILDREN); the metrics are their medians.

--trace 0 reports the end-to-end metrics (wall_s, setup_s, peak_rss_mb).
--trace 1 alternates untraced and traced children and reports the per-layer
metrics from the traced ones, plus the tracing overhead (traced minus
untraced wall_s). Every run checks the outputs; the first child's outputs get
the full check and every later child must write the same bytes.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
lines before it give each metric with its unit and the environment. The exit
code is 0 only when every output checked out.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import contract
import tracing
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
MIN_CHILDREN = 3
CHILD_TIMEOUT_S = 150
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
UNITS = {name: unit for name, unit, _, _ in contract.END_TO_END}


def spawn(workload, seed, work, traced, threads=None):
    """Run one child; returns its JSON result, or a dict with "error" set."""
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.update({name: BLAS_THREADS for name in BLAS_ENV})
    argv = [sys.executable, os.path.join(HERE, "child.py"), workload.name, str(seed),
            work, "1" if traced else "0"] + ([str(threads)] if threads else [])
    env["PERFBENCH_T0"] = repr(time.monotonic())
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"child timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"child exited {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(lines[-1])


def fingerprint(work, child):
    """Digest of a child's return codes, printed lines and report.csv.

    The child's own directory is masked out of the printed lines; the
    manifest is left out because it records that directory.
    """
    printed = json.dumps([child["returncodes"], child["stdout"]]).replace(work, "<work>")
    digest = hashlib.sha256(printed.encode())
    path = os.path.join(work, "out", "report.csv")
    if os.path.exists(path):
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


class Run:
    """The children of one benchmark run and what their checks found."""

    def __init__(self, workload, seed, rundir):
        self.workload, self.seed, self.rundir = workload, seed, rundir
        self.reference = None
        self.first = None           # fingerprint of the first fully checked child
        self.children = []          # (traced, result)
        self.problems = []
        self.attempted = self.failed = 0
        self.env = {}

    def measure(self, traced, index):
        work = os.path.join(self.rundir, f"child{index}")
        child = spawn(self.workload, self.seed, work, traced)
        self.attempted += self.workload.operations
        if child.get("error"):
            self.failed += self.workload.operations
            self.problems.append(f"child {index}: {child['error']}")
            return None
        self.env = child["env"]
        if self.first is None:
            problems, failed = self.workload.check(work, child, self.reference)
            self.first = fingerprint(work, child)
        else:
            problems, failed = [], 0
            if fingerprint(work, child) != self.first:
                problems = ["outputs differ from the first child's"]
                failed = self.workload.operations
        self.failed += failed
        self.problems += [f"child {index}: {p}" for p in problems]
        if traced:
            with open(child["spans_file"]) as handle:
                child["layers"] = tracing.layer_metrics(
                    json.load(handle), child["wall_s"], self.workload.threads)
            shutil.copy(child["spans_file"],
                        os.path.join(OUT, f"spans-{self.workload.name}.json"))
        shutil.rmtree(work, ignore_errors=True)
        self.children.append((traced, child))
        return child

    def make_reference(self):
        """A threads: 1 child of the same inputs that the timed children must match."""
        work = os.path.join(self.rundir, "reference")
        child = spawn(self.workload, self.seed, work, False, threads=1)
        if child.get("error"):
            self.problems.append(f"reference: {child['error']}")
            return
        problems, _ = self.workload.check(work, child)
        self.problems += [f"reference: {p}" for p in problems]
        self.reference = work

    def medians(self, traced, key):
        return statistics.median(c[key] for t, c in self.children if t == traced)


def environment(run):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                 capture_output=True, text=True).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"workload": run.workload.name, "seed": run.seed, "cpu": cpu,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            **run.env, "blas_threads": BLAS_THREADS, "git_sha": sha}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=contract.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "missfair", "cli.py")):
        print(f"no missfair sources under {os.path.join(ROOT, 'src')}: run from the "
              "root of a missfair checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    rundir = os.path.join(OUT, f"{workload.name}-s{args.seed}-t{args.trace}-{os.getpid()}")
    run = Run(workload, args.seed, rundir)
    try:
        if workload.needs_reference:
            run.make_reference()
        start = time.monotonic()
        index = 0
        while index < (2 if args.trace else MIN_CHILDREN) \
                or time.monotonic() - start < args.seconds:
            traced = bool(args.trace) and index % 2 == 1
            if run.measure(traced, index) is None:
                break
            index += 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    metrics = report(run, args.trace)
    correct = not run.problems and len(run.children) > 0
    for problem in run.problems[:30]:
        print(f"CHECK FAILED {problem}")
    env = environment(run)
    print("env " + json.dumps(env, sort_keys=True))
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"last-{workload.name}-trace{args.trace}.json"), "w") as h:
        json.dump({"env": env, "problems": run.problems, **result,
                   "children": [{"traced": t, **{k: c[k] for k in UNITS}}
                                for t, c in run.children]}, h, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


def report(run, trace):
    """Metric dict for the final line; prints each metric with its unit."""
    untraced = [c for t, c in run.children if not t]
    name = run.workload.name
    print(f"{name} seed {run.seed}: {len(untraced)} untraced children")
    print(f"  {name} {'failed_frac':12s} {run.failed / max(run.attempted, 1):12.6f} ratio "
          f"({run.failed} of {run.attempted} operations)")
    if not untraced:
        return {}
    if not trace:
        metrics = {n: {"value": run.medians(False, n), "unit": u} for n, u in UNITS.items()}
        for n, m in metrics.items():
            values = [c[n] for c in untraced]
            print(f"  {name} {n:12s} {m['value']:12.6f} {m['unit']:5s} (median of "
                  f"{len(values)}, min {min(values):.6f}, max {max(values):.6f})")
        return metrics
    layers = [c["layers"] for t, c in run.children if t]
    if not layers:
        return {}
    metrics = {}
    for n, unit, _ in tracing.layer_metric_names():
        if n not in tracing.OVERHEAD_METRICS:
            metrics[n] = {"value": statistics.median(l[n] for l in layers), "unit": unit}
    base = run.medians(False, "wall_s")
    overhead = run.medians(True, "wall_s") - base
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.overhead_frac"] = {"value": overhead / base, "unit": "ratio"}
    for n, m in metrics.items():
        print(f"  {name} {n:48s} {m['value']:14.6f} {m['unit']} "
              f"(median of {len(layers)} traced)")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
