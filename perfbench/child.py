"""One measured process: set up a workload, call missfair.cli.main, report.

Started by run.py with the BLAS thread count pinned in its environment and
PERFBENCH_T0 set to run.py's time.monotonic() just before the spawn
(CLOCK_MONOTONIC is system-wide, so set-up time counts interpreter start and
imports). Prints one JSON line: set-up and wall time, peak RSS, the CLI's
return codes and captured output, and where the spans went when traced.

    python3 perfbench/child.py WORKLOAD SEED WORKDIR TRACE [THREADS]
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import tracing
from workloads import WORKLOADS


def main(argv):
    name, seed, work, traced = argv[0], int(argv[1]), argv[2], argv[3] == "1"
    threads = int(argv[4]) if len(argv) > 4 else None
    t0 = float(os.environ["PERFBENCH_T0"])
    workload = WORKLOADS[name]

    from missfair import cli
    import numpy
    with contextlib.redirect_stdout(io.StringIO()):
        workload.prepare(seed, work, threads)
    setup_s = time.monotonic() - t0

    tracer = tracing.Tracer() if traced else None
    restore = tracing.install(tracer) if traced else None
    returncodes, stdout, error = [], [], None
    wall_s = 0.0
    try:
        for command in workload.commands(seed, work):
            captured = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(captured):
                    returncodes.append(cli.main(command))
            finally:
                wall_s += time.perf_counter() - start
                stdout.append(captured.getvalue().splitlines())
    except Exception:
        error = traceback.format_exc(limit=8)
    finally:
        if restore is not None:
            restore()

    spans_file = None
    if traced:
        spans_file = os.path.join(work, "spans.json")
        with open(spans_file, "w") as handle:
            json.dump(tracer.spans, handle)

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "setup_s": setup_s, "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "returncodes": returncodes, "stdout": stdout, "error": error,
        "spans_file": spans_file,
        "env": {"numpy": numpy.__version__,
                "blas": f"{blas.get('name')} {blas.get('version')}"},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
