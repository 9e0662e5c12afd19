"""The benchmark's contract: workloads, metrics and bounds, as BENCHMARK.json holds them.

    python3 perfbench/contract.py     # rewrite BENCHMARK.json from this file
"""

import json
import os

import tracing
from workloads import WORKLOADS

RUN_SECONDS = 20

# (name, unit, better, bound). `bound` is the share of the parent's median by
# which a metric may worsen before a change counts as a regression. Set-up is
# a few hundred milliseconds of imports and file writes, the noisiest figure,
# so it gets the widest bound.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "BENCHMARK.json")


def benchmark():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in tracing.layer_metric_names()],
    }


def render():
    return json.dumps(benchmark(), indent=2) + "\n"


if __name__ == "__main__":
    with open(BENCHMARK_JSON, "w") as handle:
        handle.write(render())
    print(f"wrote {BENCHMARK_JSON}")
