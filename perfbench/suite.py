"""Run every workload on several seeds, then once traced; check the figures hold.

    python3 perfbench/suite.py                 # seeds 1 and 2, then a traced run
    python3 perfbench/suite.py --seeds 10      # the ten-seed steadiness check

Calls run.py once per (workload, seed) and prints, per workload and
end-to-end metric, the median over seeds and the spread: the distance
between the first and third quartile as a share of the median
(statistics.quantiles, n=4). A spread must stay within the metric's bound
(set-up time excepted, its spread is reported only) and is flagged as noisy
above a third of it. The second seed's value must lie within the bound of
the first seed's. It then
makes one traced run per workload, which prints every per-layer metric and
the tracing overhead. It rewrites BENCHMARK.json from contract.py and saves
everything to perfbench/out/suite.json. Exits 1 when a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import contract
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, lines, result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=contract.RUN_SECONDS)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=list(WORKLOADS))
    parser.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    args = parser.parse_args(argv)

    with open(contract.BENCHMARK_JSON, "w") as handle:
        handle.write(contract.render())
    bounds = {n: bound for n, _, _, bound in contract.END_TO_END}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    ok = True
    summary = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for name in args.workloads:
        values = {metric: [] for metric in bounds}
        runs = []
        for seed in seeds:
            code, lines, result = run(name, seed, args.seconds, 0)
            runs.append({"seed": seed, "exit": code, "result": result})
            if code != 0 or result is None or not result["correct"]:
                ok = False
                print(f"{name} seed {seed}: FAILED (exit {code})\n  " +
                      "\n  ".join(lines[-12:]))
                continue
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m} {v['value']:.4f} {v['unit']}" for m, v in result["metrics"].items())
                + f", failed_frac {result['failed'] / result['attempted']:.4f} ratio "
                f"({result['failed']} of {result['attempted']})", flush=True)
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
        stats = {}
        for metric, bound in bounds.items():
            vals = values[metric]
            if len(vals) < 2:
                continue
            s = spread(vals)
            second = abs(vals[1] - vals[0]) / vals[0]
            within = (metric == "setup_s" or s <= bound) and second <= bound
            ok = ok and within
            stats[metric] = {"values": vals, "median": statistics.median(vals),
                             "spread": s, "second_seed_change": second, "bound": bound}
            note = ", not checked" if metric == "setup_s" else (
                ", noisy: above bound/3" if s > bound / 3 else "")
            print(f"  {name} {metric:12s} median {statistics.median(vals):10.4f}  "
                  f"spread {s:6.3f} (bound {bound}{note})  "
                  f"seed {seeds[1]} vs {seeds[0]} {second:+.3f} (bound {bound})"
                  + ("" if within else "  <-- OUT OF BOUND"), flush=True)
        summary["workloads"][name] = {"runs": runs, "end_to_end": stats}
        if not args.no_trace:
            code, lines, result = run(name, seeds[0], args.seconds, 1)
            print("\n".join(line for line in lines[:-1]), flush=True)
            ok = ok and code == 0
            summary["workloads"][name]["traced"] = result
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "suite.json"), "w") as handle:
        json.dump(summary, handle, indent=1)
    print("suite " + ("PASSED" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
