"""Command-line entry points: simulate, audit-csv, region-scan, validate-theorems."""

import argparse
import os
import sys

from . import harness
from .data_model import ConfigurationError


def _add_common(parser):
    parser.add_argument("--config", help="YAML configuration file")
    parser.add_argument("--out", help="override the output directory")


def _positive(kind, zero_ok=False):
    """argparse type: a number of the given kind that is greater than 0 (or 0, if zero_ok)."""
    def parse(text):
        value = kind(text)
        if not (value >= 0 if zero_ok else value > 0):
            requirement = "0 or more" if zero_ok else "greater than 0"
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value
    parse.__name__ = kind.__name__      # argparse says "invalid int value: ..."
    return parse


def _check_output_dir(path):
    """Raise ConfigurationError unless `path` is a directory or could be made one; the
    check creates nothing, so a run that fails leaves no output directory behind."""
    existing = os.path.abspath(path)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not (os.path.isdir(existing) and os.access(existing, os.W_OK | os.X_OK)):
        raise ConfigurationError(f"cannot write {path}: {existing} is not a writable directory")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="missfair",
        description="Simulate group-specific missingness, impute, and audit fairness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="repeated synthetic experiment, CSV report")
    _add_common(p)
    p.add_argument("--seed", type=int, help="override the run seed")
    p.add_argument("--repetitions", type=int, help="number of repetitions")
    p.add_argument("--threads", type=int,
                   help="repetitions run at once, each in a worker process")

    p = sub.add_parser("audit-csv", help="audit imputers on an external CSV")
    _add_common(p)
    p.add_argument("--seed", type=int, help="override the run seed")
    p.add_argument("--input", help="CSV path (overrides csv.path from the config)")
    p.add_argument("--group-column", help="name of the 0/1 group column")
    p.add_argument("--outcome-column", help="name of the 0/1 outcome column")

    # the scan is closed-form: it draws nothing at random, so it takes no --seed
    p = sub.add_parser("region-scan", help="closed-form gap map over a rho grid")
    _add_common(p)

    p = sub.add_parser("validate-theorems",
                       help="Monte Carlo check of the closed-form error formulas")
    p.add_argument("--cases", type=_positive(int), default=20,
                   help="random cases, run at once: one worker process per usable CPU, "
                        "at most one per case; the output is the same for any CPU count")
    p.add_argument("--samples", type=_positive(int), default=1_000_000)
    p.add_argument("--seed", type=_positive(int, zero_ok=True), default=0)
    p.add_argument("--tolerance", type=_positive(float), default=0.02)

    p = sub.add_parser("make-standin", help="write a stand-in CSV for audit-csv")
    p.add_argument("--out", required=True, help="destination CSV path")
    p.add_argument("--seed", type=_positive(int, zero_ok=True), default=0)

    args = parser.parse_args(argv)
    try:
        if args.command == "validate-theorems":
            lines, ok = harness.run_theorem_validation(
                n_cases=args.cases, n=args.samples, seed=args.seed, tolerance=args.tolerance)
            print("\n".join(lines))
            print("all within tolerance" if ok else "TOLERANCE EXCEEDED")
            return 0 if ok else 1

        if args.command == "make-standin":
            print(f"wrote {harness.make_standin(args.out, seed=args.seed)}")
            return 0

        overrides = {"output_dir": args.out}
        if args.command != "region-scan":
            overrides["seed"] = args.seed
        if args.command == "simulate":
            overrides.update(repetitions=args.repetitions, threads=args.threads)
        if args.command == "audit-csv":     # always given, so the manifest records csv: {}
            overrides["csv"] = {key: value for key, value in (
                ("path", args.input), ("group_column", args.group_column),
                ("outcome_column", args.outcome_column)) if value is not None}
        config = harness.load_config(args.config, overrides)
        _check_output_dir(config["output_dir"])
        run = {"simulate": harness.run_simulation, "audit-csv": harness.run_csv_audit,
               "region-scan": harness.run_region_scan}[args.command]
        print(f"wrote {run(config).write(config['output_dir'])}")
        return 0
    except ConfigurationError as exc:   # a usage error like argparse's own: one line, exit 2
        sub.choices[args.command].error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
