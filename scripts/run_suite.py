#!/usr/bin/env python3
"""Run a synthetic desk-scale suite and print its metric table.

    python scripts/run_suite.py DI --seeds 1 2 3 --out runs_di
    python scripts/run_suite.py CI --seeds 1 2 3 --out runs_ci --curves

DI runs all ten regimes on rotating domains: plain fine-tuning forgets them,
while rehearsal and from-scratch retraining hold the top. CI runs Replay,
GDumb and Naive on shadowed disjoint classes: fine-tuning collapses on old
classes while rehearsal keeps them resolved.
"""

import argparse

from clbench import harness, suites

SUITES = {"DI": suites.run_di_suite, "CI": suites.run_ci_suite}


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("scenario", choices=sorted(SUITES))
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--out", help="persist run records under this directory")
    parser.add_argument("--format", default="text", choices=("text", "csv"))
    parser.add_argument("--curves", action="store_true", help="also print session curves")
    args = parser.parse_args()

    records = SUITES[args.scenario](seeds=tuple(args.seeds), out_dir=args.out)
    print(harness.report(records, fmt=args.format))
    if args.curves:
        for record in records:
            if record.curves is not None:  # Joint trains once and has no curve
                print(f"# {record.label}")
                print(harness.curve_csv(record))
    if args.out:
        print(f"records saved under {args.out}/<config-hash>/")


if __name__ == "__main__":
    main()
