"""Command-line front end.

Exit codes: 0 success, 1 usage, 2 stream validation failure, 3 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import audiofeat, harness, scenarios
from .harness import ExperimentConfig
from .strategies import StrategyConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="clbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="build a stream from a manifest and validate it")
    p.add_argument("--manifest", required=True)
    p.add_argument("--json-out", help="write the validation report as JSON")

    p = sub.add_parser("extract-features", help="extract WAV features into a FEA1 cache")
    p.add_argument("--manifest", required=True)
    p.add_argument("--cache", help="cache path (default: <manifest>.fea1)")
    p.add_argument("--pool", default="mean-over-time", choices=audiofeat.POOL_MODES)

    p = sub.add_parser("run", help="run one experiment from a config JSON")
    p.add_argument("--config", required=True)

    p = sub.add_parser("grid", help="run a hyperparameter grid from a config JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("report", help="tabulate persisted run records")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--format", default="text", choices=("text", "csv"))
    p.add_argument("--out", help="write the table to a file instead of stdout")

    p = sub.add_parser("gen-synthetic", help="generate and validate a synthetic manifest")
    p.add_argument("--scenario", required=True, choices=("DI", "CI"))
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--reference",
        action="store_true",
        help="use the published benchmark's per-task clip counts",
    )

    sub.add_parser("selftest", help="run built-in gradient/metric/projection checks")
    return parser


def _config_from_json(path: str) -> ExperimentConfig:
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict) or not isinstance(raw.get("strategy"), dict):
        raise ValueError("a run config must be a JSON object with a 'strategy' object")
    for entry, cls, what in ((raw, ExperimentConfig, "run config"),
                             (raw["strategy"], StrategyConfig, "strategy")):
        harness._reject_unknown_keys(entry, [f.name for f in dataclasses.fields(cls)], what)
    raw["strategy"] = StrategyConfig(**raw["strategy"])
    return ExperimentConfig(**raw)


def _cmd_validate(args) -> int:
    manifest = scenarios.load_manifest(args.manifest)
    try:
        report = scenarios.validate_stream(scenarios.build_stream(manifest))
    except scenarios.StreamValidationError as exc:
        report = exc.report
    text = report.to_json()
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(text)
    print(text)
    return EXIT_OK if report.ok else EXIT_VALIDATION


def _cmd_extract(args) -> int:
    manifest = scenarios.load_manifest(args.manifest)
    cache = args.cache or args.manifest + ".fea1"
    scenarios.build_stream(manifest, args.pool, cache)  # a failing stream exits 2
    if not any("train_glob" in entry for task in manifest["tasks"] for entry in task["classes"]):
        print("manifest has no file sources; nothing to extract")
    else:
        print(f"feature cache: {cache}")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = _config_from_json(args.config)
    record = harness.run_experiment(config)
    print(harness.report([record]))
    if config.out_dir:
        print(f"record saved under {harness.record_dir(record, config.out_dir)}")
    return EXIT_OK


def _cmd_grid(args) -> int:
    with open(args.config) as fh:
        grid = json.load(fh)
    results = harness.run_grid(grid, workers=args.workers)
    records = [r for r in results if not isinstance(r, dict)]
    failures = [r for r in results if isinstance(r, dict)]
    for failure in failures:
        sys.stderr.write(f"cell failed: {failure['label']} seed={failure['seed']}: {failure['error']}\n")
    if records:
        print(harness.report(records))
    return EXIT_OK if not failures else EXIT_RUNTIME


def _cmd_report(args) -> int:
    records = harness.load_records(args.in_dir)
    if not records:
        raise FileNotFoundError(f"no run records under {args.in_dir}")
    text = harness.report(records, fmt=args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)
    return EXIT_OK


def _cmd_gen_synthetic(args) -> int:
    if args.scenario == "DI":
        manifest = (
            scenarios.reference_di_manifest(seed=args.seed)
            if args.reference
            else scenarios.synthetic_di_manifest(seed=args.seed)
        )
    else:
        manifest = (
            scenarios.reference_ci_manifest(seed=args.seed)
            if args.reference
            else scenarios.synthetic_ci_manifest(seed=args.seed)
        )
    os.makedirs(args.out, exist_ok=True)
    manifest_path = os.path.join(args.out, f"{args.scenario.lower()}_manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2)
    scenarios.build_stream(manifest)  # a failing stream exits via StreamValidationError
    print(f"manifest: {manifest_path}")
    print("validation: pass")
    return EXIT_OK


def _cmd_selftest(args) -> int:
    ok, lines = harness.selftest()
    for line in lines:
        print(line)
    return EXIT_OK if ok else EXIT_RUNTIME


_COMMANDS = {
    "validate": _cmd_validate,
    "extract-features": _cmd_extract,
    "run": _cmd_run,
    "grid": _cmd_grid,
    "report": _cmd_report,
    "gen-synthetic": _cmd_gen_synthetic,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except scenarios.ManifestError as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return EXIT_VALIDATION
    except (OSError, ValueError, RuntimeError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
