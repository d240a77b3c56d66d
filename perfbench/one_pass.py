"""Run a workload's passes in this fresh process and write their outcomes.

    python3 perfbench/one_pass.py --plan WORKDIR/plan.json --mode untraced|traced \
        --out RESULT.json [--seconds S]

One pass by default. With ``--seconds`` (untraced only) the pass repeats for
about S seconds: suite and reference cells in rounds (``workloads``), WAV
passes whole, as long as another one fits. Untraced passes install nothing,
except that wav-grid times its cells with a one-span-per-cell tracer around
``harness.run_experiment``, because they run in process-pool workers. Traced
passes wrap every public function of the six traced modules. Fingerprints,
ACC and the mask checks are taken after the tracer is removed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import CELL_FUNCTION, Tracer  # noqa: E402

TRACED_MODULES = ("ndcore", "strategies", "scenarios", "audiofeat", "harness", "metrics")


def _cell_outcome(outcome: dict) -> dict:
    from clbench import metrics

    cell, record = outcome["cell"], outcome["record"]
    row = {"key": cell["key"], "id": cell["id"], "seed": cell["seed"],
           "regime": cell["strategy"]["kind"],
           "steps": cell["steps"], "wall_s": outcome["wall_s"], "error": outcome["error"]}
    if record is None:
        return row
    matrix = record.matrix
    required = np.ones_like(matrix.filled)
    if cell["strategy"]["kind"] == "Joint":  # Joint fills only the final row
        required[:-1] = False
    row.update(
        fingerprint=hashlib.sha256(metrics.matrix_to_csv(matrix).encode()).hexdigest(),
        acc=record.metric("acc"),
        bwt=record.metric("bwt"),
        session_s=float(sum(record.session_seconds)),
        finite=bool(np.isfinite(matrix.values[matrix.filled]).all()),
        mask_ok=not (required & ~matrix.filled).any(),
    )
    return row


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--plan", required=True)
    parser.add_argument("--mode", choices=("untraced", "traced"), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", help="write the traced pass's spans here (JSONL)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="repeat untraced passes for about this long")
    args = parser.parse_args()
    with open(args.plan) as fh:
        plan = json.load(fh)

    modules = [importlib.import_module(f"clbench.{name}") for name in TRACED_MODULES]
    importlib.import_module("clbench.cli")
    importlib.import_module("clbench.suites")
    spool = os.path.join(plan["workdir"], "spool")
    os.makedirs(spool, exist_ok=True)
    tracer = None
    if args.mode == "traced":
        tracer = Tracer(spool)
        tracer.install(modules)
    elif plan["workload"] == "wav-grid":
        tracer = Tracer(spool)
        tracer.install(modules, only={CELL_FUNCTION})

    passes, cells = [], []
    start = time.perf_counter()
    while True:
        result = workloads.run_pass(plan, args.seconds)
        if tracer is not None:
            if args.mode == "traced":
                tracer.uninstall()
            tracer.collect_spool()
        if plan["workload"] == "wav-grid":
            result["outcomes"] = workloads.wav_outcomes(plan, result)
        rows = [_cell_outcome(o) for o in result["outcomes"]]
        if tracer is not None:
            timed = {}
            for span in tracer.spans:
                if span[0] == CELL_FUNCTION and span[5]:
                    key = f"{span[5]['scenario']}/{span[5]['regime']}"
                    timed[(key, span[5]["seed"])] = span[2] - span[1]
            for row in rows:
                if row["wall_s"] is None:
                    row["wall_s"] = timed.get((row["key"], row["seed"]))
        for row in rows:
            row["pass"] = len(passes)
        cells += rows
        passes.append({"wall_s": result["wall_s"], "phases": result["phases"],
                       "failed_phases": result.get("failed_phases", {})})
        elapsed = time.perf_counter() - start
        if args.mode == "traced" or elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
        tracer.spans.clear()  # only wav-grid gets here: its cell spans are read

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {
        "passes": passes,
        "workers": result["workers"],
        "peak_rss_mb": rss_kb / 1024.0,
        "cells": cells,
    }
    if args.mode == "traced":
        out["layers"] = layers.layer_metrics(tracer.spans, result["workers"],
                                             result["phases"]["cells"])
        out["functions"] = layers.function_table(tracer.spans)
        out["cell_breakdown"] = layers.cell_breakdown(tracer.spans)
        out["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
