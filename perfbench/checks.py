"""Output checks for one pass against the pinned references.

``reference.json`` pins, per workload and cell id, the fingerprint
``sha256(metrics.matrix_to_csv(R))`` and the final accuracy ACC of every cell
of the pool seeds (``workloads.PINNED_SEEDS``); every pass draws its inputs
from that pool. A cell fails when it raised, when it has no pin, when R holds
a non-finite value or leaves a required cell empty, when its ACC differs from
its own pinned ACC by more than the cell's tolerance, or (desk-suites) when
an ordinal trend of the tier-1 suite fails. A fingerprint that differs from
the pinned one is bitwise drift: it is counted and printed, never failed,
because a change of float order can flip a few test predictions without
changing what a regime does.

ACC tolerance: ACC_TOL, capped at CAP_SD standard deviations of the cell's
ACC across the pool seeds. R counts correct test predictions, so float-order
noise moves ACC only when it flips a prediction, and it rarely does: with
every forward and weight-gradient matmul computed by ``np.einsum`` instead
of BLAS (a different summation order; about 70 % of the products change in
their last bits), all 1 860 pool cells kept their pinned R bit for bit, and
so did the desk cells with Adam's division done as a multiplication by the
reciprocal. ACC_TOL allows three flipped predictions on the coarsest cells
(desk DI: 1/300 a prediction). The cap keeps the check inside the
seed-to-seed scatter, so a regime whose extra is skipped (a GEM projection
that returns the gradient, no EWC or SI penalty) leaves the tolerance on the
cells where the extra changes the result; where every seed scores the same
(wav-grid: 1.0) the pinned ACC is demanded exactly.
"""

from __future__ import annotations

import json
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
ACC_TOL = 0.01
CAP_SD = 2.0


def load_reference() -> dict:
    if not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE) as fh:
        return json.load(fh)


def acc_tolerances(reference: dict, workload: str) -> dict[str, float]:
    """Per cell key: min(ACC_TOL, CAP_SD x the SD of its pinned ACCs)."""
    by_key: dict[str, list[float]] = {}
    for cell_id, pinned in reference.get(workload, {}).items():
        by_key.setdefault(cell_id.split("@")[0], []).append(pinned["acc"])
    return {key: min(ACC_TOL, CAP_SD * statistics.stdev(accs)) for key, accs in by_key.items()}


def _trend_failures(cells: list[dict]) -> dict[str, str]:
    """Keys of the desk-suites cells whose tier-1 trend fails, on the means
    over the pass's seeds: CI Replay > GDumb > Naive with Replay - Naive over
    20 points; DI Cumulative within 2 points of every continual regime and
    Replay BWT above Naive BWT."""
    mean = {}
    for metric in ("acc", "bwt"):
        values: dict[str, list[float]] = {}
        for row in cells:
            if row.get(metric) is not None:
                values.setdefault(row["key"], []).append(row[metric])
        mean[metric] = {k: statistics.fmean(v) for k, v in values.items()}
    acc, bwt = mean["acc"], mean["bwt"]
    failed = {}
    try:
        if not (acc["CI/Replay"] > acc["CI/GDumb"] > acc["CI/Naive"]
                and acc["CI/Replay"] - acc["CI/Naive"] > 0.20):
            for key in ("CI/Replay", "CI/GDumb", "CI/Naive"):
                failed[key] = "CI trend"
        for key, value in acc.items():
            regime = key.split("/")[1]
            if key.startswith("DI/") and regime not in ("Cumulative", "Joint", "Naive"):
                if acc["DI/Cumulative"] < value - 0.02:
                    failed[key] = failed["DI/Cumulative"] = "DI Cumulative not within 2 points"
        if not bwt["DI/Replay"] > bwt["DI/Naive"]:
            failed["DI/Replay"] = failed["DI/Naive"] = "DI Replay BWT not above Naive"
    except KeyError as exc:  # a trend cell produced no record; it already failed
        failed[exc.args[0]] = "trend cell missing"
    return failed


def check_pass(workload: str, cells: list[dict], reference: dict) -> dict:
    """{"failed": {cell id: reason}, "drift": n, "pinned": n}"""
    tolerances = acc_tolerances(reference, workload)
    pins = reference.get(workload, {})
    failed: dict[str, str] = {}
    drift = pinned = 0
    for row in cells:
        ident = row["id"]
        expected = pins.get(ident)
        if row["error"]:
            failed[ident] = row["error"]
        elif expected is None:
            failed[ident] = "no pinned reference (run pin.py)"
        elif not row["finite"]:
            failed[ident] = "non-finite accuracy"
        elif not row["mask_ok"]:
            failed[ident] = "required R cell empty"
        elif abs(row["acc"] - expected["acc"]) > tolerances[row["key"]]:
            failed[ident] = (f"ACC {row['acc']:.4f}, pinned {expected['acc']:.4f} "
                             f"+/- {tolerances[row['key']]:.4f}")
        if expected is not None and not row["error"]:
            pinned += 1
            drift += expected["fingerprint"] != row["fingerprint"]
    if workload == "desk-suites":
        for key, reason in _trend_failures(cells).items():
            for row in cells:
                if row["key"] == key:
                    failed.setdefault(row["id"], reason)
    return {"failed": failed, "drift": drift, "pinned": pinned}
