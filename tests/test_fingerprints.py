"""Golden results: the 13 desk-suite cells at one seed must reproduce, bit for
bit, the R matrices pinned in perfbench/reference.json (regenerated by
``python3 perfbench/pin.py`` when a change moves results on purpose)."""

import hashlib
import json
import os

import pytest

from clbench import metrics, suites

REFERENCE = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "reference.json")
SEED = 1


@pytest.fixture(scope="module")
def pinned():
    with open(REFERENCE) as fh:
        return json.load(fh)["desk-suites"]


@pytest.mark.parametrize("scenario,run_suite", [("DI", suites.run_di_suite), ("CI", suites.run_ci_suite)])
def test_desk_cells_match_pinned_fingerprints(pinned, scenario, run_suite):
    moved = []
    for record in run_suite(seeds=(SEED,)):
        kind = record.label.split("(")[0].split("[")[0]
        fingerprint = hashlib.sha256(metrics.matrix_to_csv(record.matrix).encode()).hexdigest()
        if fingerprint != pinned[f"{scenario}/{kind}@{SEED}"]["fingerprint"]:
            moved.append(kind)
    assert not moved, f"{scenario} cells whose R matrix moved off the pin: {moved}"
