"""Regenerate ``reference.json``: the fingerprint and ACC of every cell of
every workload at each seed of ``workloads.PINNED_SEEDS``, from one untraced
pass per pool seed.

    python3 perfbench/pin.py

Run from the repository root; it takes about ten minutes on two cores. Only
needed when a change is meant to move results; bitwise drift alone is
reported by ``run.py`` without failing.
"""

import json
import os
import shutil
import sys
import tempfile
import time

import checks
import run  # sets the BLAS thread variables before numpy loads
import workloads

sys.path.insert(0, run.SRC)


def main() -> int:
    reference = {}
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    for workload in workloads.WORKLOADS:
        pins = reference[workload] = {}
        for seed in workloads.PINNED_SEEDS:
            workdir = tempfile.mkdtemp(prefix="pin-", dir=run.WORK_ROOT)
            try:
                plan = workloads.prepare(workload, seed, workdir)
                result = run.run_pass(plan, "untraced", time.monotonic() + 600)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            for cell in result["cells"]:
                if cell["error"]:
                    sys.stderr.write(f"{cell['id']} raised: {cell['error']}\n")
                    return 1
                pins[cell["id"]] = {"fingerprint": cell["fingerprint"], "acc": cell["acc"]}
            print(f"{workload} seed {seed}: {result['passes'][0]['wall_s']:.2f}s", flush=True)
    with open(checks.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
