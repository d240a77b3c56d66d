"""clbench benchmark: wall time per regime, end to end and split by module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workloads (see ``BENCHMARK.json`` for why each
was chosen):

  desk-suites      ``suites`` DI + CI cells at seed N, 13 cells
  reference-epoch  all ten regimes, published defaults, ``epochs=1``, on the
                   reference DI and CI layouts at a sixth of their clip counts
  wav-grid         seeded WAV clips: ``clbench extract-features``, then
                   ``clbench grid`` (ten regimes x three seeds on a process
                   pool), ``clbench report``

Inputs are generated before anything is timed, from pool seed N mod 20;
the pool's cells are pinned in ``reference.json`` (regenerate with
``pin.py``), so every cell is checked against its own pinned result.

``--trace 0`` times set-up in fresh interpreters, then measures untraced
passes in one further process for about S seconds: the suite and reference
cells repeat in rounds, WAV passes repeat whole. Each cell's time is the
median of its repeats; ``wall_s`` is the sum of those medians (wav-grid: the
median pass), ``regime_s.<regime>`` the sum over the regime's cells, and
``steps_per_s`` divides the optimizer steps of one pass by the summed median
session time. ``--trace 1`` alternates two untraced and
two traced passes and reports the per-layer metrics and the tracing
overhead; it fails unless all four give identical fingerprints and the two
traced passes repeat every count exactly. Every pass is checked (``checks.py``).

Everything but the last stdout line is for people: environment, per-pass
figures, checks, and the traced split. The last line is one JSON object with
the keys correct, attempted, failed (cells) and metrics. Spans and a run
summary are written under ``.perfbench_out/``; generated inputs live in
``.perfbench_work/`` and are removed on exit.
"""

import os

# BLAS threads must be pinned before numpy loads here or in any child; the
# matmuls are tiny and OpenBLAS would otherwise start up to 64 threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

# A run must end within 180 s: stop measuring PASS_BUDGET_S after the start
# and kill a measuring process that is still running at HARD_LIMIT_S.
PASS_BUDGET_S = 150.0
HARD_LIMIT_S = 172.0
SETUP_REPEATS = {"desk-suites": 5, "reference-epoch": 5, "wav-grid": 3}

REGIMES = ("Naive", "Cumulative", "Joint", "EWC", "LwF", "SI", "Replay", "GDumb", "GEM", "AGEM")
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "1/s",
    **{f"regime_s.{r}": "s" for r in REGIMES},
    "peak_rss_mb": "MB",
}
TRACE_OVERHEAD = "trace.overhead"


class PassError(RuntimeError):
    pass


def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _run_child(cmd: list[str], deadline: float) -> None:
    """Run `cmd` in its own process group; kill the group at `deadline`."""
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise PassError(f"{os.path.basename(cmd[1])} exceeded the run's time limit")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # pool workers left behind, if any
        except ProcessLookupError:
            pass
    if code != 0:
        raise PassError(f"{os.path.basename(cmd[1])} exited with code {code}")


def run_pass(plan: dict, mode: str, deadline: float, spans: str | None = None,
             seconds: float = 0.0) -> dict:
    out = os.path.join(plan["workdir"], f"pass-{time.monotonic_ns()}.json")
    cmd = [sys.executable, os.path.join(HERE, "one_pass.py"), "--plan",
           os.path.join(plan["workdir"], "plan.json"), "--mode", mode, "--out", out]
    if spans:
        cmd += ["--spans", spans]
    if seconds:
        cmd += ["--seconds", f"{seconds:.3f}"]
    _run_child(cmd, deadline)
    with open(out) as fh:
        return json.load(fh)


def setup_seconds(plan: dict, deadline: float) -> float:
    out = os.path.join(plan["workdir"], "setup.txt")
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), *plan["manifests"]]
    with open(out, "w") as fh:
        proc = subprocess.run(cmd, stdout=fh, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise PassError(f"setup probe exited with code {proc.returncode}")
    with open(out) as fh:
        return float(fh.read())


def samples(result: dict) -> dict:
    """Cell id -> the rows of its runs that produced a record."""
    by_id: dict[str, list] = {}
    for c in result["cells"]:
        if "session_s" in c and c["wall_s"] is not None:
            by_id.setdefault(c["id"], []).append(c)
    return by_id


def run_metrics(workload: str, result: dict) -> dict:
    by_id = samples(result)
    wall = {i: statistics.median(c["wall_s"] for c in rows) for i, rows in by_id.items()}
    session = sum(statistics.median(c["session_s"] for c in rows) for rows in by_id.values())
    steps = sum(rows[0]["steps"] for rows in by_id.values())
    if workload == "wav-grid":  # extract and report run once a pass, outside the cells
        wall_s = statistics.median(p["wall_s"] for p in result["passes"])
    else:
        wall_s = sum(wall.values())
    metrics = {"wall_s": wall_s, "steps_per_s": steps / session if session else 0.0}
    for regime in REGIMES:
        metrics[f"regime_s.{regime}"] = sum(
            wall[i] for i, rows in by_id.items() if rows[0]["regime"] == regime
        )
    metrics["peak_rss_mb"] = result["peak_rss_mb"]
    return metrics


def fingerprints(result: dict) -> dict:
    """Cell id -> its fingerprints, one per distinct value among its runs."""
    out: dict[str, list] = {}
    for c in result["cells"]:
        seen = out.setdefault(c["id"], [])
        if c.get("fingerprint") not in seen:
            seen.append(c.get("fingerprint"))
    return out


class Verdict:
    """Cell failures and whole-run problems collected over a run's passes."""

    def __init__(self, workload: str):
        self.workload = workload
        self.reference = checks.load_reference()
        self.attempted = 0
        self.failed = 0
        self.drift = None
        self.problems: list[str] = []
        self.lines: list[str] = []

    def add_pass(self, result: dict, label: str) -> None:
        report = checks.check_pass(self.workload, result["cells"], self.reference)
        self.attempted += len(result["cells"])
        self.failed += len(report["failed"])
        for cell_id, reason in sorted(report["failed"].items()):
            self.lines.append(f"FAIL {label} {cell_id}: {reason}")
        if self.drift is None:
            self.drift = (report["drift"], report["pinned"])
            for cell_id, rows in samples(result).items():
                c = rows[0]
                self.lines.append(f"cell {cell_id}: acc={c['acc']:.4f} "
                                  f"fingerprint={c['fingerprint'][:12]} wall_s="
                                  + " ".join(f"{r['wall_s']:.3f}" for r in rows))
        for p in result["passes"]:
            for phase, code in p["failed_phases"].items():
                self.problems.append(f"{label}: clbench {phase} exited with code {code}")
        repeated = {i: f for i, f in fingerprints(result).items() if len(f) > 1}
        if repeated:
            self.problems.append("fingerprints of repeated runs differ: "
                                 + ", ".join(sorted(repeated)[:6]))

    def same(self, a: dict, b: dict, what: str) -> None:
        if a != b:
            diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
            self.problems.append(f"{what} differ: {', '.join(diff[:6])}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def measure(plan: dict, seconds: int, start: float, verdict: Verdict, lines: list) -> dict:
    deadline = start + HARD_LIMIT_S
    setups = [setup_seconds(plan, deadline) for _ in range(SETUP_REPEATS[plan["workload"]])]
    lines.append("setup_s runs: " + " ".join(f"{s:.4f}" for s in setups))
    budget = min(seconds, PASS_BUDGET_S - (time.monotonic() - start))
    result = run_pass(plan, "untraced", deadline, seconds=max(1.0, budget))
    verdict.add_pass(result, "timed")
    for i, p in enumerate(result["passes"], start=1):
        phases = " ".join(f"{k}={v:.3f}s" for k, v in p["phases"].items())
        lines.append(f"pass {i}: wall_s={p['wall_s']:.4f} [{phases}]")
    repeats = [len(rows) for rows in samples(result).values()]
    lines.append(f"runs a cell: {min(repeats, default=0)}-{max(repeats, default=0)}")
    metrics = {"setup_s": statistics.median(setups), **run_metrics(plan["workload"], result)}
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}


def trace(plan: dict, start: float, verdict: Verdict, lines: list) -> dict:
    deadline = start + HARD_LIMIT_S
    os.makedirs(OUT_ROOT, exist_ok=True)
    spans_path = os.path.join(OUT_ROOT, f"{plan['workload']}-seed{plan['seed']}.spans.jsonl")
    # untraced and traced passes alternate, so drift does not bias the overhead
    untraced, traced = [], []
    for i, mode in enumerate(("untraced", "traced", "untraced", "traced")):
        result = run_pass(plan, mode, deadline, spans=spans_path if i == 1 else None)
        verdict.add_pass(result, f"{mode} {i // 2 + 1}")
        if i:
            verdict.same(fingerprints(untraced[0]), fingerprints(result),
                         "fingerprints of the untraced and traced passes")
        (traced if mode == "traced" else untraced).append(result)
    first, second = (t["layers"] for t in traced)
    verdict.same({k: first[k] for k in layers.EXACT_COUNTS},
                 {k: second[k] for k in layers.EXACT_COUNTS}, "counts of the two traced passes")
    if first["audiofeat.read_feature_cache.hits"] != first["audiofeat.read_feature_cache.calls"]:
        verdict.problems.append("grid cells missed the pre-extracted feature cache")

    steps = sum(c["steps"] for c in untraced[0]["cells"])
    if steps != first["ndcore.adam_step.calls"]:  # steps_per_s would divide a stale count
        verdict.problems.append(f"the step model gives {steps} steps, the trace counted "
                                f"{first['ndcore.adam_step.calls']} adam_step calls")
    traced_walls = [t["passes"][0]["wall_s"] for t in traced]
    untraced_walls = [u["passes"][0]["wall_s"] for u in untraced]
    traced_wall = statistics.fmean(traced_walls)
    untraced_wall = statistics.fmean(untraced_walls)
    lines.append("untraced wall_s=" + " ".join(f"{w:.4f}" for w in untraced_walls)
                 + "; traced wall_s=" + " ".join(f"{w:.4f}" for w in traced_walls)
                 + f"; spans per traced pass={traced[0]['spans']}")
    lines.append("top self time (traced pass 1): function calls self_s")
    for name, calls, self_s in traced[0]["functions"][:25]:
        lines.append(f"  {name:<40} {calls:>9} {self_s:10.4f}")
    lines.append("per cell: wall_s and top self-time functions")
    for label, wall, ranked in traced[0]["cell_breakdown"]:
        top = ", ".join(f"{n} {s:.3f}" for n, s in ranked)
        lines.append(f"  {label:<16} {wall:8.3f}  {top}")

    metrics = {}
    for name, unit in layers.PER_LAYER.items():
        value = first[name] if name in layers.EXACT_COUNTS else statistics.fmean(t["layers"][name] for t in traced)
        metrics[name] = {"value": value, "unit": unit}
    metrics[TRACE_OVERHEAD] = {"value": 100.0 * (traced_wall / untraced_wall - 1.0), "unit": "%"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="clbench benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    start = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "clbench", "__init__.py")):
        sys.stderr.write(f"clbench sources not found under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}\n")
        return 2
    if args.seconds < 1:
        sys.stderr.write("--seconds must be >= 1\n")
        return 2

    env = environment()
    lines = [f"workload={args.workload} seed={args.seed} (inputs from pool seed "
             f"{args.seed % len(workloads.PINNED_SEEDS)}) seconds={args.seconds} trace={args.trace}",
             "environment: " + " ".join(f"{k}={v}" for k, v in env.items())]
    verdict = Verdict(args.workload)
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        plan = workloads.prepare(args.workload, args.seed, workdir)
        lines.append(f"inputs generated in {time.monotonic() - start:.2f}s (not timed)")
        if args.trace:
            metrics = trace(plan, start, verdict, lines)
        else:
            metrics = measure(plan, args.seconds, start, verdict, lines)
    except PassError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    drift, pinned = verdict.drift
    lines.append(f"cells: attempted={verdict.attempted} failed={verdict.failed}; "
                 f"bitwise drift against pinned fingerprints: {drift} of {pinned} cells")
    lines.extend(verdict.lines)
    lines.extend(f"PROBLEM {p}" for p in verdict.problems)
    for name, m in metrics.items():
        lines.append(f"{name} = {m['value']:.6g} {m['unit']}")
    summary = {"seed": args.seed, "workload": args.workload, "trace": args.trace,
               "environment": env, "drift": drift, "pinned": pinned, "lines": lines}
    os.makedirs(OUT_ROOT, exist_ok=True)
    with open(os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    for line in lines:
        print(line)
    print(json.dumps({"correct": verdict.correct, "attempted": verdict.attempted,
                      "failed": verdict.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
