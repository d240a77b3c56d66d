"""The three workloads: seeded input generation and the timed passes.

``prepare`` runs in the main process of ``run.py``, outside every timed
region, and writes the generated inputs (manifest JSON, WAV clips, grid
config) into a work directory together with a plan. ``run_pass`` runs in a
fresh process and drives clbench only through its public entry points:
``harness.run_experiment`` for the suite and reference cells, and
``clbench.cli.main`` for the WAV grid.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import shutil
import time
import wave

import numpy as np

WORKLOADS = ("desk-suites", "reference-epoch", "wav-grid")

# Every input comes from this pool of seeds, whose cells' fingerprints and ACC
# are pinned in ``reference.json``: a workload seed N draws its inputs from
# pool seed N mod 20, so each run, whatever its seed, is checked against the
# pinned result of its own inputs.
PINNED_SEEDS = range(20)


# reference-epoch: the published per-task clip counts divided by this factor.
# At full size a pass takes about 45 s on two Xeon cores, and about 115 s
# at seed 1, whose CI geometry leaves GEM's dual ill-conditioned (10 M solver
# iterations, 60-80 s in that one cell). The layout, memory sizes and regimes
# stay and the clip counts shrink to a sixth: about 10 s a pass, so a timed
# run repeats every cell about three times and reports medians (the speed
# of a shared host drifts over seconds; one sample a cell left the per-regime
# sums too noisy to compare).
REFERENCE_SCALE = 6

# wav-grid: synthetic 10 s PCM16 clips, DI, 6 tasks x 2 labels. The grid
# runs each regime at six seeds: its cells last 0.03-0.1 s, and with one or
# three cells per regime the per-regime sums were too noisy to compare.
WAV_GRID_SEEDS = 6
WAV_TASKS = 6
WAV_LABELS = ("normal", "abnormal")
WAV_TRAIN_PER_CLASS = 10
WAV_TEST_PER_CLASS = 5
WAV_RATE = 16000
WAV_SECONDS = 10.0
WAV_GRID = {
    "hidden_dims": [32],
    "epochs": 4,
    "batch_size": 8,
    "learning_rate": 1e-2,
    "strategies": [
        {"kind": "Naive"},
        {"kind": "Cumulative"},
        {"kind": "Joint"},
        {"kind": "EWC", "lam": 0.5, "fisher_budget": 64},
        {"kind": "LwF", "alpha": 1.0, "tau": 2.0},
        {"kind": "SI", "lam": 0.5},
        {"kind": "Replay", "memory_size": 40},
        {"kind": "GDumb", "memory_size": 40},
        {"kind": "GEM", "per_task_memory": 10},
        {"kind": "AGEM", "per_task_memory": 10},
    ],
}


def grid_workers() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


def optimizer_steps(kind: str, train_counts: list[int], epochs: int, batch: int,
                    memory_size: int) -> int:
    """Adam steps of one cell, from the rows each session trains on."""
    cumulative = list(np.cumsum(train_counts))
    if kind == "Joint":
        sizes = [sum(train_counts)]
    elif kind == "Cumulative":
        sizes = cumulative
    elif kind == "GDumb":  # the balanced buffer fills to capacity, then holds
        sizes = [min(memory_size, int(n)) for n in cumulative]
    else:
        sizes = train_counts
    return sum(epochs * math.ceil(int(n) / batch) for n in sizes)


def _train_counts(manifest: dict) -> list[int]:
    return [sum(c["train_count"] for c in task["classes"]) for task in manifest["tasks"]]


def _write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


# ---------------------------------------------------------------------------
# Input generation


def prepare(workload: str, seed: int, workdir: str) -> dict:
    """Generate the workload's inputs under `workdir`; return the plan."""
    from clbench import harness, scenarios, suites

    pool = len(PINNED_SEEDS)
    plan = {"workload": workload, "seed": seed, "input_seed": seed % pool,
            "workdir": workdir, "cells": []}
    seed %= pool
    if workload == "desk-suites":
        manifests = []
        for scenario, make, train, strategies in (
            ("DI", suites.standard_di_manifest, suites.DI_TRAIN, suites.DI_SUITE_STRATEGIES),
            ("CI", suites.standard_ci_manifest, suites.CI_TRAIN, suites.CI_SUITE_STRATEGIES),
        ):
            manifest = make(seed=seed)
            path = _write_json(os.path.join(workdir, f"{scenario.lower()}.json"), manifest)
            manifests.append(path)
            for strategy in strategies:
                plan["cells"].append(_cell(scenario, path, manifest, vars(strategy), seed, dict(train)))
        plan["manifests"] = manifests
    elif workload == "reference-epoch":
        manifests = []
        for scenario, make in (("DI", scenarios.reference_di_manifest),
                               ("CI", scenarios.reference_ci_manifest)):
            manifest = make(seed=seed)
            for task in manifest["tasks"]:
                for entry in task["classes"]:
                    entry["train_count"] = math.ceil(entry["train_count"] / REFERENCE_SCALE)
                    entry["test_count"] = math.ceil(entry["test_count"] / REFERENCE_SCALE)
            path = _write_json(os.path.join(workdir, f"reference_{scenario.lower()}.json"), manifest)
            manifests.append(path)
            train = {"epochs": 1, "batch_size": harness.scenario_defaults(scenario)["batch_size"]}
            for strategy in harness.published_strategy_defaults(scenario).values():
                plan["cells"].append(_cell(scenario, path, manifest, vars(strategy), seed, train))
        plan["manifests"] = manifests
    elif workload == "wav-grid":
        manifest = _write_wav_clips(seed, workdir)
        path = _write_json(os.path.join(workdir, "wav_manifest.json"), manifest)
        grid_seeds = list(range(seed, seed + WAV_GRID_SEEDS))
        grid = dict(WAV_GRID, manifest=path, seeds=grid_seeds,
                    feature_cache=os.path.join(workdir, "features.fea1"),
                    out_dir=os.path.join(workdir, "runs"))
        plan["grid"] = _write_json(os.path.join(workdir, "grid.json"), grid)
        plan["manifests"] = [path]
        train = {k: WAV_GRID[k] for k in ("epochs", "batch_size")}
        for strategy in WAV_GRID["strategies"]:
            for s in grid_seeds:
                plan["cells"].append(_cell("DI", path, manifest, strategy, s, train, clips=seed))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    _write_json(os.path.join(workdir, "plan.json"), plan)
    return plan


def _cell(scenario, manifest_path, manifest, strategy: dict, seed: int, train: dict,
          clips: int | None = None) -> dict:
    """One run_experiment call. `key` names the regime cell; `id` adds every
    seed that determines its result (`clips`: the seed of the WAV inputs)."""
    steps = optimizer_steps(strategy["kind"], _train_counts(manifest), train["epochs"],
                            train["batch_size"], strategy.get("memory_size", 0))
    key = f"{scenario}/{strategy['kind']}"
    return {
        "key": key,
        "id": f"{key}@{seed}" + ("" if clips is None else f"/clips{clips}"),
        "scenario": scenario,
        "seed": seed,
        "manifest": manifest_path,
        "strategy": dict(strategy),
        "train": {k: list(v) if isinstance(v, tuple) else v for k, v in train.items()},
        "steps": steps,
    }


def _clip(rng: np.random.Generator, task: int, abnormal: bool) -> np.ndarray:
    """A machine hum whose pitch and noise floor shift with the task (the
    domain). Abnormal clips add a broadband hiss and an amplitude-modulated
    partial. The hiss lifts every mel bin, so each task is learnt from its 20
    clips and every regime scores near 1.0; a cue confined to one or two of
    the 64 pooled bins was not learnt reliably, which left the accuracy
    check nothing stable to hold."""
    n = int(WAV_RATE * WAV_SECONDS)
    t = np.arange(n) / WAV_RATE
    f0 = 180.0 * 1.3**task * (1.0 + 0.02 * rng.standard_normal())
    x = 0.3 * np.sin(2 * np.pi * f0 * t + rng.uniform(0, 2 * np.pi))
    x += (0.03 + 0.01 * task) * rng.standard_normal(n)
    if abnormal:
        x += 0.04 * rng.standard_normal(n)
        f1 = f0 * (3.1 + 0.1 * rng.standard_normal())
        x += 0.12 * np.sin(2 * np.pi * f1 * t) * (1.0 + 0.5 * np.sin(2 * np.pi * 3.0 * t))
    return np.clip(x, -1.0, 1.0 - 1.0 / 32768)


def _write_wav_clips(seed: int, workdir: str) -> dict:
    tasks = []
    for task in range(WAV_TASKS):
        classes = []
        for label_index, label in enumerate(WAV_LABELS):
            entry = {"label": label}
            for split_index, (split, count) in enumerate(
                (("train", WAV_TRAIN_PER_CLASS), ("test", WAV_TEST_PER_CLASS))
            ):
                folder = os.path.join(workdir, "wav", f"t{task + 1}", label, split)
                os.makedirs(folder)
                for i in range(count):
                    rng = np.random.default_rng(
                        np.random.SeedSequence([seed, task, label_index, split_index, i])
                    )
                    pcm = np.round(_clip(rng, task, label_index == 1) * 32768).astype("<i2")
                    with wave.open(os.path.join(folder, f"{i:03d}.wav"), "wb") as wf:
                        wf.setnchannels(1)
                        wf.setsampwidth(2)
                        wf.setframerate(WAV_RATE)
                        wf.writeframes(pcm.tobytes())
                entry[f"{split}_glob"] = os.path.join(folder, "*.wav")
                entry[f"{split}_count"] = count
            classes.append(entry)
        tasks.append({"name": f"W{task + 1}", "classes": classes})
    return {"scenario": "DI", "seed": seed, "tasks": tasks}


# ---------------------------------------------------------------------------
# One pass


def run_pass(plan: dict, seconds: float = 0.0) -> dict:
    """Run one pass; return wall time, phase times and workers, plus the
    per-cell outcomes of the suite and reference cells. A WAV grid's outcomes
    are read back from its records by `wav_outcomes`, outside any trace.
    Suite and reference cells repeat in rounds until `seconds` have passed
    (see `_cells_pass`)."""
    if plan["workload"] == "wav-grid":
        return _wav_pass(plan)
    return _cells_pass(plan, seconds)


def _cells_pass(plan: dict, seconds: float) -> dict:
    """Every cell once, then further rounds until `seconds` have passed,
    stopping between two cells. Odd rounds run the cells in reverse order, so
    a drift in machine speed over the run does not fall on the same cells."""
    from clbench import harness
    from clbench.harness import ExperimentConfig
    from clbench.strategies import StrategyConfig

    manifests = {}
    for path in plan["manifests"]:
        with open(path) as fh:
            manifests[path] = json.load(fh)
    configs = []
    for cell in plan["cells"]:
        train = dict(cell["train"])
        if "hidden_dims" in train:
            train["hidden_dims"] = tuple(train["hidden_dims"])
        configs.append(ExperimentConfig(
            manifest=manifests[cell["manifest"]],
            strategy=StrategyConfig(**cell["strategy"]),
            seed=cell["seed"],
            **train,
        ))
    outcomes = []
    order = list(zip(plan["cells"], configs))
    start = time.perf_counter()
    for round_ in itertools.count():
        for cell, config in order if round_ % 2 == 0 else reversed(order):
            if round_ and time.perf_counter() - start >= seconds:
                break
            t0 = time.perf_counter()
            try:
                record = harness.run_experiment(config)
                error = None
            except Exception as exc:  # a failing cell is counted, not fatal
                record, error = None, f"{type(exc).__name__}: {exc}"
            outcomes.append({"cell": cell, "record": record, "error": error,
                             "wall_s": time.perf_counter() - t0})
        if time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    return {"wall_s": wall, "phases": {"cells": wall}, "workers": 1, "outcomes": outcomes}


def _wav_pass(plan: dict) -> dict:
    from clbench import cli

    with open(plan["grid"]) as fh:
        grid = json.load(fh)
    for stale in (grid["feature_cache"], grid["out_dir"]):
        if os.path.isdir(stale):
            shutil.rmtree(stale)
        elif os.path.exists(stale):
            os.remove(stale)
    workers = grid_workers()
    commands = {
        "extract": ["extract-features", "--manifest", grid["manifest"],
                    "--cache", grid["feature_cache"]],
        "grid": ["grid", "--config", plan["grid"], "--workers", str(workers)],
        "report": ["report", "--in", grid["out_dir"]],
    }
    phases, codes, printed = {}, {}, {}
    start = time.perf_counter()
    for phase, argv in commands.items():
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes[phase] = cli.main(argv)
        phases[phase] = time.perf_counter() - t0
        printed[phase] = out.getvalue() + err.getvalue()
    wall = time.perf_counter() - start

    return {"wall_s": wall, "phases": {**phases, "cells": phases["grid"]}, "workers": workers,
            "failed_phases": {p: c for p, c in codes.items() if c != 0},
            "report": printed["report"]}


def wav_outcomes(plan: dict, result: dict) -> list[dict]:
    """Per-cell outcomes of a WAV pass from the records the grid wrote; a
    cell fails if its record is missing or `clbench report` did not list it."""
    from clbench import harness

    with open(plan["grid"]) as fh:
        out_dir = json.load(fh)["out_dir"]
    records = {}
    if os.path.isdir(out_dir):
        for record in harness.load_records(out_dir):
            kind = record.label.split("(")[0].split("[")[0]
            records[(f"{record.scenario}/{kind}", record.seed)] = record
    outcomes = []
    for cell in plan["cells"]:
        record = records.get((cell["key"], cell["seed"]))
        error = None
        if record is None:
            error = f"no record written (failed phases {result['failed_phases']})"
        elif record.label not in result["report"]:
            error = "record missing from `clbench report`"
        outcomes.append({"cell": cell, "record": record, "error": error, "wall_s": None})
    return outcomes
