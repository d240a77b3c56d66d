"""Experiment orchestration: deterministic runs over
(scenario x strategy x hyperparameters x seed), evaluation scheduling,
persistence, and table/curve emission.

A run is fully determined by its ExperimentConfig: the config hash covers the
manifest content, so re-running a hash reproduces the accuracy matrix
bit-for-bit.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import itertools
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import metrics, ndcore, scenarios, strategies
from .metrics import AccuracyMatrix
from .ndcore import ModelSpec
from .strategies import StrategyConfig, StreamAccess, TrainConfig

__all__ = [
    "ExperimentConfig",
    "RunRecord",
    "scenario_defaults",
    "published_strategy_defaults",
    "config_hash",
    "run_experiment",
    "expand_grid",
    "run_grid",
    "report",
    "curve_csv",
    "save_record",
    "load_record",
    "load_records",
    "selftest",
]

# batch size is shared; learning rate and epochs follow the scenario
SCENARIO_DEFAULTS = {
    "DI": {"learning_rate": 1e-3, "epochs": 50, "batch_size": 8},
    "CI": {"learning_rate": 1e-4, "epochs": 30, "batch_size": 8},
}

REPORT_HEADER = "approach,bwt,fwt,a,acc"


def scenario_defaults(scenario: str) -> dict:
    return dict(SCENARIO_DEFAULTS[scenario])


def published_strategy_defaults(scenario: str) -> dict[str, StrategyConfig]:
    """Published hyperparameters per regime for the full-scale benchmarks."""
    if scenario == "DI":
        lam_ewc, lam_si = 0.5, 0.8
    else:
        lam_ewc, lam_si = 2.0, 2.0
    return {
        "Naive": StrategyConfig("Naive"),
        "Cumulative": StrategyConfig("Cumulative"),
        "Joint": StrategyConfig("Joint"),
        "EWC": StrategyConfig("EWC", lam=lam_ewc),
        "LwF": StrategyConfig("LwF", alpha=2.0, tau=2.0),
        "SI": StrategyConfig("SI", lam=lam_si),
        "Replay": StrategyConfig("Replay", memory_size=2000),
        "GDumb": StrategyConfig("GDumb", memory_size=2000),
        "GEM": StrategyConfig("GEM", per_task_memory=200),
        "AGEM": StrategyConfig("AGEM", per_task_memory=200),
    }


@dataclass(frozen=True)
class ExperimentConfig:
    manifest: str | dict  # path to a manifest JSON, or the manifest inline
    strategy: StrategyConfig
    hidden_dims: tuple[int, ...] = (128, 64)
    epochs: int | None = None  # None -> scenario default
    batch_size: int | None = None
    learning_rate: float | None = None
    seed: int = 0
    standardize: bool = True
    pool_mode: str = "mean-over-time"
    feature_cache: str | None = None
    out_dir: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))
        for name in ("epochs", "batch_size"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.learning_rate is not None and self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")


def _manifest_dict(config: ExperimentConfig) -> dict:
    if isinstance(config.manifest, dict):
        return config.manifest
    return scenarios.load_manifest(config.manifest)


def _canonical_config(config: ExperimentConfig, manifest: dict) -> dict:
    strategy = {k: v for k, v in vars(config.strategy).items()}
    manifest_hash = hashlib.sha256(
        json.dumps(manifest, sort_keys=True).encode()
    ).hexdigest()
    return {
        "manifest_hash": manifest_hash,
        "manifest_path": config.manifest if isinstance(config.manifest, str) else None,
        "strategy": strategy,
        "hidden_dims": list(config.hidden_dims),
        "epochs": config.epochs,
        "batch_size": config.batch_size,
        "learning_rate": config.learning_rate,
        "seed": config.seed,
        "standardize": config.standardize,
        "pool_mode": config.pool_mode,
    }


def config_hash(config: ExperimentConfig, manifest: dict | None = None) -> str:
    manifest = manifest if manifest is not None else _manifest_dict(config)
    canon = _canonical_config(config, manifest)
    canon.pop("manifest_path", None)  # results identify inputs, not file locations
    return hashlib.sha256(json.dumps(canon, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class RunRecord:
    config_hash: str
    label: str
    scenario: str
    seed: int
    matrix: AccuracyMatrix
    metric_summary: dict
    curves: dict | None
    session_seconds: list[float]
    diagnostics: dict
    config_json: dict = field(default_factory=dict)

    def metric(self, name: str):
        return self.metric_summary.get(name)


def _standardized_sets(stream: scenarios.TaskStream, enabled: bool):
    """Per-task feature standardization: train stats applied to that task's
    train and test splits only, so no statistics cross task boundaries.

    Dimensions whose deviation is negligible next to the most variable one
    keep their raw scale: dividing by a near-zero std would amplify storage
    quantization noise (e.g. silent mel bins through the float32 cache) into
    full-scale junk inputs.
    """
    train_sets, test_sets = [], []
    for task in stream.tasks:
        if enabled:
            mu = task.train_x.mean(axis=0)
            sd = task.train_x.std(axis=0)
            floor = max(1e-12, 1e-3 * float(sd.max()))
            sd = np.where(sd < floor, 1.0, sd)
            train_sets.append(((task.train_x - mu) / sd, task.train_y))
            test_sets.append(((task.test_x - mu) / sd, task.test_y))
        else:
            train_sets.append((task.train_x, task.train_y))
            test_sets.append((task.test_x, task.test_y))
    return train_sets, test_sets


def _accuracy(params, spec, x, y) -> float:
    logits = ndcore.forward(params, spec, x)
    pred = np.argmax(logits, axis=1)  # argmax takes the lowest id on ties
    return float(np.mean(pred == y))


def resolve_train_config(config: ExperimentConfig, scenario: str) -> TrainConfig:
    """Fill unset epochs / batch size / learning rate from the scenario
    defaults (DI: 1e-3 for 50 epochs; CI: 1e-4 for 30; batch 8)."""
    defaults = scenario_defaults(scenario)
    return TrainConfig(
        epochs=config.epochs or defaults["epochs"],
        batch_size=config.batch_size or defaults["batch_size"],
        learning_rate=config.learning_rate or defaults["learning_rate"],
    )


def run_experiment(config: ExperimentConfig) -> RunRecord:
    """Train through the stream, evaluating on every task's test split after
    each session; Joint trains once and fills only the final row.

    With `out_dir` set, a config whose record is already saved there is not
    run again: its record is loaded instead.
    """
    manifest = _manifest_dict(config)
    digest = config_hash(config, manifest)
    if config.out_dir and os.path.exists(os.path.join(config.out_dir, digest, RECORD_FILE)):
        return load_record(os.path.join(config.out_dir, digest))
    scenario = manifest["scenario"]
    cfg = resolve_train_config(config, scenario)
    cache = config.feature_cache
    if cache is None and isinstance(config.manifest, str):
        cache = config.manifest + ".fea1"  # an inline manifest without one runs uncached
    stream = scenarios.build_stream(manifest, config.pool_mode, cache)

    train_sets, test_sets = _standardized_sets(stream, config.standardize)
    spec = ModelSpec(
        input_dim=stream.feature_dim,
        hidden_dims=config.hidden_dims,
        output_dim=stream.n_classes,
    )
    strategy = strategies.make_strategy(config.strategy, spec, config.seed)
    params = ndcore.init_params(spec, strategy.rngs.init_rng())
    access = StreamAccess(train_sets)
    T = stream.n_tasks
    matrix = AccuracyMatrix(T)
    session_seconds = []

    def evaluate_row(t: int) -> None:
        for j in range(1, T + 1):
            x, y = test_sets[j - 1]
            matrix.record(t, j, _accuracy(params, spec, x, y))

    if config.strategy.kind == "Joint":
        start = time.perf_counter()
        params = strategies.train_task(strategy, params, access, 1, cfg)
        session_seconds.append(time.perf_counter() - start)
        evaluate_row(T)
        summary = {"bwt": None, "fwt": None, "a": None, "acc": metrics.acc_final(matrix)}
        curves = None
    else:
        for t in range(1, T + 1):
            start = time.perf_counter()
            params = strategies.train_task(strategy, params, access, t, cfg)
            session_seconds.append(time.perf_counter() - start)
            evaluate_row(t)
        summary = {
            "bwt": metrics.bwt(matrix) if T >= 2 else None,
            "fwt": metrics.fwt(matrix) if T >= 2 else None,
            "a": metrics.a_incremental(matrix),
            "acc": metrics.acc_final(matrix),
        }
        curves = {
            "all_tasks": metrics.session_curve(matrix, "all-tasks").tolist(),
            "seen_tasks": metrics.session_curve(matrix, "seen-tasks").tolist(),
        }

    diagnostics = dict(strategy.diagnostics)
    diagnostics["accessed_tasks"] = {
        str(t): sorted(tasks) for t, tasks in access.accessed.items()
    }
    record = RunRecord(
        config_hash=digest,
        label=f"{config.strategy.label()}[seed={config.seed}]",
        scenario=scenario,
        seed=config.seed,
        matrix=matrix,
        metric_summary=summary,
        curves=curves,
        session_seconds=session_seconds,
        diagnostics=diagnostics,
        config_json=_canonical_config(config, manifest),
    )
    if config.out_dir:
        save_record(record, config.out_dir)
    return record


# ---------------------------------------------------------------------------
# Grids


def _expand_strategy(entry: dict) -> list[StrategyConfig]:
    list_keys = [k for k, v in entry.items() if isinstance(v, list)]
    if not list_keys:
        return [StrategyConfig(**entry)]
    out = []
    for combo in itertools.product(*(entry[k] for k in list_keys)):
        merged = dict(entry)
        merged.update(dict(zip(list_keys, combo)))
        out.append(StrategyConfig(**merged))
    return out


def _reject_unknown_keys(raw: dict, known, what: str) -> None:
    """ValueError naming every key of `raw` that is not in `known`."""
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ValueError(f"unknown {what} keys: {unknown}")


# top-level grid keys shared by every cell's ExperimentConfig
GRID_SHARED_KEYS = tuple(
    f.name for f in dataclasses.fields(ExperimentConfig) if f.name not in ("strategy", "seed")
)


def expand_grid(grid: dict) -> list:
    """Cartesian product of strategy variants and seeds into run configs.

    An unknown top-level key raises; an invalid strategy entry becomes an
    error cell rather than aborting the whole grid.
    """
    _reject_unknown_keys(grid, GRID_SHARED_KEYS + ("strategies", "seeds"), "grid")
    strategies_in = grid.get("strategies")
    seeds = grid.get("seeds")
    if not strategies_in or not seeds:
        raise ValueError("grid needs non-empty 'strategies' and 'seeds' lists")
    strategy_configs = []
    for entry in strategies_in:
        try:
            if not isinstance(entry, dict):
                raise TypeError("a strategy entry must be an object")
            strategy_configs.extend(_expand_strategy(entry))
        except (TypeError, ValueError) as exc:
            label = str(entry.get("kind")) if isinstance(entry, dict) else repr(entry)
            strategy_configs.append({"error": f"{type(exc).__name__}: {exc}", "label": label, "seed": None})
    base = {k: grid[k] for k in GRID_SHARED_KEYS if k in grid}
    configs = []
    for strategy_config, seed in itertools.product(strategy_configs, seeds):
        if isinstance(strategy_config, dict):  # error cell
            configs.append({**strategy_config, "seed": int(seed)})
        else:
            configs.append(ExperimentConfig(strategy=strategy_config, seed=int(seed), **base))
    return configs


def _error_cell(config, exc: BaseException) -> dict:
    if isinstance(config, dict):  # error cell from expansion
        return config
    return {"error": f"{type(exc).__name__}: {exc}", "label": config.strategy.label(), "seed": config.seed}


def _run_cell(config):
    if isinstance(config, dict):
        return config
    try:
        return run_experiment(config)
    except Exception as exc:  # errors propagate per cell without killing the grid
        return _error_cell(config, exc)


def _cell_result(future, config):
    try:
        return future.result()
    except concurrent.futures.process.BrokenProcessPool as exc:  # a worker died
        return _error_cell(config, exc)


def run_grid(grid: dict, workers: int = 1):
    """One RunRecord or error dict per grid cell, in grid order; cells are
    isolated, so serial and parallel execution produce identical records."""
    configs = expand_grid(grid)
    if workers <= 1:
        return [_run_cell(c) for c in configs]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_cell, c) for c in configs]
        return [_cell_result(f, c) for f, c in zip(futures, configs)]


# ---------------------------------------------------------------------------
# Reports


def _fmt(value) -> str:
    if value is None:
        return "--"
    return f"{value * 100.0:.2f}"


def report(records: list[RunRecord], fmt: str = "text") -> str:
    """Per-approach metric table in percent with two decimals; seeds are
    listed separately plus a mean row per approach when several seeds share a
    configuration."""
    records = [r for r in records if isinstance(r, RunRecord)]
    if not records:
        raise ValueError("no records to report")
    scenario_kinds = {r.scenario for r in records}
    if len(scenario_kinds) > 1:
        raise ValueError(f"mixed scenarios in one report: {sorted(scenario_kinds)}")

    rows: list[tuple[str, list]] = []
    groups: dict[str, list[RunRecord]] = {}
    for record in records:
        approach = record.label.split("[")[0]
        groups.setdefault(approach, []).append(record)
    for approach, members in groups.items():
        for record in members:
            rows.append(
                (record.label, [record.metric(k) for k in ("bwt", "fwt", "a", "acc")])
            )
        if len(members) > 1:
            means = []
            for key in ("bwt", "fwt", "a", "acc"):
                values = [r.metric(key) for r in members]
                means.append(None if any(v is None for v in values) else float(np.mean(values)))
            rows.append((f"{approach}[mean]", means))

    if fmt == "csv":
        lines = [REPORT_HEADER]
        for label, values in rows:
            lines.append(",".join([label] + [_fmt(v) for v in values]))
        return "\n".join(lines) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    header = ["approach", "bwt", "fwt", "a", "acc"]
    table = [[label] + [_fmt(v) for v in values] for label, values in rows]
    widths = [max(len(row[i]) for row in [header] + table) for i in range(5)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for row in table:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def curve_csv(record: RunRecord) -> str:
    """Session curve for plotting: all-tasks mean for DI, seen-tasks for CI."""
    if record.curves is None:
        raise ValueError("Joint runs have no session curve")
    curve = record.curves["all_tasks" if record.scenario == "DI" else "seen_tasks"]
    lines = ["session,mean_accuracy"]
    for t, value in enumerate(curve, start=1):
        lines.append(f"{t},{format(value, '.17g')}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Persistence: one runs/<hash>/record.json per run (the RunRecord fields,
# with the matrix as rows of fractions, null where unfilled), written to a
# temp file and renamed into place, so a record is either whole or absent.
# JSON floats round-trip, so accuracies reload bit-for-bit; only `report`
# converts to percent.

RECORD_FILE = "record.json"


def record_dir(record: RunRecord, out_dir: str) -> str:
    return os.path.join(out_dir, record.config_hash)


def save_record(record: RunRecord, out_dir: str) -> str:
    """Write `record` atomically and return its run directory."""
    rows = np.where(record.matrix.filled, record.matrix.values, None).tolist()
    text = json.dumps({**vars(record), "matrix": rows}, indent=1, sort_keys=True)
    path = record_dir(record, out_dir)
    os.makedirs(path, exist_ok=True)
    tmp = os.path.join(path, f"{RECORD_FILE}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, os.path.join(path, RECORD_FILE))
    finally:
        if os.path.exists(tmp):  # the write failed before the rename
            os.unlink(tmp)
    return path


def load_record(path: str) -> RunRecord:
    with open(os.path.join(path, RECORD_FILE)) as fh:
        raw = json.load(fh)
    try:
        matrix = AccuracyMatrix(len(raw["matrix"]))
        for t, row in enumerate(raw["matrix"], start=1):
            for j, value in enumerate(row, start=1):
                if value is not None:  # unfilled cells are null
                    matrix.record(t, j, value)
        return RunRecord(**{**raw, "matrix": matrix})
    except (KeyError, TypeError) as exc:  # a file edited or written by another tool
        raise ValueError(f"{path}: malformed run record ({type(exc).__name__}: {exc})") from None


def load_records(out_dir: str) -> list[RunRecord]:
    """Every record under `out_dir`, ordered by approach label, then seed."""
    records = []
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if os.path.exists(os.path.join(path, RECORD_FILE)):
            records.append(load_record(path))
    return sorted(records, key=lambda r: (r.label.split("[")[0], r.seed))


# ---------------------------------------------------------------------------
# Built-in property checks (CLI `selftest`)


def selftest() -> tuple[bool, list[str]]:
    lines = []
    ok = True

    def check(name: str, passed: bool, detail: str = "") -> None:
        nonlocal ok
        ok = ok and passed
        lines.append(f"{'PASS' if passed else 'FAIL'} {name}{f' ({detail})' if detail else ''}")

    spec = ModelSpec(input_dim=5, hidden_dims=(7,), output_dim=3)
    worst = max(ndcore.grad_check(spec, seed, h=1e-5) for seed in range(5))
    check("gradient-check", worst < 1e-4, f"max rel err {worst:.2e}")

    rng = np.random.default_rng(7)
    worst_gap = 0.0
    for _ in range(20):
        matrix = AccuracyMatrix(6)
        values = rng.uniform(0, 1, size=(6, 6))
        for t in range(1, 7):
            for j in range(1, 7):
                matrix.record(t, j, values[t - 1, j - 1])
        brute_bwt = sum(
            values[i, j] - values[j, j] for i in range(1, 6) for j in range(i)
        ) * 2 / (6 * 5)
        worst_gap = max(worst_gap, abs(brute_bwt - metrics.bwt(matrix)))
    check("metric-oracle", worst_gap < 1e-12, f"max |diff| {worst_gap:.2e}")

    worst_dot = 0.0
    for _ in range(100):
        dim = int(rng.integers(10, 50))
        k = int(rng.integers(1, 6))
        g = rng.normal(size=dim)
        G = rng.normal(size=(k, dim))
        result = strategies.gem_project(g, G)
        worst_dot = min(worst_dot, float((G @ result.grad).min()))
    check("gem-feasibility", worst_dot >= -1e-7, f"min dot {worst_dot:.2e}")

    buf = strategies.MemoryBuffer(capacity=7, policy="class-balanced-greedy")
    brng = np.random.default_rng(3)
    for i in range(200):
        strategies.gdumb_insert_balanced(buf, np.zeros(2), int(brng.integers(0, 3)), 1, brng)
    counts = list(buf.class_counts().values())
    check("gdumb-balance", max(counts) - min(counts) <= 1, f"counts {counts}")

    return ok, lines
