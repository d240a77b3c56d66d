"""Per-layer metrics derived from a traced pass's spans.

A layer is a clbench module; a span's layer is the prefix of its name. Self
time is span duration minus child spans (see ``tracer.self_times``). Counts
come from the span attrs that ``tracer.COUNTERS`` records at each boundary.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import CELL_FUNCTION, self_times

TRAIN_SESSION = "strategies.train_task"
GRID_FUNCTION = "harness.run_grid"

# name -> unit, in print order
PER_LAYER = {
    "ndcore.forward.train.calls": "count",
    "ndcore.forward.train.rows": "count",
    "ndcore.forward.train.self_s": "s",
    "ndcore.forward.eval.calls": "count",
    "ndcore.forward.eval.rows": "count",
    "ndcore.forward.eval.self_s": "s",
    "ndcore.backward_from_dlogits.calls": "count",
    "ndcore.backward_from_dlogits.self_s": "s",
    "ndcore.backward.calls": "count",
    "ndcore.backward.calls_in_gem": "count",
    "ndcore.backward.self_s": "s",
    "ndcore.ce_dlogits.self_s": "s",
    "ndcore.adam_step.calls": "count",
    "ndcore.adam_step.self_s": "s",
    "ndcore.share_of_cells": "%",
    "strategies.train_task.self_s": "s",
    "strategies.gem_project.calls": "count",
    "strategies.gem_project.self_s": "s",
    "strategies.gem_project.iterations": "count",
    "strategies.gem_project.projected": "count",
    "strategies.gem_project.nonconverged": "count",
    "strategies.gem_project.fallbacks": "count",
    "strategies.gem_project.share_of_gem_cells": "%",
    "strategies.agem_project.calls": "count",
    "strategies.agem_project.self_s": "s",
    "strategies.estimate_fisher.calls": "count",
    "strategies.estimate_fisher.self_s": "s",
    "strategies.gdumb_insert_balanced.calls": "count",
    "strategies.gdumb_insert_balanced.self_s": "s",
    "strategies.reservoir_insert.calls": "count",
    "strategies.reservoir_insert.self_s": "s",
    "strategies.ewc_penalty_gradient.self_s": "s",
    "strategies.si_penalty_gradient.self_s": "s",
    "strategies.si_update.self_s": "s",
    "strategies.lwf_kd_dlogits.self_s": "s",
    "scenarios.build_stream.calls": "count",
    "scenarios.build_stream.self_s": "s",
    "scenarios.validate_stream.self_s": "s",
    "audiofeat.self_s": "s",
    "audiofeat.extract_file.calls": "count",
    "audiofeat.write_feature_cache.bytes": "bytes",
    "audiofeat.read_feature_cache.calls": "count",
    "audiofeat.read_feature_cache.hits": "count",
    "harness.run_experiment.self_s": "s",
    "harness.other.self_s": "s",
    "harness.save_record.calls": "count",
    "harness.save_record.bytes": "bytes",
    "harness.pool_efficiency": "ratio",
    "metrics.self_s": "s",
}

# Counts that must repeat exactly between two traced passes of one seed. The
# record bytes are not among them: diagnostics.json holds session timings.
EXACT_COUNTS = tuple(name for name, unit in PER_LAYER.items() if unit == "count") + (
    "audiofeat.write_feature_cache.bytes",
)


class SpanTable:
    """Spans plus the derived columns every metric needs."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.self_s = self_times(spans)
        # parents are appended before their children, so one forward sweep
        # propagates "inside a training session" and the cell regime down
        self.in_train = [False] * len(spans)
        for i, span in enumerate(spans):
            parent = span[3]
            if parent is not None:
                self.in_train[i] = self.in_train[parent] or spans[parent][0] == TRAIN_SESSION
        self.regime = {
            s[4]: s[5]["regime"] for s in spans if s[0] == CELL_FUNCTION and s[5]
        }
        self.calls = defaultdict(int)
        self.self_by_name = defaultdict(float)
        self.attr_sums = defaultdict(lambda: defaultdict(int))
        for i, span in enumerate(spans):
            name = span[0]
            self.calls[name] += 1
            self.self_by_name[name] += self.self_s[i]
            if span[5] and name != CELL_FUNCTION:  # cell attrs describe, not count
                for key, value in span[5].items():
                    self.attr_sums[name][key] += value

    def module_self(self, module: str) -> float:
        prefix = module + "."
        return sum(v for k, v in self.self_by_name.items() if k.startswith(prefix))

    def cell_seconds(self, regime: str | None = None) -> float:
        return sum(
            s[2] - s[1]
            for s in self.spans
            if s[0] == CELL_FUNCTION and (regime is None or self.regime.get(s[4]) == regime)
        )


def layer_metrics(spans: list[list], workers: int, cell_phase_s: float) -> dict:
    """Every PER_LAYER metric. `cell_phase_s` is the wall time of the phase
    that ran the cells, on `workers` processes."""
    t = SpanTable(spans)
    out: dict[str, float] = {}
    for split, want in (("train", True), ("eval", False)):
        idx = [i for i, s in enumerate(spans) if s[0] == "ndcore.forward" and t.in_train[i] == want]
        out[f"ndcore.forward.{split}.calls"] = len(idx)
        out[f"ndcore.forward.{split}.rows"] = sum(spans[i][5]["rows"] for i in idx)
        out[f"ndcore.forward.{split}.self_s"] = sum(t.self_s[i] for i in idx)
    out["ndcore.backward.calls_in_gem"] = sum(
        1 for s in spans if s[0] == "ndcore.backward" and t.regime.get(s[4]) == "GEM"
    )
    cells_s = t.cell_seconds()
    out["ndcore.share_of_cells"] = 100.0 * t.module_self("ndcore") / cells_s
    gem_cells_s = t.cell_seconds("GEM")
    gem_project_s = sum(
        s[2] - s[1]
        for s in spans
        if s[0] == "strategies.gem_project" and t.regime.get(s[4]) == "GEM"
    )
    out["strategies.gem_project.share_of_gem_cells"] = 100.0 * gem_project_s / gem_cells_s
    out["audiofeat.self_s"] = t.module_self("audiofeat")
    # run_grid's self time is the wait for its pool; pool_efficiency covers it
    out["harness.other.self_s"] = (
        t.module_self("harness") - t.self_by_name[CELL_FUNCTION] - t.self_by_name[GRID_FUNCTION]
    )
    out["harness.pool_efficiency"] = cells_s / (workers * cell_phase_s)
    out["metrics.self_s"] = t.module_self("metrics")
    for name in PER_LAYER:
        if name in out:
            continue
        function, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = t.calls[function]
        elif field == "self_s":
            out[name] = t.self_by_name[function]
        else:
            out[name] = t.attr_sums[function][field]
    return out


def cell_breakdown(spans: list[list], top: int = 3) -> list[tuple[str, float, list]]:
    """(regime, cell seconds, [(function, self seconds), ...]) per cell."""
    t = SpanTable(spans)
    per_cell: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, span in enumerate(spans):
        per_cell[span[4]][span[0]] += t.self_s[i]
    rows = []
    for span in spans:
        if span[0] == CELL_FUNCTION and span[5]:
            ranked = sorted(per_cell[span[4]].items(), key=lambda kv: -kv[1])[:top]
            label = f"{span[5]['scenario']}/{span[5]['regime']}@{span[5]['seed']}"
            rows.append((label, span[2] - span[1], ranked))
    return rows


def function_table(spans: list[list]) -> list[tuple[str, int, float]]:
    """(function, calls, self seconds) for every traced function called."""
    t = SpanTable(spans)
    return sorted(
        ((name, t.calls[name], t.self_by_name[name]) for name in t.calls),
        key=lambda row: -row[2],
    )
