"""In-memory span recorder that wraps clbench's public module functions.

The program is not edited: the tracer swaps each traced function for a
wrapper in every loaded ``clbench`` module namespace (so ``from .x import f``
aliases are covered too) and swaps the originals back on ``uninstall``.

A span is ``[name, start, end, parent, cell, attrs]``: perf_counter
timestamps, the index of the enclosing span in the same process (``None`` for
a root), the id of the ``run_experiment`` call it belongs to, and a small
dict of counts taken at the boundary (rows, iterations, bytes, ...).
Wrappers pass arguments and results through untouched, so tracing cannot
change a result bit.

Spans stay in memory. Process-pool workers forked while the tracer is
installed start with an empty span list and append each finished root span
tree (one grid cell) to ``<spool>/spans-<pid>.jsonl``; the parent merges
those files with ``collect_spool``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

CELL_FUNCTION = "harness.run_experiment"


def _rows(args, kwargs, result):
    batch = args[2] if len(args) > 2 else kwargs["batch"]
    return {"rows": len(batch)}


def _gem(args, kwargs, result):
    return {
        "iterations": result.iterations,
        "projected": int(result.projected),
        "nonconverged": int(result.projected and not result.converged),
        "fallbacks": int(result.fallback),
    }


def _cache_write(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _cache_read(args, kwargs, result):
    return {"hits": int(result is not None)}


def _record_bytes(args, kwargs, result):
    return {"bytes": sum(e.stat().st_size for e in os.scandir(result) if e.is_file())}


def _cell(args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    return {
        "regime": config.strategy.kind,
        "seed": config.seed,
        "scenario": result.scenario,
        "session_s": float(sum(result.session_seconds)),
    }


# Counts recorded at a boundary, keyed by traced function name.
COUNTERS = {
    "ndcore.forward": _rows,
    "strategies.gem_project": _gem,
    "audiofeat.write_feature_cache": _cache_write,
    "audiofeat.read_feature_cache": _cache_read,
    "harness.save_record": _record_bytes,
    CELL_FUNCTION: _cell,
}


def public_functions(module) -> dict:
    """Module-level functions defined in `module` whose names are public."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


class Tracer:
    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.spans: list[list] = []
        self.current: int | None = None
        self.cell: str | None = None
        self._cells = 0
        self._in_child = False
        self._originals: dict[int, object] = {}  # id(wrapper) -> original
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper
        os.register_at_fork(after_in_child=self._after_fork)

    # --- install / uninstall ------------------------------------------------

    def install(self, modules, only: set[str] | None = None) -> None:
        """Wrap the public functions of `modules` (all of them, or just the
        qualified names in `only`) wherever clbench namespaces refer to them."""
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for name, fn in public_functions(module).items():
                qualified = f"{short}.{name}"
                if only is not None and qualified not in only:
                    continue
                wrapper = self._wrap(qualified, fn)
                self._wrappers[id(fn)] = wrapper
                self._originals[id(wrapper)] = fn
        self._swap(self._wrappers)

    def uninstall(self) -> None:
        self._swap(self._originals)
        self._wrappers.clear()
        self._originals.clear()

    def _swap(self, table: dict) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "clbench" or mod_name.startswith("clbench.")):
                continue
            namespace = vars(module)
            for name, value in list(namespace.items()):
                replacement = table.get(id(value))
                if replacement is not None:
                    namespace[name] = replacement

    def _wrap(self, name: str, fn):
        tracer = self
        counter = COUNTERS.get(name)
        opens_cell = name == CELL_FUNCTION
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            parent = tracer.current
            outer_cell = tracer.cell
            if opens_cell:
                tracer._cells += 1
                tracer.cell = f"{os.getpid()}-{tracer._cells}"
            span = [name, 0.0, 0.0, parent, tracer.cell, None]
            tracer.current = len(spans)
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                tracer.current = parent
                tracer.cell = outer_cell
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            if parent is None and tracer._in_child:
                tracer._flush()
            return result

        return wrapper

    # --- process-pool workers -------------------------------------------------

    def _after_fork(self) -> None:
        self.spans = []
        self.current = None
        self.cell = None
        self._in_child = True

    def _flush(self) -> None:
        path = os.path.join(self.spool_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            fh.write(json.dumps(self.spans) + "\n")
        self.spans = []

    def collect_spool(self) -> None:
        """Append the span trees that forked workers wrote to the spool."""
        if not os.path.isdir(self.spool_dir):
            return
        for entry in sorted(os.listdir(self.spool_dir)):
            if not entry.startswith("spans-"):
                continue
            with open(os.path.join(self.spool_dir, entry)) as fh:
                for line in fh:
                    offset = len(self.spans)
                    for span in json.loads(line):
                        if span[3] is not None:
                            span[3] += offset
                        self.spans.append(span)
            os.remove(os.path.join(self.spool_dir, entry))

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the part its child spans cover. Children nest
    strictly inside their parent (same process, single thread), so the
    covered part is the sum of child durations."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out
