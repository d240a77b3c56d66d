import concurrent.futures
import functools
import multiprocessing
import os
import time

import pytest

from clbench import harness


@pytest.fixture
def dying_grid_worker(monkeypatch):
    """Arm a grid so that the worker running seed 2 dies with `os._exit` once
    a record exists under `out_dir` (so at least one cell has finished).

    Workers are forked, so they inherit the patched `run_experiment`."""

    def arm(out_dir: str, seed: int = 2) -> None:
        original = harness.run_experiment

        def run_or_die(config):
            if config.seed == seed:
                deadline = time.monotonic() + 60.0
                while not (os.path.isdir(out_dir) and harness.load_records(out_dir)):
                    if time.monotonic() > deadline:
                        break
                    time.sleep(0.01)
                time.sleep(0.5)  # the finished cell's worker sends its result after the save
                os._exit(1)
            return original(config)

        monkeypatch.setattr(harness, "run_experiment", run_or_die)
        monkeypatch.setattr(
            concurrent.futures,
            "ProcessPoolExecutor",
            functools.partial(
                concurrent.futures.ProcessPoolExecutor,
                mp_context=multiprocessing.get_context("fork"),
            ),
        )

    return arm
