"""Desk-scale synthetic experiment suites.

The full-size benchmark needs the audio corpora and hours of training; these
suites run the same machinery on seeded Gaussian streams in minutes and are
sized so the qualitative orderings of the full-scale results survive:
rehearsal beats fine-tuning by a wide margin under disjoint classes, and
from-scratch retraining on everything stays at the top under domain shift.
"""

from __future__ import annotations

import json
import os

from . import scenarios
from .harness import ExperimentConfig, RunRecord, run_experiment
from .strategies import StrategyConfig

__all__ = [
    "standard_ci_manifest",
    "standard_di_manifest",
    "CI_SUITE_STRATEGIES",
    "DI_SUITE_STRATEGIES",
    "run_ci_suite",
    "run_di_suite",
]

# Standard synthetic CI stream: 6 tasks, 13 classes. Tasks are internally
# easy (10 sigma within-task separation) but every class gets shadowed by a
# next-task neighbor 3.5 sigma away, which is what makes plain fine-tuning
# collapse on old classes while rehearsal keeps the near boundaries resolved.
# The synthetic clusters share unit scale by construction, so the suites skip
# per-task standardization: re-scaling each task against its own statistics
# would shrink the engineered cluster margins instead of removing a
# recording-level artifact.
CI_STREAM = dict(train_per_class=120, test_per_class=30, subspace_dims=4, noise_dims=10,
                 separation=10.0, near_separation=3.5)
CI_TRAIN = dict(epochs=12, batch_size=8, learning_rate=1e-2, hidden_dims=(16,),
                standardize=False)

# Standard synthetic DI stream: 6 two-class tasks whose discriminative axis
# rotates while the context drifts, so plain fine-tuning on the newest domain
# misclassifies the oldest ones.
DI_STREAM = dict(train_per_class=80, test_per_class=25, dim=12, separation=6.0,
                 rotation_step=0.5, drift=4.0)
DI_TRAIN = dict(epochs=8, batch_size=8, learning_rate=1e-2, hidden_dims=(32, 16),
                standardize=False)

CI_SUITE_STRATEGIES = (
    StrategyConfig("Replay", memory_size=500),
    StrategyConfig("GDumb", memory_size=65),
    StrategyConfig("Naive"),
)

DI_SUITE_STRATEGIES = (
    StrategyConfig("Naive"),
    StrategyConfig("Cumulative"),
    StrategyConfig("Joint"),
    StrategyConfig("EWC", lam=0.5, fisher_budget=128),
    StrategyConfig("LwF", alpha=1.0, tau=2.0),
    StrategyConfig("SI", lam=0.5),
    StrategyConfig("Replay", memory_size=100),
    StrategyConfig("GDumb", memory_size=200),
    StrategyConfig("GEM", per_task_memory=50),
    StrategyConfig("AGEM", per_task_memory=50),
)


def standard_ci_manifest(seed: int = 0) -> dict:
    return scenarios.synthetic_ci_manifest(seed=seed, **CI_STREAM)


def standard_di_manifest(seed: int = 0) -> dict:
    return scenarios.synthetic_di_manifest(seed=seed, **DI_STREAM)


def _write_manifest(manifest: dict, out_dir: str | None, name: str):
    if out_dir is None:
        return manifest
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    return path


def _run_suite(manifest_fn, train, strategy_configs, seeds, out_dir, tag) -> list[RunRecord]:
    records = []
    for seed in seeds:
        manifest = _write_manifest(manifest_fn(seed=seed), out_dir, f"{tag}_seed{seed}.json")
        for strategy in strategy_configs:
            config = ExperimentConfig(
                manifest=manifest,
                strategy=strategy,
                seed=seed,
                out_dir=out_dir,
                **train,
            )
            records.append(run_experiment(config))
    return records


def run_ci_suite(seeds=(1, 2, 3), out_dir: str | None = None):
    """Replay / GDumb / Naive over the standard synthetic CI streams."""
    return _run_suite(standard_ci_manifest, CI_TRAIN, CI_SUITE_STRATEGIES, seeds, out_dir, "ci")


def run_di_suite(seeds=(1, 2, 3), out_dir: str | None = None):
    """All regimes over the standard synthetic DI streams."""
    return _run_suite(standard_di_manifest, DI_TRAIN, DI_SUITE_STRATEGIES, seeds, out_dir, "di")
