"""Acceptance gate: property checks plus ordinal trend reproduction on the
synthetic desk-scale suites. Each criterion prints one pass/fail line; run
with `pytest tests/test_acceptance.py -s` to see them inline.
"""

import functools
import math
import time

import numpy as np
import pytest

from clbench import metrics, ndcore, scenarios, strategies, suites
from clbench.audiofeat import LogMelConfig, PcmClip, frame_count, logmel
from clbench.harness import ExperimentConfig, run_experiment, run_grid
from clbench.metrics import AccuracyMatrix
from clbench.ndcore import ModelSpec, init_params
from clbench.strategies import (
    EwcState,
    MemoryBuffer,
    SiState,
    StrategyConfig,
    TrainConfig,
    agem_project,
    gdumb_insert_balanced,
    gem_project,
    make_strategy,
    reservoir_insert,
    train_task,
)
from oracles import ewc_penalty, lwf_kd_loss, si_penalty
from test_strategies import brute_force_projection_2d, cone_width_degrees, stream_access


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number:02d}] FAIL {description}")
                raise
            print(f"[criterion {number:02d}] PASS {description}")

        return wrapper

    return decorate


@criterion(1, "metric formulas match brute-force summation within 1e-12")
def test_metric_oracle_equivalence():
    rng = np.random.default_rng(2024)
    T = 6
    for _ in range(100):
        values = rng.uniform(0, 1, size=(T, T))
        matrix = AccuracyMatrix(T)
        for t in range(1, T + 1):
            for j in range(1, T + 1):
                matrix.record(t, j, values[t - 1, j - 1])
        brute_bwt = 0.0
        for i in range(2, T + 1):
            for j in range(1, i):
                brute_bwt += values[i - 1, j - 1] - values[j - 1, j - 1]
        brute_bwt *= 2.0 / (T * (T - 1))
        brute_fwt = 0.0
        for t in range(1, T + 1):
            for j in range(t + 1, T + 1):
                brute_fwt += values[t - 1, j - 1]
        brute_fwt *= 2.0 / (T * (T - 1))
        brute_acc = sum(values[T - 1]) / T
        brute_a = 0.0
        for i in range(1, T + 1):
            for j in range(1, i + 1):
                brute_a += values[i - 1, j - 1]
        brute_a *= 2.0 / (T * (T + 1))
        assert abs(metrics.bwt(matrix) - brute_bwt) < 1e-12
        assert abs(metrics.fwt(matrix) - brute_fwt) < 1e-12
        assert abs(metrics.acc_final(matrix) - brute_acc) < 1e-12
        assert abs(metrics.a_incremental(matrix) - brute_a) < 1e-12

    # frozen worked examples
    worked = AccuracyMatrix(3)
    for (t, j), v in {
        (1, 1): 0.8, (2, 1): 0.6, (2, 2): 0.9,
        (3, 1): 0.5, (3, 2): 0.7, (3, 3): 0.95,
        (1, 2): 0.1, (1, 3): 0.0, (2, 3): 0.2,
    }.items():
        worked.record(t, j, v)
    assert metrics.bwt(worked) == pytest.approx(-0.233333, abs=1e-6)
    assert metrics.fwt(worked) == pytest.approx(0.1, abs=1e-12)
    assert metrics.acc_final(worked) == pytest.approx(0.716667, abs=1e-6)
    assert metrics.a_incremental(worked) == pytest.approx(0.741667, abs=1e-6)


@criterion(2, "analytic gradients match central differences (<1e-4) over 20+ nets")
def test_gradient_correctness():
    specs = [
        ModelSpec(input_dim=4, hidden_dims=(6, 4), output_dim=3),
        ModelSpec(input_dim=6, hidden_dims=(10,), output_dim=4),
        ModelSpec(input_dim=3, hidden_dims=(), output_dim=2),
    ]
    errors = [ndcore.grad_check(spec, seed, h=1e-5) for spec in specs for seed in range(8)]
    assert len(errors) >= 20
    assert max(errors) < 1e-4


@criterion(3, "projection feasibility >= -1e-7 on 1000 instances; GEM matches 2-D oracle")
def test_projection_feasibility_and_oracle():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        dim = int(rng.integers(10, 201))
        k = int(rng.integers(1, 6))
        g = rng.normal(size=dim)
        G = rng.normal(size=(k, dim))
        result = gem_project(g, G)
        assert float((G @ result.grad).min()) >= -1e-7
        g_ref = rng.normal(size=dim)
        projected = agem_project(g, g_ref)
        assert float(projected @ g_ref) >= -1e-9

    # 2-D Euclidean-projection accuracy against the enumeration oracle;
    # (near-)empty cones are excluded: they exercise the flagged fallback
    # path whose output is deliberately not the projection
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 50:
        g = rng.normal(size=2) * rng.uniform(0.5, 3.0)
        G = rng.normal(size=(int(rng.integers(1, 4)), 2))
        if cone_width_degrees(G) < 5.0:
            continue
        checked += 1
        result = gem_project(g, G)
        oracle = brute_force_projection_2d(g, G)
        assert np.linalg.norm(result.grad - oracle) < 1e-3


@criterion(4, "regularizers vanish exactly at identity; Fisher and Omega stay >= 0")
def test_regularizer_identities():
    rng = np.random.default_rng(5)
    for _ in range(50):
        theta = rng.normal(size=20)
        fisher = rng.uniform(0.1, 2.0, size=20)
        state = EwcState()
        state.add(theta, fisher)
        assert ewc_penalty(state, theta, lam=1.5) == 0.0
        assert ewc_penalty(state, theta + rng.normal(size=20) * 0.1, lam=1.5) > 0.0

        si = SiState(xi=0.1)
        si.begin_task(theta)
        si_update = strategies.si_update
        si_update(si, rng.normal(size=20), theta, theta + 0.05)
        strategies.si_consolidate(si, theta + 0.05)
        assert si_penalty(si, theta + 0.05, lam=2.0) == 0.0
        perturbed = si_penalty(si, theta + 0.05 + rng.normal(size=20) * 0.1, lam=2.0)
        assert perturbed >= 0.0
        if si.omega.max() > 0:
            assert perturbed > 0.0

        logits = rng.normal(size=(4, 6))
        assert lwf_kd_loss(logits, logits.copy(), tau=2.0, alpha=2.0) == 0.0
        assert lwf_kd_loss(logits, logits + rng.normal(size=(4, 6)), tau=2.0, alpha=2.0) > 0.0

    # full synthetic run: every consolidation leaves the importance vectors
    # elementwise nonnegative
    stream = scenarios.build_stream(suites.standard_di_manifest(seed=0))
    cfg = TrainConfig(epochs=2, batch_size=8, learning_rate=1e-2)
    spec = ModelSpec(input_dim=stream.feature_dim, hidden_dims=(16,), output_dim=stream.n_classes)
    ewc = make_strategy(StrategyConfig("EWC", lam=0.5, fisher_budget=32), spec, master_seed=1)
    si = make_strategy(StrategyConfig("SI", lam=0.5), spec, master_seed=1)
    ewc_params = init_params(spec, ewc.rngs.init_rng())
    si_params = init_params(spec, si.rngs.init_rng())
    access = stream_access(stream)
    for t in range(1, stream.n_tasks + 1):
        ewc_params = train_task(ewc, ewc_params, access, t, cfg)
        si_params = train_task(si, si_params, access, t, cfg)
        assert all((fisher >= 0).all() for _, fisher in ewc.state.anchors)
        assert (si.state.omega >= 0).all()
    assert len(ewc.state.anchors) == stream.n_tasks


@criterion(5, "EWC(0)/SI(0)/LwF(0)/Replay(0) match Naive bitwise on the standard streams")
def test_degeneracy_to_naive():
    for manifest in (suites.standard_di_manifest(seed=4), suites.standard_ci_manifest(seed=4)):
        matrices = {}
        for kind, kw in (
            ("Naive", {}),
            ("EWC", {"lam": 0.0}),
            ("SI", {"lam": 0.0}),
            ("LwF", {"alpha": 0.0}),
            ("Replay", {"memory_size": 0}),
        ):
            config = ExperimentConfig(
                manifest=manifest,
                strategy=StrategyConfig(kind, **kw),
                epochs=2,
                batch_size=8,
                learning_rate=1e-2,
                hidden_dims=(16,),
                seed=11,
                standardize=False,
            )
            matrices[kind] = run_experiment(config).matrix.values
        for kind in ("EWC", "SI", "LwF", "Replay"):
            assert np.array_equal(matrices[kind], matrices["Naive"]), kind


@criterion(6, "reservoir retention is capacity/n +/- 0.02; GDumb balance within 1")
def test_buffer_properties():
    capacity, n, trials = 100, 1000, 500
    retained = np.zeros(n)
    for trial in range(trials):
        buf = MemoryBuffer(capacity=capacity)
        rng = np.random.default_rng(trial)
        for i in range(n):
            reservoir_insert(buf, np.zeros(1), 0, i, rng)
        retained[np.asarray(buf.origins)] += 1.0
    freq = retained / trials
    assert abs(freq.mean() - capacity / n) < 1e-12  # buffer always holds exactly `capacity`
    # uniformity over stream position: decile means within the stated band
    deciles = freq.reshape(10, n // 10).mean(axis=1)
    assert np.all(np.abs(deciles - capacity / n) <= 0.02)

    rng = np.random.default_rng(17)
    for _ in range(50):
        n_classes = int(rng.integers(1, 5))
        capacity = int(rng.integers(n_classes, 20))
        labels = np.repeat(np.arange(n_classes), capacity)
        labels = labels[rng.permutation(labels.size)]
        buf = MemoryBuffer(capacity=capacity)
        for i, label in enumerate(labels):
            gdumb_insert_balanced(buf, np.array([float(i)]), int(label), 1, rng)
        counts = buf.class_counts()
        assert max(counts.values()) - min(counts.values()) <= 1


@criterion(7, "synthetic CI ordering Replay > GDumb > Naive, gap > 20, Naive collapse")
def test_ci_ordinal_trends():
    start = time.monotonic()
    records = suites.run_ci_suite(seeds=(1, 2, 3))
    acc = {}
    for record in records:
        acc.setdefault(record.label.split("[")[0].split("(")[0], []).append(
            record.metric_summary["acc"] * 100.0
        )
    replay, gdumb, naive = (np.mean(acc[k]) for k in ("Replay", "GDumb", "Naive"))
    assert replay > gdumb > naive
    assert replay - naive > 20.0

    chance = 100.0 / 13.0
    for record in records:
        if record.label.startswith("Naive"):
            old_task_acc = record.matrix.values[-1][:-1].mean() * 100.0
            assert old_task_acc < 1.5 * chance

    # widely separated clusters with a big memory: rehearsal clears plain
    # fine-tuning by a wide margin
    spread = scenarios.synthetic_ci_manifest(
        seed=1, train_per_class=60, test_per_class=20, subspace_dims=8, noise_dims=5,
        separation=10.0,
    )
    accs = {}
    for kind, kw in (("Replay", {"memory_size": 500}), ("Naive", {})):
        config = ExperimentConfig(
            manifest=spread, strategy=StrategyConfig(kind, **kw),
            epochs=6, batch_size=8, learning_rate=1e-2, hidden_dims=(32,),
            seed=1, standardize=False,
        )
        accs[kind] = run_experiment(config).metric_summary["acc"] * 100.0
    assert accs["Replay"] - accs["Naive"] > 20.0
    assert time.monotonic() - start < 300.0


@criterion(8, "synthetic DI: Cumulative within 2 points of the top; Replay BWT > Naive BWT")
def test_di_ordinal_trends():
    start = time.monotonic()
    records = suites.run_di_suite(seeds=(1, 2, 3))
    by = {}
    for record in records:
        by.setdefault(record.label.split("[")[0], []).append(record)

    def mean_metric(label, key):
        return float(np.mean([r.metric_summary[key] for r in by[label]])) * 100.0

    cumulative_acc = mean_metric("Cumulative", "acc")
    cl_labels = [
        label
        for label in by
        if not label.startswith(("Cumulative", "Joint", "Naive"))
    ]
    assert cl_labels
    for label in cl_labels:
        assert cumulative_acc >= mean_metric(label, "acc") - 2.0, label
    replay_label = next(l for l in by if l.startswith("Replay"))
    assert mean_metric(replay_label, "bwt") > mean_metric("Naive", "bwt")
    assert time.monotonic() - start < 300.0


@criterion(9, "re-runs are bitwise identical; serial and parallel grids agree")
def test_determinism():
    manifest = scenarios.synthetic_di_manifest(
        seed=3, n_tasks=2, train_per_class=10, test_per_class=4, dim=4
    )
    config = ExperimentConfig(
        manifest=manifest, strategy=StrategyConfig("Replay", memory_size=6),
        epochs=2, batch_size=4, learning_rate=1e-2, hidden_dims=(6,), seed=5,
        standardize=False,
    )
    first = run_experiment(config)
    second = run_experiment(config)
    assert metrics.matrix_to_csv(first.matrix) == metrics.matrix_to_csv(second.matrix)

    grid = {
        "manifest": manifest,
        "strategies": [{"kind": "Naive"}, {"kind": "GDumb", "memory_size": 8}],
        "seeds": [1, 2],
        "epochs": 2,
        "batch_size": 4,
        "learning_rate": 1e-2,
        "hidden_dims": [6],
        "standardize": False,
    }
    serial = run_grid(grid, workers=1)
    parallel = run_grid(grid, workers=2)
    for a, b in zip(serial, parallel):
        assert a.label == b.label
        assert np.array_equal(a.matrix.values, b.matrix.values)


@criterion(10, "silence floor and sine peak-bin hold; frame formula over 50 triples")
def test_feature_pipeline():
    cfg = LogMelConfig()
    silence = logmel(PcmClip(16000, np.zeros(160000)), cfg)
    assert np.all(silence == math.log(cfg.log_floor))

    t = np.arange(3 * 16000) / 16000.0
    tone = logmel(PcmClip(16000, 0.5 * np.sin(2 * np.pi * 1000.0 * t)), cfg)
    lo = 2595.0 * math.log10(1.0 + cfg.fmin / 700.0)
    hi = 2595.0 * math.log10(1.0 + cfg.fmax / 700.0)
    centers = 700.0 * (10.0 ** (np.linspace(lo, hi, cfg.mel_bins + 2)[1:-1] / 2595.0) - 1.0)
    expected_bin = int(np.argmin(np.abs(centers - 1000.0)))
    assert np.all(tone.argmax(axis=1) == expected_bin)

    rng = np.random.default_rng(31)
    for _ in range(50):
        fft = int(2 ** rng.integers(6, 12))
        hop = int(rng.integers(1, fft + 1))
        n = int(fft + rng.integers(0, 50000))
        assert frame_count(n, fft, hop) == 1 + (n - fft) // hop
