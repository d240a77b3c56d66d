import json
import os

import numpy as np
import pytest

from clbench import harness, metrics, scenarios
from clbench.harness import (
    ExperimentConfig,
    RunRecord,
    config_hash,
    curve_csv,
    expand_grid,
    load_record,
    report,
    resolve_train_config,
    run_experiment,
    run_grid,
    save_record,
)
from clbench.scenarios import StreamValidationError
from clbench.strategies import StrategyConfig

FAST = dict(epochs=2, batch_size=4, learning_rate=1e-2, hidden_dims=(6,), standardize=False)


def tiny_manifest(seed=0, n_tasks=2, kind="DI"):
    if kind == "DI":
        return scenarios.synthetic_di_manifest(
            seed=seed, n_tasks=n_tasks, train_per_class=8, test_per_class=4, dim=4
        )
    return scenarios.synthetic_ci_manifest(seed=seed, train_per_class=6, test_per_class=3, noise_dims=2)


def tiny_config(strategy=None, seed=1, **kw):
    merged = {**FAST, **kw}
    return ExperimentConfig(
        manifest=tiny_manifest(),
        strategy=strategy or StrategyConfig("Naive"),
        seed=seed,
        **merged,
    )


class TestRunExperiment:
    def test_full_matrix_in_range(self):
        record = run_experiment(tiny_config())
        assert record.matrix.filled.all()
        assert np.all((record.matrix.values >= 0) & (record.matrix.values <= 1))
        assert record.scenario == "DI"
        assert set(record.metric_summary) == {"bwt", "fwt", "a", "acc"}

    def test_determinism_bitwise(self):
        a = run_experiment(tiny_config(seed=7))
        b = run_experiment(tiny_config(seed=7))
        assert np.array_equal(a.matrix.values, b.matrix.values)
        assert metrics.matrix_to_csv(a.matrix) == metrics.matrix_to_csv(b.matrix)
        assert a.config_hash == b.config_hash

    def test_different_seed_different_hash(self):
        assert tiny_config(seed=1) != tiny_config(seed=2)
        assert config_hash(tiny_config(seed=1)) != config_hash(tiny_config(seed=2))

    def test_joint_fills_single_row(self):
        record = run_experiment(tiny_config(StrategyConfig("Joint")))
        assert record.matrix.filled[-1].all()
        assert not record.matrix.filled[:-1].any()
        assert record.metric_summary["bwt"] is None
        assert record.metric_summary["acc"] is not None
        assert record.curves is None

    def test_session_access_recorded(self):
        record = run_experiment(tiny_config())
        assert record.diagnostics["accessed_tasks"] == {"1": [1], "2": [2]}

    def test_validation_failure_aborts(self, tmp_path):
        import wave

        globs = {}
        for label in ("normal", "abnormal"):
            wav_dir = tmp_path / label
            wav_dir.mkdir()
            for i in range(4):
                with wave.open(str(wav_dir / f"c{i}.wav"), "wb") as wf:
                    wf.setnchannels(1)
                    wf.setsampwidth(2)
                    wf.setframerate(16000)
                    wf.writeframes(np.zeros(2048, dtype="<i2").tobytes())
            globs[label] = str(wav_dir / "*.wav")
        manifest = {
            "scenario": "DI",
            "seed": 0,
            "tasks": [
                {
                    "name": "T1",
                    # train and test globs match the same files: leakage
                    "classes": [
                        {"label": label, "train_glob": glob, "test_glob": glob,
                         "train_count": 4, "test_count": 4}
                        for label, glob in globs.items()
                    ],
                }
            ],
        }
        config = ExperimentConfig(
            manifest=manifest, strategy=StrategyConfig("Naive"), seed=0,
            feature_cache=str(tmp_path / "cache.fea1"),
            **{**FAST, "hidden_dims": (4,)},
        )
        with pytest.raises(StreamValidationError) as err:
            run_experiment(config)
        assert any(v["kind"] == "leakage" for v in err.value.report.violations)

    def test_scenario_defaults(self):
        config = ExperimentConfig(manifest=tiny_manifest(), strategy=StrategyConfig("Naive"))
        di = resolve_train_config(config, "DI")
        assert (di.epochs, di.batch_size, di.learning_rate) == (50, 8, 1e-3)
        ci = resolve_train_config(config, "CI")
        assert (ci.epochs, ci.batch_size, ci.learning_rate) == (30, 8, 1e-4)

    def test_published_strategy_defaults(self):
        di = harness.published_strategy_defaults("DI")
        assert set(di) == set(harness.strategies.KINDS)
        assert di["EWC"].lam == 0.5 and di["SI"].lam == 0.8
        assert di["LwF"].alpha == 2.0 and di["LwF"].tau == 2.0
        assert di["Replay"].memory_size == 2000
        ci = harness.published_strategy_defaults("CI")
        assert ci["EWC"].lam == 2.0 and ci["SI"].lam == 2.0
        assert ci["GEM"].per_task_memory == 200

    def test_explicit_values_override_defaults(self):
        cfg = resolve_train_config(tiny_config(epochs=3, learning_rate=0.5), "DI")
        assert cfg.epochs == 3 and cfg.learning_rate == 0.5

    def test_standardization_does_not_amplify_near_constant_dims(self):
        # a near-constant feature (e.g. a silent mel bin through the float32
        # cache) must keep its raw scale instead of blowing quantization
        # noise up to unit variance
        stream = scenarios.build_stream(tiny_manifest())
        task = stream.tasks[0]
        x = task.train_x.copy()
        x[:, 0] = -23.0 + 1e-6 * np.arange(x.shape[0])  # tiny jitter
        doctored = scenarios.Task(
            id=1, name="t", train_x=x, train_y=task.train_y, train_ids=task.train_ids,
            test_x=task.test_x, test_y=task.test_y, test_ids=task.test_ids,
            label_set=task.label_set,
        )
        doctored_stream = scenarios.TaskStream("DI", (doctored,), stream.labels)
        train_sets, _ = harness._standardized_sets(doctored_stream, enabled=True)
        train_std = train_sets[0][0]
        assert np.abs(train_std[:, 0]).max() < 1e-3  # stayed near-constant
        assert train_std[:, 1].std() > 0.1  # real dims got whitened


class TestPersistence:
    def test_record_round_trip(self, tmp_path):
        config = tiny_config(out_dir=str(tmp_path))
        record = run_experiment(config)
        run_dir = os.path.join(str(tmp_path), record.config_hash)
        for name in ("config.json", "R.csv", "metrics.json", "curve.csv", "diagnostics.json"):
            assert os.path.exists(os.path.join(run_dir, name))
        loaded = load_record(run_dir)
        assert np.array_equal(loaded.matrix.values, record.matrix.values)
        assert loaded.label == record.label
        assert loaded.metric_summary["acc"] == record.metric_summary["acc"]
        assert loaded.diagnostics == record.diagnostics
        assert loaded.session_seconds == record.session_seconds
        assert loaded.curves == record.curves

    def test_rerun_reproduces_r_csv_bitwise(self, tmp_path):
        config = tiny_config(out_dir=str(tmp_path))
        record = run_experiment(config)
        path = os.path.join(str(tmp_path), record.config_hash, "R.csv")
        first = open(path).read()
        run_experiment(config)
        assert open(path).read() == first

    def test_fractions_reload_exactly(self, tmp_path):
        # k/n accuracies that a x100 write and /100 read moved by one ulp
        values = np.array([[23 / 140, 13 / 150], [13 / 150, 23 / 140]])
        matrix = metrics.AccuracyMatrix(2)
        for t in (1, 2):
            for j in (1, 2):
                matrix.record(t, j, values[t - 1, j - 1])
        record = RunRecord(
            config_hash="0123456789abcdef",
            label="Naive[seed=1]",
            scenario="DI",
            seed=1,
            matrix=matrix,
            metric_summary={
                "bwt": metrics.bwt(matrix),
                "fwt": metrics.fwt(matrix),
                "a": metrics.a_incremental(matrix),
                "acc": metrics.acc_final(matrix),
            },
            curves={
                "all_tasks": metrics.session_curve(matrix, "all-tasks").tolist(),
                "seen_tasks": metrics.session_curve(matrix, "seen-tasks").tolist(),
            },
            session_seconds=[0.5, 0.25],
            diagnostics={},
        )
        path = save_record(record, str(tmp_path))
        loaded = load_record(path)
        assert np.array_equal(loaded.matrix.values, values)
        assert loaded.metric_summary == record.metric_summary
        assert loaded.curves == record.curves
        with open(os.path.join(path, "curve.csv")) as fh:
            rows = fh.read().splitlines()[1:]
        assert [float(row.split(",")[1]) for row in rows] == record.curves["all_tasks"]

    def test_records_load_in_approach_then_seed_order(self, tmp_path):
        # directory names (config hashes) sort in a different order
        cells = [("0a", "Replay", 2), ("1b", "Naive", 3), ("2c", "Replay", 1),
                 ("3d", "Naive", 1), ("4e", "Naive", 2)]
        for name, kind, seed in cells:
            record = run_experiment(tiny_config(StrategyConfig(kind, memory_size=4), seed=seed))
            record.config_hash = name
            save_record(record, str(tmp_path))
        loaded = harness.load_records(str(tmp_path))
        assert [r.label for r in loaded] == [
            "Naive[seed=1]", "Naive[seed=2]", "Naive[seed=3]",
            "Replay(mem=4)[seed=1]", "Replay(mem=4)[seed=2]",
        ]

    def test_percent_record_rejected(self, tmp_path):
        record = run_experiment(tiny_config(out_dir=str(tmp_path)))
        path = os.path.join(str(tmp_path), record.config_hash)
        metrics_path = os.path.join(path, "metrics.json")
        with open(metrics_path) as fh:
            summary = json.load(fh)
        assert summary["mode"] == "fraction"
        summary["mode"] = "percent"
        with open(metrics_path, "w") as fh:
            json.dump(summary, fh)
        with pytest.raises(ValueError, match=record.config_hash):
            load_record(path)


class TestGrid:
    def grid(self, **kw):
        base = {
            "manifest": tiny_manifest(),
            "strategies": [{"kind": "EWC", "lam": [0.5, 1.0, 2.0], "fisher_budget": 4}],
            "seeds": [1],
            **FAST,
        }
        base.update(kw)
        return base

    def test_hyperparameter_list_expands(self):
        configs = expand_grid(self.grid())
        assert len(configs) == 3
        assert sorted(c.strategy.lam for c in configs) == [0.5, 1.0, 2.0]

    def test_strategy_times_seeds(self):
        configs = expand_grid(self.grid(seeds=[1, 2]))
        assert len(configs) == 6

    @pytest.mark.parametrize("key,value", [("epoch", 99), ("percent", False), ("seed", 3)])
    def test_unknown_top_level_key_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"unknown grid keys: \\['{key}'\\]"):
            expand_grid(self.grid(**{key: value}))

    def test_empty_lists_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            expand_grid(self.grid(strategies=[]))
        with pytest.raises(ValueError, match="non-empty"):
            expand_grid(self.grid(seeds=[]))

    def test_serial_and_parallel_identical(self):
        grid = self.grid(strategies=[{"kind": "Naive"}, {"kind": "Replay", "memory_size": 5}], seeds=[1, 2])
        serial = run_grid(grid, workers=1)
        parallel = run_grid(grid, workers=2)
        assert len(serial) == len(parallel) == 4
        for a, b in zip(serial, parallel):
            assert a.label == b.label
            assert np.array_equal(a.matrix.values, b.matrix.values)

    def test_non_object_strategy_entry_becomes_error_cell(self):
        configs = expand_grid(self.grid(strategies=["Naive", {"kind": "Naive"}]))
        assert len(configs) == 2
        error, config = configs
        assert error["label"] == "'Naive'" and error["seed"] == 1
        assert "must be an object" in error["error"]
        assert isinstance(config, ExperimentConfig) and config.strategy.kind == "Naive"

    def test_cell_errors_do_not_abort_grid(self):
        grid = self.grid(strategies=[{"kind": "Naive"}, {"kind": "GEM", "per_task_memory": -3}])
        results = run_grid(grid)
        errors = [r for r in results if isinstance(r, dict)]
        records = [r for r in results if not isinstance(r, dict)]
        assert len(errors) == 1 and "memory" in errors[0]["error"]
        assert len(records) == 1


class TestReport:
    def records(self, seeds=(1,), strategy=None):
        return [run_experiment(tiny_config(strategy, seed=s)) for s in seeds]

    def test_csv_header_exact(self):
        text = report(self.records(), fmt="csv")
        assert text.splitlines()[0] == "approach,bwt,fwt,a,acc"

    def test_single_record_single_row(self):
        text = report(self.records(), fmt="csv")
        assert len(text.strip().splitlines()) == 2

    def test_joint_row_uses_placeholders(self):
        text = report(self.records(strategy=StrategyConfig("Joint")), fmt="csv")
        row = text.strip().splitlines()[1].split(",")
        assert row[1:4] == ["--", "--", "--"]
        assert row[4] != "--"

    def test_mean_row_added_for_seed_groups(self):
        text = report(self.records(seeds=(1, 2)), fmt="csv")
        lines = text.strip().splitlines()
        assert len(lines) == 4  # header + 2 seeds + mean
        assert lines[-1].startswith("Naive[mean]")

    def test_mixed_scenarios_rejected(self):
        di = self.records()
        ci_cfg = ExperimentConfig(
            manifest=tiny_manifest(kind="CI"), strategy=StrategyConfig("Naive"), seed=1, **FAST
        )
        ci = [run_experiment(ci_cfg)]
        with pytest.raises(ValueError, match="mixed"):
            report(di + ci)

    def test_text_format_aligns(self):
        text = report(self.records(), fmt="text")
        assert text.splitlines()[0].startswith("approach")

    def test_curve_csv_has_row_per_session(self):
        record = self.records()[0]
        lines = curve_csv(record).strip().splitlines()
        assert lines[0] == "session,mean_accuracy"
        assert len(lines) == 1 + record.matrix.T


class TestSelftest:
    def test_selftest_passes(self):
        ok, lines = harness.selftest()
        assert ok, lines
        assert all(line.startswith("PASS") for line in lines)


def test_replay_accuracy_non_decreasing_in_memory():
    # larger rehearsal memory should never cost accuracy beyond noise
    from clbench import suites

    acc = {}
    for seed in (1, 2, 3):
        grid = {
            "manifest": suites.standard_ci_manifest(seed=seed),
            "strategies": [{"kind": "Replay", "memory_size": [50, 100, 500]}],
            "seeds": [seed],
            **suites.CI_TRAIN,
        }
        for record in run_grid(grid):
            mem = record.config_json["strategy"]["memory_size"]
            acc.setdefault(mem, []).append(record.metric_summary["acc"] * 100.0)
    means = [np.mean(acc[mem]) for mem in (50, 100, 500)]
    assert means[1] >= means[0] - 2.0
    assert means[2] >= means[1] - 2.0
