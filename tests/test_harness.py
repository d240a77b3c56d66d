import dataclasses
import json
import os
import shutil

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


def saved_files(root):
    return sorted(
        os.path.relpath(os.path.join(d, f), root) for d, _, files in os.walk(root) for f in files
    )


def assert_records_equal(loaded, record):
    assert np.array_equal(loaded.matrix.values, record.matrix.values, equal_nan=True)
    assert np.array_equal(loaded.matrix.filled, record.matrix.filled)
    assert loaded.config_hash == record.config_hash
    assert (loaded.label, loaded.scenario, loaded.seed) == (record.label, record.scenario, record.seed)
    assert loaded.metric_summary == record.metric_summary
    assert loaded.curves == record.curves
    assert loaded.session_seconds == record.session_seconds
    assert loaded.diagnostics == record.diagnostics
    assert loaded.config_json == record.config_json


def handmade_record(matrix, joint=False):
    """A record as `run_experiment` would build it around `matrix`."""
    acc = metrics.acc_final(matrix)
    return RunRecord(
        config_hash="0123456789abcdef",
        label="Joint[seed=1]" if joint else "Naive[seed=1]",
        scenario="DI",
        seed=1,
        matrix=matrix,
        metric_summary={"bwt": None, "fwt": None, "a": None, "acc": acc} if joint else {
            "bwt": metrics.bwt(matrix),
            "fwt": metrics.fwt(matrix),
            "a": metrics.a_incremental(matrix),
            "acc": acc,
        },
        curves=None if joint else {
            "all_tasks": metrics.session_curve(matrix, "all-tasks").tolist(),
            "seen_tasks": metrics.session_curve(matrix, "seen-tasks").tolist(),
        },
        session_seconds=[0.5, 0.25],
        diagnostics={},
    )


class TestPersistence:
    def test_record_round_trip(self, tmp_path):
        config = tiny_config(out_dir=str(tmp_path))
        record = run_experiment(config)
        assert saved_files(str(tmp_path)) == [os.path.join(record.config_hash, "record.json")]
        assert_records_equal(load_record(os.path.join(str(tmp_path), record.config_hash)), record)

    @pytest.mark.parametrize("kind", harness.strategies.KINDS)
    def test_every_regime_round_trips(self, tmp_path, kind):
        strategy = StrategyConfig(kind, lam=0.5, alpha=1.0, memory_size=6, per_task_memory=4,
                                  fisher_budget=4)
        record = run_experiment(tiny_config(strategy))
        assert_records_equal(load_record(save_record(record, str(tmp_path))), record)

    def test_random_matrix_round_trips(self, tmp_path):
        values = np.random.default_rng(7).uniform(0, 1, size=(4, 4))
        matrix = metrics.AccuracyMatrix(4)
        for t in range(1, 5):
            for j in range(1, 5):
                matrix.record(t, j, values[t - 1, j - 1])
        record = handmade_record(matrix)
        loaded = load_record(save_record(record, str(tmp_path)))
        assert_records_equal(loaded, record)
        assert metrics.matrix_to_csv(loaded.matrix) == metrics.matrix_to_csv(matrix)

    def test_last_row_only_matrix_round_trips(self, tmp_path):
        matrix = metrics.AccuracyMatrix(3)
        for j in range(1, 4):
            matrix.record(3, j, 0.25)
        record = handmade_record(matrix, joint=True)
        loaded = load_record(save_record(record, str(tmp_path)))
        assert_records_equal(loaded, record)
        assert not loaded.matrix.filled[:2].any() and loaded.matrix.filled[2].all()
        assert metrics.matrix_to_csv(loaded.matrix) == metrics.matrix_to_csv(matrix)

    def test_rerun_reproduces_r_csv_bitwise(self, tmp_path):
        config = tiny_config(out_dir=str(tmp_path))
        first = run_experiment(config)
        shutil.rmtree(os.path.join(str(tmp_path), first.config_hash))
        second = run_experiment(config)
        assert metrics.matrix_to_csv(second.matrix) == metrics.matrix_to_csv(first.matrix)

    def test_rerun_resumes_without_training(self, tmp_path, monkeypatch):
        config = tiny_config(out_dir=str(tmp_path))
        record = run_experiment(config)
        path = os.path.join(str(tmp_path), record.config_hash, "record.json")
        with open(path, "rb") as fh:
            saved = fh.read()

        def no_training(*args, **kwargs):
            raise AssertionError("a saved run was trained again")

        monkeypatch.setattr(harness.strategies, "train_task", no_training)
        monkeypatch.setattr(harness.scenarios, "build_stream", no_training)
        assert_records_equal(run_experiment(config), record)
        with open(path, "rb") as fh:
            assert fh.read() == saved

    @pytest.mark.parametrize("fault", ["unserialisable", "replace"])
    def test_failed_write_leaves_previous_record(self, tmp_path, monkeypatch, fault):
        record = run_experiment(tiny_config())
        path = save_record(record, str(tmp_path / "kept"))
        with open(os.path.join(path, "record.json"), "rb") as fh:
            saved = fh.read()
        broken = dataclasses.replace(record, session_seconds=[9.0, 9.0])
        if fault == "unserialisable":
            broken.diagnostics = {**record.diagnostics, "oops": object()}
            expected = TypeError
        else:
            def failing_replace(src, dst):
                raise OSError("disk full")

            monkeypatch.setattr(harness.os, "replace", failing_replace)
            expected = OSError
        with pytest.raises(expected):
            save_record(broken, str(tmp_path / "kept"))
        assert os.listdir(path) == ["record.json"]
        with open(os.path.join(path, "record.json"), "rb") as fh:
            assert fh.read() == saved
        with pytest.raises(expected):
            save_record(broken, str(tmp_path / "fresh"))
        assert saved_files(str(tmp_path / "fresh")) == []

    def test_fractions_reload_exactly(self, tmp_path):
        # k/n accuracies that a x100 write and /100 read moved by one ulp
        values = np.array([[23 / 140, 13 / 150], [13 / 150, 23 / 140]])
        matrix = metrics.AccuracyMatrix(2)
        for t in (1, 2):
            for j in (1, 2):
                matrix.record(t, j, values[t - 1, j - 1])
        record = handmade_record(matrix)
        loaded = load_record(save_record(record, str(tmp_path)))
        assert np.array_equal(loaded.matrix.values, values)
        assert loaded.metric_summary == record.metric_summary
        assert loaded.curves == record.curves
        rows = curve_csv(loaded).splitlines()[1:]
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
        # a record from before record.json (R.csv, metrics.json with a
        # "mode") is neither listed nor loadable, so it cannot be misread
        path = tmp_path / "0123456789abcdef"
        path.mkdir()
        (path / "R.csv").write_text("test_1\n80\n")
        (path / "metrics.json").write_text(json.dumps({"mode": "percent", "label": "Naive[seed=1]"}))
        assert harness.load_records(str(tmp_path)) == []
        with pytest.raises(FileNotFoundError):
            load_record(str(path))

    @pytest.mark.parametrize("edit", ["not-an-object", "missing-key", "unknown-key"])
    def test_malformed_record_is_value_error(self, tmp_path, edit):
        matrix = metrics.AccuracyMatrix(1)
        matrix.record(1, 1, 0.5)
        path = save_record(handmade_record(matrix, joint=True), str(tmp_path))
        with open(os.path.join(path, "record.json")) as fh:
            raw = json.load(fh)
        bad = {
            "not-an-object": [],
            "missing-key": {k: v for k, v in raw.items() if k != "label"},
            "unknown-key": {**raw, "extra": 1},
        }[edit]
        with open(os.path.join(path, "record.json"), "w") as fh:
            json.dump(bad, fh)
        with pytest.raises(ValueError, match="malformed run record"):
            load_record(path)


# a hand-written manifest, so that the pinned identities below do not depend
# on the synthetic generators
IDENTITY_MANIFEST = {
    "scenario": "DI",
    "seed": 4,
    "feature_dim": 2,
    "tasks": [
        {"name": f"T{t}", "classes": [
            {"label": label, "cluster": {"mean": [t + 2.0 * i, -1.0 * i], "sigma": 0.5},
             "train_count": 4, "test_count": 2}
            for i, label in enumerate(("normal", "anomaly"))]}
        for t in (1, 2)
    ],
}
IDENTITY_TRAIN = dict(hidden_dims=[3], epochs=1, batch_size=4, learning_rate=0.01)
IDENTITY_MANIFEST_HASH = "92a02217eb0b98337191cbc8bf858a455f0c6a09c4f0a440733793dcc3b4dd37"


def identity_json(seed, standardize, manifest_path=None, **strategy):
    return {
        "batch_size": 4, "epochs": 1, "hidden_dims": [3], "learning_rate": 0.01,
        "manifest_hash": IDENTITY_MANIFEST_HASH, "manifest_path": manifest_path,
        "pool_mode": "mean-over-time", "seed": seed, "standardize": standardize,
        "strategy": {"alpha": 0.0, "fisher_budget": 512, "gamma": 0.0, "kind": "Naive", "lam": 0.0,
                     "memory_size": 0, "per_task_memory": 0, "tau": 2.0, "xi": 0.1, **strategy},
    }


class TestRunIdentity:
    """`config_hash` names a run's directory, so resume depends on it: these
    values must not move when the code that derives them changes."""

    def check(self, config, digest, expected_json):
        assert config_hash(config) == digest
        record = run_experiment(config)
        assert record.config_hash == digest
        assert record.config_json == expected_json

    def test_inline_manifest(self):
        config = ExperimentConfig(
            manifest=IDENTITY_MANIFEST, strategy=StrategyConfig("EWC", lam=0.5, fisher_budget=8),
            seed=3, standardize=False, **IDENTITY_TRAIN,
        )
        expected = identity_json(3, False, kind="EWC", lam=0.5, fisher_budget=8)
        self.check(config, "67d1ee63e4f4eff9", expected)

    def test_path_manifest_with_cache_and_out_dir(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(IDENTITY_MANIFEST))
        config = ExperimentConfig(
            manifest=str(path), strategy=StrategyConfig("Replay", memory_size=4), seed=0,
            feature_cache=str(tmp_path / "cache.fea1"), out_dir=str(tmp_path / "runs"), **IDENTITY_TRAIN,
        )
        expected = identity_json(0, True, str(path), kind="Replay", memory_size=4)
        self.check(config, "6bf7186140c4a8a3", expected)

    def test_grid_cell(self):
        grid = {"manifest": IDENTITY_MANIFEST, "strategies": [{"kind": "LwF", "alpha": [0.5, 1.0]}],
                "seeds": [2], "pool_mode": "mean-over-time", **IDENTITY_TRAIN}
        expected = identity_json(2, True, kind="LwF", alpha=1.0)
        self.check(expand_grid(grid)[1], "fd53fc66617ece04", expected)


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


    def test_dead_worker_becomes_error_cell_and_rerun_resumes(self, tmp_path, monkeypatch,
                                                              dying_grid_worker):
        out_dir = str(tmp_path / "runs")
        grid = self.grid(strategies=[{"kind": "Naive"}], seeds=[1, 2, 3], out_dir=out_dir)
        dying_grid_worker(out_dir)
        results = run_grid(grid, workers=2)
        assert [r.seed if isinstance(r, RunRecord) else r["seed"] for r in results] == [1, 2, 3]
        assert isinstance(results[0], RunRecord)
        assert "BrokenProcessPool" in results[1]["error"]
        assert isinstance(results[2], (RunRecord, dict))

        monkeypatch.undo()  # disarm, then count the sessions a rerun trains
        trained = []
        original = harness.strategies.train_task

        def counting(strategy, *args):
            trained.append(strategy.rngs.master)
            return original(strategy, *args)

        monkeypatch.setattr(harness.strategies, "train_task", counting)
        again = run_grid(grid)
        assert all(isinstance(r, RunRecord) for r in again)
        assert [r.seed for r in again] == [1, 2, 3]
        assert 2 in trained and 1 not in trained
        assert again[0].session_seconds == results[0].session_seconds  # loaded, not retrained


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
