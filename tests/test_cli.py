import json
import os

import numpy as np
import pytest

from clbench import scenarios, strategies
from clbench.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, EXIT_VALIDATION, main


def write_manifest(tmp_path, name="manifest.json", **kw):
    manifest = scenarios.synthetic_di_manifest(
        seed=0, n_tasks=2, train_per_class=8, test_per_class=4, dim=4, **kw
    )
    path = tmp_path / name
    path.write_text(json.dumps(manifest))
    return str(path)


def write_run_config(tmp_path, manifest_path, out_dir=None, strategy=None, **extra):
    config = {
        "manifest": manifest_path,
        "strategy": strategy or {"kind": "Naive"},
        "epochs": 2,
        "batch_size": 4,
        "learning_rate": 1e-2,
        "hidden_dims": [6],
        "seed": 1,
        "standardize": False,
        **extra,
    }
    if out_dir:
        config["out_dir"] = out_dir
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["selftest", "--frob"]) == EXIT_USAGE

    def test_missing_config_file_is_runtime_error(self, capsys):
        assert main(["run", "--config", "does-not-exist.json"]) == EXIT_RUNTIME
        assert "does-not-exist.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "tasks",
        [
            [],
            [1],
            [{"classes": [3]}],
            [{"classes": [{"label": "a", "cluster": {"sigma": 1.0}, "train_count": 1, "test_count": 1}]}],
            [{"classes": [{"label": "a", "cluster": {"mean": [0.0], "sigma": "1"},
                           "train_count": 1, "test_count": 1}]}],
            [{"classes": [{"label": "a", "cluster": [0.0], "train_count": 1, "test_count": 1}]}],
            [{"classes": [{"label": "a", "cluster": {"mean": ["x"], "sigma": 1.0},
                           "train_count": 1, "test_count": 1}]}],
            [{"classes": [{"label": "a", "cluster": {"mean": [[0.0]], "sigma": 1.0},
                           "train_count": 1, "test_count": 1}]}],
            [{"classes": [{"label": "a", "cluster": {"mean": [0.0], "sigma": 0},
                           "train_count": 1, "test_count": 1}]}],
            [{"classes": [{"label": "a", "cluster": {"mean": [True], "sigma": 1.0},
                           "train_count": 1, "test_count": 1}]}],
            [{"classes": [{"label": "a", "cluster": {"mean": [0.0], "sigma": True},
                           "train_count": 1, "test_count": 1}]}],
        ],
        ids=["empty-tasks", "task-not-object", "class-not-object", "cluster-without-mean",
             "cluster-sigma-not-number", "cluster-not-object", "cluster-mean-not-number",
             "cluster-mean-nested", "cluster-sigma-zero", "cluster-mean-bool",
             "cluster-sigma-bool"],
    )
    def test_malformed_manifest_is_validation_error(self, tmp_path, capsys, tasks):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"scenario": "DI", "feature_dim": 1, "tasks": tasks}))
        assert main(["validate", "--manifest", str(bad)]) == EXIT_VALIDATION
        assert "validation error:" in capsys.readouterr().err


class TestValidate:
    def test_good_manifest_passes(self, tmp_path, capsys):
        path = write_manifest(tmp_path)
        assert main(["validate", "--manifest", path]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True

    def test_report_written_to_file(self, tmp_path, capsys):
        path = write_manifest(tmp_path)
        out = tmp_path / "report.json"
        assert main(["validate", "--manifest", path, "--json-out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["ok"] is True

    def test_violation_report_written_to_file(self, tmp_path, capsys):
        manifest = scenarios.synthetic_di_manifest(
            seed=0, n_tasks=2, train_per_class=8, test_per_class=4, dim=4
        )
        manifest["tasks"][1]["classes"][0]["test_count"] = 5
        path = tmp_path / "unbalanced.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "report.json"
        assert main(["validate", "--manifest", str(path), "--json-out", str(out)]) == EXIT_VALIDATION
        payload = json.loads(out.read_text())
        assert payload["ok"] is False
        assert [v["kind"] for v in payload["violations"]] == ["di-test-balance"]
        assert json.loads(capsys.readouterr().out) == payload


class TestRunAndReport:
    def test_run_prints_table_and_persists(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path)
        runs = str(tmp_path / "runs")
        config = write_run_config(tmp_path, manifest, out_dir=runs)
        assert main(["run", "--config", config]) == EXIT_OK
        out = capsys.readouterr().out
        assert "approach" in out
        assert os.listdir(runs)

    def test_report_csv_header(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path)
        runs = str(tmp_path / "runs")
        config = write_run_config(tmp_path, manifest, out_dir=runs)
        main(["run", "--config", config])
        capsys.readouterr()
        assert main(["report", "--in", runs, "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "approach,bwt,fwt,a,acc"

    @pytest.mark.parametrize(
        "extra,strategy,unknown",
        [
            ({"epoch": 3}, None, "epoch"),
            ({"percent": True}, None, "percent"),
            ({}, {"kind": "Naive", "lamda": 1}, "lamda"),
        ],
    )
    def test_unknown_config_key_is_runtime_error(self, tmp_path, capsys, extra, strategy, unknown):
        manifest = write_manifest(tmp_path)
        config = write_run_config(tmp_path, manifest, strategy=strategy, **extra)
        assert main(["run", "--config", config]) == EXIT_RUNTIME
        assert f"['{unknown}']" in capsys.readouterr().err

    def test_report_empty_dir_fails(self, tmp_path):
        os.makedirs(tmp_path / "empty", exist_ok=True)
        assert main(["report", "--in", str(tmp_path / "empty")]) == EXIT_RUNTIME


class TestGrid:
    def test_grid_runs_and_reports(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path)
        grid = {
            "manifest": manifest,
            "strategies": [{"kind": "Naive"}, {"kind": "Replay", "memory_size": 4}],
            "seeds": [1, 2],
            "epochs": 2,
            "batch_size": 4,
            "learning_rate": 1e-2,
            "hidden_dims": [6],
            "standardize": False,
        }
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        assert main(["grid", "--config", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "Naive[mean]" in out

    def test_non_object_strategy_entry_is_a_failed_cell(self, tmp_path, capsys):
        grid = {
            "manifest": write_manifest(tmp_path),
            "strategies": ["Naive", {"kind": "Naive"}],
            "seeds": [1],
            "epochs": 2,
            "batch_size": 4,
            "hidden_dims": [6],
        }
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        assert main(["grid", "--config", str(path)]) == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert "cell failed: 'Naive' seed=1" in captured.err
        assert "Naive[seed=1]" in captured.out


    def write_grid(self, tmp_path, seeds):
        grid = {
            "manifest": write_manifest(tmp_path),
            "strategies": [{"kind": "Naive"}, {"kind": "Replay", "memory_size": 4}],
            "seeds": seeds,
            "epochs": 2,
            "batch_size": 4,
            "hidden_dims": [6],
            "out_dir": str(tmp_path / "runs"),
        }
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        return str(path)

    def test_second_grid_trains_nothing_and_reports_the_same(self, tmp_path, capsys, monkeypatch):
        path = self.write_grid(tmp_path, [1, 2])
        assert main(["grid", "--config", path]) == EXIT_OK
        first = capsys.readouterr().out

        def no_training(*args, **kwargs):
            raise AssertionError("a finished cell was trained again")

        monkeypatch.setattr(strategies, "train_task", no_training)
        assert main(["grid", "--config", path]) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_dead_worker_still_reports_finished_rows(self, tmp_path, capsys, monkeypatch,
                                                     dying_grid_worker):
        path = self.write_grid(tmp_path, [1, 2])
        dying_grid_worker(str(tmp_path / "runs"))
        assert main(["grid", "--config", path, "--workers", "2"]) == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert "cell failed: Naive seed=2: BrokenProcessPool" in captured.err
        assert "Naive[seed=1]" in captured.out

        monkeypatch.undo()
        assert main(["grid", "--config", path, "--workers", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "Naive[seed=2]" in out and "Replay(mem=4)[mean]" in out


class TestGenSynthetic:
    @pytest.mark.parametrize("scenario", ["DI", "CI"])
    def test_writes_only_the_manifest(self, tmp_path, capsys, scenario):
        out = str(tmp_path / "gen")
        assert main(["gen-synthetic", "--scenario", scenario, "--out", out, "--seed", "3"]) == EXIT_OK
        manifest_path = os.path.join(out, f"{scenario.lower()}_manifest.json")
        assert os.listdir(out) == [os.path.basename(manifest_path)]
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        assert manifest["scenario"] == scenario
        assert "validation: pass" in capsys.readouterr().out

    def test_reference_layout_has_published_counts(self, tmp_path):
        out = str(tmp_path / "ref")
        assert main(["gen-synthetic", "--scenario", "DI", "--out", out, "--reference"]) == EXIT_OK
        with open(os.path.join(out, "di_manifest.json")) as fh:
            manifest = json.load(fh)
        totals = [sum(c["train_count"] for c in task["classes"]) for task in manifest["tasks"]]
        assert totals == [3098, 3036, 1512, 1512, 504, 504]


class TestSelftest:
    def test_exit_zero_and_pass_lines(self, capsys):
        assert main(["selftest"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


class TestExtractFeatures:
    def test_cluster_manifest_has_nothing_to_extract(self, tmp_path, capsys):
        path = write_manifest(tmp_path)
        assert main(["extract-features", "--manifest", path]) == EXIT_OK
        assert "nothing to extract" in capsys.readouterr().out

    def write_wav_manifest(self, tmp_path, clips=2, declared=2):
        import wave

        globs = {}
        for label in ("normal", "abnormal"):
            for split in ("train", "test"):
                d = tmp_path / label / split
                d.mkdir(parents=True)
                for i in range(clips):
                    with wave.open(str(d / f"c{i}.wav"), "wb") as wf:
                        wf.setnchannels(1)
                        wf.setsampwidth(2)
                        wf.setframerate(16000)
                        wf.writeframes(
                            (np.sin(np.arange(2048) * 0.3) * 8000).astype("<i2").tobytes()
                        )
            globs[label] = {
                "train_glob": str(tmp_path / label / "train" / "*.wav"),
                "test_glob": str(tmp_path / label / "test" / "*.wav"),
            }
        manifest = {
            "scenario": "DI",
            "seed": 0,
            "tasks": [
                {
                    "name": "T1",
                    "classes": [
                        {"label": label, **g, "train_count": declared, "test_count": declared}
                        for label, g in globs.items()
                    ],
                }
            ],
        }
        path = tmp_path / "wav_manifest.json"
        path.write_text(json.dumps(manifest))
        return str(path)

    def test_wav_manifest_builds_cache(self, tmp_path, capsys):
        path = self.write_wav_manifest(tmp_path)
        cache = str(tmp_path / "features.fea1")
        assert main(["extract-features", "--manifest", path, "--cache", cache]) == EXIT_OK
        with open(cache, "rb") as fh:
            assert fh.read(4) == b"FEA1"

    def test_count_mismatch_is_validation_error_and_writes_no_cache(self, tmp_path, capsys):
        path = self.write_wav_manifest(tmp_path, clips=2, declared=1)
        cache = str(tmp_path / "features.fea1")
        assert main(["extract-features", "--manifest", path, "--cache", cache]) == EXIT_VALIDATION
        assert "matched 2 files, manifest declares 1" in capsys.readouterr().err
        assert not os.path.exists(cache)
