import json
import zlib

import numpy as np
import pytest

from clbench import audiofeat
from clbench.audiofeat import LogMelConfig
from clbench.scenarios import (
    ManifestError,
    StreamValidationError,
    Task,
    TaskStream,
    build_stream,
    load_manifest,
    reference_ci_manifest,
    reference_di_manifest,
    synthetic_ci_manifest,
    synthetic_di_manifest,
    validate_stream,
)


def small_di_manifest(seed=0, n_tasks=3):
    return synthetic_di_manifest(seed=seed, n_tasks=n_tasks, train_per_class=8, test_per_class=4, dim=4)


def small_ci_manifest(seed=0):
    return synthetic_ci_manifest(seed=seed, train_per_class=6, test_per_class=3, noise_dims=2)


def violation_kinds(excinfo) -> set[str]:
    return {v["kind"] for v in excinfo.value.report.violations}


class TestDiStream:
    def test_reference_counts_match_published_benchmark(self):
        stream = build_stream(reference_di_manifest(seed=1))
        assert [t.n_train for t in stream.tasks] == [3098, 3036, 1512, 1512, 504, 504]
        assert [t.n_test for t in stream.tasks] == [862, 844, 420, 420, 140, 140]
        assert stream.labels == ("normal", "abnormal")
        assert validate_stream(stream).ok

    def test_single_task_stream_is_legal(self):
        stream = build_stream(small_di_manifest(n_tasks=1))
        assert stream.n_tasks == 1
        assert validate_stream(stream).ok

    def test_synthetic_round_trip_validates(self):
        stream = build_stream(small_di_manifest())
        report = validate_stream(stream)
        assert report.ok, report.violations
        assert report.stats["scenario"] == "DI"

    def test_three_labels_rejected(self):
        manifest = small_di_manifest()
        extra = dict(manifest["tasks"][0]["classes"][0])
        extra["label"] = "other"
        manifest["tasks"][0]["classes"].append(extra)
        with pytest.raises(StreamValidationError) as excinfo:
            build_stream(manifest)
        assert violation_kinds(excinfo) == {"di-labels", "di-label-mismatch"}

    def test_unbalanced_test_split_rejected(self):
        manifest = small_di_manifest()
        manifest["tasks"][1]["classes"][0]["test_count"] = 5
        with pytest.raises(StreamValidationError) as excinfo:
            build_stream(manifest)
        assert isinstance(excinfo.value, ManifestError)
        assert violation_kinds(excinfo) == {"di-test-balance"}

    def test_pure_additive_shift_round_trip(self):
        # same two cluster means per task plus a growing additive offset
        manifest = synthetic_di_manifest(
            seed=2, n_tasks=4, train_per_class=8, test_per_class=4, dim=4,
            rotation_step=0.0, drift=3.0,
        )
        stream = build_stream(manifest)
        assert validate_stream(stream).ok
        first = np.asarray(manifest["tasks"][0]["classes"][0]["cluster"]["mean"])
        second = np.asarray(manifest["tasks"][1]["classes"][0]["cluster"]["mean"])
        shift = second - first
        assert np.count_nonzero(shift) == 1  # offset moves along one axis only


class TestCiStream:
    def test_reference_counts_match_published_benchmark(self):
        stream = build_stream(reference_ci_manifest(seed=1))
        assert [t.n_train for t in stream.tasks] == [4320, 4178, 4037, 1425, 1425, 2138]
        report = validate_stream(stream)
        assert report.stats["cumulative_test_counts"] == [1200, 2361, 3483, 3879, 4275, 4869]
        assert stream.n_classes == 13
        assert report.ok

    def test_task_groups_follow_machine_layout(self):
        stream = build_stream(reference_ci_manifest())
        names = [tuple(stream.labels[i] for i in sorted(t.label_set)) for t in stream.tasks]
        assert names[0] == ("ToyCar", "ToyConveyor")
        assert names[5] == ("Bandsaw", "Grinder", "Shaker")

    def test_shared_class_rejected(self):
        manifest = small_ci_manifest()
        manifest["tasks"][1]["classes"][0]["label"] = manifest["tasks"][0]["classes"][0]["label"]
        with pytest.raises(StreamValidationError) as excinfo:
            build_stream(manifest)
        assert violation_kinds(excinfo) == {"ci-overlap", "ci-cover"}

    def test_synthetic_thirteen_class_space(self):
        stream = build_stream(small_ci_manifest())
        assert stream.n_classes == 13
        assert sum(len(t.label_set) for t in stream.tasks) == 13
        assert validate_stream(stream).ok


class TestSeenClasses:
    def test_ci_prefixes(self):
        stream = build_stream(small_ci_manifest())
        first = stream.tasks[0].label_set
        assert {stream.labels[i] for i in first} == {"ToyCar", "ToyConveyor"}
        assert frozenset().union(*(task.label_set for task in stream.tasks)) == frozenset(range(13))

    def test_di_fixed_label_space(self):
        stream = build_stream(small_di_manifest())
        for task in stream.tasks:
            assert task.label_set == frozenset({0, 1})


def clone_task(task, **overrides):
    fields = {
        "id": task.id,
        "name": task.name,
        "train_x": task.train_x,
        "train_y": task.train_y,
        "train_ids": task.train_ids,
        "test_x": task.test_x,
        "test_y": task.test_y,
        "test_ids": task.test_ids,
        "label_set": task.label_set,
    }
    fields.update(overrides)
    return Task(**fields)


class TestValidateStream:
    def test_leakage_flagged(self):
        stream = build_stream(small_di_manifest())
        t0 = stream.tasks[0]
        leaky = clone_task(t0, test_ids=(t0.train_ids[0],) + t0.test_ids[1:])
        report = validate_stream(TaskStream("DI", (leaky,) + stream.tasks[1:], stream.labels))
        assert not report.ok
        assert any(v["kind"] == "leakage" for v in report.violations)

    def test_ci_disjointness_flagged(self):
        stream = build_stream(small_ci_manifest())
        t1 = clone_task(stream.tasks[1], label_set=stream.tasks[0].label_set)
        report = validate_stream(TaskStream("CI", (stream.tasks[0], t1) + stream.tasks[2:], stream.labels))
        assert not report.ok
        assert any(v["kind"] == "ci-overlap" for v in report.violations)

    def test_cross_task_train_duplicate_flagged(self):
        stream = build_stream(small_ci_manifest())
        t1 = clone_task(
            stream.tasks[1],
            train_ids=(stream.tasks[0].train_ids[0],) + stream.tasks[1].train_ids[1:],
        )
        report = validate_stream(TaskStream("CI", (stream.tasks[0], t1) + stream.tasks[2:], stream.labels))
        assert any(v["kind"] == "cross-task-train" for v in report.violations)

    def test_report_serializes(self):
        report = validate_stream(build_stream(small_di_manifest()))
        payload = json.loads(report.to_json())
        assert payload["ok"] is True
        assert payload["stats"]["tasks"] == 3


class TestDeterminism:
    def test_same_manifest_same_stream(self):
        a = build_stream(small_ci_manifest(seed=5))
        b = build_stream(small_ci_manifest(seed=5))
        for ta, tb in zip(a.tasks, b.tasks):
            assert np.array_equal(ta.train_x, tb.train_x)
            assert np.array_equal(ta.test_x, tb.test_x)
            assert ta.train_ids == tb.train_ids

    def test_different_seed_different_data(self):
        a = build_stream(small_ci_manifest(seed=1))
        b = build_stream(small_ci_manifest(seed=2))
        assert not np.array_equal(a.tasks[0].train_x, b.tasks[0].train_x)


class TestManifestIO:
    def test_file_round_trip(self, tmp_path):
        manifest = small_di_manifest()
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        assert load_manifest(path) == manifest

    def test_missing_scenario_rejected(self):
        with pytest.raises(ManifestError, match="scenario"):
            build_stream({"tasks": []})

    def test_cluster_and_glob_mutually_exclusive(self):
        manifest = small_di_manifest()
        manifest["tasks"][0]["classes"][0]["train_glob"] = "*.wav"
        with pytest.raises(ManifestError, match="not both|need"):
            build_stream(manifest)

    def test_missing_counts_rejected(self):
        manifest = small_di_manifest()
        del manifest["tasks"][0]["classes"][0]["train_count"]
        with pytest.raises(ManifestError, match="train_count"):
            build_stream(manifest)


class TestFileSources:
    def make_wavs(self, directory, count, seed):
        import wave

        rng = np.random.default_rng(seed)
        directory.mkdir(parents=True, exist_ok=True)
        for i in range(count):
            with wave.open(str(directory / f"clip{i}.wav"), "wb") as wf:
                wf.setnchannels(1)
                wf.setsampwidth(2)
                wf.setframerate(16000)
                samples = (rng.uniform(-0.2, 0.2, 2048) * 32767).astype("<i2")
                wf.writeframes(samples.tobytes())

    def glob_manifest(self, root, train_n=3, test_n=2, declared=None):
        for split, n in (("train", train_n), ("test", test_n)):
            for label in ("normal", "abnormal"):
                # a stable digest: str hashes are salted per process
                seed = zlib.crc32(f"{split}/{label}".encode()) % 1000
                self.make_wavs(root / label / split, n, seed=seed)
        classes = []
        for label in ("normal", "abnormal"):
            classes.append(
                {
                    "label": label,
                    "train_glob": str(root / label / "train" / "*.wav"),
                    "test_glob": str(root / label / "test" / "*.wav"),
                    "train_count": declared or train_n,
                    "test_count": test_n,
                }
            )
        return {"scenario": "DI", "seed": 0, "tasks": [{"name": "T1", "classes": classes}]}

    def test_glob_sources_build(self, tmp_path):
        manifest = self.glob_manifest(tmp_path)
        stream = build_stream(manifest)
        assert stream.tasks[0].n_train == 6
        assert stream.tasks[0].n_test == 4
        assert stream.feature_dim == LogMelConfig().mel_bins
        assert np.isfinite(stream.tasks[0].train_x).all()
        assert validate_stream(stream).ok

    def test_count_mismatch_rejected(self, tmp_path, monkeypatch):
        manifest = self.glob_manifest(tmp_path)
        manifest["tasks"][0]["classes"][-1]["test_count"] = 3  # the last source
        decoded = []
        monkeypatch.setattr(audiofeat, "extract_file", lambda path, *a: decoded.append(path))
        with pytest.raises(ManifestError, match="matched 2 files, manifest declares 3"):
            build_stream(manifest)
        assert decoded == []  # every glob is checked before any clip is decoded

    def test_cache_hit_miss_and_uncached_builds_are_equal(self, tmp_path, monkeypatch):
        manifest = self.glob_manifest(tmp_path)
        cache = str(tmp_path / "features.fea1")
        miss = build_stream(manifest, feature_cache=cache)
        with open(cache, "rb") as fh:
            assert fh.read(4) == b"FEA1"
        with monkeypatch.context() as m:  # a hit decodes nothing
            m.setattr(audiofeat, "extract_file", lambda *a: pytest.fail("cache missed"))
            hit = build_stream(manifest, feature_cache=cache)
        uncached = build_stream(manifest)
        for other in (hit, uncached):
            for a, b in zip(miss.tasks, other.tasks):
                assert np.array_equal(a.train_x, b.train_x)
                assert np.array_equal(a.test_x, b.test_x)
        # every row holds float32 values, the cache's storage type
        x = miss.tasks[0].train_x
        assert np.array_equal(x, x.astype(np.float32).astype(np.float64))
