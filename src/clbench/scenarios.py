"""Task streams for domain-incremental (DI) and class-incremental (CI)
sequential learning, built from JSON manifests.

Manifest schema::

    {
      "scenario": "DI" | "CI",
      "seed": 7,
      "feature_dim": 24,              # required when any class uses a cluster
      "tasks": [
        {"name": "T1",
         "classes": [
            {"label": "normal",
             "train_glob": "...", "test_glob": "...",   # file source, or:
             "cluster": {"mean": [...], "sigma": 1.0},  # synthetic source
             "train_count": 100, "test_count": 40}
         ]}
      ]
    }

A class entry draws both splits either from WAV files matched by its globs
or from a seeded Gaussian cluster. Declared counts are authoritative: glob
enumeration must match them exactly.
"""

from __future__ import annotations

import glob as globmod
import hashlib
import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import audiofeat

__all__ = [
    "ManifestError",
    "StreamValidationError",
    "Task",
    "TaskStream",
    "ValidationReport",
    "load_manifest",
    "build_stream",
    "validate_stream",
    "synthetic_di_manifest",
    "synthetic_ci_manifest",
    "reference_di_manifest",
    "reference_ci_manifest",
]

SCENARIOS = ("DI", "CI")

CI_TASK_GROUPS = (
    ("ToyCar", "ToyConveyor"),
    ("Valve", "Fan"),
    ("Pump", "Slider"),
    ("Vacuum", "ToyTank"),
    ("ToyNscale", "ToyDrone"),
    ("Bandsaw", "Grinder", "Shaker"),
)

DI_TASK_NAMES = (
    "T1 (DCASE2021 source)",
    "T2 (DCASE2021 target)",
    "T3 (DCASE2022 source)",
    "T4 (DCASE2022 target)",
    "T5 (DCASE2023 source)",
    "T6 (DCASE2023 target)",
)


class ManifestError(ValueError):
    """Malformed manifest or a stream that violates its scenario contract."""


class StreamValidationError(ManifestError):
    """A built stream broke a `validate_stream` rule; `.report` lists each."""

    def __init__(self, report: ValidationReport):
        super().__init__(f"stream validation failed: {report.violations}")
        self.report = report


@dataclass(frozen=True)
class Task:
    id: int  # 1-based position in the stream
    name: str
    train_x: np.ndarray
    train_y: np.ndarray
    train_ids: tuple[str, ...]
    test_x: np.ndarray
    test_y: np.ndarray
    test_ids: tuple[str, ...]
    label_set: frozenset[int]

    @property
    def n_train(self) -> int:
        return self.train_x.shape[0]

    @property
    def n_test(self) -> int:
        return self.test_x.shape[0]


@dataclass(frozen=True)
class TaskStream:
    kind: str
    tasks: tuple[Task, ...]
    labels: tuple[str, ...]  # global label names; index is the class id

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def n_classes(self) -> int:
        return len(self.labels)

    @property
    def feature_dim(self) -> int:
        return self.tasks[0].train_x.shape[1]

    def seen_classes(self, t: int) -> frozenset[int]:
        """Union of label sets of tasks 1..t."""
        if not 1 <= t <= self.n_tasks:
            raise ValueError(f"session index {t} out of range 1..{self.n_tasks}")
        out: frozenset[int] = frozenset()
        for task in self.tasks[:t]:
            out |= task.label_set
        return out


def _sample_id(key: str) -> str:
    return hashlib.sha1(key.encode("utf-8")).hexdigest()[:16]


def load_manifest(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    _check_manifest(manifest)
    return manifest


def _check_manifest(manifest: dict) -> None:
    if not isinstance(manifest, dict):
        raise ManifestError("manifest must be a JSON object")
    scenario = manifest.get("scenario")
    if scenario not in SCENARIOS:
        raise ManifestError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    tasks = manifest.get("tasks")
    if not isinstance(tasks, list) or not tasks:
        raise ManifestError("manifest needs a non-empty 'tasks' list")
    for ti, task in enumerate(tasks):
        if not isinstance(task, dict):
            raise ManifestError(f"task {ti + 1} must be a JSON object")
        classes = task.get("classes")
        if not isinstance(classes, list) or not classes:
            raise ManifestError(f"task {ti + 1} needs a non-empty 'classes' list")
        for entry in classes:
            if not isinstance(entry, dict):
                raise ManifestError(f"task {ti + 1}: class entry {entry!r} must be a JSON object")
            if "label" not in entry:
                raise ManifestError(f"task {ti + 1}: class entry missing 'label'")
            has_cluster = "cluster" in entry
            has_globs = "train_glob" in entry or "test_glob" in entry
            if has_cluster == has_globs:
                raise ManifestError(
                    f"task {ti + 1} class {entry['label']!r}: provide either "
                    "'cluster' or train_glob/test_glob, not both"
                )
            if has_globs and ("train_glob" not in entry or "test_glob" not in entry):
                raise ManifestError(
                    f"task {ti + 1} class {entry['label']!r}: file sources need "
                    "both train_glob and test_glob"
                )
            for key in ("train_count", "test_count"):
                if not isinstance(entry.get(key), int) or entry[key] < 1:
                    raise ManifestError(
                        f"task {ti + 1} class {entry['label']!r}: {key} must be a "
                        "positive integer"
                    )
            if has_cluster and not isinstance(manifest.get("feature_dim"), int):
                raise ManifestError("manifests with cluster sources need 'feature_dim'")
            cluster = entry.get("cluster")
            if has_cluster and not (
                isinstance(cluster, dict)
                and isinstance(cluster.get("mean"), list)
                and isinstance(cluster.get("sigma"), numbers.Real)
            ):
                raise ManifestError(
                    f"task {ti + 1} class {entry['label']!r}: a cluster needs a "
                    "list 'mean' and a numeric 'sigma'"
                )


def _global_labels(manifest: dict) -> tuple[str, ...]:
    # class ids follow first appearance in manifest order
    labels: list[str] = []
    for task in manifest["tasks"]:
        for entry in task["classes"]:
            if entry["label"] not in labels:
                labels.append(entry["label"])
    return tuple(labels)


def _materialize_class(manifest, task_index, class_index, entry, file_splits):
    """Feature matrices and sample ids for one class entry, both splits."""
    seed = int(manifest.get("seed", 0))
    out = {}
    if "cluster" in entry:
        mean = np.asarray(entry["cluster"]["mean"], dtype=np.float64)
        if mean.size != manifest["feature_dim"]:
            raise ManifestError(
                f"cluster mean of task {task_index + 1} class {entry['label']!r} "
                f"has dim {mean.size}, manifest declares {manifest['feature_dim']}"
            )
        sigma = float(entry["cluster"]["sigma"])
        for split_index, split in enumerate(("train", "test")):
            count = entry[f"{split}_count"]
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, task_index, class_index, split_index])
            )
            x = audiofeat.sample_cluster(mean, sigma, count, rng)
            ids = tuple(
                _sample_id(f"cluster:{task_index}/{class_index}/{split}/{i}")
                for i in range(count)
            )
            out[split] = (x, ids)
    else:
        for split in ("train", "test"):
            out[split] = file_splits[(task_index, class_index, split)]
    return out


def _file_splits(manifest: dict, pool_mode: str, feature_cache) -> dict:
    """(features, sample ids) per (task, class, split) of every file source.
    Every glob is matched and count-checked, in manifest order, before one
    `extract_files` call decodes any clip; that order is the FEA1 row order."""
    sources = {}
    for ti, task in enumerate(manifest["tasks"]):
        for ci, entry in enumerate(task["classes"]):
            if "cluster" in entry:
                continue
            for split in ("train", "test"):
                paths = sorted(globmod.glob(entry[f"{split}_glob"]))
                count = entry[f"{split}_count"]
                if len(paths) != count:
                    raise ManifestError(
                        f"task {ti + 1} class {entry['label']!r}: {split}_glob "
                        f"matched {len(paths)} files, manifest declares {count}"
                    )
                sources[(ti, ci, split)] = paths
    if not sources:
        return {}
    rows = audiofeat.extract_files(
        [p for paths in sources.values() for p in paths],
        audiofeat.LogMelConfig(), pool_mode, feature_cache,
        json.dumps(manifest, sort_keys=True).encode(),
    )
    bounds = np.cumsum([len(paths) for paths in sources.values()])[:-1]
    return {
        key: (x, tuple(_sample_id(p) for p in paths))
        for (key, paths), x in zip(sources.items(), np.split(rows, bounds))
    }


def _build_tasks(manifest: dict, file_splits: dict) -> tuple[tuple[Task, ...], tuple[str, ...]]:
    labels = _global_labels(manifest)
    label_id = {name: i for i, name in enumerate(labels)}
    tasks = []
    for ti, spec in enumerate(manifest["tasks"]):
        parts = {"train": ([], [], []), "test": ([], [], [])}
        for ci, entry in enumerate(spec["classes"]):
            data = _materialize_class(manifest, ti, ci, entry, file_splits)
            for split in ("train", "test"):
                x, ids = data[split]
                xs, ys, id_list = parts[split]
                xs.append(x)
                ys.append(np.full(x.shape[0], label_id[entry["label"]], dtype=np.int64))
                id_list.extend(ids)
        (trx, trys, trids), (tex, teys, teids) = parts["train"], parts["test"]
        tasks.append(
            Task(
                id=ti + 1,
                name=spec.get("name", f"T{ti + 1}"),
                train_x=np.vstack(trx),
                train_y=np.concatenate(trys),
                train_ids=tuple(trids),
                test_x=np.vstack(tex),
                test_y=np.concatenate(teys),
                test_ids=tuple(teids),
                label_set=frozenset(label_id[e["label"]] for e in spec["classes"]),
            )
        )
    return tuple(tasks), labels


def build_stream(manifest: dict, pool_mode: str = "mean-over-time", feature_cache=None) -> TaskStream:
    """Build the manifest's stream and check it with `validate_stream`, the
    one rule set; a stream that breaks any rule raises StreamValidationError.
    File features are read from or written to the FEA1 cache at
    `feature_cache` (None: uncached), with the same values either way."""
    _check_manifest(manifest)
    tasks, labels = _build_tasks(manifest, _file_splits(manifest, pool_mode, feature_cache))
    stream = TaskStream(kind=manifest["scenario"], tasks=tasks, labels=labels)
    report = validate_stream(stream)
    if not report.ok:
        raise StreamValidationError(report)
    return stream


@dataclass
class ValidationReport:
    ok: bool
    violations: list[dict] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {"ok": self.ok, "violations": self.violations, "stats": self.stats},
            indent=2,
        )


def validate_stream(stream: TaskStream) -> ValidationReport:
    """Check scenario invariants, count consistency and train/test leakage.

    Never raises; all findings land in the report.
    """
    violations: list[dict] = []

    def flag(kind: str, detail: str) -> None:
        violations.append({"kind": kind, "detail": detail})

    if stream.kind not in SCENARIOS:
        flag("scenario", f"unknown scenario kind {stream.kind!r}")
    for task in stream.tasks:
        if task.n_train == 0 or task.n_test == 0:
            flag("empty-split", f"task {task.id} has an empty train or test split")
        for split, ys in (("train", task.train_y), ("test", task.test_y)):
            outside = set(np.unique(ys)) - set(task.label_set)
            if outside:
                flag(
                    "label-outside-set",
                    f"task {task.id} {split} contains labels {sorted(outside)} "
                    "outside its label set",
                )
        if len(task.train_ids) != task.n_train or len(task.test_ids) != task.n_test:
            flag("count", f"task {task.id} id list length does not match samples")

    if stream.kind == "DI":
        first = stream.tasks[0].label_set
        if len(first) != 2:
            flag("di-labels", f"DI label set has {len(first)} labels, expected 2")
        for task in stream.tasks[1:]:
            if task.label_set != first:
                flag("di-label-mismatch", f"task {task.id} label set differs from task 1")
        for task in stream.tasks:
            counts = np.bincount(task.test_y, minlength=stream.n_classes)
            present = counts[sorted(task.label_set)]
            if present.size and present.min() != present.max():
                flag("di-test-balance", f"task {task.id} test split is unbalanced")
    elif stream.kind == "CI":
        seen: set[int] = set()
        for task in stream.tasks:
            overlap = seen & task.label_set
            if overlap:
                flag("ci-overlap", f"task {task.id} reuses classes {sorted(overlap)}")
            seen |= task.label_set
        if sum(len(t.label_set) for t in stream.tasks) != stream.n_classes:
            flag("ci-cover", "per-task label sets do not partition the global space")

    train_ids: dict[str, int] = {}
    test_ids: dict[str, int] = {}
    for task in stream.tasks:
        for sid in task.train_ids:
            if stream.kind == "CI" and sid in train_ids and train_ids[sid] != task.id:
                flag("cross-task-train", f"sample {sid} trains in tasks {train_ids[sid]} and {task.id}")
            train_ids[sid] = task.id
        for sid in task.test_ids:
            if stream.kind == "CI" and sid in test_ids and test_ids[sid] != task.id:
                flag("cross-task-test", f"sample {sid} tested in tasks {test_ids[sid]} and {task.id}")
            test_ids[sid] = task.id
    leaked = set(train_ids) & set(test_ids)
    for sid in sorted(leaked):
        flag("leakage", f"sample {sid} appears in both a train and a test split")

    stats = {
        "scenario": stream.kind,
        "tasks": stream.n_tasks,
        "classes": stream.n_classes,
        "train_counts": [t.n_train for t in stream.tasks],
        "test_counts": [t.n_test for t in stream.tasks],
    }
    if stream.kind == "CI":
        stats["cumulative_test_counts"] = [
            int(sum(t.n_test for t in stream.tasks[:k + 1])) for k in range(stream.n_tasks)
        ]
    return ValidationReport(ok=not violations, violations=violations, stats=stats)


# ---------------------------------------------------------------------------
# Synthetic manifest builders


def _unit_axis(dim: int, k: int) -> np.ndarray:
    v = np.zeros(dim)
    v[k] = 1.0
    return v


def synthetic_di_manifest(
    seed: int = 0,
    n_tasks: int = 6,
    train_per_class: int = 60,
    test_per_class: int = 25,
    dim: int = 12,
    separation: float = 6.0,
    rotation_step: float = 0.5,
    drift: float = 4.0,
    sigma: float = 1.0,
) -> dict:
    """Two-class stream whose discriminative axis rotates task by task.

    Each task keeps the same labels but moves both class clusters to a new
    context offset and rotates the axis separating them, so a plainly
    fine-tuned boundary for task t misclassifies earlier tasks while a model
    with access to old samples can condition on the context dimension.
    """
    if dim < 3:
        raise ValueError("need dim >= 3 (two rotation dims plus a context dim)")
    tasks = []
    for t in range(n_tasks):
        theta = rotation_step * t
        axis = np.cos(theta) * _unit_axis(dim, 0) + np.sin(theta) * _unit_axis(dim, 1)
        center = drift * t * _unit_axis(dim, 2)
        half = 0.5 * separation * sigma * axis
        tasks.append(
            {
                "name": f"D{t + 1}",
                "classes": [
                    {
                        "label": "normal",
                        "cluster": {"mean": (center - half).tolist(), "sigma": sigma},
                        "train_count": train_per_class,
                        "test_count": test_per_class,
                    },
                    {
                        "label": "abnormal",
                        "cluster": {"mean": (center + half).tolist(), "sigma": sigma},
                        "train_count": train_per_class,
                        "test_count": test_per_class,
                    },
                ],
            }
        )
    return {"scenario": "DI", "seed": seed, "feature_dim": dim, "tasks": tasks}


def _spread_directions(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """n unit vectors in dim-d with no two closer than a fixed floor, so the
    cluster radius needed for a target separation stays bounded."""
    floor = 0.8
    out: list[np.ndarray] = []
    for _ in range(10000):
        if len(out) == n:
            return np.stack(out)
        v = rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        if all(np.linalg.norm(v - u) >= floor for u in out):
            out.append(v)
    raise ValueError(f"cannot place {n} spread directions in {dim} dimensions")


def _spread_means(n_classes, subspace_dims, separation, sigma, rng):
    """Random directions in one shared signal subspace, rescaled so the
    closest pair of class means is separation * sigma apart."""
    directions = _spread_directions(n_classes, subspace_dims, rng)
    gaps = [
        np.linalg.norm(directions[i] - directions[j])
        for i in range(n_classes)
        for j in range(i + 1, n_classes)
    ]
    return (separation * sigma / min(gaps)) * directions


def _chained_means(class_groups, subspace_dims, separation, near_separation, sigma):
    """Two cross-task chains of shadowing classes.

    A task's own classes sit on different chains, separation * sigma apart,
    so every session is easy in isolation; but each class is shadowed
    near_separation * sigma away by a class of the NEXT task, so fine-tuning
    without old samples relabels the old neighborhood while rehearsal keeps
    the close boundary resolved.
    """
    if subspace_dims < 4:
        raise ValueError("chained layout needs at least 4 signal dimensions")
    n_classes = sum(len(g) for g in class_groups)
    base = separation * sigma / np.sqrt(2.0)
    delta = near_separation * sigma
    means = np.zeros((n_classes, subspace_dims))
    class_index = 0
    for t, group in enumerate(class_groups):
        for slot, _label in enumerate(group):
            if slot == 0:  # chain A: anchored on axis 0, advancing along axis 2
                means[class_index, 0] = base
                means[class_index, 2] = t * delta
            elif slot == 1:  # chain B: anchored on axis 1, advancing along axis 3
                means[class_index, 1] = base
                means[class_index, 3] = t * delta
            else:  # unshadowed extras sit opposite the chains
                means[class_index, 0] = -base
                means[class_index, 1] = -(slot - 1) * base
            class_index += 1
    return means


def synthetic_ci_manifest(
    seed: int = 0,
    train_per_class: int = 120,
    test_per_class: int = 30,
    subspace_dims: int = 8,
    noise_dims: int = 3,
    separation: float = 10.0,
    near_separation: float | None = None,
    sigma: float = 1.0,
    class_groups: tuple[tuple[str, ...], ...] = CI_TASK_GROUPS,
) -> dict:
    """Disjoint-class stream: 13 Gaussian clusters arriving in 6 task groups.

    All class means live in one shared signal subspace (extra noise
    dimensions carry none). By default the means are random directions with
    the closest pair separation * sigma apart. With `near_separation` set,
    classes form cross-task shadowing chains instead: tasks stay internally
    easy at `separation` while each class gets a near neighbor from the next
    task at `near_separation`, the regime where plain fine-tuning collapses
    on old classes but rehearsal does not.
    """
    n_classes = sum(len(g) for g in class_groups)
    dim = subspace_dims + noise_dims
    if near_separation is None:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 100]))
        means = _spread_means(n_classes, subspace_dims, separation, sigma, rng)
    else:
        means = _chained_means(class_groups, subspace_dims, separation, near_separation, sigma)
    tasks = []
    class_index = 0
    for t, group in enumerate(class_groups):
        classes = []
        for label in group:
            mean = np.zeros(dim)
            mean[:subspace_dims] = means[class_index]
            classes.append(
                {
                    "label": label,
                    "cluster": {"mean": mean.tolist(), "sigma": sigma},
                    "train_count": train_per_class,
                    "test_count": test_per_class,
                }
            )
            class_index += 1
        tasks.append({"name": f"C{t + 1}", "classes": classes})
    return {"scenario": "CI", "seed": seed, "feature_dim": dim, "tasks": tasks}


# Published DCASE benchmark layout (clip counts per task) with synthetic
# stand-in features, so the full-size streams can be built and validated
# without the audio corpora.

REFERENCE_DI_TRAIN = (3098, 3036, 1512, 1512, 504, 504)
REFERENCE_DI_TEST = (862, 844, 420, 420, 140, 140)
REFERENCE_CI_TRAIN = (4320, 4178, 4037, 1425, 1425, 2138)
REFERENCE_CI_TEST_NEW = (1200, 1161, 1122, 396, 396, 594)


def _split_counts(total: int, parts: int) -> list[int]:
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def reference_di_manifest(seed: int = 0, dim: int = 12) -> dict:
    manifest = synthetic_di_manifest(seed=seed, dim=dim)
    for t, (task, train_total, test_total) in enumerate(
        zip(manifest["tasks"], REFERENCE_DI_TRAIN, REFERENCE_DI_TEST)
    ):
        task["name"] = DI_TASK_NAMES[t]
        for entry, train_n, test_n in zip(
            task["classes"], _split_counts(train_total, 2), _split_counts(test_total, 2)
        ):
            entry["train_count"] = train_n
            entry["test_count"] = test_n
    return manifest


def reference_ci_manifest(seed: int = 0, noise_dims: int = 3) -> dict:
    manifest = synthetic_ci_manifest(seed=seed, noise_dims=noise_dims)
    for task, train_total, test_total in zip(
        manifest["tasks"], REFERENCE_CI_TRAIN, REFERENCE_CI_TEST_NEW
    ):
        n = len(task["classes"])
        for entry, train_n, test_n in zip(
            task["classes"], _split_counts(train_total, n), _split_counts(test_total, n)
        ):
            entry["train_count"] = train_n
            entry["test_count"] = test_n
    return manifest
