"""Train-test accuracy matrix and the four sequential-learning metrics.

R[t][j] is the accuracy on task j's test split after training session t
(1-based). Backward transfer averages the drop of earlier tasks, forward
transfer averages zero-shot accuracy on future tasks, final accuracy is the
mean of the last row, and the incremental average covers the whole lower
triangle. All functions operate on fractions in [0, 1]; only the report
tables print percentages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AccuracyMatrix",
    "bwt",
    "fwt",
    "acc_final",
    "a_incremental",
    "session_curve",
    "matrix_to_csv",
]

CURVE_MODES = ("all-tasks", "seen-tasks")


@dataclass
class AccuracyMatrix:
    """T x T accuracy grid with a fill mask; cells are write-once."""

    T: int
    values: np.ndarray = field(init=False)
    filled: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("need at least one task")
        self.values = np.full((self.T, self.T), np.nan)
        self.filled = np.zeros((self.T, self.T), dtype=bool)

    def _index(self, t: int, j: int) -> tuple[int, int]:
        if not (1 <= t <= self.T and 1 <= j <= self.T):
            raise ValueError(f"cell ({t},{j}) outside 1..{self.T}")
        return t - 1, j - 1

    def record(self, t: int, j: int, accuracy: float) -> None:
        ti, ji = self._index(t, j)
        if self.filled[ti, ji]:
            raise ValueError(f"cell ({t},{j}) already recorded")
        if not 0.0 <= accuracy <= 1.0:
            raise ValueError(f"accuracy {accuracy} outside [0, 1]")
        self.values[ti, ji] = accuracy
        self.filled[ti, ji] = True

    def cell(self, t: int, j: int) -> float:
        ti, ji = self._index(t, j)
        if not self.filled[ti, ji]:
            raise ValueError(f"cell ({t},{j}) not filled")
        return float(self.values[ti, ji])

    def _require(self, mask: np.ndarray, what: str) -> None:
        missing = mask & ~self.filled
        if missing.any():
            t, j = np.argwhere(missing)[0] + 1
            raise ValueError(f"{what} needs cell ({t},{j}), which is unfilled")


def _lower_mask(T: int, diagonal: bool) -> np.ndarray:
    return np.tril(np.ones((T, T), dtype=bool), k=0 if diagonal else -1)


def bwt(matrix: AccuracyMatrix) -> float:
    """Mean influence of later training on earlier tasks:
    2/(T(T-1)) * sum_{i>j} (R[i][j] - R[j][j])."""
    T = matrix.T
    if T < 2:
        raise ValueError("backward transfer needs T >= 2")
    matrix._require(_lower_mask(T, diagonal=True), "bwt")
    total = 0.0
    for i in range(2, T + 1):
        for j in range(1, i):
            total += matrix.values[i - 1, j - 1] - matrix.values[j - 1, j - 1]
    return 2.0 * total / (T * (T - 1))


def fwt(matrix: AccuracyMatrix) -> float:
    """Mean zero-shot accuracy on not-yet-trained tasks:
    2/(T(T-1)) * sum_{t<j} R[t][j]."""
    T = matrix.T
    if T < 2:
        raise ValueError("forward transfer needs T >= 2")
    matrix._require(~_lower_mask(T, diagonal=True), "fwt")
    total = 0.0
    for t in range(1, T + 1):
        for j in range(t + 1, T + 1):
            total += matrix.values[t - 1, j - 1]
    return 2.0 * total / (T * (T - 1))


def acc_final(matrix: AccuracyMatrix) -> float:
    """Mean of the final row: accuracy across tasks after the last session."""
    T = matrix.T
    mask = np.zeros((T, T), dtype=bool)
    mask[T - 1, :] = True
    matrix._require(mask, "acc")
    return float(np.mean(matrix.values[T - 1, :]))


def a_incremental(matrix: AccuracyMatrix) -> float:
    """Lower-triangle average including the diagonal:
    2/(T(T+1)) * sum_{i>=j} R[i][j]."""
    T = matrix.T
    matrix._require(_lower_mask(T, diagonal=True), "a")
    total = 0.0
    for i in range(1, T + 1):
        for j in range(1, i + 1):
            total += matrix.values[i - 1, j - 1]
    return 2.0 * total / (T * (T + 1))


def session_curve(matrix: AccuracyMatrix, mode: str = "all-tasks") -> np.ndarray:
    """Per-session mean accuracy: over all T tasks, or tasks seen so far."""
    if mode not in CURVE_MODES:
        raise ValueError(f"mode must be one of {CURVE_MODES}")
    T = matrix.T
    if mode == "all-tasks":
        matrix._require(np.ones((T, T), dtype=bool), "session curve")
        return matrix.values.mean(axis=1)
    matrix._require(_lower_mask(T, diagonal=True), "session curve")
    return np.array([matrix.values[t, : t + 1].mean() for t in range(T)])


def matrix_to_csv(matrix: AccuracyMatrix) -> str:
    """One row per session; unfilled cells stay empty. Full float precision
    so identical matrices serialize byte-identically: the sha256 of this text
    is the fingerprint that pins a run's R matrix."""
    lines = [",".join(f"test_{j}" for j in range(1, matrix.T + 1))]
    for t in range(matrix.T):
        cells = [
            format(matrix.values[t, j], ".17g") if matrix.filled[t, j] else ""
            for j in range(matrix.T)
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
