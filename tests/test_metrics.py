import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clbench.metrics import (
    AccuracyMatrix,
    a_incremental,
    acc_final,
    bwt,
    fwt,
    matrix_to_csv,
    session_curve,
)


def fill_lower(matrix, values):
    for i in range(1, matrix.T + 1):
        for j in range(1, i + 1):
            matrix.record(i, j, values[i - 1][j - 1])


def full_random_matrix(T, seed):
    rng = np.random.default_rng(seed)
    matrix = AccuracyMatrix(T)
    values = rng.uniform(0, 1, size=(T, T))
    for t in range(1, T + 1):
        for j in range(1, T + 1):
            matrix.record(t, j, values[t - 1, j - 1])
    return matrix, values


EXAMPLE = [[0.8], [0.6, 0.9], [0.5, 0.7, 0.95]]


def example_matrix(upper=None):
    matrix = AccuracyMatrix(3)
    fill_lower(matrix, EXAMPLE)
    if upper:
        for (t, j), value in upper.items():
            matrix.record(t, j, value)
    return matrix


class TestRecord:
    def test_write_then_read(self):
        matrix = AccuracyMatrix(2)
        matrix.record(1, 1, 0.8)
        assert matrix.cell(1, 1) == 0.8

    def test_double_write_rejected(self):
        matrix = AccuracyMatrix(2)
        matrix.record(1, 1, 0.8)
        with pytest.raises(ValueError, match="already"):
            matrix.record(1, 1, 0.9)

    def test_out_of_range_accuracy_rejected(self):
        matrix = AccuracyMatrix(2)
        with pytest.raises(ValueError, match="outside"):
            matrix.record(1, 1, 1.2)
        with pytest.raises(ValueError, match="outside"):
            matrix.record(1, 1, -0.1)

    def test_bad_cell_rejected(self):
        matrix = AccuracyMatrix(2)
        with pytest.raises(ValueError):
            matrix.record(0, 1, 0.5)
        with pytest.raises(ValueError):
            matrix.record(1, 3, 0.5)

    def test_unread_cell_rejected(self):
        with pytest.raises(ValueError, match="not filled"):
            AccuracyMatrix(2).cell(1, 1)


class TestBwt:
    def test_perfect_retention_is_zero(self):
        matrix = AccuracyMatrix(4)
        fill_lower(matrix, [[1.0] * (i + 1) for i in range(4)])
        assert bwt(matrix) == 0.0

    def test_worked_example(self):
        assert bwt(example_matrix()) == pytest.approx(-0.233333, abs=1e-6)

    def test_unfilled_cell_rejected(self):
        matrix = AccuracyMatrix(3)
        matrix.record(1, 1, 0.5)
        with pytest.raises(ValueError, match="unfilled"):
            bwt(matrix)

    def test_needs_two_tasks(self):
        matrix = AccuracyMatrix(1)
        matrix.record(1, 1, 0.5)
        with pytest.raises(ValueError):
            bwt(matrix)


class TestFwt:
    def test_zero_upper_triangle(self):
        matrix = example_matrix(upper={(1, 2): 0.0, (1, 3): 0.0, (2, 3): 0.0})
        assert fwt(matrix) == 0.0

    def test_worked_example(self):
        matrix = example_matrix(upper={(1, 2): 0.1, (1, 3): 0.0, (2, 3): 0.2})
        assert fwt(matrix) == pytest.approx(0.1, abs=1e-12)


class TestAcc:
    def test_perfect_final_row(self):
        matrix, _ = full_random_matrix(3, 0)
        perfect = AccuracyMatrix(3)
        for j in range(1, 4):
            perfect.record(3, j, 1.0)
        assert acc_final(perfect) == 1.0

    def test_worked_example(self):
        assert acc_final(example_matrix()) == pytest.approx(0.716667, abs=1e-6)

    def test_joint_style_single_row_suffices(self):
        matrix = AccuracyMatrix(3)
        for j in range(1, 4):
            matrix.record(3, j, 0.5)
        assert acc_final(matrix) == 0.5
        with pytest.raises(ValueError):
            bwt(matrix)


class TestAIncremental:
    def test_all_ones(self):
        matrix = AccuracyMatrix(3)
        fill_lower(matrix, [[1.0] * (i + 1) for i in range(3)])
        assert a_incremental(matrix) == 1.0

    def test_worked_example(self):
        assert a_incremental(example_matrix()) == pytest.approx(0.741667, abs=1e-6)


class TestSessionCurve:
    def test_constant_matrix(self):
        matrix, _ = full_random_matrix(3, 1)
        const = AccuracyMatrix(3)
        for t in range(1, 4):
            for j in range(1, 4):
                const.record(t, j, 0.4)
        assert np.allclose(session_curve(const, "all-tasks"), 0.4)
        assert np.allclose(session_curve(const, "seen-tasks"), 0.4)

    def test_seen_tasks_starts_at_diagonal(self):
        curve = session_curve(example_matrix(), "seen-tasks")
        assert curve[0] == 0.8

    def test_worked_example_prefix_means(self):
        np.testing.assert_allclose(
            session_curve(example_matrix(), "seen-tasks"), [0.8, 0.75, 0.7166666666666667]
        )

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            session_curve(example_matrix(), "diag")


class TestProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force_loops(self, seed):
        matrix, values = full_random_matrix(6, seed)
        T = 6
        brute_bwt = sum(
            values[i - 1, j - 1] - values[j - 1, j - 1]
            for i in range(2, T + 1)
            for j in range(1, i)
        ) * (2.0 / (T * (T - 1)))
        brute_fwt = sum(
            values[t - 1, j - 1] for t in range(1, T + 1) for j in range(t + 1, T + 1)
        ) * (2.0 / (T * (T - 1)))
        brute_acc = sum(values[T - 1, j - 1] for j in range(1, T + 1)) / T
        brute_a = sum(
            values[i - 1, j - 1] for i in range(1, T + 1) for j in range(1, i + 1)
        ) * (2.0 / (T * (T + 1)))
        assert abs(bwt(matrix) - brute_bwt) < 1e-12
        assert abs(fwt(matrix) - brute_fwt) < 1e-12
        assert abs(acc_final(matrix) - brute_acc) < 1e-12
        assert abs(a_incremental(matrix) - brute_a) < 1e-12

    @given(st.integers(0, 10_000), st.floats(0.01, 0.2))
    @settings(max_examples=50, deadline=None)
    def test_constant_shift(self, seed, c):
        T = 5
        rng = np.random.default_rng(seed)
        base = rng.uniform(0, 0.7, size=(T, T))
        m0, m1 = AccuracyMatrix(T), AccuracyMatrix(T)
        for t in range(1, T + 1):
            for j in range(1, T + 1):
                m0.record(t, j, base[t - 1, j - 1])
                m1.record(t, j, base[t - 1, j - 1] + c)
        assert bwt(m1) == pytest.approx(bwt(m0), abs=1e-12)
        assert fwt(m1) == pytest.approx(fwt(m0) + c, abs=1e-12)
        assert acc_final(m1) == pytest.approx(acc_final(m0) + c, abs=1e-12)
        assert a_incremental(m1) == pytest.approx(a_incremental(m0) + c, abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_a_equals_weighted_seen_curve(self, seed):
        T = 6
        matrix, _ = full_random_matrix(T, seed)
        curve = session_curve(matrix, "seen-tasks")
        weighted = 2.0 / (T * (T + 1)) * sum(t * curve[t - 1] for t in range(1, T + 1))
        assert a_incremental(matrix) == pytest.approx(weighted, abs=1e-12)


class TestCsv:
    def test_partial_matrix_keeps_empty_cells(self):
        matrix = AccuracyMatrix(3)
        for j in range(1, 4):
            matrix.record(3, j, 0.25)
        lines = matrix_to_csv(matrix).splitlines()
        assert lines == ["test_1,test_2,test_3", ",,", ",,", "0.25,0.25,0.25"]

    def test_serialization_is_bitwise_stable(self):
        matrix, values = full_random_matrix(5, 11)
        again = AccuracyMatrix(5)
        for t in range(1, 6):
            for j in range(1, 6):
                again.record(t, j, float(values[t - 1, j - 1]))
        assert matrix_to_csv(again) == matrix_to_csv(matrix)
        cells = [float(c) for row in matrix_to_csv(matrix).splitlines()[1:] for c in row.split(",")]
        assert cells == values.ravel().tolist()  # .17g keeps every bit
