from dataclasses import replace

import numpy as np
import pytest

from canclust.correlation import pearson_matrix, to_dissimilarity
from canclust.errors import DataError
from canclust.ingest import SignalMatrix


def matrix_from_rows(rows, ids=None):
    rows = np.asarray(rows, dtype=float)
    centered = rows - rows.mean(axis=1, keepdims=True)
    normed = centered / np.linalg.norm(centered, axis=1, keepdims=True)
    if ids is None:
        ids = tuple(f"s{i}" for i in range(rows.shape[0]))
    grid = np.arange(rows.shape[1]) / 10.0
    return SignalMatrix(capture_id="c", signal_ids=tuple(ids), grid=grid,
                        data=normed, dropped_constant=())


class TestPearson:
    def test_matches_numpy_corrcoef(self, rng):
        rows = rng.normal(size=(6, 200))
        c = pearson_matrix(matrix_from_rows(rows))
        expected = np.corrcoef(rows)
        assert np.max(np.abs(c.rho - expected)) < 1e-10

    def test_diagonal_exactly_one(self, rng):
        c = pearson_matrix(matrix_from_rows(rng.normal(size=(5, 50))))
        assert np.all(np.diag(c.rho) == 1.0)

    def test_symmetric_exactly(self, rng):
        c = pearson_matrix(matrix_from_rows(rng.normal(size=(7, 80))))
        assert np.array_equal(c.rho, c.rho.T)

    def test_bounded(self, rng):
        c = pearson_matrix(matrix_from_rows(rng.normal(size=(8, 30))))
        assert np.all(c.rho >= -1.0) and np.all(c.rho <= 1.0)

    def test_perfect_anticorrelation(self):
        base = np.array([1.0, 2.0, 5.0, 3.0])
        c = pearson_matrix(matrix_from_rows([base, -2.0 * base + 7.0]))
        assert abs(c.rho[0, 1] + 1.0) < 1e-12

    def test_single_signal_rejected(self, rng):
        with pytest.raises(DataError):
            pearson_matrix(matrix_from_rows(rng.normal(size=(1, 50))))

    def test_zero_variance_row_rejected(self, rng):
        m = matrix_from_rows(rng.normal(size=(3, 40)))
        data = m.data.copy()
        data[1] = 0.0
        with pytest.raises(DataError, match="s1"):
            pearson_matrix(replace(m, data=data))


class TestDissimilarity:
    def test_abs_mode(self, rng):
        c = pearson_matrix(matrix_from_rows(rng.normal(size=(5, 60))))
        d = to_dissimilarity(c)
        assert np.max(np.abs(d.d - (1.0 - np.abs(c.rho)) * (1 - np.eye(5)))) < 1e-15
        assert np.all(np.diag(d.d) == 0.0)

    def test_signed_mode(self):
        base = np.array([1.0, 2.0, 5.0, 3.0])
        c = pearson_matrix(matrix_from_rows([base, -base]))
        d_abs = to_dissimilarity(c, "one_minus_abs_rho")
        d_signed = to_dissimilarity(c, "half_one_minus_rho")
        # anticorrelated pair: close in abs mode, maximally far in signed mode
        assert d_abs.d[0, 1] < 1e-12
        assert abs(d_signed.d[0, 1] - 1.0) < 1e-12

    def test_range(self, rng):
        c = pearson_matrix(matrix_from_rows(rng.normal(size=(6, 40))))
        for mode in ("one_minus_abs_rho", "half_one_minus_rho"):
            d = to_dissimilarity(c, mode)
            assert np.all(d.d >= 0.0) and np.all(d.d <= 1.0)

    def test_unknown_mode(self, rng):
        c = pearson_matrix(matrix_from_rows(rng.normal(size=(3, 40))))
        with pytest.raises(ValueError):
            to_dissimilarity(c, "nope")

