import numpy as np
import pytest

from canclust.correlation import DISSIMILARITIES, to_dissimilarity
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


def signed_rho(m):
    """The Pearson correlations to_dissimilarity() saw, from its sign-sensitive d = (1 - rho) / 2."""
    return 1.0 - 2.0 * to_dissimilarity(m, "half_one_minus_rho").d


class TestPearson:
    """The correlations behind d."""

    def test_matches_numpy_corrcoef(self, rng):
        rows = rng.normal(size=(6, 200))
        assert np.max(np.abs(signed_rho(matrix_from_rows(rows)) - np.corrcoef(rows))) < 1e-10

    def test_diagonal_exactly_one(self, rng):
        m = matrix_from_rows(rng.normal(size=(5, 50)))
        for mode in DISSIMILARITIES:
            assert np.all(np.diag(to_dissimilarity(m, mode).d) == 0.0)

    def test_symmetric_exactly(self, rng):
        m = matrix_from_rows(rng.normal(size=(7, 80)))
        for mode in DISSIMILARITIES:
            d = to_dissimilarity(m, mode).d
            assert np.array_equal(d, d.T)

    def test_bounded(self, rng):
        # equal and negated rows put the dot products at +-1, give or take rounding
        rows = rng.normal(size=(4, 30))
        m = matrix_from_rows(np.vstack([rows, rows, -rows]))
        for mode in DISSIMILARITIES:
            d = to_dissimilarity(m, mode).d
            assert np.all(d >= 0.0) and np.all(d <= 1.0)

    def test_perfect_anticorrelation(self):
        base = np.array([1.0, 2.0, 5.0, 3.0])
        rho = signed_rho(matrix_from_rows([base, -2.0 * base + 7.0]))
        assert abs(rho[0, 1] + 1.0) < 1e-12

    def test_single_signal_rejected(self, rng):
        with pytest.raises(DataError, match="at least 2 signals"):
            to_dissimilarity(matrix_from_rows(rng.normal(size=(1, 50))))

    def test_single_sample_rejected(self, rng):
        m = matrix_from_rows(rng.normal(size=(3, 40)))
        with pytest.raises(DataError, match="at least 2 samples"):
            to_dissimilarity(m._replace(data=m.data[:, :1]))

    def test_zero_variance_row_rejected(self, rng):
        m = matrix_from_rows(rng.normal(size=(3, 40)))
        data = m.data.copy()
        data[1] = 0.0
        with pytest.raises(DataError, match="s1"):
            to_dissimilarity(m._replace(data=data))


class TestDissimilarity:
    def test_abs_mode(self, rng):
        rows = rng.normal(size=(5, 60))
        d = to_dissimilarity(matrix_from_rows(rows))
        assert np.max(np.abs(d.d - (1.0 - np.abs(np.corrcoef(rows))))) < 1e-10
        assert np.all(np.diag(d.d) == 0.0)
        assert d.signal_ids == ("s0", "s1", "s2", "s3", "s4")

    def test_signed_mode(self):
        base = np.array([1.0, 2.0, 5.0, 3.0])
        m = matrix_from_rows([base, -base])
        d_abs = to_dissimilarity(m, "one_minus_abs_rho")
        d_signed = to_dissimilarity(m, "half_one_minus_rho")
        # anticorrelated pair: close in abs mode, maximally far in signed mode
        assert d_abs.d[0, 1] < 1e-12
        assert abs(d_signed.d[0, 1] - 1.0) < 1e-12

    def test_range(self, rng):
        m = matrix_from_rows(rng.normal(size=(6, 40)))
        for mode in DISSIMILARITIES:
            d = to_dissimilarity(m, mode)
            assert np.all(d.d >= 0.0) and np.all(d.d <= 1.0)

    def test_unknown_mode(self, rng):
        with pytest.raises(ValueError):
            to_dissimilarity(matrix_from_rows(rng.normal(size=(3, 40))), "nope")
