import numpy as np
import pytest

from canclust.correlation import DissimilarityMatrix
from canclust.hierarchy import LINKAGES, agglomerate


def random_dissimilarity(rng, n, ids=None):
    """Random symmetric dissimilarity with zero diagonal, entries in (0, 1)."""
    m = rng.uniform(0.05, 1.0, size=(n, n))
    d = (m + m.T) / 2.0
    np.fill_diagonal(d, 0.0)
    if ids is None:
        ids = tuple(f"s{i}" for i in range(n))
    return DissimilarityMatrix(tuple(ids), d)


def random_dendrogram(rng, n, linkage=None):
    if linkage is None:
        linkage = LINKAGES[rng.integers(len(LINKAGES))]
    return agglomerate(random_dissimilarity(rng, n), linkage)


def power_iteration_ppr(w, alpha, tol=1e-12, max_iter=10_000):
    """Oracle for clusim.affinity: iterate P <- (1 - alpha) I + alpha P W to an l1 fixed point."""
    n = len(w)
    p = np.eye(n)
    for _ in range(max_iter):
        p_next = (1.0 - alpha) * np.eye(n) + alpha * (p @ w)
        residual = np.max(np.abs(p_next - p).sum(axis=1))
        p = p_next
        if residual < tol:
            return p
    raise AssertionError(f"power iteration did not converge (residual {residual:.3e})")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
