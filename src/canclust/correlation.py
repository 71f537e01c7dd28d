"""Pairwise Pearson correlation of resampled signals, in its dissimilarity form.

Rows of a SignalMatrix are centered and unit-norm, so the correlation matrix
is just the Gram matrix of the rows. The clustering input is a dissimilarity:
by default d = 1 - |rho|, which treats strongly anti-correlated signals
(brake vs. accelerator style pairs) as close; d = (1 - rho) / 2 is available
for sign-sensitive analysis.
"""

from typing import NamedTuple

import numpy as np

from .errors import DataError

DISSIMILARITIES = ("one_minus_abs_rho", "half_one_minus_rho")


class DissimilarityMatrix(NamedTuple):
    signal_ids: tuple
    d: np.ndarray  # N x N, symmetric, zero diagonal, entries in [0, 1]


def to_dissimilarity(m, mode="one_minus_abs_rho"):
    """The clustering dissimilarity of the rows of a SignalMatrix.

    Rows are already centered and unit-norm, so the correlation rho[i, j] is
    the plain dot product; its strict upper triangle is clipped and mirrored,
    so d is exactly symmetric, and its diagonal is set to exactly 1. mode
    "one_minus_abs_rho" gives d = 1 - |rho| (default); mode
    "half_one_minus_rho" gives d = (1 - rho) / 2.
    """
    n = m.data.shape[0]
    if n < 2:
        raise DataError(f"{m.capture_id}: need at least 2 signals to correlate, got {n}")
    if m.data.shape[1] < 2:
        raise DataError(f"{m.capture_id}: need at least 2 samples per signal")
    flat = [sid for sid, norm in zip(m.signal_ids, np.linalg.norm(m.data, axis=1)) if not norm > 0]
    if flat:
        raise DataError(f"{m.capture_id}: zero-variance signals {flat} cannot be correlated")

    rho = np.clip(np.triu(m.data @ m.data.T, 1), -1.0, 1.0)
    rho = rho + rho.T
    np.fill_diagonal(rho, 1.0)
    if mode == "one_minus_abs_rho":
        d = 1.0 - np.abs(rho)
    elif mode == "half_one_minus_rho":
        d = (1.0 - rho) / 2.0
    else:
        raise ValueError(f"unknown dissimilarity mode {mode!r}")
    return DissimilarityMatrix(signal_ids=tuple(m.signal_ids), d=d)
