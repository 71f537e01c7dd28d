"""Mann-Whitney U verdict machinery and KDE export, on plain sequences of similarities.

mann_whitney() compares two finite samples with a two-sided test: exact
enumeration of the null distribution when n1*n2 <= 10000 and there are no
ties, otherwise a tie-corrected normal approximation with continuity
correction; sorted neighbours closer than TIE_TOL tie. density_export()
produces Gaussian KDE curves for external plotting; verdicts never depend on it.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import DataError

EXACT_LIMIT = 10_000
DENSITY_POINTS = 256  # points of an exported density curve
TIE_TOL = 1e-9  # far above float noise in a similarity in [0, 1]


class TestResult(NamedTuple):
    u_statistic: float
    p_value: float
    n1: int
    n2: int
    method: str  # "exact" or "normal_approx"
    significant: bool


def _tie_groups(values):
    """(stable sort order of finite values, bounds b of their tie groups in that order): the one tie rule.

    Sorted positions b[k]..b[k+1]-1 are one group, a run of sorted neighbours each closer than TIE_TOL.
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    return order, np.flatnonzero(np.concatenate(([True], ordered[1:] - ordered[:-1] >= TIE_TOL, [True])))


def average_ranks(values):
    """1-based ranks of finite values, each tie group sharing its mean rank.

    Sorted positions s..e-1 of one group all get (s + e + 1) / 2, a half-integer,
    so the ranks are exact in floating point.
    """
    values = np.asarray(values, dtype=float)
    order, bounds = _tie_groups(values)
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((bounds[:-1] + bounds[1:] + 1) / 2.0, np.diff(bounds))
    return ranks


def u_statistic(x, y):
    """U = number of (xi, yj) pairs with xi > yj, pairs tied under TIE_TOL counting 1/2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n1, n2 = len(x), len(y)
    ranks = average_ranks(np.concatenate([x, y]))
    r1 = ranks[:n1].sum()
    return float(r1 - n1 * (n1 + 1) / 2.0)


@functools.lru_cache(maxsize=64)
def exact_u_counts(n1, n2):
    """Null distribution of U as exact integer counts over u = 0..n1*n2.

    Coefficients of the Gaussian binomial [n1+n2 choose n1]_q, built by
    polynomial multiplication in exact integer arithmetic (counts overflow
    float64 well below the exact-mode size cap). Memoised per (n1, n2): one
    analyze run tests every cell with the same sample sizes. The tuple keeps
    callers from mutating the cached counts.
    """
    top = n1 * n2
    ways = [0] * (top + 1)
    ways[0] = 1
    for i in range(1, n1 + 1):
        for u in range(i, top + 1):  # divide by (1 - q^i)
            ways[u] += ways[u - i]
        for u in range(top, n2 + i - 1, -1):  # multiply by (1 - q^(n2+i))
            ways[u] -= ways[u - (n2 + i)]
    return tuple(ways)


def mann_whitney(x, y, significance=0.05):
    """Two-sided Mann-Whitney U test between two sequences of similarities.

    Exact enumeration is used
    when n1*n2 <= 10000 and the pooled sample is tie-free; otherwise a
    normal approximation with tie-corrected variance and 0.5 continuity
    correction. Two samples whose values all tie degenerate to p = 1.
    """
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    n1, n2 = len(xv), len(yv)
    if n1 == 0 or n2 == 0:
        raise DataError("mann_whitney requires two non-empty samples")
    if not (np.isfinite(xv).all() and np.isfinite(yv).all()):
        raise DataError("mann_whitney requires finite samples")

    u = u_statistic(xv, yv)
    tie_counts = np.diff(_tie_groups(np.concatenate([xv, yv]))[1])
    if len(tie_counts) == 1:
        # all values tie: no location information at all
        return TestResult(u_statistic=u, p_value=1.0, n1=n1, n2=n2,
                          method="normal_approx", significant=False)

    if len(tie_counts) == n1 + n2 and n1 * n2 <= EXACT_LIMIT:
        counts = exact_u_counts(n1, n2)
        mu2 = n1 * n2  # 2 * mean, kept integral
        dev = abs(2 * int(round(u)) - mu2)  # of mu2's parity
        # U and mu2 - U share one null distribution: as many u lie at or above (mu2 + dev) / 2 as at or
        # below (mu2 - dev) / 2. At dev = 0 the two tails overlap and p, above 1, is clipped to 1
        p = 2 * sum(counts[:(mu2 - dev) // 2 + 1]) / sum(counts)
        method = "exact"
    else:
        n = n1 + n2
        # two groups or more: the tie term is at most that of groups (n - 1, 1), so var >= n1 * n2 / 4 > 0
        tie_term = float(np.sum(tie_counts ** 3 - tie_counts))
        var = (n1 * n2 / 12.0) * ((n + 1) - tie_term / (n * (n - 1)))
        mu = n1 * n2 / 2.0
        z = max(0.0, abs(u - mu) - 0.5) / math.sqrt(var)
        p = math.erfc(z / math.sqrt(2.0))
        method = "normal_approx"
    p = min(1.0, max(0.0, p))
    return TestResult(u_statistic=u, p_value=p, n1=n1, n2=n2,
                      method=method, significant=bool(p < significance))


def scott_bandwidth(values):
    values = np.asarray(values, dtype=float)
    return float(np.std(values, ddof=1) * len(values) ** (-0.2))


def density_export(values):
    """Gaussian KDE curve for a sequence of similarities, bandwidth h = sigma_hat * n^(-1/5) (Scott's rule).

    Returns a (DENSITY_POINTS, 2) array of (x, density) over [min - 3h, max + 3h];
    the trapezoid integral of the curve is 1 within ~1e-3.
    """
    values = np.asarray(values, dtype=float)
    if len(values) < 2:
        raise DataError("density_export needs at least 2 values")
    h = scott_bandwidth(values)
    if h <= 0:
        raise DataError("zero-variance sample has no density curve")
    xs = np.linspace(values.min() - 3 * h, values.max() + 3 * h, DENSITY_POINTS)
    z = (xs[:, None] - values[None, :]) / h
    dens = np.exp(-0.5 * z ** 2).sum(axis=1) / (len(values) * h * math.sqrt(2 * math.pi))
    return np.column_stack([xs, dens])
