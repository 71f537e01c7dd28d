import math
from itertools import combinations

import numpy as np
import pytest
from scipy.stats import mannwhitneyu, rankdata

from canclust.errors import DataError
from canclust.stats import (TIE_TOL, average_ranks, density_export, exact_u_counts, mann_whitney,
                            scott_bandwidth, u_statistic)


def brute_counts(n1, n2):
    """Null counts of U by enumerating every placement of n1 ranks among n1+n2."""
    top = n1 * n2
    counts = [0] * (top + 1)
    offset = n1 * (n1 + 1) // 2
    for ranks in combinations(range(1, n1 + n2 + 1), n1):
        counts[sum(ranks) - offset] += 1
    return tuple(counts)


class TestUStatistic:
    def test_counts_greater_pairs(self, rng):
        for _ in range(20):
            x = rng.normal(size=int(rng.integers(1, 8)))
            y = rng.normal(size=int(rng.integers(1, 8)))
            direct = sum(1.0 if xi > yj else 0.5 if xi == yj else 0.0
                         for xi in x for yj in y)
            assert abs(u_statistic(x, y) - direct) < 1e-9

    def test_antisymmetry(self, rng):
        x = rng.normal(size=6)
        y = rng.normal(size=9)
        assert abs(u_statistic(x, y) + u_statistic(y, x) - 54.0) < 1e-9

    def test_extremes(self):
        assert u_statistic([10, 11], [1, 2, 3]) == 6.0
        assert u_statistic([1, 2], [10, 11, 12]) == 0.0


class TestAverageRanks:
    def test_equals_scipy_rankdata(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 60))
            values = rng.normal(size=n)
            assert np.array_equal(average_ranks(values), rankdata(values))

    def test_tie_heavy_equals_scipy_rankdata(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 60))
            values = rng.integers(0, int(rng.integers(1, 5)), size=n) / 3.0
            assert np.array_equal(average_ranks(values), rankdata(values))


class TestExactCounts:
    @pytest.mark.parametrize("n1,n2", [(1, 1), (2, 3), (3, 3), (4, 5), (5, 5)])
    def test_matches_brute_force_enumeration(self, n1, n2):
        assert exact_u_counts(n1, n2) == brute_counts(n1, n2)

    def test_total_is_binomial(self):
        assert sum(exact_u_counts(6, 7)) == math.comb(13, 6)

    def test_symmetric_distribution(self):
        counts = exact_u_counts(4, 6)
        assert counts == counts[::-1]

    def test_memoised_and_immutable(self):
        # one build per (n1, n2); a tuple, so no caller can corrupt the cached counts
        assert exact_u_counts(24, 66) is exact_u_counts(24, 66)
        assert isinstance(exact_u_counts(24, 66), tuple)

    def test_large_counts_exceed_float64(self):
        # the DP must stay in exact integers; verify a count float64 cannot hold
        counts = exact_u_counts(36, 66)
        assert sum(counts) == math.comb(102, 36)
        assert max(counts) > 2 ** 63


class TestMannWhitney:
    def test_exact_p_matches_enumeration(self, rng):
        for _ in range(10):
            n1, n2 = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            x = rng.normal(size=n1)
            y = rng.normal(size=n2)
            res = mann_whitney(x, y)
            assert res.method == "exact"
            counts = brute_counts(n1, n2)
            mu2 = n1 * n2
            dev = abs(2 * int(round(res.u_statistic)) - mu2)
            expected = sum(c for u, c in enumerate(counts) if abs(2 * u - mu2) >= dev) / sum(counts)
            assert abs(res.p_value - expected) < 1e-12

    @pytest.mark.parametrize("n1,n2", [(1, 1), (1, 4), (2, 3), (3, 3), (3, 5), (4, 4), (2, 7)])
    def test_exact_p_of_every_u(self, n1, n2):
        # every placement of x's ranks among n1 + n2, so every u in 0..n1*n2, with dev = 0 when n1*n2 is even;
        # p has the bits of the brute-force tail sum over the enumerated counts
        counts = brute_counts(n1, n2)
        mu2 = n1 * n2
        seen = set()
        for ranks in combinations(range(n1 + n2), n1):
            x = [float(r) for r in ranks]
            y = [float(r) for r in range(n1 + n2) if r not in ranks]
            res = mann_whitney(x, y)
            u = int(res.u_statistic)
            dev = abs(2 * u - mu2)
            assert res.method == "exact"
            assert res.p_value == sum(c for uu, c in enumerate(counts) if abs(2 * uu - mu2) >= dev) / sum(counts)
            seen.add(u)
        assert seen == set(range(mu2 + 1))

    def test_pinned_small_case(self):
        res = mann_whitney([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert res.u_statistic == 0.0
        assert abs(res.p_value - 0.1) < 1e-12

    def test_matches_scipy_exact(self, rng):
        for _ in range(15):
            x = rng.normal(size=int(rng.integers(3, 10)))
            y = rng.normal(size=int(rng.integers(3, 10)))
            res = mann_whitney(x, y)
            assert res.method == "exact"
            ref = mannwhitneyu(x, y, alternative="two-sided", method="exact")
            assert abs(res.p_value - ref.pvalue) < 1e-10

    def test_monotone_transform_invariance(self, rng):
        x = rng.normal(size=8)
        y = rng.normal(size=11)
        base = mann_whitney(x, y)
        warped = mann_whitney(np.exp(x), np.exp(y))
        assert warped.u_statistic == base.u_statistic
        assert warped.p_value == base.p_value

    def test_normal_approx_close_to_exact(self, rng):
        # sizes near the exact cap: the asymptotic formula computed on the
        # same data must land within 0.01 of the exact enumeration
        for _ in range(5):
            x = rng.normal(size=20)
            y = rng.normal(size=20)
            exact = mann_whitney(x, y)
            assert exact.method == "exact"
            mu, sd = 200.0, math.sqrt(20 * 20 * 41 / 12.0)
            z = max(0.0, abs(exact.u_statistic - mu) - 0.5) / sd
            approx_p = math.erfc(z / math.sqrt(2.0))
            assert abs(exact.p_value - approx_p) < 0.01

    def test_normal_approx_against_scipy(self, rng):
        x = rng.normal(size=120)
        y = rng.normal(size=95)
        res = mann_whitney(x, y)
        assert res.method == "normal_approx"
        ref = mannwhitneyu(x, y, alternative="two-sided", method="asymptotic")
        assert abs(res.p_value - ref.pvalue) < 1e-9

    def test_ties_use_corrected_variance(self, rng):
        x = np.round(rng.normal(size=15), 1)
        y = np.round(rng.normal(size=15), 1)
        x[0] = y[0]  # guarantee at least one cross-sample tie
        res = mann_whitney(x, y)
        assert res.method == "normal_approx"
        ref = mannwhitneyu(x, y, alternative="two-sided", method="asymptotic")
        assert abs(res.p_value - ref.pvalue) < 1e-9

    def test_all_identical_degenerates(self):
        res = mann_whitney([0.5] * 4, [0.5] * 6)
        assert res.p_value == 1.0
        assert not res.significant

    def test_separated_samples_significant(self):
        res = mann_whitney(list(range(10)), list(range(100, 110)))
        assert res.significant and res.p_value < 1e-4

    def test_significance_threshold(self):
        x, y = [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]
        assert mann_whitney(x, y, significance=0.2).significant
        assert not mann_whitney(x, y, significance=0.05).significant

    def test_heaviest_ties_keep_a_positive_variance(self):
        # two tie groups of sizes (n - 1, 1), the largest tie term with more than one group
        for n1, n2 in [(2, 1), (1, 5), (4, 3), (30, 40)]:
            x, y = [1.0] + [0.0] * (n1 - 1), [0.0] * n2
            res = mann_whitney(x, y)
            ref = mannwhitneyu(x, y, alternative="two-sided", method="asymptotic")
            assert res.method == "normal_approx" and abs(res.p_value - ref.pvalue) < 1e-9

    def test_errors(self):
        with pytest.raises(DataError):
            mann_whitney([], [1.0])

    @pytest.mark.parametrize("sample", ["x", "y"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample(self, sample, bad):
        x, y = [0.1, 0.2, 0.3], [0.4, 0.5]
        (x if sample == "x" else y)[1] = bad
        with pytest.raises(DataError, match="^mann_whitney requires finite samples$"):
            mann_whitney(x, y)
        with pytest.raises(DataError, match="^mann_whitney requires finite samples$"):
            mann_whitney([bad] * 2, [bad] * 3)  # no sample of one repeated value either


class TestTieRule:
    def test_near_neighbours_tie(self):
        # a run of sorted neighbours each closer than TIE_TOL is one group; 2 * TIE_TOL apart is not
        values = [0.7, 0.5 + 0.8 * TIE_TOL, 0.5, 0.7 + 2 * TIE_TOL, 0.5 + 0.4 * TIE_TOL]
        assert average_ranks(values).tolist() == [4.0, 2.0, 2.0, 5.0, 2.0]
        assert u_statistic([0.5], [0.5 + 0.4 * TIE_TOL]) == 0.5

    def test_noise_far_below_the_tolerance_moves_nothing(self):
        # similarities on a grid (exact ties for coarse grids) moved by up to 1e-12, as an equivalent
        # computation may move them: every tie group stays whole, so U, p, verdict and method stay
        rnd = np.random.default_rng(1947)
        outcomes = set()
        for _ in range(150):
            n1, n2 = (int(n) for n in rnd.integers(2, 31, size=2))
            levels = int(rnd.choice([8, 64, 10 ** 6]))
            shift = int(rnd.integers(0, levels // 2))
            x = rnd.integers(0, levels, size=n1) / levels
            y = rnd.integers(shift, levels, size=n2) / levels
            res = mann_whitney(x, y)
            assert mann_whitney(x + rnd.uniform(-1e-12, 1e-12, n1), y + rnd.uniform(-1e-12, 1e-12, n2)) == res
            outcomes.add((res.method, res.significant))
        assert outcomes == {(m, s) for m in ("exact", "normal_approx") for s in (True, False)}


class TestDensity:
    def test_single_gaussian_closed_form(self):
        # two points, Scott's h: density is the average of two known gaussians
        vals = [0.0, 1.0]
        h = math.sqrt(0.5) * 2 ** -0.2
        curve = density_export(vals)
        for x, dens in curve[::17]:
            expected = sum(math.exp(-0.5 * ((x - v) / h) ** 2) for v in vals) / (2 * h * math.sqrt(2 * math.pi))
            assert abs(dens - expected) < 1e-12

    def test_integral_is_one(self, rng):
        vals = rng.normal(size=40)
        curve = density_export(vals)
        integral = np.trapezoid(curve[:, 1], curve[:, 0])
        assert abs(integral - 1.0) < 1e-3

    def test_scott_formula(self, rng):
        vals = rng.normal(size=50)
        assert abs(scott_bandwidth(vals) - np.std(vals, ddof=1) * 50 ** -0.2) < 1e-15

    def test_grid_shape_and_span(self, rng):
        vals = rng.uniform(size=25)
        curve = density_export(vals)
        assert curve.shape == (256, 2)
        h = scott_bandwidth(vals)
        assert abs(curve[0, 0] - (vals.min() - 3 * h)) < 1e-12
        assert abs(curve[-1, 0] - (vals.max() + 3 * h)) < 1e-12

    def test_errors(self):
        with pytest.raises(DataError):
            density_export([0.5])
        with pytest.raises(DataError):
            density_export([0.5, 0.5, 0.5])  # zero variance under scott
