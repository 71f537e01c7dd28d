import math

import numpy as np
import pytest

from canclust import clusim
from canclust.clusim import HierarchyParams, affinity, similarity, transition_matrix
from canclust.errors import DataError
from canclust.hierarchy import LINKAGES, Dendrogram

from conftest import leaves_under, level_weights, power_iteration_ppr, random_dendrogram


def chain(ids, heights=None):
    """Left-deep chain dendrogram ((...(l0, l1), l2), ...)."""
    n = len(ids)
    if heights is None:
        heights = [0.1 * (k + 1) for k in range(n - 1)]
    merges = []
    node = 0
    for k in range(n - 1):
        merges.append((node, k + 1, heights[k], k + 2))
        node = n + k
    return Dendrogram(leaf_ids=tuple(ids), merges=tuple(merges), linkage="average")


def balanced4(ids):
    return Dendrogram(leaf_ids=tuple(ids), linkage="average",
                      merges=((0, 1, 0.2, 2), (2, 3, 0.3, 2), (4, 5, 1.0, 4)))


class TestLevelWeights:
    """The per-leaf oracle behind TestTransitionMatrix::test_equals_sum_over_level_weights."""

    def test_softmax_two_leaf(self):
        dend = chain(("a", "b"))
        lw = level_weights(dend, "a", 5.0)
        assert [node for node, _, _ in lw] == [2, 0]  # root first, then leaf
        assert [nu for _, nu, _ in lw] == [0.0, 1.0]
        expected_leaf = math.exp(5.0) / (1.0 + math.exp(5.0))
        assert abs(lw[1][2] - expected_leaf) < 1e-12
        assert abs(lw[1][2] - 0.9933) < 1e-4
        lw_neg = level_weights(dend, "a", -5.0)
        assert abs(lw_neg[0][2] - expected_leaf) < 1e-12  # mirrored onto the root

    def test_r_zero_uniform(self, rng):
        dend = random_dendrogram(rng, 7)
        for lid in dend.leaf_ids:
            lw = level_weights(dend, lid, 0.0)
            for _node, _nu, w in lw:
                assert abs(w - 1.0 / len(lw)) < 1e-12

    def test_weights_sum_to_one_and_depths_linear(self, rng):
        dend = random_dendrogram(rng, 9)
        for lid in dend.leaf_ids:
            lw = level_weights(dend, lid, -5.0)
            assert abs(sum(w for _, _, w in lw) - 1.0) < 1e-12
            nus = [nu for _, nu, _ in lw]
            assert nus[0] == 0.0 and nus[-1] == 1.0
            steps = np.diff(nus)
            assert np.allclose(steps, steps[0])

    def test_unknown_element(self, rng):
        with pytest.raises(DataError):
            level_weights(random_dendrogram(rng, 4), "missing", -5.0)


class TestTransitionMatrix:
    def test_row_stochastic(self, rng):
        for r in (-5.0, 0.0, 5.0):
            w = transition_matrix(random_dendrogram(rng, 8), r)
            assert np.all(w >= 0)
            assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_r_very_negative_approaches_uniform(self, rng):
        # all the weight piles onto the root, whose cluster is every element
        w = transition_matrix(random_dendrogram(rng, 6), -50.0)
        assert np.max(np.abs(w - 1.0 / 6.0)) < 1e-4

    def test_r_very_positive_approaches_identity(self, rng):
        w = transition_matrix(random_dendrogram(rng, 6), 50.0)
        assert np.max(np.abs(w - np.eye(6))) < 1e-4

    @pytest.mark.parametrize("linkage", LINKAGES)
    def test_equals_sum_over_level_weights(self, rng, linkage):
        # the definition, one element at a time: each ancestor spreads its weight over its leaves
        for n in (2, 3, 5, 17, 64, 128):
            dend = random_dendrogram(rng, n, linkage)
            for r in (-5.0, 0.0, float(rng.uniform(-8, 8))):
                expected = np.zeros((n, n))
                for i, lid in enumerate(dend.leaf_ids):
                    for node, _nu, weight in level_weights(dend, lid, r):
                        leaves = sorted(leaves_under(dend, node))
                        expected[i, leaves] += weight / len(leaves)
                w = transition_matrix(dend, r)
                assert np.max(np.abs(w - expected)) <= 1e-15
                assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-15


class TestAffinity:
    def test_linear_solve_oracle(self, rng):
        # the closed form P = (1-alpha)(I - alpha W)^-1 is the fixed point of p_i = (1-alpha) e_i + alpha p_i W
        for _ in range(5):
            dend = random_dendrogram(rng, int(rng.integers(3, 10)))
            params = HierarchyParams(r=float(rng.uniform(-8, 8)), alpha=float(rng.uniform(0.5, 0.95)))
            expected = power_iteration_ppr(transition_matrix(dend, params.r), params.alpha)
            got = affinity(dend, params)
            assert np.max(np.abs(got - expected)) < 1e-9

    def test_rows_follow_leaf_order(self, rng):
        # the same tree with its leaf array permuted: row and column i belong to leaf_ids[i]
        a = random_dendrogram(rng, 7)
        perm = list(rng.permutation(7))
        inv = {old: new for new, old in enumerate(perm)}
        remap = lambda n: inv[n] if n < 7 else n
        b = Dendrogram(tuple(a.leaf_ids[i] for i in perm),
                       tuple((remap(l), remap(r), h, s) for l, r, h, s in a.merges), a.linkage)
        params = HierarchyParams()
        assert np.max(np.abs(affinity(b, params) - affinity(a, params)[np.ix_(perm, perm)])) < 1e-12

    def test_rows_are_distributions(self, rng):
        p = affinity(random_dendrogram(rng, 7), HierarchyParams())
        assert np.all(p >= 0)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-10)


class TestSimilarity:
    def test_identity(self, rng):
        for _ in range(5):
            dend = random_dendrogram(rng, int(rng.integers(3, 9)))
            s = similarity(dend, dend, HierarchyParams())
            assert abs(s.value - 1.0) < 1e-9
            assert all(abs(v - 1.0) < 1e-9 for _, v in s.per_element)

    def test_symmetry(self, rng):
        a = random_dendrogram(rng, 6)
        b = random_dendrogram(rng, 6)
        params = HierarchyParams()
        assert abs(similarity(a, b, params).value - similarity(b, a, params).value) < 1e-12

    def test_bounded(self, rng):
        for _ in range(10):
            a = random_dendrogram(rng, 5)
            b = random_dendrogram(rng, 5)
            v = similarity(a, b, HierarchyParams(r=float(rng.uniform(-6, 6)))).value
            assert 0.0 <= v <= 1.0

    def test_label_equivariance(self, rng):
        # renaming leaves consistently in both trees cannot change the score
        a = random_dendrogram(rng, 6)
        b = random_dendrogram(rng, 6)
        mapping = {lid: f"x_{lid}" for lid in a.leaf_ids}
        ra = Dendrogram(tuple(mapping[l] for l in a.leaf_ids), a.merges, a.linkage)
        rb = Dendrogram(tuple(mapping[l] for l in b.leaf_ids), b.merges, b.linkage)
        params = HierarchyParams()
        assert abs(similarity(a, b, params).value - similarity(ra, rb, params).value) < 1e-12

    def test_leaf_order_invariance(self, rng):
        # the same tree with its leaf array permuted compares as identical
        a = random_dendrogram(rng, 6)
        perm = list(rng.permutation(6))
        inv = {old: new for new, old in enumerate(perm)}
        remap = lambda n: inv[n] if n < 6 else n
        b = Dendrogram(tuple(a.leaf_ids[i] for i in perm),
                       tuple((remap(l), remap(r), h, s) for l, r, h, s in a.merges),
                       a.linkage)
        assert abs(similarity(a, b, HierarchyParams()).value - 1.0) < 1e-9

    def test_more_rearrangement_scores_lower(self):
        ids = ("X1", "X2", "X3", "X4")
        base = chain(ids)
        swap_top = Dendrogram(ids, ((0, 1, 0.1, 2), (4, 3, 0.2, 3), (5, 2, 0.3, 4)), "average")
        rewired = balanced4(ids)
        params = HierarchyParams(r=5.0)
        s_swap = similarity(base, swap_top, params).value
        s_rewired = similarity(base, rewired, params).value
        assert s_rewired < s_swap < 1.0

    def test_heights_do_not_matter(self):
        # only topology feeds the measure; stretching heights changes nothing
        ids = ("a", "b", "c", "d", "e")
        t1 = chain(ids, heights=[0.1, 0.2, 0.3, 0.4])
        t2 = chain(ids, heights=[0.01, 0.5, 0.6, 9.0])
        other = balanced4(ids[:4])
        params = HierarchyParams()
        s1 = similarity(t1, other, params, allow_intersection=True).value
        s2 = similarity(t2, other, params, allow_intersection=True).value
        assert abs(s1 - s2) < 1e-12

    def test_element_set_mismatch(self, rng):
        a = chain(("a", "b", "c", "d"))
        b = chain(("a", "b", "c", "e"))
        with pytest.raises(DataError, match="element sets differ"):
            similarity(a, b, HierarchyParams())
        s = similarity(a, b, HierarchyParams(), allow_intersection=True)
        assert set(e for e, _ in s.per_element) == {"a", "b", "c"}

    def test_intersection_matches_manual_restrict(self, rng):
        from canclust.hierarchy import restrict
        a = random_dendrogram(rng, 8)
        ids = list(a.leaf_ids)
        b_full = random_dendrogram(rng, 8)
        b = Dendrogram(tuple(ids[2:] + ["extra", "pad"]), b_full.merges, b_full.linkage)
        params = HierarchyParams()
        auto = similarity(a, b, params, allow_intersection=True).value
        common = set(a.leaf_ids) & set(b.leaf_ids)
        manual = similarity(restrict(a, common), restrict(b, common), params).value
        assert abs(auto - manual) < 1e-12

    def test_out_of_range_score_raises(self, rng, monkeypatch):
        # an invariant, not an assert: python -O must not let a broken affinity through
        flips = iter((5.0, -5.0))
        monkeypatch.setattr(clusim, "affinity", lambda dend, params: next(flips) * np.eye(dend.n_leaves))
        dend = random_dendrogram(rng, 4)
        with pytest.raises(RuntimeError, match="out of range"):
            similarity(dend, dend, HierarchyParams())

    def test_overlap_too_small(self):
        a = chain(("a", "b", "c"))
        b = chain(("a", "x", "y"))
        with pytest.raises(DataError, match="overlap too small"):
            similarity(a, b, HierarchyParams(), allow_intersection=True)


class TestParams:
    def test_alpha_bounds(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                HierarchyParams(alpha=bad)

    def test_r_finite(self):
        with pytest.raises(ValueError):
            HierarchyParams(r=float("inf"))
