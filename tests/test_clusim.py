import json
import math

import numpy as np
import pytest

from canclust import clusim
from canclust.clusim import HierarchyParams, SimilarityScore, _transitions, affinity, similarities, similarity
from canclust.errors import DataError
from canclust.hierarchy import LINKAGES, Dendrogram, agglomerate, restrict

from conftest import (leaves_under, level_weights, membership_transition, power_iteration_ppr,
                      random_dendrogram, random_dissimilarity)
from goldens import CASES, FIXTURES_DIR


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
            w = _transitions([random_dendrogram(rng, 8)], r)[0]
            assert np.all(w >= 0)
            assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_r_very_negative_approaches_uniform(self, rng):
        # all the weight piles onto the root, whose cluster is every element
        w = _transitions([random_dendrogram(rng, 6)], -50.0)[0]
        assert np.max(np.abs(w - 1.0 / 6.0)) < 1e-4

    def test_r_very_positive_approaches_identity(self, rng):
        w = _transitions([random_dendrogram(rng, 6)], 50.0)[0]
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
                w = _transitions([dend], r)[0]
                assert np.max(np.abs(w - expected)) <= 1e-15
                assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-15

    @pytest.mark.parametrize("linkage", LINKAGES)
    def test_bit_identical_to_membership_form(self, rng, linkage):
        # the depth-first layout must give the same floats as the membership-matrix form
        for n in (2, 3, 5, 17, 40, 70):
            dend = random_dendrogram(rng, n, linkage)
            r = float(rng.uniform(-8, 8))
            assert np.array_equal(_transitions([dend], r)[0], membership_transition(dend, r))


class TestAffinity:
    def test_linear_solve_oracle(self, rng):
        # the closed form P = (1-alpha)(I - alpha W)^-1 is the fixed point of p_i = (1-alpha) e_i + alpha p_i W
        for _ in range(5):
            dend = random_dendrogram(rng, int(rng.integers(3, 10)))
            params = HierarchyParams(r=float(rng.uniform(-8, 8)), alpha=float(rng.uniform(0.5, 0.95)))
            expected = power_iteration_ppr(_transitions([dend], params.r)[0], params.alpha)
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


    def test_one_leaf_dendrogram(self):
        with pytest.raises(DataError, match="^affinity needs a dendrogram over at least 2 elements$"):
            affinity(Dendrogram(("a",), (), "single"), HierarchyParams())

class TestSimilarity:
    def test_identity(self, rng):
        for _ in range(5):
            dend = random_dendrogram(rng, int(rng.integers(3, 9)))
            s = similarity(dend, dend, HierarchyParams())
            assert abs(s.value - 1.0) < 1e-9
            assert all(abs(v - 1.0) < 1e-9 for _, v in s.per_element)

    def test_equality_ignores_scores(self):
        a = SimilarityScore(0.5, ("x", "y"), np.array([0.25, 0.75]))
        b = SimilarityScore(0.5, ("x", "y"), np.array([0.75, 0.25]))
        other = SimilarityScore(0.25, ("x", "y"), a.scores)
        assert (a == b, a != b, hash(a) == hash(b)) == (True, False, True)
        assert (a == other, a != other) == (False, True)

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
        monkeypatch.setattr(clusim, "_affinities",
                            lambda trees, params: np.stack([next(flips) * np.eye(t.n_leaves) for t in trees]))
        a = random_dendrogram(rng, 4)
        b = Dendrogram(a.leaf_ids, a.merges, a.linkage)  # an equal tree, given its own matrix
        with pytest.raises(RuntimeError, match="out of range"):
            similarity(a, b, HierarchyParams())

    def test_overlap_too_small(self):
        a = chain(("a", "b", "c"))
        b = chain(("a", "x", "y"))
        with pytest.raises(DataError, match="overlap too small"):
            similarity(a, b, HierarchyParams(), allow_intersection=True)


def oracle_similarity(a, b, params):
    """The per-pair chain: restrict both trees, solve each alone, align rows by id."""
    common = set(a.leaf_ids) & set(b.leaf_ids)
    if set(a.leaf_ids) != set(b.leaf_ids):
        a, b = restrict(a, common), restrict(b, common)
    order = sorted(common)
    rows = []
    for dend in (a, b):
        idx = [dend.leaf_ids.index(e) for e in order]
        rows.append(affinity(dend, params)[np.ix_(idx, idx)])
    raw = 1.0 - np.abs(rows[0] - rows[1]).sum(axis=1) / (2.0 * params.alpha)
    scores = np.clip(raw, 0.0, 1.0)
    return float(scores.mean()), tuple(zip(order, (float(x) for x in scores)))


def random_tree(rng, ids, linkage):
    """A dendrogram over the given ids in a random leaf order."""
    ids = [ids[i] for i in rng.permutation(len(ids))]
    return agglomerate(random_dissimilarity(rng, len(ids), ids), linkage)


def graft(dend, new_id, sibling):
    """dend with a leaf new_id merged onto leaf `sibling` first; restricting new_id away gives dend back."""
    n = dend.n_leaves
    node = lambda v: n + 1 if v == sibling else (v if v < n else v + 2)
    merges = ((sibling, n, 0.0, 2),) + tuple((node(l), node(r), h, s) for l, r, h, s in dend.merges)
    return Dendrogram(dend.leaf_ids + (new_id,), merges, dend.linkage)


class TestSimilarities:
    """A batch against the per-pair chain, bit for bit."""

    def assert_matches_oracle(self, pairs, params, got):
        assert len(got) == len(pairs)
        for (a, b), score in zip(pairs, got):
            value, per_element = oracle_similarity(a, b, params)
            assert score.value == value
            assert score.per_element == per_element

    @pytest.mark.parametrize("linkage", LINKAGES)
    def test_matches_per_pair_oracle(self, rng, linkage):
        # random trees of 3-20 leaves over overlapping id sets, some pairs on equal sets
        pool = [f"s{i}" for i in range(24)]
        dends = []
        for _ in range(14):
            n = int(rng.integers(3, 21))
            dends.append(random_tree(rng, [pool[i] for i in sorted(rng.choice(24, n, replace=False))], linkage))
        base = pool[:9]
        dends += [random_tree(rng, base, linkage) for _ in range(3)]
        pairs = [(a, b) for i, a in enumerate(dends) for b in dends[i:]
                 if len(set(a.leaf_ids) & set(b.leaf_ids)) >= 2]
        assert any(a is not b and set(a.leaf_ids) == set(b.leaf_ids) for a, b in pairs)
        params = HierarchyParams(r=float(rng.uniform(-8, 8)), alpha=float(rng.uniform(0.5, 0.95)))
        self.assert_matches_oracle(pairs, params, similarities(pairs, params, allow_intersection=True))

    def test_each_distinct_tree_solved_once(self, rng, monkeypatch):
        # keys are (dendrogram, common ids): a tree whose ids are the common set is solved
        # unrestricted whether its peer has the same ids or more, and a dendrogram restricted
        # to two different sets is solved once for each
        solved = []
        real = clusim._affinities
        monkeypatch.setattr(clusim, "_affinities", lambda trees, params: solved.extend(trees) or real(trees, params))
        ids = tuple(f"s{i}" for i in range(8))
        d, e = random_tree(rng, ids, "average"), random_tree(rng, ids, "ward")
        f = random_tree(rng, ids + ("x",), "single")
        g = random_tree(rng, ids[1:] + ("x", "y"), "complete")
        pairs = [(d, e), (d, f), (e, f), (f, g), (d, e), (f, d)]
        params = HierarchyParams()
        got = similarities(pairs, params, allow_intersection=True)
        common_fg = set(f.leaf_ids) & set(g.leaf_ids)
        assert solved[:3] == [d, e, restrict(f, ids)]
        assert solved[3:] == [restrict(f, common_fg), restrict(g, common_fg)]
        self.assert_matches_oracle(pairs, params, got)  # the oracle's own solves come after

    @pytest.mark.parametrize("per_stack", [1, 2])
    def test_stack_bound_keeps_bits(self, monkeypatch, per_stack):
        # the golden batch's trees have 18-21 leaves, so per_stack * 21^2 entries
        # stack per_stack trees of each leaf count
        doc = json.loads((FIXTURES_DIR / "similarities_batch.json").read_text())
        stacks = []
        real = clusim._affinities
        monkeypatch.setattr(clusim, "_affinities", lambda trees, params: stacks.append(len(trees)) or real(trees, params))
        monkeypatch.setattr(clusim, "STACK_ENTRIES", per_stack * 21 ** 2)
        assert CASES["similarities_batch"]["compute"](doc["inputs"]) == doc["expected"]
        assert max(stacks) == per_stack

    def test_equal_restricted_trees_score_equal(self, rng):
        # three pairs that restrict to the same two trees, from different dendrograms in one
        # batch: float noise must not split this tie
        ids = tuple(f"s{i}" for i in range(10))
        d = agglomerate(random_dissimilarity(rng, 10, ids), "average")
        e = agglomerate(random_dissimilarity(rng, 10, ids), "single")
        tied = [(graft(d, "x", 2), graft(e, "y", 5)), (graft(d, "z", 7), e), (d, e)]
        assert restrict(tied[0][0], ids) == restrict(tied[1][0], ids) == d
        assert restrict(tied[0][1], ids) == e
        filler = [(random_tree(rng, ids, "ward"), random_tree(rng, ids[1:] + ("w",), "complete"))
                  for _ in range(10)]
        batch = [tied[0]] + filler[:5] + [tied[1]] + filler[5:] + [tied[2]]
        scores = similarities(batch, HierarchyParams(), allow_intersection=True)
        ref = similarity(d, e, HierarchyParams())
        for got in (scores[0], scores[6], scores[-1]):
            assert got.value == ref.value and got.per_element == ref.per_element

    def test_first_bad_pair_raises(self, rng, monkeypatch):
        # before any tree of the batch is solved
        solved = []
        monkeypatch.setattr(clusim, "_affinities", lambda trees, params: solved.extend(trees))
        a, b = chain(("a", "b", "c")), chain(("a", "b", "d"))
        with pytest.raises(DataError, match="element sets differ"):
            similarities([(a, a), (a, b), (b, b)], HierarchyParams())
        assert solved == []
        assert similarities([], HierarchyParams()) == []


class TestParams:
    def test_alpha_bounds(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                HierarchyParams(alpha=bad)

    def test_r_finite(self):
        with pytest.raises(ValueError):
            HierarchyParams(r=float("inf"))

    @pytest.mark.parametrize("r", [-700.0, 700.0])
    def test_r_at_its_bound_scores(self, r):
        # an overflow would warn, which fails the test
        rng = np.random.default_rng(0)
        a, b = (random_dendrogram(rng, 12, "average") for _ in range(2))
        assert 0.0 <= similarity(a, b, HierarchyParams(r=r, alpha=clusim.ALPHA_MAX)).value <= 1.0

    def test_alpha_bound(self):
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 0.9999\]"):
            HierarchyParams(alpha=1 - 2 ** -53)
