import json
import pickle

import numpy as np
import pytest
from scipy.cluster.hierarchy import cophenet, linkage as scipy_linkage
from scipy.spatial.distance import squareform

from canclust.correlation import DissimilarityMatrix
from canclust.errors import DataError
from canclust.hierarchy import LINKAGES, Dendrogram, agglomerate, restrict

from conftest import heights, leaves_under, list_agglomerate, random_dissimilarity, replay_restrict
from goldens import dendrogram_from_dict, dendrogram_to_dict


def cophenetic(dend):
    """Map (leaf_id, leaf_id) -> height of the merge joining them."""
    n = dend.n_leaves
    out = {}
    for k, (left, right, h, _s) in enumerate(dend.merges):
        for i in leaves_under(dend, left):
            for j in leaves_under(dend, right):
                a, b = dend.leaf_ids[i], dend.leaf_ids[j]
                out[(a, b)] = out[(b, a)] = h
    return out


def mst_heights(d):
    """Sorted edge weights of the minimum spanning tree (Kruskal)."""
    n = d.shape[0]
    edges = sorted((d[i, j], i, j) for i in range(n) for j in range(i + 1, n))
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    picked = []
    for w, i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
            picked.append(w)
    return picked


class TestOracles:
    def test_single_linkage_heights_are_mst_edges(self, rng):
        for _ in range(10):
            dm = random_dissimilarity(rng, int(rng.integers(3, 12)))
            dend = agglomerate(dm, "single")
            assert np.allclose(sorted(heights(dend)), mst_heights(dm.d), atol=1e-12)

    @pytest.mark.parametrize("link", ["single", "complete", "average"])
    def test_matches_scipy(self, rng, link):
        for _ in range(10):
            n = int(rng.integers(3, 12))
            dm = random_dissimilarity(rng, n)
            dend = agglomerate(dm, link)
            z = scipy_linkage(squareform(dm.d), method=link)
            assert np.allclose(sorted(heights(dend)), sorted(z[:, 2]), atol=1e-10)
            # the tree shape must agree too: every leaf pair joins at the same height
            ours = cophenetic(dend)
            ids = dm.signal_ids
            condensed = [ours[(ids[i], ids[j])] for i in range(n) for j in range(i + 1, n)]
            assert np.max(np.abs(np.array(condensed) - cophenet(z))) <= 1e-10

    def test_ward_matches_scipy_on_squared_distances(self, rng):
        # scipy's ward on sqrt(d) obeys the same recurrence on d with
        # heights squared, giving an independent check of the update rule
        for _ in range(10):
            n = int(rng.integers(3, 10))
            dm = random_dissimilarity(rng, n)
            dend = agglomerate(dm, "ward")
            z = scipy_linkage(squareform(np.sqrt(dm.d)), method="ward")
            assert np.allclose(sorted(heights(dend)), sorted(z[:, 2] ** 2), atol=1e-10)

    def test_recompute_oracle(self, rng):
        # re-derive each merge height from the original matrix: single is the
        # min cross-pair dissimilarity, complete the max, average the mean
        agg = {"single": np.min, "complete": np.max, "average": np.mean}
        for link, fn in agg.items():
            for _ in range(5):
                n = int(rng.integers(3, 10))
                dm = random_dissimilarity(rng, n)
                dend = agglomerate(dm, link)
                for left, right, h, _s in dend.merges:
                    li = sorted(leaves_under(dend, left))
                    ri = sorted(leaves_under(dend, right))
                    cross = dm.d[np.ix_(li, ri)]
                    assert abs(fn(cross) - h) < 1e-10


def symmetric(upper):
    """Symmetric matrix with zero diagonal from the strict upper triangle of a square array."""
    d = np.triu(upper, 1)
    return d + d.T


# matrix generators for the oracle parity test; all but "random" are tie-heavy
MATRIX_KINDS = {
    "random": lambda rng, n: symmetric(rng.uniform(0.0, 1.0, (n, n))),
    "quantised": lambda rng, n: symmetric(rng.integers(0, 4, (n, n)) / 4.0),
    "all_equal": lambda rng, n: symmetric(np.full((n, n), 0.5)),
    "all_zero": lambda rng, n: np.zeros((n, n)),
    # negative Lance-Williams operands beside the inf rows of merged-away slots
    "negative": lambda rng, n: symmetric(rng.uniform(-1.0, 1.0, (n, n))),
}


class TestOracleParity:
    """agglomerate gives exactly the merges of the pure-Python list loop it replaced."""

    @staticmethod
    def assert_same_merges(d, link):
        dm = DissimilarityMatrix(tuple(f"s{i}" for i in range(len(d))), d)
        # repr compares heights bit for bit (signed zeros included) and ints as Python ints
        assert repr(agglomerate(dm, link).merges) == repr(list_agglomerate(dm, link))

    @pytest.mark.parametrize("kind", MATRIX_KINDS)
    @pytest.mark.parametrize("link", LINKAGES)
    def test_same_merges(self, link, kind):
        rng = np.random.default_rng([LINKAGES.index(link), list(MATRIX_KINDS).index(kind)])
        for n in (2, 3, 4, 5, 8, 13, 21, 34):
            d = MATRIX_KINDS[kind](rng, n)
            perm = rng.permutation(n)
            self.assert_same_merges(d, link)
            self.assert_same_merges(d[np.ix_(perm, perm)], link)

    @pytest.mark.parametrize("kind", ["random", "quantised"])
    @pytest.mark.parametrize("link", LINKAGES)
    def test_same_merges_past_n128(self, link, kind):
        # simtest's N=128 trees and a little beyond; the oracle takes 0.1 s a tree here
        rng = np.random.default_rng([LINKAGES.index(link), list(MATRIX_KINDS).index(kind), 130])
        self.assert_same_merges(MATRIX_KINDS[kind](rng, 130), link)

    @pytest.mark.parametrize("link", LINKAGES)
    def test_merged_representative_ties_a_leaf(self, link):
        # after (1, 2) merge at 0.125, leaf 0 is as far from the new cluster
        # (representative 1) as from leaf 3: the pair (0, 1) wins the tie, and
        # leaf 0, the smaller representative, is the left child of node 4.
        # Ward's update puts the cluster at (2 * 0.5 + 2 * 0.5 - 0.125) / 3.
        tie = 0.625 if link == "ward" else 0.5
        d = np.full((4, 4), 0.9)
        d[1, 2] = d[2, 1] = 0.125
        d[0, 1] = d[1, 0] = d[0, 2] = d[2, 0] = 0.5
        d[0, 3] = d[3, 0] = tie
        np.fill_diagonal(d, 0.0)
        self.assert_same_merges(d, link)
        merges = agglomerate(DissimilarityMatrix(("a", "b", "c", "d"), d), link).merges
        assert merges[:2] == ((1, 2, 0.125, 2), (0, 4, tie, 3))

    def test_signed_zero_heights(self):
        d = np.zeros((3, 3))
        d[0, 2] = d[2, 0] = -0.0
        for link in LINKAGES:
            self.assert_same_merges(d, link)


class TestStructure:
    @pytest.mark.parametrize("link", LINKAGES)
    def test_shape_and_sizes(self, rng, link):
        n = 9
        dend = agglomerate(random_dissimilarity(rng, n), link)
        assert dend.n_leaves == n
        assert len(dend.merges) == n - 1
        assert dend.merges[-1][3] == n
        for k, (left, right, _h, size) in enumerate(dend.merges):
            assert left < n + k and right < n + k and left != right
            assert size == len(leaves_under(dend, n + k))

    @pytest.mark.parametrize("link", LINKAGES)
    def test_heights_monotone(self, rng, link):
        for _ in range(10):
            dend = agglomerate(random_dissimilarity(rng, int(rng.integers(3, 15))), link)
            hs = heights(dend)
            assert all(hs[i] <= hs[i + 1] + 1e-12 for i in range(len(hs) - 1))

    @pytest.mark.parametrize("link", LINKAGES)
    def test_permutation_equivariance(self, rng, link):
        n = 8
        dm = random_dissimilarity(rng, n)
        perm = rng.permutation(n)
        dm_p = DissimilarityMatrix(tuple(dm.signal_ids[i] for i in perm),
                                   dm.d[np.ix_(perm, perm)])
        c1 = cophenetic(agglomerate(dm, link))
        c2 = cophenetic(agglomerate(dm_p, link))
        assert set(c1) == set(c2)
        assert all(abs(c1[k] - c2[k]) < 1e-12 for k in c1)

    def test_tie_break_smallest_representatives(self):
        # equidistant points: the first merge must join the two smallest leaves
        ids = ("a", "b", "c", "d")
        d = np.full((4, 4), 0.5)
        np.fill_diagonal(d, 0.0)
        dend = agglomerate(DissimilarityMatrix(ids, d), "single")
        assert dend.merges[0][:2] == (0, 1)

    def test_ultrametric_recovery(self, rng):
        # cluster a matrix that is already a cophenetic ultrametric: every
        # linkage must reproduce the generating tree exactly
        for _ in range(5):
            n = int(rng.integers(4, 10))
            base = agglomerate(random_dissimilarity(rng, n), "average")
            coph = cophenetic(base)
            d = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    d[i, j] = d[j, i] = coph[(base.leaf_ids[i], base.leaf_ids[j])]
            for link in LINKAGES[:3]:  # ward rescales heights, skip it
                rec = cophenetic(agglomerate(DissimilarityMatrix(base.leaf_ids, d), link))
                assert all(abs(rec[k] - coph[k]) < 1e-10 for k in coph)

    def test_rejects_tiny_and_nonfinite(self):
        with pytest.raises(DataError):
            agglomerate(DissimilarityMatrix(("a",), np.zeros((1, 1))), "single")
        with pytest.raises(DataError):
            agglomerate(DissimilarityMatrix((), np.zeros((0, 0))), "single")
        for bad in (np.inf, np.nan):
            d = np.array([[0.0, bad], [bad, 0.0]])
            with pytest.raises(DataError, match="non-finite"):
                agglomerate(DissimilarityMatrix(("a", "b"), d), "single")
        with pytest.raises(ValueError):
            agglomerate(DissimilarityMatrix(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]])), "median")
        # the upper triangle picks (b, c) at 0.3, and single linkage's update reads d[b, a] = 0.1 below it
        asymmetric = np.array([[0.0, 0.5, 0.5], [0.1, 0.0, 0.3], [0.5, 0.5, 0.0]])
        with pytest.raises(DataError, match="not square and exactly symmetric"):
            agglomerate(DissimilarityMatrix(("a", "b", "c"), asymmetric), "single")
        for shape in ((2, 3), (3,), (2, 2, 2)):
            with pytest.raises(DataError, match="not square and exactly symmetric"):
                agglomerate(DissimilarityMatrix(("a", "b"), np.zeros(shape)), "single")

    def test_rejects_ids_that_do_not_match_the_matrix(self):
        d = np.array([[0.0, 0.5], [0.5, 0.0]])
        for ids in (("a", "b", "c"), ("a",)):
            with pytest.raises(DataError, match=f"^{len(ids)} signal ids for a dissimilarity matrix of 2 signals$"):
                agglomerate(DissimilarityMatrix(ids, d), "average")

    def test_rejects_overflowing_update(self):
        d = np.full((3, 3), 1e308)
        np.fill_diagonal(d, 0.0)
        with np.errstate(over="ignore"), pytest.raises(DataError, match="overflowed at merge 2"):
            agglomerate(DissimilarityMatrix(("a", "b", "c"), d), "average")

    @pytest.mark.parametrize("link", LINKAGES)
    def test_input_not_mutated(self, rng, link):
        dm = random_dissimilarity(rng, 9)
        before = dm.d.copy()
        agglomerate(dm, link)
        assert np.array_equal(dm.d, before) and dm.d.flags.writeable


class TestSerialization:
    @pytest.mark.parametrize("link", LINKAGES)
    def test_json_round_trip(self, rng, tmp_path, link):
        # through a file written as the golden fixtures are
        dend = agglomerate(random_dissimilarity(rng, 8), link)
        path = tmp_path / "dend.json"
        path.write_text(json.dumps(dendrogram_to_dict(dend), indent=2, sort_keys=True) + "\n")
        assert dendrogram_from_dict(json.loads(path.read_text())) == dend

    def test_dict_round_trip_is_plain_json(self, rng):
        dend = agglomerate(random_dissimilarity(rng, 5), "ward")
        doc = json.loads(json.dumps(dendrogram_to_dict(dend)))
        assert dendrogram_from_dict(doc) == dend

    def test_pickle_round_trip(self, rng):
        # as a fan_out() child sends its dendrograms back through a pipe
        dend = agglomerate(random_dissimilarity(rng, 6), "average")
        back = pickle.loads(pickle.dumps(dend, protocol=pickle.HIGHEST_PROTOCOL))
        assert (type(back), back) == (Dendrogram, dend)


class TestRestrict:
    def test_preserves_cophenetic_heights(self, rng):
        for _ in range(5):
            dend = agglomerate(random_dissimilarity(rng, 10), "average")
            keep = list(rng.choice(dend.leaf_ids, size=6, replace=False))
            sub = restrict(dend, keep)
            assert set(sub.leaf_ids) == set(keep)
            assert len(sub.merges) == len(keep) - 1
            full = cophenetic(dend)
            small = cophenetic(sub)
            for pair, h in small.items():
                assert abs(h - full[pair]) < 1e-12

    def test_noop_on_full_set(self, rng):
        dend = agglomerate(random_dissimilarity(rng, 6), "single")
        sub = restrict(dend, dend.leaf_ids)
        assert cophenetic(sub) == cophenetic(dend)

    def test_errors(self, rng):
        dend = agglomerate(random_dissimilarity(rng, 4), "single")
        with pytest.raises(DataError):
            restrict(dend, ["s0", "nope"])
        with pytest.raises(DataError):
            restrict(dend, ["s0"])

    @pytest.mark.parametrize("link", LINKAGES)
    def test_matches_replay_for_every_keep_size(self, rng, link):
        # merge order, sizes, sides and node numbers, for a random keep of each size 2..N
        for n in range(2, 131):
            dend = agglomerate(random_dissimilarity(rng, n), link)
            for size in range(2, n + 1):
                keep = rng.choice(dend.leaf_ids, size=size, replace=False).tolist()
                assert restrict(dend, keep) == replay_restrict(dend, keep)

    @pytest.mark.parametrize("link", LINKAGES)
    def test_matches_replay_with_one_root_side_dropped(self, rng, link):
        # every merge on the dropped side collapses away; the other side keeps its shape, renumbered
        for n in range(3, 131):
            dend = agglomerate(random_dissimilarity(rng, n), link)
            for side in dend.merges[-1][:2]:
                dropped = {dend.leaf_ids[i] for i in leaves_under(dend, side)}
                keep = [lid for lid in dend.leaf_ids if lid not in dropped]
                if len(keep) >= 2:
                    sub = restrict(dend, keep)
                    assert sub == replay_restrict(dend, keep)
                    assert len(sub.merges) == len(keep) - 1 and sub.merges[-1][3] == len(keep)
