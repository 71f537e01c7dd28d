"""Element-centric similarity between two dendrograms over the same signals.

Each element (signal) induces a weighted bipartite graph between elements and
the clusters of its root-to-leaf path, with weights decaying exponentially in
normalized depth (softmax of r * depth; depth 0 at the root, 1 at the leaf).
Projecting onto elements gives a row-stochastic transition matrix W: a
cluster at weight w spreads w uniformly over its members. Personalized
PageRank with restart probability 1 - alpha then yields one stationary
distribution per element, the rows of P = (1 - alpha)(I - alpha W)^-1, and two
dendrograms are compared element-wise through a rescaled l1 distance between
those distributions, averaged over elements.

Smaller (more negative) r emphasizes the top of the dendrogram (coarse
groups); larger r emphasizes fine-grained structure near the leaves.

similarities() scores a batch of pairs. A pair over differing element sets
compares both trees restricted to their common elements, and each distinct
(dendrogram, common elements) tree is solved once per call. Trees of one leaf
count are solved together, a stack of them at a time: one kernel builds a
stack's transition matrices with 3-D array operations and solves all its
systems with one np.linalg.solve, which gives each tree the same bits as
solving it alone. affinity() is its one-tree case.
"""

from collections import Counter, defaultdict, deque
from typing import NamedTuple

import numpy as np

from .errors import DataError, checked
from .hierarchy import restrict

# matrix entries (trees x N x N) of one stack of solves in similarities(): 19 trees of 29
# leaves, which spreads most of the per-call cost, while a 128-leaf tree is solved alone
STACK_ENTRIES = 1 << 14

# largest |r|: exp(r) overflows past 709.78, and a leaf at depth h sums its softmax terms exp(r * d / h),
# d = 0..h, to about exp(r) * h / r, finite at r = 700 for h below 10^7, as is r times any depth ratio.
# Similarity saturates long before: 0.99995 at r = 100 on two 128-signal benign captures
R_MAX = 700.0
# largest alpha: the solve's rounding error in a row sum of P is about 3e-16 / (1 - alpha), here far
# inside the 1e-9 that similarities() checks scores against; at alpha = 1 - 2^-53 it exceeds 1
ALPHA_MAX = 0.9999


@checked
class HierarchyParams(NamedTuple):
    """Scaling r across dendrogram levels and diffusion strength alpha."""

    r: float = -5.0
    alpha: float = 0.9

    def _check(self):
        if not (0.0 < self.alpha <= ALPHA_MAX):
            raise ValueError(f"alpha must be in (0, {ALPHA_MAX}], got {self.alpha}")
        if not np.isfinite(self.r):
            raise ValueError("r must be finite")
        if abs(self.r) > R_MAX:
            raise ValueError(f"r must be in [-{R_MAX}, {R_MAX}], got {self.r}")
        return self


class SimilarityScore(NamedTuple):
    """A pair's similarity and each compared element's score.

    The scores are one read-only array per pair, not a tuple of (id, score)
    pairs, because a batch holds every score it returns and that many small
    Python objects show in the peak memory of an analyze run. == compares
    value and elements only; compare per_element for the scores.
    """

    value: float
    elements: tuple  # the compared element ids, sorted
    scores: np.ndarray  # in elements order

    def __eq__(self, other):
        return isinstance(other, SimilarityScore) and self[:2] == other[:2]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:2])

    @property
    def per_element(self):
        """(element_id, score) for every compared element."""
        return tuple(zip(self.elements, self.scores.tolist()))


def _layout(dend):
    """First position, leaf count and hop depth below the root of every tree node.

    Positions are those of a depth-first leaf order, so the leaves under a
    node are the positions start..start+size-1. Leaves are nodes 0..N-1 and
    the k-th merge is node N+k: sizes are summed bottom-up in merge order,
    then positions and depths are handed down from the last merge.
    """
    n, merges = dend.n_leaves, dend.merges
    size = [1] * n
    for left, right, _h, _s in merges:
        size.append(size[left] + size[right])
    start, depth = [0] * len(size), [0] * len(size)
    for v, (left, right, _h, _s) in zip(range(len(size) - 1, n - 1, -1), reversed(merges)):
        start[left], start[right] = start[v], start[v] + size[left]
        depth[left] = depth[right] = depth[v] + 1
    return np.array((start, size, depth), dtype=float)  # exact: every entry is a small integer


def _transitions(trees, r):
    """The transition matrix W of each of k trees with one leaf count N, as a k x N x N stack.

    W[i, j] = sum over ancestors C of i containing j of w(i, C) / |C|, with w(i, .) the softmax
    level weights of element i: rows sum to 1, as each cluster spreads its weight over its members.
    """
    n = trees[0].n_leaves
    start, size, depth = np.stack([_layout(tree) for tree in trees], axis=1)  # each k x nodes
    pos = start[:, :n, None]
    under = (start[:, None] <= pos) & (pos < (start + size)[:, None])  # tree x leaf x node: node holds the leaf
    # w(i, C) = exp(r * depth[C] / hops[i]) over the ancestors C of leaf i, normalized per row
    weights = depth[:, None] / depth[:, :n, None]
    weights *= r
    np.copyto(weights, -np.inf, where=~under)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=2, keepdims=True)
    weights /= size[:, None]
    return weights @ under.transpose(0, 2, 1).astype(float, order="C")


def _affinities(trees, params):
    """affinity() of each of k trees with one leaf count N, as a k x N x N stack.

    One np.linalg.solve solves all k systems, each to the same bits as a
    solve of that tree alone.
    """
    if trees[0].n_leaves < 2:
        raise DataError("affinity needs a dendrogram over at least 2 elements")
    a = _transitions(trees, params.r)
    eye = np.eye(a.shape[1])
    np.multiply(a, params.alpha, out=a)
    np.subtract(eye, a, out=a)  # I - alpha W, in place
    return np.linalg.solve(a, (1.0 - params.alpha) * eye)


def affinity(dend, params):
    """Stationary PPR distributions for every element of a dendrogram.

    Returns the N x N row-stochastic matrix P in dend.leaf_ids order: row i
    is the distribution personalized to element i. The rows
    p_i = (1 - alpha) e_i + alpha p_i W, for all i at once, are
    P = (1 - alpha)(I - alpha W)^-1, from one dense solve. I - alpha W is
    strictly diagonally dominant (W is row-stochastic and alpha < 1), so the
    solve is always well posed.
    """
    return _affinities([dend], params)[0]


def common_ids(a, b, allow_intersection):
    """Sorted ids both dendrograms cover, or DataError when the pair cannot be compared."""
    set_a, set_b = set(a.leaf_ids), set(b.leaf_ids)
    common = set_a & set_b
    if set_a != set_b:
        if not allow_intersection:
            only_a = sorted(set_a - set_b)
            only_b = sorted(set_b - set_a)
            raise DataError(
                f"element sets differ (only in a: {only_a}, only in b: {only_b}); "
                "pass allow_intersection=True to compare the overlap")
        if len(common) < 2:
            raise DataError(f"element overlap too small to compare ({len(common)} elements)")
    return tuple(sorted(common))


def _solve_next(queue, params):
    """Matrices of the next stack of queue's trees, by key, rows and columns in id order.

    queue holds (key, dendrogram, common ids) of the unsolved trees of one
    leaf count N, in order of first use; a stack takes up to
    STACK_ENTRIES // N^2 of them, at least one.
    """
    n = len(queue[0][2])
    stack = [queue.popleft() for _ in range(min(len(queue), max(1, STACK_ENTRIES // (n * n))))]
    trees = [dend if dend.n_leaves == n else restrict(dend, order) for _key, dend, order in stack]
    solved = {}
    for (key, _dend, _order), tree, p in zip(stack, trees, _affinities(trees, params)):
        # rows and columns in id order: the identity on a pipeline tree (resample sorts its leaves) but not on one
        # built by hand; relabelling a tree instead would change its solve's bits. take keeps the row sums' C order
        idx = np.array(sorted(range(n), key=tree.leaf_ids.__getitem__))
        solved[key] = p.take(idx, 0).take(idx, 1)
    return solved


def similarities(pairs, params, allow_intersection=False):
    """Element-centric similarity in [0, 1] of each (a, b) dendrogram pair, in order.

    Both dendrograms of a pair must cover the same element set; with
    allow_intersection=True they are first restricted to their common
    elements (constant-signal dropping upstream makes small mismatches
    routine). Within one call each distinct (dendrogram, common elements)
    tree is restricted and solved once. When a pair needs a tree not solved
    yet, it is solved in one stack with the call's next unsolved trees of the
    same leaf count, in order of first use, up to STACK_ENTRIES matrix
    entries. A tree's matrix is kept only until the last pair that uses it.
    Every pair's element sets are checked before any tree is solved.
    """
    pairs = list(pairs)  # holds every dendrogram for the call, so its id stays a valid key
    orders = [common_ids(a, b, allow_intersection) for a, b in pairs]
    keys = [[(id(dend), order) for dend in pair] for pair, order in zip(pairs, orders)]
    uses = Counter()
    queues = defaultdict(deque)  # leaf count -> (key, dendrogram, common ids) of each tree not solved yet
    for pair, order, pair_keys in zip(pairs, orders, keys):
        for dend, key in zip(pair, pair_keys):
            if not uses[key]:  # its first use
                queues[len(order)].append((key, dend, order))
            uses[key] += 1
    solved, out = {}, []
    for order, pair_keys in zip(orders, keys):
        rows = []
        for key in pair_keys:
            if key not in solved:
                solved.update(_solve_next(queues[len(order)], params))
            rows.append(solved[key])
            uses[key] -= 1
            if not uses[key]:  # its last pair: drop the matrix, so a batch holds only live trees
                del solved[key]
        dist = rows[0] - rows[1]
        raw = 1.0 - np.abs(dist, out=dist).sum(axis=1) / (2.0 * params.alpha)
        if not (raw.min() > -1e-9 and raw.max() < 1.0 + 1e-9):
            raise RuntimeError(f"per-element score out of range [{raw.min()!r}, {raw.max()!r}]: "
                               "affinity rows are not probability distributions")
        scores = raw.clip(0.0, 1.0)
        scores.flags.writeable = False
        out.append(SimilarityScore(value=float(scores.mean()), elements=order, scores=scores))
    return out


def similarity(a, b, params, allow_intersection=False):
    """Element-centric similarity of one dendrogram pair: similarities() of a one-pair batch."""
    return similarities([(a, b)], params, allow_intersection)[0]
