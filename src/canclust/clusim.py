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
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .hierarchy import restrict


@dataclass(frozen=True)
class HierarchyParams:
    """Scaling r across dendrogram levels and diffusion strength alpha."""

    r: float = -5.0
    alpha: float = 0.9

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not np.isfinite(self.r):
            raise ValueError("r must be finite")


@dataclass(frozen=True)
class SimilarityScore:
    value: float
    per_element: tuple  # of (element_id, score)


def _tree_arrays(dend):
    """Node x leaf membership matrix and hop depth below the root of every tree node.

    Leaves are nodes 0..N-1 and the k-th merge is node N+k, so membership is
    built bottom-up in merge order and depth top-down from the last merge.
    """
    n = dend.n_leaves
    merges = dend.merges
    member = np.zeros((n + len(merges), n))
    member[:n] = np.eye(n)
    for k, (left, right, _h, _s) in enumerate(merges):
        member[n + k] = member[left] + member[right]
    depth = np.zeros(n + len(merges))
    for k in range(len(merges) - 1, -1, -1):
        left, right = merges[k][:2]
        depth[left] = depth[right] = depth[n + k] + 1
    return member, depth


def transition_matrix(dend, r):
    """Element-to-element transition matrix W induced by the dendrogram.

    W[i, j] = sum over ancestors C of i containing j of w(i, C) / |C|, with
    w(i, .) the softmax level weights of element i. Rows sum to 1 by
    construction since each cluster spreads its full weight over its members.
    """
    member, depth = _tree_arrays(dend)
    hops = depth[:dend.n_leaves]
    # w(i, C) = exp(r * depth[C] / hops[i]) over the ancestors C of leaf i, normalized per row
    nu = depth[None, :] / hops[:, None]
    weights = np.exp(np.where(member.T > 0, r * nu, -np.inf))
    weights /= weights.sum(axis=1, keepdims=True)
    return (weights / member.sum(axis=1)) @ member


def affinity(dend, params):
    """Stationary PPR distributions for every element of a dendrogram.

    Returns the N x N row-stochastic matrix P in dend.leaf_ids order: row i
    is the distribution personalized to element i. The rows
    p_i = (1 - alpha) e_i + alpha p_i W, for all i at once, are
    P = (1 - alpha)(I - alpha W)^-1, from one dense solve. I - alpha W is
    strictly diagonally dominant (W is row-stochastic and alpha < 1), so the
    solve is always well posed.
    """
    if dend.n_leaves < 2:
        raise DataError("affinity needs a dendrogram over at least 2 elements")
    w = transition_matrix(dend, params.r)
    eye = np.eye(w.shape[0])
    return np.linalg.solve(eye - params.alpha * w, (1.0 - params.alpha) * eye)


def _aligned_rows(dend, order, params):
    """Affinity matrix with rows and columns permuted to the given id order."""
    idx = [dend.leaf_ids.index(e) for e in order]
    return affinity(dend, params)[np.ix_(idx, idx)]


def similarity(a, b, params, allow_intersection=False):
    """Element-centric similarity between two dendrograms in [0, 1].

    Both dendrograms must cover the same element set; with
    allow_intersection=True they are first pruned to their common elements
    (constant-signal dropping upstream makes small mismatches routine).
    """
    set_a, set_b = set(a.leaf_ids), set(b.leaf_ids)
    if set_a != set_b:
        if not allow_intersection:
            only_a = sorted(set_a - set_b)
            only_b = sorted(set_b - set_a)
            raise DataError(
                f"element sets differ (only in a: {only_a}, only in b: {only_b}); "
                "pass allow_intersection=True to compare the overlap")
        common = set_a & set_b
        if len(common) < 2:
            raise DataError(f"element overlap too small to compare ({len(common)} elements)")
        a = restrict(a, common)
        b = restrict(b, common)

    order = sorted(set(a.leaf_ids))
    pa = _aligned_rows(a, order, params)
    pb = _aligned_rows(b, order, params)

    raw = 1.0 - np.abs(pa - pb).sum(axis=1) / (2.0 * params.alpha)
    if not np.all((raw > -1e-9) & (raw < 1.0 + 1e-9)):
        raise RuntimeError(f"per-element score out of range [{raw.min()!r}, {raw.max()!r}]: "
                           "affinity rows are not probability distributions")
    scores = np.clip(raw, 0.0, 1.0)
    return SimilarityScore(value=float(scores.mean()),
                           per_element=tuple(zip(order, (float(s) for s in scores))))
