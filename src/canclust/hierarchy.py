"""Agglomerative hierarchical clustering with Lance-Williams linkage updates.

agglomerate() repeatedly merges the pair of active clusters at minimum
dissimilarity and updates the remaining dissimilarities with the recurrence
for the chosen linkage (single / complete / average / Ward). Node indexing
follows the usual convention: leaves are 0..N-1 and the k-th merge creates
node N+k.

Ward's update is applied to the supplied dissimilarities directly (treating
them as squared-Euclidean surrogates) and heights are recorded raw; the
similarity stage only consumes relative depth, so the scale does not matter.

Ties at the minimum are broken by the lexicographically smallest pair of
cluster representatives, where a cluster's representative is its minimum
original leaf index. This makes results deterministic and permutation
equivariant.

The loop runs on an N x N numpy matrix: each merge is one masked argmin
and one vectorised Lance-Williams row and column write, O(N^2) work in
numpy per merge and no per-pair Python. Every height is the same float
the plain pairwise loop computes, because each update uses the same
operands in the same order.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import DataError

LINKAGES = ("single", "complete", "average", "ward")


class Dendrogram(NamedTuple):
    """Full merge tree over N leaves: exactly N-1 merges with monotone heights."""

    leaf_ids: tuple
    merges: tuple  # of (left_node, right_node, height, size)
    linkage: str

    @property
    def n_leaves(self):
        return len(self.leaf_ids)


def agglomerate(dm, linkage):
    """Cluster a DissimilarityMatrix into a Dendrogram under the given linkage."""
    if linkage not in LINKAGES:
        raise ValueError(f"linkage must be one of {LINKAGES}, got {linkage!r}")
    d = np.array(dm.d, dtype=float)
    n = d.shape[0]
    if n < 2:
        raise DataError("need at least 2 signals to cluster")
    if not np.all(np.isfinite(d)):
        raise DataError("non-finite dissimilarity")

    # A cluster lives in the slot of its representative, so slot order is
    # representative order. d holds the Lance-Williams rows, inf towards
    # merged-away slots; search is d's strict upper triangle, inf elsewhere,
    # so its first row-major minimum is the least (height, rep_lo, rep_hi).
    search = d.copy()
    search[np.tril_indices(n)] = np.inf
    active = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=np.int64)
    nodes = list(range(n))
    merges = []

    for step in range(n - 1):
        i, j = divmod(int(search.argmin()), n)
        height = float(search[i, j])
        if not math.isfinite(height):
            raise DataError(f"{linkage} linkage update overflowed at merge {step + 1}")
        n_i, n_j = int(sizes[i]), int(sizes[j])
        # left child is i, the cluster with the smaller representative
        merges.append((nodes[i], nodes[j], height, n_i + n_j))

        d_ik, d_jk, d_ij = d[i], d[j], d[i, j]
        # single and complete pick as min(d_ik, d_jk) and max(d_ik, d_jk) do:
        # d_ik on ties, so the sign of a zero height is kept too
        if linkage == "single":
            new = np.where(d_jk < d_ik, d_jk, d_ik)
        elif linkage == "complete":
            new = np.where(d_jk > d_ik, d_jk, d_ik)
        elif linkage == "average":
            new = (n_i * d_ik + n_j * d_jk) / (n_i + n_j)
        else:  # ward: size-weighted variance-increase form
            new = ((n_i + sizes) * d_ik + (n_j + sizes) * d_jk - sizes * d_ij) / (n_i + n_j + sizes)
        active[i] = active[j] = False
        new = np.where(active, new, np.inf)  # inf towards merged-away slots and i itself
        active[i] = True
        d[i] = d[:, i] = new
        search[i, i + 1:] = new[i + 1:]
        search[:i, i] = new[:i]
        search[j] = search[:, j] = np.inf
        sizes[i] = n_i + n_j
        nodes[i] = n + step

    return Dendrogram(leaf_ids=tuple(dm.signal_ids), merges=tuple(merges), linkage=linkage)


def restrict(dend, keep_ids):
    """Prune a dendrogram to a subset of its leaves, preserving merge heights.

    Original merges are replayed: a merge survives only when both sides still
    contain kept leaves; single-child internal nodes collapse away. Used for
    comparing captures whose constant-pruned signal sets differ.
    """
    keep = set(keep_ids)
    missing = keep - set(dend.leaf_ids)
    if missing:
        raise DataError(f"leaves not in dendrogram: {sorted(missing)}")
    if len(keep) < 2:
        raise DataError("restriction needs at least 2 leaves")

    new_leaf_ids = tuple(lid for lid in dend.leaf_ids if lid in keep)
    new_index = {lid: i for i, lid in enumerate(new_leaf_ids)}
    k = len(new_leaf_ids)

    n = dend.n_leaves
    # surviving cluster node (in the new tree) for each original node, or None
    survives = [None] * (n + len(dend.merges))
    sizes = [None] * (n + len(dend.merges))
    for i, lid in enumerate(dend.leaf_ids):
        if lid in keep:
            survives[i] = new_index[lid]
            sizes[i] = 1
    new_merges = []
    next_node = k
    for j, (left, right, h, _size) in enumerate(dend.merges):
        a, b = survives[left], survives[right]
        if a is not None and b is not None:
            sz = sizes[left] + sizes[right]
            new_merges.append((a, b, h, sz))
            survives[n + j] = next_node
            sizes[n + j] = sz
            next_node += 1
        elif a is not None:
            survives[n + j] = a
            sizes[n + j] = sizes[left]
        elif b is not None:
            survives[n + j] = b
            sizes[n + j] = sizes[right]
    return Dendrogram(leaf_ids=new_leaf_ids, merges=tuple(new_merges), linkage=dend.linkage)
