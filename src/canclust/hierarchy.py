"""Agglomerative hierarchical clustering with Lance-Williams linkage updates.

agglomerate() repeatedly merges the pair of active clusters at minimum
dissimilarity and updates the remaining dissimilarities with the recurrence
for the chosen linkage (single / complete / average / Ward). Node indexing
follows the usual convention: leaves are 0..N-1 and the k-th merge creates
node N+k.

Ward's update is applied to the supplied dissimilarities directly (treating
them as squared-Euclidean surrogates) and heights are recorded raw; the
similarity stage only consumes relative depth, so the scale does not matter.

Ties at the minimum go to the lexicographically smallest pair of cluster representatives (a cluster's
smallest leaf index): deterministic, but not invariant to a permutation of the leaves. ingest.resample
puts the leaves in signal-id order, so a tie goes to the smallest ids whatever the order of a file.

The loop runs on one exactly symmetric N x N numpy matrix with an inf
diagonal (Mullner's stored-matrix scheme, arXiv:1109.2378): each merge is one
argmin, whose first row-major minimum lies in the upper triangle, and one
vectorised Lance-Williams row and column write; a merged-away slot's row and
column are inf. Every height is the same float the plain pairwise loop
computes, because each update uses the same operands in the same order.
"""

import math
from itertools import count
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
    """Cluster a DissimilarityMatrix, square, finite, exactly symmetric and with one signal id per row, into a
    Dendrogram under linkage."""
    if linkage not in LINKAGES:
        raise ValueError(f"linkage must be one of {LINKAGES}, got {linkage!r}")
    d = np.array(dm.d, dtype=float)
    if d.ndim != 2 or not np.array_equal(d, d.T, equal_nan=True):
        raise DataError(f"dissimilarity matrix of shape {d.shape} is not square and exactly symmetric")
    n = d.shape[0]
    if len(dm.signal_ids) != n:
        raise DataError(f"{len(dm.signal_ids)} signal ids for a dissimilarity matrix of {n} signals")
    if n < 2:
        raise DataError("need at least 2 signals to cluster")
    if not np.all(np.isfinite(d)):
        raise DataError("non-finite dissimilarity")

    # A cluster lives in the slot of its representative, so slot order is
    # representative order; d's first row-major minimum is the least
    # (height, rep_lo, rep_hi), and rows and columns of merged-away slots are inf.
    np.fill_diagonal(d, np.inf)
    sizes = np.ones(n, dtype=np.int64)
    nodes = list(range(n))
    merges = []

    for step in range(n - 1):
        i, j = divmod(int(d.argmin()), n)
        height = float(d[i, j])
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
        new[i] = np.inf
        d[i] = d[:, i] = new
        d[j] = d[:, j] = np.inf
        sizes[i] = n_i + n_j
        nodes[i] = n + step

    return Dendrogram(leaf_ids=tuple(dm.signal_ids), merges=tuple(merges), linkage=linkage)


def restrict(dend, keep_ids):
    """Prune a dendrogram to a subset of its leaves, preserving merge heights.

    Original merges are replayed in order: a merge survives only when both
    sides still contain kept leaves, and a merge with one such side collapses
    into it. Kept leaves keep their order, and surviving merges their order
    and left/right sides. Used for comparing captures whose constant-pruned
    signal sets differ.
    """
    keep = set(keep_ids)
    missing = keep - set(dend.leaf_ids)
    if missing:
        raise DataError(f"leaves not in dendrogram: {sorted(missing)}")
    if len(keep) < 2:
        raise DataError("restriction needs at least 2 leaves")

    number = count()  # new nodes: kept leaves, then surviving merges
    # the new node of each original node, leaves then merges, or None where no kept leaf is under it
    survives = [next(number) if lid in keep else None for lid in dend.leaf_ids]
    sizes = [1] * len(keep)  # leaf count of each new node
    merges = []
    for left, right, h, _size in dend.merges:
        a, b = survives[left], survives[right]
        if a is None or b is None:
            survives.append(b if a is None else a)
        else:
            sizes.append(sizes[a] + sizes[b])
            merges.append((a, b, h, sizes[-1]))
            survives.append(next(number))
    leaf_ids = tuple(lid for lid in dend.leaf_ids if lid in keep)
    return Dendrogram(leaf_ids=leaf_ids, merges=tuple(merges), linkage=dend.linkage)
