"""Lowest-common-ancestor based adjacency oracle for cographs.

Property (6) of the cotree: two vertices are adjacent in the cograph iff the
lowest common ancestor of their leaves is a 1-node.  This module provides an
oracle that answers adjacency queries in ``O(log n)`` time after ``O(n log n)``
preprocessing (binary lifting), without ever materialising the (possibly
quadratic) edge set.  It is what the validators use to check the produced
path covers on large instances.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from .cotree import JOIN
from .flat import as_flat_cotree

__all__ = ["CographAdjacencyOracle"]


class CographAdjacencyOracle:
    """Adjacency oracle built from a cotree (general, binary or flat).

    Parameters
    ----------
    tree:
        anything :func:`~repro.cograph.as_flat_cotree` accepts: a
        :class:`~repro.cograph.cotree.Cotree`,
        :class:`~repro.cograph.binary.BinaryCotree` or
        :class:`~repro.cograph.flat.FlatCotree`.

    Notes
    -----
    The oracle works on any rooted tree whose leaves carry vertex ids and
    whose internal nodes are labelled 0/1; it does not require the canonical
    (alternating) form, so it can be used on binarized and reduced cotrees as
    well.
    """

    def __init__(self, tree) -> None:
        flat = as_flat_cotree(tree)
        self.kind, self.depth, self.root = flat.kind, flat.depth, flat.root
        self._n_nodes = n = flat.num_nodes

        # binary lifting table: up[k][u] = 2^k-th ancestor of u (root maps to
        # itself so the loops below need no bounds checks).
        max_pow = max(1, int(np.ceil(np.log2(max(2, int(self.depth.max())
                                                 + 1)))) + 1)
        up = np.empty((max_pow, n), dtype=np.int64)
        up[0] = np.where(flat.parent == -1, flat.root, flat.parent)
        for k in range(1, max_pow):
            up[k] = up[k - 1][up[k - 1]]
        self._up = up

        # vertex id -> leaf node id
        self._leaf_of: Dict[int, int] = dict(zip(
            flat.leaf_vertex[flat.leaves].tolist(), flat.leaves.tolist()))
        self.num_vertices = len(self._leaf_of)

    # ------------------------------------------------------------------ #

    def lca_nodes(self, a: int, b: int) -> int:
        """LCA of two *node* ids."""
        if a == b:
            return a
        da, db = int(self.depth[a]), int(self.depth[b])
        if da < db:
            a, b, da, db = b, a, db, da
        diff = da - db
        k = 0
        while diff:
            if diff & 1:
                a = int(self._up[k, a])
            diff >>= 1
            k += 1
        if a == b:
            return a
        for k in range(self._up.shape[0] - 1, -1, -1):
            if self._up[k, a] != self._up[k, b]:
                a = int(self._up[k, a])
                b = int(self._up[k, b])
        return int(self._up[0, a])

    def lca(self, u: int, v: int) -> int:
        """LCA node of two *vertex* ids."""
        return self.lca_nodes(self._leaf_of[int(u)], self._leaf_of[int(v)])

    def adjacent(self, u: int, v: int) -> bool:
        """True when vertices ``u`` and ``v`` are adjacent in the cograph."""
        if u == v:
            return False
        return bool(self.kind[self.lca(u, v)] == JOIN)

    def path_is_valid(self, path: Sequence[int]) -> bool:
        """True when consecutive vertices of ``path`` are pairwise adjacent."""
        return all(self.adjacent(path[i], path[i + 1])
                   for i in range(len(path) - 1))
