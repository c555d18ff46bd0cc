"""Cograph algebra on cotrees: disjoint union, join and complement.

These are the three closure operations from the recursive definition of
cographs (items (1)-(3) in the paper's introduction).  All operations act on
cotrees and return canonical cotrees, so the class is closed under them by
construction.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .cotree import JOIN, LEAF, UNION, Cotree, CotreeError
from .flat import FlatCotree, as_flat_cotree

__all__ = [
    "union_cotrees",
    "join_cotrees",
    "complement_cotree",
    "relabel_disjoint",
]


def relabel_disjoint(trees: Sequence[Cotree]) -> List[Cotree]:
    """Relabel the vertex ids of a sequence of cotrees so they are disjoint
    and consecutive (``0 .. total-1``), keeping each tree's internal order.
    """
    out: List[Cotree] = []
    offset = 0
    for t in trees:
        mapping = {}
        for i, v in enumerate(sorted(int(x) for x in t.vertices)):
            mapping[v] = offset + i
        out.append(t.relabel_vertices(mapping))
        offset += t.num_vertices
    return out


def _as_cotree(tree) -> Cotree:
    """``tree`` itself if it is a :class:`Cotree`, otherwise the view of its
    flat form once :meth:`FlatCotree.to_cotree` has checked it (primes
    refused)."""
    return tree if isinstance(tree, Cotree) else \
        as_flat_cotree(tree).to_cotree()


def _combine(kind_code: int, trees: Sequence[Cotree], relabel: bool) -> Cotree:
    if len(trees) == 0:
        raise CotreeError("need at least one cotree to combine")
    trees = [_as_cotree(t) for t in trees]
    if len(trees) == 1:
        return trees[0]
    flats = [as_flat_cotree(t) for t in trees]
    # a new root 0 over the trees' roots, each tree's nodes shifted after it
    sizes = np.array([f.num_nodes for f in flats])
    base = np.cumsum(sizes) - sizes + 1
    kids = np.concatenate([[f.root + b for f, b in zip(flats, base)]]
                          + [f.child_index + b for f, b in zip(flats, base)])
    degree = np.concatenate([[len(flats)]] + [f.degrees() for f in flats])
    offset = np.zeros(len(degree) + 1, dtype=np.int64)
    np.cumsum(degree, out=offset[1:])
    parent = np.full(len(degree), -1, dtype=np.int64)
    parent[kids] = np.repeat(np.arange(len(degree)), degree)
    kind = np.concatenate([[kind_code]] + [f.kind for f in flats])
    leaf_vertex = np.concatenate([[-1]] + [f.leaf_vertex for f in flats])
    leaf = np.flatnonzero(kind == LEAF)
    if relabel:
        # relabel_disjoint's ids in one sort (tree by tree, each tree's ids
        # in ascending order), without a checked copy of every part
        tree_of = np.repeat(np.arange(len(flats)), sizes)[leaf - 1]
        leaf_vertex[leaf[np.lexsort((leaf_vertex[leaf], tree_of))]] = \
            np.arange(len(leaf))
    elif len(np.unique(leaf_vertex[leaf])) != len(leaf):
        raise CotreeError(
            "cotrees share vertex ids; pass relabel=True or relabel "
            "the inputs first")
    return Cotree._of(FlatCotree(kind, offset, kids, parent, leaf_vertex,
                                 0).canonicalize())


def union_cotrees(*trees: Cotree, relabel: bool = False) -> Cotree:
    """Disjoint union of cographs, as a canonical cotree.

    With ``relabel=True`` the vertex ids of the inputs are shifted so they do
    not clash; otherwise the inputs must already have disjoint vertex ids.
    """
    return _combine(UNION, list(trees), relabel)


def join_cotrees(*trees: Cotree, relabel: bool = False) -> Cotree:
    """Join of cographs (every vertex of one adjacent to every vertex of the
    others), as a canonical cotree."""
    return _combine(JOIN, list(trees), relabel)


def complement_cotree(tree: Cotree) -> Cotree:
    """Complement of a cograph: swap 0-nodes and 1-nodes of the cotree.

    The complement of a cograph is again a cograph (this is the defining
    "complement-reducible" property); on the cotree it amounts to flipping
    every internal label.
    """
    flat = as_flat_cotree(_as_cotree(tree))
    flipped = np.where(flat.kind == LEAF, LEAF, UNION + JOIN - flat.kind)
    return Cotree._of(FlatCotree(flipped, flat.child_offset, flat.child_index,
                                 flat.parent, flat.leaf_vertex,
                                 flat.root).canonicalize())
