"""Validation of cotree invariants and of the analytic path-cover count.

Two kinds of checks live here:

* :func:`validate_cotree` — the structural properties (4)-(6) of the paper:
  arity, label alternation, and (for small graphs) agreement between the
  cotree's LCA-adjacency and an explicitly provided edge set.
* :func:`minimum_path_cover_size` — the recurrence of Lemma 2.4
  (``p(u) = p(v) + p(w)`` at 0-nodes, ``max(p(v) − L(w), 1)`` at leftist
  1-nodes), evaluated through the generic cotree-DP engine
  (:mod:`repro.core.dp`).  Every algorithm's output is compared against
  this number, and the brute-force baseline certifies the recurrence
  itself on small instances.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .binary import BinaryCotree
from .cotree import Cotree, CotreeError
from .flat import as_flat_cotree
from .graph import Graph

__all__ = [
    "validate_cotree",
    "validate_binary_cotree",
    "minimum_path_cover_size",
    "path_cover_sizes_per_node",
    "make_leftist",
]


def validate_cotree(tree: Cotree, graph: Optional[Graph] = None,
                    require_canonical: bool = True) -> None:
    """Validate cotree properties; optionally cross-check against a graph.

    Parameters
    ----------
    tree:
        the cotree to validate: its tree-ness is
        :meth:`FlatCotree.validate <repro.cograph.FlatCotree.validate>`'s
        (sparse vertex ids allowed).
    graph:
        when given, the adjacency defined by property (6) (LCA is a 1-node)
        is compared edge-by-edge with ``graph`` — quadratic, so intended for
        test-sized inputs.
    require_canonical:
        when True, properties (4) (arity >= 2) and (5) (alternating labels)
        must hold; binarized or reduced trees should pass ``False``.
    """
    flat = as_flat_cotree(tree).validate(sparse_ids=True)
    if require_canonical and not flat.is_canonical():
        raise CotreeError("cotree is not canonical: an internal node has "
                          "fewer than two children or a same-labelled child")
    if graph is not None:
        if graph.n != tree.num_vertices:
            raise CotreeError(
                f"graph has {graph.n} vertices, cotree has {tree.num_vertices}")
        adj = tree.adjacency_sets()
        for u in range(graph.n):
            if adj.get(u, set()) != graph.adj[u]:
                raise CotreeError(
                    f"cotree adjacency of vertex {u} disagrees with the graph")


def validate_binary_cotree(tree: BinaryCotree, leftist: bool = False) -> None:
    """Validate a binary cotree; with ``leftist=True`` also check
    ``L(left) >= L(right)`` at every internal node."""
    tree.validate()
    if leftist:
        counts = tree.subtree_leaf_counts()
        for u in tree.internal_nodes:
            if counts[tree.left[u]] < counts[tree.right[u]]:
                raise CotreeError(
                    f"node {u} violates the leftist condition: "
                    f"L(left)={counts[tree.left[u]]} < "
                    f"L(right)={counts[tree.right[u]]}")


def make_leftist(tree: BinaryCotree) -> BinaryCotree:
    """Return a copy of ``tree`` with children swapped wherever needed so that
    every internal node satisfies ``L(left) >= L(right)`` (sequential
    reference implementation; the PRAM-costed one is
    :func:`repro.core.leftist.leftist_reorder`)."""
    counts = tree.subtree_leaf_counts()
    to_swap = [int(u) for u in tree.internal_nodes
               if counts[tree.left[u]] < counts[tree.right[u]]]
    return tree.swap_children(to_swap)


def path_cover_sizes_per_node(tree: BinaryCotree) -> np.ndarray:
    """``p(u)`` for every node of a *leftist* binary cotree (Lemma 2.4).

    * leaves: ``p = 1``;
    * 0-nodes: ``p(u) = p(v) + p(w)``;
    * 1-nodes: ``p(u) = max(p(v) − L(w), 1)`` where ``v``/``w`` are the
      left/right children (the tree must be leftist for this to be the
      minimum).

    The recurrence is one instance of the generic cotree-DP engine
    (:data:`repro.core.PATH_COVER_SIZE_DP`); the engine evaluates the
    symmetric multiway form ``max(1, max_child (p + L) - L(u))``, which
    coincides with the left/right form above exactly on leftist trees —
    and, unlike it, stays minimum on non-leftist inputs.
    """
    # imported lazily: repro.cograph must stay importable without repro.core
    from ..core.dp import PATH_COVER_SIZE_DP, run_cotree_dp
    return run_cotree_dp(PATH_COVER_SIZE_DP, tree).values["p"]


def minimum_path_cover_size(tree: Cotree) -> int:
    """The number of paths in a minimum path cover of the cograph.

    Evaluates the Lemma 2.4 recurrence at the root through the cotree-DP
    engine — directly on the general cotree, no binarization needed.  This
    is the analytic ground truth used throughout the tests and benchmarks.
    """
    from ..core.dp import PATH_COVER_SIZE_DP, run_cotree_dp
    return run_cotree_dp(PATH_COVER_SIZE_DP, tree).root("p")
