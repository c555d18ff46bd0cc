"""Step 3 — path-cover counts ``p(u)`` and the reduced cotree ``Tblr(G)``.

Two things happen here:

1. ``p(u)`` is computed for every node of the leftist binarized cotree by the
   tree-contraction evaluator (Lemma 2.4; see
   :mod:`repro.primitives.tree_contraction`), in its one schedule over the
   tree's root array — a single tree is a forest of one, and a packed
   forest's instances contract side by side.

2. The *reduction* of the paper (Fig. 5) is carried out: for every 1-node
   whose right subtree has not already been swallowed by a higher 1-node, the
   right subtree is conceptually flattened into ``L(w)`` leaves, which are
   classified as **bridge** or **insert** vertices.  Vertices outside every
   flattened region are **primary**.  We never materialise the flattened
   tree; instead we compute, for every cograph vertex, its class, its owning
   1-node and its rank within the owner's block — exactly the data the
   bracket generator (Step 4) needs.

The flattened regions are the subtrees hanging off *marked* nodes (nodes that
are the right child of a 1-node) having no marked proper ancestor; the
owner of such a region is the 1-node just above its root.  This is the
"topmost marked ancestor" computation of
:func:`repro.primitives.ancestors.topmost_marked_ancestor`.

Off the simulator both read the numbering Step 2 already holds instead:
``p(u)`` is one chain scan per right-depth over the left spines of
``Tbl`` (at most ``log2 n + 1`` of them, since the leftist order makes
every left child the heavy one), and the regions and leaf ranks come from
the preorder intervals.  The simulator keeps the paper's rake contraction
and Euler-tour scans, so the PRAM cost report is the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .._dfs import root_path_sums
from ..backends import resolve_context
from ..cograph import BinaryCotree
from ..cograph.cotree import JOIN, LEAF
from ..primitives import (
    evaluate_max_plus_tree,
    prefix_sum,
    topmost_marked_ancestor,
)
from ..primitives.tree_contraction import NEG_INF, _max_plus_chains
from .leftist import LeftistCotree

__all__ = ["VertexClass", "ReducedCotree", "reduce_cotree"]


class VertexClass:
    """Vertex classification codes (per the paper's Section 2)."""

    PRIMARY = 0
    BRIDGE = 1
    INSERT = 2


@dataclass
class ReducedCotree:
    """The reduced leftist binarized cotree, in implicit (per-vertex) form.

    Attributes
    ----------
    tree:
        the leftist binarized cotree ``Tbl(G)`` (unchanged).
    p:
        ``p(u)`` for every node.
    leaf_count:
        ``L(u)`` for every node.
    active:
        boolean per node: ``True`` when the node is *not* inside a flattened
        region (it survives into ``Tblr``).
    owner_of_node:
        for every node inside a flattened region, the owning active 1-node;
        ``-1`` elsewhere.
    vertex_class:
        per cograph vertex: PRIMARY / BRIDGE / INSERT.
    vertex_owner:
        per cograph vertex: the owning active 1-node (``-1`` for primary
        vertices).
    vertex_rank:
        per cograph vertex: rank (0-based, left-to-right) within its owner's
        flattened block; ``-1`` for primary vertices.
    num_dummies_of:
        per node: number of dummy vertices contributed by this active 1-node
        (``2 p(v) - 2`` in Case 2, else 0).
    numbers:
        the tree numbering of ``Tbl(G)`` (shared with Step 2).
    """

    tree: BinaryCotree
    p: np.ndarray
    leaf_count: np.ndarray
    active: np.ndarray
    owner_of_node: np.ndarray
    vertex_class: np.ndarray
    vertex_owner: np.ndarray
    vertex_rank: np.ndarray
    num_dummies_of: np.ndarray
    numbers: object

    # -- convenience accessors (used by Step 4 and the tests) ------------- #

    def active_join_nodes(self) -> np.ndarray:
        """Active 1-nodes (the emitters of bracket suffix blocks)."""
        t = self.tree
        nodes = np.flatnonzero((np.asarray(t.kind) == JOIN) & self.active)
        return nodes

    def case1(self, u) -> np.ndarray:
        """Boolean: is the active 1-node ``u`` in Case 1 (``p(v) > L(w)``)?"""
        t = self.tree
        u = np.asarray(u, dtype=np.int64)
        return self.p[t.left[u]] > self.leaf_count[t.right[u]]

    def minimum_path_count(self) -> int:
        """The size of a minimum path cover: ``p(root)``, summed over the
        roots of a packed forest."""
        return int(self.p[self.tree.roots].sum())


def reduce_cotree(ctx, leftist: LeftistCotree, *,
                  work_efficient: bool = True,
                  label: str = "reduce") -> ReducedCotree:
    """Compute ``p(u)``, the flattened regions and the vertex classification."""
    machine = resolve_context(ctx)
    tree = leftist.tree
    numbers = leftist.numbers
    n_nodes = tree.num_nodes
    n_vertices = tree.num_vertices
    kind = np.asarray(tree.kind, dtype=np.int64)
    L = numbers.subtree_leaves

    # marked node = right child of a 1-node
    marked = np.zeros(n_nodes, dtype=bool)
    joins = np.flatnonzero(kind == JOIN)
    marked[tree.right[joins]] = True
    if machine.simulates:
        p, top_mark, leaf_rank, leaves_before = _simulated(
            machine, tree, numbers, kind, marked,
            work_efficient=work_efficient, label=label)
    else:
        p = _p_by_left_spines(tree, numbers, kind)
        top_mark, leaves_before = _regions_from_intervals(tree, numbers,
                                                          marked)
        leaf_rank = leaves_before

    inside_region = top_mark != -1
    active = ~inside_region
    # region roots are marked nodes that are their own topmost mark; the
    # owner of the region is the 1-node just above the region root.
    owner_of_node = np.full(n_nodes, -1, dtype=np.int64)
    idx = np.flatnonzero(inside_region)
    owner_of_node[idx] = tree.parent[top_mark[idx]]

    # ---- per-vertex classification --------------------------------------- #
    leaves = tree.leaves
    leaf_vertex = np.asarray(tree.leaf_vertex)
    vertex_class = np.full(n_vertices, VertexClass.PRIMARY, dtype=np.int64)
    vertex_owner = np.full(n_vertices, -1, dtype=np.int64)
    vertex_rank = np.full(n_vertices, -1, dtype=np.int64)

    region_leaves = leaves[inside_region[leaves]]
    if len(region_leaves):
        with machine.step(active=len(region_leaves), label=f"{label}:classify"):
            owners = owner_of_node[region_leaves]
            region_roots = top_mark[region_leaves]
            ranks = leaf_rank[region_leaves] - leaves_before[region_roots]
            verts = leaf_vertex[region_leaves]
            vertex_owner[verts] = owners
            vertex_rank[verts] = ranks
            p_v = p[tree.left[owners]]
            L_w = L[tree.right[owners]]
            is_case1 = p_v > L_w
            # Case 1: every region vertex bridges; Case 2: the first p(v)-1
            # bridge, the rest are inserted.
            bridge = is_case1 | (ranks < p_v - 1)
            vertex_class[verts] = np.where(bridge, VertexClass.BRIDGE,
                                           VertexClass.INSERT)

    # ---- dummy counts per active 1-node ---------------------------------- #
    num_dummies_of = np.zeros(n_nodes, dtype=np.int64)
    active_joins = np.flatnonzero((kind == JOIN) & active)
    if len(active_joins):
        p_v = p[tree.left[active_joins]]
        L_w = L[tree.right[active_joins]]
        case2 = p_v <= L_w
        num_dummies_of[active_joins] = np.where(case2, 2 * p_v - 2, 0)

    return ReducedCotree(tree=tree, p=p, leaf_count=L, active=active,
                         owner_of_node=owner_of_node,
                         vertex_class=vertex_class, vertex_owner=vertex_owner,
                         vertex_rank=vertex_rank,
                         num_dummies_of=num_dummies_of, numbers=numbers)


def _simulated(machine, tree: BinaryCotree, numbers, kind: np.ndarray,
               marked: np.ndarray, *, work_efficient: bool, label: str):
    """``(p, top_mark, leaf_rank, leaves_before)`` as the paper's Step 3
    computes them: ``p(u)`` by rake contraction, the regions by an Euler-tour
    scan, the leaf ranks by prefix sums, every step accounted."""
    n_nodes = tree.num_nodes
    L = numbers.subtree_leaves

    # ---- p(u) by tree contraction (Lemma 2.4) --------------------------- #
    join_const = np.zeros(n_nodes, dtype=np.int64)
    internal = tree.internal_nodes
    join_const[internal] = L[tree.right[internal]]
    leaf_values = np.ones(n_nodes, dtype=np.int64)
    p = evaluate_max_plus_tree(machine, tree.left, tree.right, tree.parent,
                               tree.roots, kind, join_const, leaf_values,
                               leaf_inorder=numbers.inorder,
                               label=f"{label}.p-values")

    # ---- flattened regions ---------------------------------------------- #
    top_mark = topmost_marked_ancestor(machine, tree.left, tree.right,
                                       tree.parent, tree.roots, marked,
                                       work_efficient=work_efficient,
                                       label=f"{label}.regions")

    # ---- leaf ranks ------------------------------------------------------ #
    leaves = tree.leaves
    # rank of each leaf among all leaves in inorder
    inorder = numbers.inorder
    leaf_flag_by_inorder = np.zeros(n_nodes, dtype=np.int64)
    leaf_flag_by_inorder[inorder[leaves]] = 1
    leaf_rank_prefix = prefix_sum(machine, leaf_flag_by_inorder, inclusive=True,
                                  label=f"{label}.leafrank")
    leaf_rank = np.zeros(n_nodes, dtype=np.int64)
    leaf_rank[leaves] = leaf_rank_prefix[inorder[leaves]] - 1

    # number of leaves strictly to the left of each node's subtree
    tour = numbers.tour
    nodes_all = np.arange(n_nodes, dtype=np.int64)
    arc_vals = np.zeros(2 * n_nodes, dtype=np.int64)
    arc_vals[tour.enter(leaves)] = 1
    leaf_enter_prefix = tour.prefix_over_tour(machine, arc_vals, inclusive=False,
                                              label=f"{label}.leaves-before")
    leaves_before = leaf_enter_prefix[tour.enter(nodes_all)]
    return p, top_mark, leaf_rank, leaves_before


def _p_by_left_spines(tree: BinaryCotree, numbers, kind: np.ndarray
                      ) -> np.ndarray:
    """``p(u)`` for every node, one right-depth per round, deepest first.

    In ``Tbl`` a left child has at least as many leaves as its sibling, so
    a node's right-depth (the right edges on its root path) is at most
    ``log2`` of its tree's leaves.  A node is a max-plus map of its left
    child's value: ``x -> max(x - L(w), 1)`` at a 1-node, ``x -> x + p(w)``
    at a 0-node, whose right child ``w`` lies one right-depth deeper and
    is known from an earlier round.  A round's internal nodes, taken in
    descending preorder, are its left spines, each a contiguous run from
    the node above a leaf up to the spine's top: one chain scan evaluates
    them all.
    """
    p = np.ones(tree.num_nodes, dtype=np.int64)
    pre = numbers.preorder
    by_pre = np.empty_like(pre)
    by_pre[pre] = np.arange(len(pre), dtype=np.int64)
    desc = by_pre[::-1]
    desc = desc[kind[desc] != LEAF]
    if len(desc) == 0:
        return p
    # right-depths are at most log2 n, and int16 keys sort by radix
    rd = numbers.right_depth[desc].astype(np.int16)
    order = np.argsort(-rd, kind="stable")
    rounds = np.split(desc[order], np.flatnonzero(np.diff(rd[order])) + 1)
    left, right = tree.left, tree.right
    L = numbers.subtree_leaves
    for nodes in rounds:
        w = right[nodes]
        is_join = kind[nodes] == JOIN
        a = np.where(is_join, -L[w], p[w])
        b = np.where(is_join, 1, NEG_INF)
        v = left[nodes]
        p[nodes] = _max_plus_chains(a, b, p[v], kind[v] == LEAF)
    return p


def _regions_from_intervals(tree: BinaryCotree, numbers, marked: np.ndarray
                            ) -> Tuple[np.ndarray, np.ndarray]:
    """``(top_mark, leaves_before)`` from the preorder intervals of ``Tbl``.

    The marks on every root path are one root-path sum; the region roots
    (marks with no marked proper ancestor) have disjoint intervals, so one
    difference array paints every node with its region root.  Leaves keep
    their relative order in preorder and inorder, so the leaves before a
    node's subtree are the leaves before it in preorder (for a leaf: its
    rank).
    """
    n = tree.num_nodes
    pre, size = numbers.preorder, numbers.subtree_size
    marks = np.flatnonzero(marked)
    on_path = root_path_sums(pre, size, marks, 1)
    region_roots = marks[on_path[marks] == 1]
    paint = np.zeros(n + 1, dtype=np.int64)
    paint[pre[region_roots]] = region_roots + 1
    paint[pre[region_roots] + size[region_roots]] -= region_roots + 1
    top_mark = np.cumsum(paint[:-1])[pre] - 1

    is_leaf_by_pre = np.zeros(n + 1, dtype=np.int64)
    is_leaf_by_pre[pre[tree.leaves] + 1] = 1
    return top_mark, np.cumsum(is_leaf_by_pre)[pre]
