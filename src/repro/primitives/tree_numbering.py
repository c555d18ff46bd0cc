"""Tree numberings derived from the Euler tour — Lemma 5.2(2)-(3).

Given a binary forest, this module computes (all in ``O(log n)`` rounds and
``O(n)`` work on top of one Euler tour):

* preorder, inorder and postorder numbers,
* depths (and right-depths: the right edges on each root path),
* subtree sizes and subtree *leaf* counts ``L(u)`` (the quantity the paper's
  Step 2 needs),

each as a plain NumPy array indexed by node id.

Off the simulator the same numbers come from one C-level DFS interval
numbering (:func:`repro._dfs.binary_numbering`) and root-path sums over
it, bit-identical to the tour; without scipy the throughput backend ranks
the tour like the simulator does.  Only preorder, subtree sizes, leaf
counts and right-depths are computed up front; depths, inorder, postorder
and the tour follow from them on first read.  Step 2's leftist reordering
needs only the leaf counts before its swap and renumbers after it from the
same intervals (:func:`renumber_swapped`); Step 6 reads only inorder
numbers and subtree sizes (:func:`inorder_numbers`).
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np

from .._dfs import binary_numbering, root_path_sums
from ..backends import resolve_context
from .euler_tour import EulerTour, build_euler_tour

__all__ = ["TreeNumbers", "compute_tree_numbers", "inorder_numbers",
           "renumber_swapped"]


class TreeNumbers:
    """Bundle of per-node tree statistics (arrays indexed by node id).

    ``preorder``, ``subtree_size``, ``subtree_leaves`` (the paper's
    ``L(u)``) and ``right_depth`` (the right edges on every root path) are
    always present.  ``depth``, ``inorder``, ``postorder`` and the Euler
    ``tour`` follow from them and the forest: unless given, each is
    derived on first read, since Steps 3 and 4 off the simulator read none
    of them.
    """

    def __init__(self, left, right, parent, roots, *, preorder: np.ndarray,
                 subtree_size: np.ndarray, subtree_leaves: np.ndarray,
                 right_depth: np.ndarray, depth=None, inorder=None,
                 postorder=None, tour=None) -> None:
        self.preorder = preorder
        self.subtree_size = subtree_size
        self.subtree_leaves = subtree_leaves
        self.right_depth = right_depth
        self._forest = (left, right, parent, roots)
        given = {"depth": depth, "inorder": inorder, "postorder": postorder,
                 "tour": tour}
        # a given number shadows its lazy derivation
        self.__dict__.update((k, v) for k, v in given.items()
                             if v is not None)

    @cached_property
    def depth(self) -> np.ndarray:
        # the preorder intervals delimit every subtree
        parent = self._forest[2]
        return root_path_sums(self.preorder, self.subtree_size, slice(None),
                              (parent >= 0).astype(np.int64))

    @cached_property
    def inorder(self) -> np.ndarray:
        # a left child's inorder offset is 1 less than its preorder offset,
        # and a node follows its left subtree
        lefts = self.depth - self.right_depth
        return self.preorder - lefts + _left_sizes(self._forest[0],
                                                   self.subtree_size)

    @cached_property
    def postorder(self) -> np.ndarray:
        # the nodes before a node in preorder, less its ancestors, plus its
        # proper descendants
        return self.preorder + self.subtree_size - self.depth - 1

    @cached_property
    def tour(self) -> EulerTour:
        # enter(v) follows the enter and exit arcs of the nodes before v
        # in preorder, less its ancestors' exits; exit(v) closes its subtree
        enter = 2 * self.preorder - self.depth
        position = np.concatenate([enter, enter + 2 * self.subtree_size - 1])
        return EulerTour.from_positions(position, *self._forest)


def _left_sizes(left: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The size of every node's left subtree (``0`` without one)."""
    has_left = np.flatnonzero(left >= 0)
    out = np.zeros(len(left), dtype=np.int64)
    out[has_left] = size[left[has_left]]
    return out


def compute_tree_numbers(ctx, left, right, parent,
                         roots: Sequence[int], *,
                         work_efficient: bool = True,
                         label: str = "numbering") -> TreeNumbers:
    """Compute all tree numberings for a binary forest.

    ``left``, ``right`` and ``parent`` are the usual child/parent arrays with
    ``-1`` for "absent"; ``roots`` lists the forest's roots (their tours are
    chained, so pre/in/post-order numbers are global but consistent with a
    left-to-right traversal of the forest).

    Inorder numbers are assigned to *every* node: a leaf is visited when it
    is entered, an internal node is visited when the tour returns from its
    left subtree (for nodes with only a right child, at the enter arc; this
    matches the usual inorder convention for binary trees).
    """
    machine = resolve_context(ctx)
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    n = len(left)

    # Throughput path: one C-level DFS interval numbering replaces the tour
    # ranking *and* the five prefix scans below, with bit-identical results
    # (the backend-parity tests cross-check every field against the
    # simulator).
    if n and not machine.simulates:
        intervals = binary_numbering(left, right, roots)
        if intervals is not None:
            return _numbers_from_intervals(intervals, left, right, parent,
                                           roots)

    tour = build_euler_tour(machine, left, right, parent, roots,
                            work_efficient=work_efficient, label=f"{label}.euler")
    nodes = np.arange(n, dtype=np.int64)
    enter = tour.enter(nodes)
    exit_ = tour.exit(nodes)
    is_leaf = (left == -1) & (right == -1)

    # --- preorder: +1 at every enter arc ------------------------------- #
    arc_vals = np.zeros(2 * n, dtype=np.int64)
    arc_vals[enter] = 1
    pre_prefix = tour.prefix_over_tour(machine, arc_vals, inclusive=True,
                                       label=f"{label}.pre")
    preorder = pre_prefix[enter] - 1

    # --- postorder: +1 at every exit arc -------------------------------- #
    arc_vals = np.zeros(2 * n, dtype=np.int64)
    arc_vals[exit_] = 1
    post_prefix = tour.prefix_over_tour(machine, arc_vals, inclusive=True,
                                        label=f"{label}.post")
    postorder = post_prefix[exit_] - 1

    # --- depth: +1 at enter, -1 at exit --------------------------------- #
    arc_vals = np.zeros(2 * n, dtype=np.int64)
    arc_vals[enter] = 1
    arc_vals[exit_] = -1
    depth_prefix = tour.prefix_over_tour(machine, arc_vals, inclusive=True,
                                         label=f"{label}.depth")
    depth = depth_prefix[enter] - 1
    # chaining tours keeps the running sum at zero between trees, so depths
    # remain relative to each tree's own root.

    # --- subtree size: half the number of arcs strictly inside [enter, exit]
    subtree_size = (tour.position[exit_] - tour.position[enter] + 1) // 2

    # --- subtree leaf count L(u): leaves entered within [enter(u), exit(u)]
    arc_vals = np.zeros(2 * n, dtype=np.int64)
    arc_vals[enter[is_leaf]] = 1
    leaf_prefix = tour.prefix_over_tour(machine, arc_vals, inclusive=True,
                                        label=f"{label}.leaves")
    subtree_leaves = leaf_prefix[exit_] - leaf_prefix[enter] + is_leaf.astype(np.int64)

    # --- inorder --------------------------------------------------------- #
    # visit tick: leaves at their enter arc; internal nodes with a left child
    # at exit(left child); internal nodes without a left child at their enter
    # arc.
    tick_arc = np.where(is_leaf, enter,
               np.where(left != -1, tour.exit(np.maximum(left, 0)), enter))
    arc_vals = np.zeros(2 * n, dtype=np.int64)
    arc_vals[tick_arc] = 1
    in_prefix = tour.prefix_over_tour(machine, arc_vals, inclusive=True,
                                      label=f"{label}.inorder")
    inorder = in_prefix[tick_arc] - 1

    # a left child's inorder offset is 1 less than its preorder offset (see
    # TreeNumbers.inorder): the left edges on a root path number
    # preorder - inorder + the node's left subtree, the rest are right edges
    right_depth = depth - preorder + inorder - _left_sizes(left, subtree_size)
    return TreeNumbers(left, right, parent, roots, preorder=preorder,
                       subtree_size=subtree_size,
                       subtree_leaves=subtree_leaves, right_depth=right_depth,
                       inorder=inorder, postorder=postorder, depth=depth,
                       tour=tour)


def _leaf_counts_and_intervals(ctx, left, right, parent,
                               roots: Sequence[int], *,
                               work_efficient: bool = True,
                               label: str = "numbering"
                               ) -> Tuple[np.ndarray, Tuple]:
    """``(L, intervals)``: the subtree leaf counts ``L(u)`` of a binary
    forest and an interval numbering ``(order, size)`` of it, every
    subtree being ``[order, order + size)``.  Leftist reordering is the
    only caller.

    Off the simulator both come from one DFS interval numbering and one
    cumulative sum; no other number is derived.  The simulator (and the
    throughput backend without scipy) takes them from
    :func:`compute_tree_numbers`, so the PRAM cost report is unchanged.
    """
    machine = resolve_context(ctx)
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    if len(left) and not machine.simulates:
        intervals = binary_numbering(left, right, roots)
        if intervals is not None:
            return _interval_leaves(intervals, left, right), intervals
    numbers = compute_tree_numbers(machine, left, right, parent, roots,
                                   work_efficient=work_efficient, label=label)
    return numbers.subtree_leaves, (numbers.preorder, numbers.subtree_size)


def inorder_numbers(ctx, left, right, parent, roots: Sequence[int], *,
                    work_efficient: bool = True,
                    label: str = "numbering") -> Tuple[np.ndarray, np.ndarray]:
    """``(inorder, subtree_size)`` of a binary forest, numbered as
    :func:`compute_tree_numbers` numbers it.  Step 6 (and Step 8 when no
    Step 6 numbering reaches it) reads nothing else.

    Off the simulator they come from one DFS interval numbering and one
    root-path sum: a subtree's inorder block starts where its parent's
    does (left child), 1 plus the left sibling's subtree later (right
    child) or after the earlier roots' nodes (root), and the node itself
    follows its left subtree.  The simulator takes them from
    :func:`compute_tree_numbers`, so the PRAM cost report is unchanged.
    """
    machine = resolve_context(ctx)
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    if len(left) and not machine.simulates:
        intervals = binary_numbering(left, right, roots)
        if intervals is not None:
            order, size = intervals
            roots = np.asarray(roots, dtype=np.int64)
            has_right = np.flatnonzero(right >= 0)
            left_size = _left_sizes(left, size)
            offset = np.zeros(len(left), dtype=np.int64)
            offset[roots] = np.cumsum(size[roots]) - size[roots]
            offset[right[has_right]] = left_size[has_right] + 1
            return (root_path_sums(order, size, slice(None), offset)
                    + left_size, size)
    numbers = compute_tree_numbers(machine, left, right, parent, roots,
                                   work_efficient=work_efficient, label=label)
    return numbers.inorder, numbers.subtree_size


def renumber_swapped(ctx, numbers, left, right, parent,
                     roots: Sequence[int], *,
                     leaves: Optional[np.ndarray] = None,
                     work_efficient: bool = True,
                     label: str = "renumber") -> TreeNumbers:
    """:func:`compute_tree_numbers` of a forest whose children were swapped
    after ``numbers`` was computed: the pre-swap :class:`TreeNumbers`, or
    just its interval numbering ``(order, size)`` and, when known, its
    leaf counts ``leaves``.

    A swap reorders a subtree but keeps its node set, so the intervals
    still delimit every subtree of the swapped forest and the leaf counts
    still hold: off the simulator the rest is derived from them without a
    second traversal.  The simulator renumbers with a fresh Euler tour, so
    the PRAM cost report accounts every step.
    """
    machine = resolve_context(ctx)
    if machine.simulates:
        return compute_tree_numbers(machine, left, right, parent, roots,
                                    work_efficient=work_efficient,
                                    label=label)
    if isinstance(numbers, TreeNumbers):
        intervals = (numbers.preorder, numbers.subtree_size)
        leaves = numbers.subtree_leaves
    else:
        intervals = numbers
    return _numbers_from_intervals(
        intervals, np.asarray(left, dtype=np.int64),
        np.asarray(right, dtype=np.int64),
        np.asarray(parent, dtype=np.int64), roots, leaves)


def _interval_leaves(intervals, left: np.ndarray,
                     right: np.ndarray) -> np.ndarray:
    """The leaves in every subtree interval ``[order, order + size)``."""
    order, size = intervals
    leaf_cum = np.zeros(len(left) + 1, dtype=np.int64)
    leaf_cum[order + 1] = (left == -1) & (right == -1)
    np.cumsum(leaf_cum, out=leaf_cum)
    return leaf_cum[order + size] - leaf_cum[order]


def _numbers_from_intervals(intervals, left: np.ndarray, right: np.ndarray,
                            parent: np.ndarray, roots,
                            leaves: Optional[np.ndarray] = None
                            ) -> TreeNumbers:
    """The numbers of a binary forest from one interval numbering.

    ``intervals`` is any ``(order, size)`` pair under which every subtree
    is the interval ``[order, order + size)``; the exact child order comes
    from ``left`` / ``right`` alone.  One root-path sum gives the preorder
    (high 32 bits: a left child comes 1 after its parent, a right child 1
    plus its left sibling's subtree after it, a root after the earlier
    roots' nodes) and the right-depth (low 32 bits: the right children on
    the path).  The leaf counts are counted over the intervals unless
    ``leaves`` gives them; the other numbers are derived on first read
    (:class:`TreeNumbers`).
    """
    order, size = intervals
    roots = np.asarray(roots, dtype=np.int64)
    has_left = np.flatnonzero(left >= 0)
    has_right = np.flatnonzero(right >= 0)
    step = np.zeros(len(left), dtype=np.int64)
    step[roots] = (np.cumsum(size[roots]) - size[roots]) << 32
    step[left[has_left]] = 1 << 32
    step[right[has_right]] = \
        ((_left_sizes(left, size)[has_right] + 1) << 32) | 1
    sums = root_path_sums(order, size, slice(None), step)
    if leaves is None:
        leaves = _interval_leaves(intervals, left, right)
    return TreeNumbers(left, right, parent, roots, preorder=sums >> 32,
                       subtree_size=size, subtree_leaves=leaves,
                       right_depth=sums & 0xFFFFFFFF)
