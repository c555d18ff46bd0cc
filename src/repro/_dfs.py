"""The one C-level DFS numbering kernel of the flat-array hot path.

The throughput (``fast``) backend is licensed to replace simulated PRAM
loops by any direct computation with bit-identical output.  For tree
numberings the direct computation is a depth-first search run in compiled
code: :func:`scipy.sparse.csgraph.depth_first_order` visits the entries of
every CSR row in stored order.

:func:`multiway_numbering` numbers a multiway CSR forest (a cotree) and
:func:`binary_numbering` a binary forest straight from its ``left`` /
``right`` slots; both run one such DFS on the first-child / next-sibling
form, the roots chained as siblings, and return every subtree's preorder
interval ``[pre, pre + size)``.  No CSR row holds more than two entries,
so the cost is linear in nodes, arity and roots alike.  An interval
numbering is all the rest needs:

* :func:`root_path_sums` sums per-node weights over every root path
  (depths, offsets along the path) with one difference array over the
  intervals;
* :mod:`repro.primitives.tree_numbering` derives every binary-tree number
  (preorder, inorder, postorder, depth, leaf counts, Euler-tour positions)
  from one interval numbering and the exact ``left`` / ``right`` arrays —
  any preorder whose subtrees are intervals will do, so a child swap that
  keeps every subtree's node set keeps the numbering usable.

:func:`sibling_chain_preorder` is the DFS itself, also used directly when
the sibling order is a sort key (``canonical_key``).  scipy is optional:
every caller falls back to list ranking or an explicit stack when
:data:`HAVE_SPARSE_DFS` is ``False``, so a NumPy-only environment stays
fully functional (just slower).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

try:  # pragma: no cover - exercised indirectly (scipy ships in CI and dev)
    from scipy.sparse import csr_matrix as _csr_matrix
    from scipy.sparse.csgraph import depth_first_order as _depth_first_order
    HAVE_SPARSE_DFS = True
except ImportError:  # pragma: no cover - numpy-only environments
    HAVE_SPARSE_DFS = False

__all__ = ["HAVE_SPARSE_DFS", "binary_numbering", "chase_pointers",
           "depth_by_doubling", "multiway_numbering", "root_path_sums",
           "sibling_chain_preorder", "two_slot_csr"]


def chase_pointers(g: np.ndarray) -> np.ndarray:
    """Fixpoint of the pointer map ``g`` (``-1`` absorbs) by doubling."""
    absorbs = len(g) and int(g.min()) < 0
    for _ in range(max(1, int(np.ceil(np.log2(max(len(g), 2)))) + 1)):
        g2 = np.where(g == -1, -1, g[np.maximum(g, 0)]) if absorbs \
            else g[g]
        if np.array_equal(g2, g):
            break
        g = g2
    return g


def depth_by_doubling(parent: np.ndarray) -> np.ndarray:
    """Depth of every forest node (``O(log height)`` doubling rounds).

    After ``r`` rounds every node has climbed ``min(depth, 2**r)`` levels,
    so a node still climbing after ``bit_length(n) + 1`` rounds lies under a
    cycle: the :class:`~repro.cograph.CotreeError` names a node on it.
    """
    n = len(parent)
    depth = (parent >= 0).astype(np.int64)
    anc = np.where(parent >= 0, parent, np.arange(n, dtype=np.int64))
    for _ in range(n.bit_length() + 1):
        step = depth[anc]
        if not step.any():                  # every jump reached a root
            return depth
        depth += step
        anc = anc[anc]
    from .cograph.cotree import CotreeError
    u = int(anc[np.flatnonzero(depth[anc])[0]])
    raise CotreeError(f"parent: node {u} lies on a cycle (its parent "
                      f"pointers never reach a root)")


def sibling_chain_preorder(first: np.ndarray, nxt: np.ndarray,
                           root: int) -> Optional[np.ndarray]:
    """Preorder of a forest in first-child / next-sibling form.

    ``first[u]`` is the child of ``u`` visited first and ``nxt[u]`` the
    sibling visited after ``u`` (``-1`` for none); the roots are chained
    from ``root`` as siblings.  Row ``u`` of the CSR graph lists
    ``first[u]`` before ``nxt[u]``, so one C-level DFS from ``root``
    visits the multiway preorder, and no row holds more than two entries
    however wide the forest is (scipy's DFS rescans a row on every return
    to it).  int32 indices and float64 weights are the dtypes csgraph uses
    internally, so passing them directly skips one conversion copy.
    Returns ``None`` when some node is unreachable from ``root``.
    """
    n = len(first)
    slots = np.empty(2 * n, dtype=np.int32)
    slots[0::2] = first
    slots[1::2] = nxt
    used = slots >= 0
    indices = slots[np.flatnonzero(used)]  # faster than a boolean mask
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(used[0::2].view(np.int8) + used[1::2].view(np.int8),
              dtype=np.int32, out=indptr[1:])
    graph = _csr_matrix((np.ones(len(indices), dtype=np.float64), indices,
                         indptr), shape=(n, n))
    seq = _depth_first_order(graph, root, directed=True,
                             return_predecessors=False)
    if len(seq) != n:
        return None
    pre = np.empty(n, dtype=np.int64)
    pre[seq] = np.arange(n, dtype=np.int64)
    return pre


def two_slot_csr(left: np.ndarray, right: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """``(child_offset, child_index)`` of a binary forest: every row lists
    ``left`` then ``right``, absent (``-1``) children dropped."""
    offset = np.zeros(len(left) + 1, dtype=np.int64)
    np.cumsum((left != -1).astype(np.int64) + (right != -1), out=offset[1:])
    kids = np.column_stack((left, right)).ravel()
    return offset, kids[kids != -1]


def multiway_numbering(child_offset, child_index, roots, *,
                       leaf_last: bool = True
                       ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``(preorder, subtree_size)`` of a multiway CSR forest.

    Siblings are visited in CSR order, except that with ``leaf_last``
    every node's last leaf child swaps places with its last child; the
    roots are chained as siblings in the given order (``-1`` entries,
    empty instances, are skipped).  One C-level DFS
    (:func:`sibling_chain_preorder`) runs on the first-child /
    next-sibling form, so a node with ``d`` children or a forest of ``d``
    roots costs ``O(d)``, not ``O(d**2)``.  A subtree ends where the next
    sibling of its nearest ancestor-or-self that has one begins; visiting
    a leaf last keeps the last-child chains that pointer jumping climbs
    short (one step on a caterpillar).  Returns
    ``None`` when scipy is unavailable or the arrays are not a forest
    rooted at ``roots``.
    """
    if not HAVE_SPARSE_DFS:
        return None
    child_offset = np.asarray(child_offset, dtype=np.int64)
    child_index = np.asarray(child_index, dtype=np.int64)
    roots = np.asarray(roots, dtype=np.int64)
    roots = roots[roots >= 0]
    n = len(child_offset) - 1
    if len(roots) == 0 or n >= np.iinfo(np.int32).max:
        return None
    # the binary form is a forest only if every node is exactly one root
    # or one child slot; reachability is checked by the DFS itself
    if not _one_slot_each(np.concatenate([child_index, roots]), n):
        return None
    deg = np.diff(child_offset)
    has_kids = np.flatnonzero(deg > 0)
    ends = child_offset[has_kids + 1] - 1
    kids = child_index
    if leaf_last:
        # the last leaf slot at or before every slot (a running maximum),
        # kept where it lies inside its node's own slots (else the last
        # slot swaps with itself)
        leaf_slot = np.where(deg[child_index] == 0,
                             np.arange(len(child_index), dtype=np.int64), -1)
        np.maximum.accumulate(leaf_slot, out=leaf_slot)
        leaf_slot = leaf_slot[ends]
        leaf_slot = np.where(leaf_slot >= child_offset[has_kids], leaf_slot,
                             ends)
        kids = child_index.copy()
        kids[ends] = child_index[leaf_slot]
        kids[leaf_slot] = child_index[ends]

    first = np.full(n, -1, dtype=np.int64)
    first[has_kids] = kids[child_offset[has_kids]]
    linked = np.ones(len(kids), dtype=bool)
    linked[ends] = False
    pos = np.flatnonzero(linked)
    older = np.append(kids[pos], roots[:-1])
    nxt = np.full(n, -1, dtype=np.int64)
    nxt[older] = np.append(kids[pos + 1], roots[1:])
    return _chain_intervals(first, nxt, int(roots[0]), kids[ends], has_kids)


def binary_numbering(left, right, roots
                     ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``(preorder, subtree_size)`` of a binary forest.

    The first-child / next-sibling form comes straight from the child
    slots: a node's first child is its left child (its right one when it
    has no left), a left child's next sibling is its right sibling, and
    the roots are chained as siblings in the given order (``-1`` entries
    are skipped).  So the one DFS visits the forest's own preorder, and no
    CSR row holds more than two entries.  Returns ``None`` when scipy is
    unavailable or the arrays are not a forest rooted at ``roots``.
    """
    if not HAVE_SPARSE_DFS:
        return None
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    roots = np.asarray(roots, dtype=np.int64)
    roots = roots[roots >= 0]
    n = len(left)
    if len(roots) == 0 or n >= np.iinfo(np.int32).max:
        return None
    # (index arrays, not boolean masks: a mask gather mispredicts on
    # irregular trees)
    with_left = np.flatnonzero(left >= 0)
    with_right = np.flatnonzero(right >= 0)
    # a forest only if every node is exactly one root or one child slot;
    # reachability is checked by the DFS itself
    if not _one_slot_each(np.concatenate([left[with_left],
                                          right[with_right], roots]), n):
        return None
    first = np.where(left >= 0, left, right)
    nxt = np.full(n, -1, dtype=np.int64)
    nxt[left[with_left]] = right[with_left]     # -1 without a right child
    nxt[roots[:-1]] = roots[1:]
    last = np.where(right >= 0, right, left)
    parents = np.flatnonzero(last >= 0)
    return _chain_intervals(first, nxt, int(roots[0]), last[parents],
                            parents)


def _one_slot_each(slots: np.ndarray, n: int) -> bool:
    """Whether ``slots`` lists every node of ``0 .. n-1`` exactly once
    (``n`` entries, all in range, none missed)."""
    if len(slots) != n or slots.min() < 0 or slots.max() >= n:
        return False
    hit = np.zeros(n, dtype=bool)
    hit[slots] = True
    return bool(hit.all())


def _chain_intervals(first: np.ndarray, nxt: np.ndarray, root: int,
                     last: np.ndarray, parents: np.ndarray
                     ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``(preorder, subtree_size)`` of a first-child / next-sibling forest
    whose node ``parents[i]`` has the last child ``last[i]``: one DFS
    (:func:`sibling_chain_preorder`), then every subtree ends where the
    next sibling of its nearest ancestor-or-self that has one begins (the
    end of the chain for the last root)."""
    pre = sibling_chain_preorder(first, nxt, root)
    if pre is None:
        return None
    n = len(first)
    # climb from every last child to its parent, up to the nearest node
    # with a next sibling (or the last root)
    up = np.arange(n, dtype=np.int64)
    up[last] = parents
    top = chase_pointers(up)
    after = nxt[top]
    end = np.where(after >= 0, pre[np.maximum(after, 0)], n)
    return pre, end - pre


def root_path_sums(pre: np.ndarray, size: np.ndarray, nodes: np.ndarray,
                   weights: np.ndarray) -> np.ndarray:
    """Per node, the sum of ``weights[i]`` over the ``nodes[i]`` on its
    root path (itself included), given any interval numbering ``(pre,
    size)``: a difference array over ``pre``, ``+w`` where a subtree
    interval opens and ``-w`` where it closes, then one cumulative sum.
    ``nodes`` is an index array, or ``slice(None)`` for every node."""
    diff = np.zeros(len(pre) + 1, dtype=np.int64)
    diff[pre[nodes]] = weights
    np.subtract.at(diff, pre[nodes] + size[nodes], weights)
    return np.cumsum(diff[:-1])[pre]
