"""Shared C-level DFS kernels for the flat-array hot path.

The throughput (``fast``) backend is licensed to replace simulated PRAM
loops by any direct computation with bit-identical output.  For tree
numberings the direct computation of choice is a depth-first search run in
compiled code: :func:`scipy.sparse.csgraph.depth_first_order` visits the
children of every node in the order its CSR row stores them, so once each
row lists the children in the desired order, one C call yields the exact
preorder the simulated Euler-tour machinery produces.

Everything else follows analytically:

* a second DFS with the mirrored child order gives the postorder via
  ``post = n - 1 - mirrored_pre``;
* depths come from ``O(log height)`` rounds of pointer doubling over the
  parent array;
* ``size = post - pre + depth + 1`` (count the nodes that exit before a
  node's own exit);
* Euler-tour arc positions are ``enter = 2 * pre - depth`` and
  ``exit = enter + 2 * size - 1``.

scipy is optional: every caller falls back to the list-ranking /
pointer-jumping implementation when :data:`HAVE_SPARSE_DFS` is ``False``,
so a NumPy-only environment stays fully functional (just slower).
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

__all__ = ["HAVE_SPARSE_DFS", "chase_pointers", "depth_by_doubling",
           "binary_forest_numbering", "multiway_numbering"]


def chase_pointers(g: np.ndarray) -> np.ndarray:
    """Fixpoint of the pointer map ``g`` (``-1`` absorbs) by doubling."""
    for _ in range(max(1, int(np.ceil(np.log2(max(len(g), 2)))) + 1)):
        g2 = np.where(g == -1, -1, g[np.maximum(g, 0)])
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


def _dfs_preorder_from_keys(left: np.ndarray, right: np.ndarray,
                            key: np.ndarray, num_roots: int, key_space: int,
                            mirror: bool) -> Optional[np.ndarray]:
    """Preorder of a relabelled binary forest via one C-level DFS.

    ``key`` assigns every node a unique id in ``[0, key_space)`` such that
    ascending key order realises the desired visit order: roots first (keys
    ``0 .. num_roots-1`` in visit order), then ``base + 2*parent + side``
    for the children, where the child to be visited first holds the even
    key.  (The DFS scans each row in stored order and every row lists the
    child to visit first before the other, so any unique keys with the
    roots at ``0 .. num_roots-1`` visit the same order; this scheme also
    keeps every row sorted.)  The key space is used directly as the node-id
    space of the sparse graph — unused ids are isolated nodes the DFS never
    sees — so no compaction pass is needed.  int32 indices and float64
    weights are the dtypes csgraph uses internally, so passing them
    directly skips one conversion copy per call.
    """
    n = len(left)
    N = key_space + 1                               # + the super-root S
    S = N - 1
    counts = np.zeros(N, dtype=np.int32)
    deg = (left != -1).astype(np.int32)
    deg += right != -1
    counts[key] = deg
    counts[S] = num_roots
    indptr = np.zeros(N + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(n, dtype=np.int32)
    first, second = (right, left) if mirror else (left, right)
    has_first = np.flatnonzero(first != -1)
    has_second = np.flatnonzero(second != -1)
    indices[indptr[key[has_first]]] = key[first[has_first]]
    indices[indptr[key[has_second]] + (first[has_second] != -1)] = \
        key[second[has_second]]
    # the roots hold keys 0 .. num_roots-1, so S's row is sorted either way
    indices[indptr[S]:indptr[S] + num_roots] = np.arange(num_roots,
                                                         dtype=np.int32)

    graph = _csr_matrix((np.ones(n, dtype=np.float64), indices, indptr),
                        shape=(N, N))
    seq = _depth_first_order(graph, S, directed=True,
                             return_predecessors=False)
    if len(seq) != n + 1:
        return None
    pre_by_key = np.empty(N, dtype=np.int64)
    pre_by_key[np.asarray(seq, dtype=np.int64)] = np.arange(n + 1,
                                                            dtype=np.int64)
    return pre_by_key[key] - 1                      # drop the super-root


def sibling_chain_preorder(first: np.ndarray, nxt: np.ndarray,
                           root: int) -> Optional[np.ndarray]:
    """Preorder of a tree in first-child / next-sibling form.

    ``first[u]`` is the child of ``u`` visited first and ``nxt[u]`` the
    sibling visited after ``u`` (``-1`` for none); every node but ``root``
    must be exactly one node's ``first`` or ``nxt``.  Every node of the
    binary form has at most two children, so the C-level DFS stays linear
    however wide the multiway tree is.  Returns ``None`` when some node is
    unreachable from ``root``.
    """
    n = len(first)
    # keys only name the CSR rows (the row order is the visit order); the
    # root must hold key 0, the super-root's only child
    key = np.arange(n, dtype=np.int64)
    key[[0, root]] = key[[root, 0]]
    return _dfs_preorder_from_keys(first, nxt, key, 1, n, mirror=False)


def binary_forest_numbering(
        left, right, parent, roots,
        known_depth: Optional[np.ndarray] = None,
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """``(preorder, postorder, depth, subtree_size)`` of a binary forest.

    The roots' tours are chained in the given order (matching the Euler-tour
    convention).  ``known_depth`` skips the doubling rounds when the caller
    already holds the depths (they are invariant under child swaps).
    Returns ``None`` when scipy is unavailable or the inputs are not a
    forest rooted exactly at ``roots`` — callers then fall back to the
    list-ranking path.
    """
    if not HAVE_SPARSE_DFS:
        return None
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    roots = np.asarray(roots, dtype=np.int64)
    n = len(left)
    # int32 CSR headroom: relabelled ids reach base + 2n with base <= n + 1,
    # so the whole key space must fit int32
    if n == 0 or len(roots) == 0 or 3 * n + 4 > np.iinfo(np.int32).max:
        return None
    parentless = np.flatnonzero(parent == -1)
    if len(roots) != len(parentless) or \
            not np.array_equal(np.sort(roots), parentless):
        return None

    R = len(roots)
    base = (R + 1) // 2 * 2                         # even, so ^1 flips sides
    child = np.flatnonzero(parent != -1)
    is_right = (right[parent[child]] == child).astype(np.int64)
    key = np.empty(n, dtype=np.int64)
    key[child] = base + 2 * parent[child] + is_right
    key[roots] = np.arange(R, dtype=np.int64)
    pre = _dfs_preorder_from_keys(left, right, key, R, base + 2 * n,
                                  mirror=False)
    if pre is None:
        return None
    # the mirrored traversal flips every side bit and reverses the roots
    key[child] ^= 1
    key[roots] = np.arange(R - 1, -1, -1, dtype=np.int64)
    mpre = _dfs_preorder_from_keys(left, right, key, R, base + 2 * n,
                                   mirror=True)
    if mpre is None:  # pragma: no cover - first DFS already proved reachability
        return None
    post = n - 1 - mpre
    depth = known_depth if known_depth is not None \
        else depth_by_doubling(parent)
    size = post - pre + depth + 1
    return pre, post, depth, size


def multiway_numbering(child_offset, child_index, roots
                       ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``(preorder, subtree_size)`` of a multiway CSR forest.

    Siblings are visited in CSR order, except that every node's last leaf
    child swaps places with its last child; the roots' tours are chained
    in the given order (``-1`` entries, empty instances, are skipped).
    One C-level DFS runs on the first-child / next-sibling binary form:
    scipy's DFS rescans a node's adjacency row on every return to it, so a
    node with ``d`` children would cost ``O(d**2)``, while in the binary
    form every node has at most two.  A subtree ends where the next
    sibling of its nearest ancestor-or-self that has one begins; visiting
    a leaf last keeps the last-child chains that pointer jumping climbs
    short (one step on a caterpillar).  Returns ``None`` when scipy is
    unavailable or the arrays are not a forest rooted at ``roots``.
    """
    if not HAVE_SPARSE_DFS:
        return None
    child_offset = np.asarray(child_offset, dtype=np.int64)
    child_index = np.asarray(child_index, dtype=np.int64)
    roots = np.asarray(roots, dtype=np.int64)
    roots = roots[roots >= 0]
    n = len(child_offset) - 1
    if len(roots) == 0 or 2 * n + 3 > np.iinfo(np.int32).max:
        return None
    # the binary form's keys are unique only if every node is exactly one
    # root or one child slot; reachability is checked by the DFS itself
    slots = np.concatenate([child_index, roots])
    if len(slots) != n or slots.min() < 0 or slots.max() >= n or \
            np.bincount(slots, minlength=n).max() != 1:
        return None
    deg = np.diff(child_offset)
    has_kids = np.flatnonzero(deg > 0)
    ends = child_offset[has_kids + 1] - 1
    leaf_slot = np.maximum.reduceat(
        np.where(deg[child_index] == 0,
                 np.arange(len(child_index), dtype=np.int64), -1),
        child_offset[has_kids]) if len(has_kids) else ends
    swap = leaf_slot >= 0
    kids = child_index.copy()
    kids[ends[swap]] = child_index[leaf_slot[swap]]
    kids[leaf_slot[swap]] = child_index[ends[swap]]

    first = np.full(n, -1, dtype=np.int64)
    first[has_kids] = kids[child_offset[has_kids]]
    linked = np.ones(len(kids), dtype=bool)
    linked[ends] = False
    pos = np.flatnonzero(linked)
    older = np.append(kids[pos], roots[:-1])
    nxt = np.full(n, -1, dtype=np.int64)
    nxt[older] = np.append(kids[pos + 1], roots[1:])
    pre = sibling_chain_preorder(first, nxt, int(roots[0]))
    if pre is None:
        return None
    # climb from every last child to its parent, up to the nearest node
    # with a next sibling (or the last root)
    up = np.arange(n, dtype=np.int64)
    up[kids[ends]] = has_kids
    top = chase_pointers(up)
    after = nxt[top]
    end = np.where(after >= 0, pre[np.maximum(after, 0)], n)
    return pre, end - pre
