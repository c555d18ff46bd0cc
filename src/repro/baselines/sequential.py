"""The Lin–Olariu–Pruesse sequential minimum path cover (Lemma 2.3).

This is the ``O(n)`` algorithm the paper uses as its work-optimality yardstick
(reference [17]) and the reproduction's *independent* correctness oracle for
the parallel pipeline: it never touches the bracket machinery and follows the
bottom-up Case 1 / Case 2 construction of Section 2 directly.

Data structures: paths are doubly linked lists over the vertex ids (``nxt`` /
``prv`` arrays), and each cotree node's set of paths is itself a singly
linked list of path heads, so that

* a 0-node concatenates two path sets in O(1);
* a 1-node bridges paths in O(1) per bridge vertex and inserts the leftover
  join vertices by walking at most one path vertex per inserted vertex;

which keeps the total running time linear in ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from ..cograph import (
    BinaryCotree,
    Cotree,
    CotreeError,
    FlatCotree,
    PathCover,
    as_flat_cotree,
    binarize_cotree,
    make_leftist,
)
from ..cograph.cotree import JOIN, LEAF, UNION

__all__ = ["sequential_path_cover", "SequentialStats"]


@dataclass
class SequentialStats:
    """Operation counts of one run (used by the E2 linearity benchmark)."""

    num_vertices: int
    nodes_processed: int
    bridge_operations: int
    insert_operations: int

    @property
    def total_operations(self) -> int:
        return self.nodes_processed + self.bridge_operations + self.insert_operations


class _PathSet:
    """A linked list of paths (each path a doubly linked list of vertices).

    ``heads``/``tails`` chain the paths; concatenation of two sets is O(1).
    """

    __slots__ = ("first", "last", "count")

    def __init__(self) -> None:
        self.first: int = -1      # head vertex of the first path
        self.last: int = -1       # head vertex of the last path
        self.count: int = 0


def sequential_path_cover(tree: Union[Cotree, BinaryCotree, FlatCotree], *,
                          return_stats: bool = False):
    """Minimum path cover of a cograph in ``O(n)`` sequential time.

    Parameters
    ----------
    tree:
        general (``Cotree`` or ``FlatCotree``) or binarized cotree;
        vertices must be numbered ``0 .. n-1``.
    return_stats:
        when True, return ``(cover, stats)`` instead of just the cover.

    Returns
    -------
    PathCover or (PathCover, SequentialStats)
    """
    num_trees = 1 if isinstance(tree, Cotree) else len(tree.roots)
    if num_trees > 1:
        raise CotreeError(f"a forest of {num_trees} trees has no single "
                          f"sequential path cover; solve each tree")
    if isinstance(tree, BinaryCotree):
        binary = make_leftist(tree)
    else:
        if tree.num_vertices == 1:
            cover = PathCover([[int(tree.vertices[0])]])
            if return_stats:
                return cover, SequentialStats(1, 1, 0, 0)
            return cover
        binary = make_leftist(binarize_cotree(tree))

    n = binary.num_vertices
    L = binary.subtree_leaf_counts()

    # doubly linked path structure over vertices
    nxt = np.full(n, -1, dtype=np.int64)
    prv = np.full(n, -1, dtype=np.int64)
    # linked list of paths per live set: next_path[head] = head of next path
    next_path = np.full(n, -1, dtype=np.int64)
    # tail of each path, indexed by its head (maintained lazily)
    tail_of = np.arange(n, dtype=np.int64)

    stats = SequentialStats(num_vertices=n, nodes_processed=0,
                            bridge_operations=0, insert_operations=0)

    sets: dict = {}
    # the leaves of every subtree, left to right: a slice [lo, hi) of ids
    ids, lo, hi = as_flat_cotree(binary).leaf_spans()

    for u in binary.postorder():
        stats.nodes_processed += 1
        kind = binary.kind[u]
        if kind == LEAF:
            ps = _PathSet()
            v = int(binary.leaf_vertex[u])
            ps.first = ps.last = v
            ps.count = 1
            sets[u] = ps
            continue

        left, right = int(binary.left[u]), int(binary.right[u])
        if kind == UNION:
            a, b = sets.pop(left), sets.pop(right)
            if a.count == 0:
                sets[u] = b
            elif b.count == 0:
                sets[u] = a
            else:
                next_path[tail_path_head(a)] = b.first
                a.last = b.last
                a.count += b.count
                sets[u] = a
            continue

        # JOIN node: the right subtree's vertices bridge / insert into the
        # left subtree's paths.
        a = sets.pop(left)
        sets.pop(right, None)     # w's own structure is irrelevant
        w_vertices = ids[lo[right]:hi[right]].tolist()
        p_v = a.count
        L_w = int(L[right])

        if p_v > L_w:
            # Case 1: all of G(w) bridges; p(v) - L(w) paths remain.
            for b_vertex in w_vertices:
                stats.bridge_operations += 1
                _bridge_first_two(a, b_vertex, nxt, prv, next_path, tail_of)
            sets[u] = a
        else:
            # Case 2: p(v) - 1 bridges make one path, the rest is inserted.
            # The insert vertices are placed *before* bridging, into slots
            # whose flanks all lie in G(v): the interior gaps of the existing
            # paths plus the front of the first path and the back of the
            # last one (which never become bridge attachment points).
            bridges = w_vertices[:p_v - 1]
            inserts = list(w_vertices[p_v - 1:])

            # interior gaps first (both flanks are G(v) vertices), walking the
            # paths only as far as needed
            head = a.first
            while inserts and head != -1:
                v = head
                while inserts and nxt[v] != -1:
                    stats.insert_operations += 1
                    t = inserts.pop()
                    after = nxt[v]
                    nxt[v] = t
                    prv[t] = v
                    nxt[t] = after
                    prv[after] = t
                    v = after
                head = next_path[head]

            if inserts:
                # front-end slot of the first path
                stats.insert_operations += 1
                t = inserts.pop()
                old_head = a.first
                nxt[t] = old_head
                prv[old_head] = t
                prv[t] = -1
                tail_of[t] = tail_of[old_head]
                next_path[t] = next_path[old_head]
                next_path[old_head] = -1
                if a.last == old_head:
                    a.last = t
                a.first = t

            if inserts:
                # back-end slot of the last path (at most one vertex remains)
                stats.insert_operations += 1
                t = inserts.pop()
                last_head = a.last
                tail = tail_of[last_head]
                nxt[tail] = t
                prv[t] = tail
                nxt[t] = -1
                tail_of[last_head] = t
            if inserts:  # pragma: no cover - leftist condition guarantees room
                raise AssertionError("ran out of insertion slots")

            for b_vertex in bridges:
                stats.bridge_operations += 1
                _bridge_first_two(a, b_vertex, nxt, prv, next_path, tail_of)
            assert a.count == 1
            sets[u] = a

    final = sets[binary.root]
    paths: List[List[int]] = []
    h = final.first
    while h != -1:
        path = []
        v = h
        while v != -1:
            path.append(int(v))
            v = int(nxt[v])
        paths.append(path)
        h = int(next_path[h])
    cover = PathCover(paths)
    if return_stats:
        return cover, stats
    return cover


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #

def tail_path_head(ps: _PathSet) -> int:
    """Head vertex of the last path in the set."""
    return ps.last


def _bridge_first_two(ps: _PathSet, bridge_vertex: int, nxt, prv, next_path,
                      tail_of) -> None:
    """Join the first two paths of the set through ``bridge_vertex``."""
    h1 = ps.first
    h2 = next_path[h1]
    if h2 == -1:
        raise AssertionError("bridge requested but only one path remains")
    t1 = tail_of[h1]
    # t1 -> bridge -> h2
    nxt[t1] = bridge_vertex
    prv[bridge_vertex] = t1
    nxt[bridge_vertex] = h2
    prv[h2] = bridge_vertex
    # merge path records: h1 now ends at tail_of[h2]
    tail_of[h1] = tail_of[h2]
    nxt_path_after = next_path[h2]
    next_path[h1] = nxt_path_after
    next_path[h2] = -1
    if ps.last == h2:
        ps.last = h1
    ps.count -= 1
