"""Ancestor aggregation: topmost marked ancestor, EREW-style.

The reduction step of the paper (building ``Tblr(G)``) needs, for every node,
the *topmost* marked ancestor on its root path — where a node is marked when
it is the right child of a 1-node.  Everything below such a mark is flattened
into bridge/insert leaves, owned by the 1-node just above the topmost mark.

Two implementations are provided:

* :func:`topmost_marked_ancestor` — EREW, built on the Euler tour: the
  *region roots* (marked nodes with no marked proper ancestor) have pairwise
  disjoint tour intervals, so the covering region root of any node is found
  with one prefix-maximum over the tour.  ``O(log n)`` rounds, ``O(n)`` work.
* :func:`topmost_marked_ancestor_jumping` — the simpler pointer-doubling
  version.  It performs concurrent reads of shared parent cells, so it is a
  CREW algorithm; it exists for the primitive comparison benchmarks and as an
  independent oracle in the tests.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..backends import resolve_context
from .euler_tour import build_euler_tour
from .scan import NEG_INF, prefix_max, prefix_sum

__all__ = ["topmost_marked_ancestor", "topmost_marked_ancestor_jumping"]


def topmost_marked_ancestor(ctx, left, right, parent,
                            roots: Sequence[int], marked, *,
                            work_efficient: bool = True,
                            label: str = "topmark") -> np.ndarray:
    """For every node of a binary forest, the marked ancestor closest to the
    root (the node itself counts), or ``-1`` when the root path is unmarked.

    EREW: one Euler tour, two scans, and permutation scatters/gathers.
    """
    marked = np.asarray(marked, dtype=bool)
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    n = len(marked)
    machine = resolve_context(ctx)
    if n == 0:
        return np.full(0, -1, dtype=np.int64)

    tour = build_euler_tour(machine, left, right, parent, roots,
                            work_efficient=work_efficient,
                            label=f"{label}.euler")
    nodes = np.arange(n, dtype=np.int64)
    enter_pos = tour.enter_position(nodes)
    exit_pos = tour.exit_position(nodes)

    # marked-ancestor count (self included): +1 entering a marked node, -1
    # leaving it.
    arc_vals = np.zeros(2 * n, dtype=np.int64)
    arc_vals[tour.enter(nodes[marked])] = 1
    arc_vals[tour.exit(nodes[marked])] = -1
    mark_depth_prefix = tour.prefix_over_tour(machine, arc_vals, inclusive=True,
                                              label=f"{label}.markdepth")
    mark_depth = mark_depth_prefix[tour.enter(nodes)]

    # region roots: marked nodes with no marked proper ancestor
    region_root = marked & (mark_depth == 1)

    # prefix-max over tour positions of "enter position of a region root";
    # because region-root intervals are pairwise disjoint, the most recent
    # region-root enter at or before enter(v) is the covering one (if v is
    # covered at all).
    rr_nodes = nodes[region_root]
    stamps_by_pos = np.full(2 * n, NEG_INF, dtype=np.int64)
    stamps_by_pos[enter_pos[rr_nodes]] = enter_pos[rr_nodes]
    last_rr_enter = prefix_max(machine, stamps_by_pos, inclusive=True,
                               label=f"{label}.cover")

    # map an enter position back to its node id
    node_at_pos = np.full(2 * n, -1, dtype=np.int64)
    node_at_pos[enter_pos] = nodes

    covering_enter = last_rr_enter[enter_pos]
    top = np.full(n, -1, dtype=np.int64)
    covered = mark_depth >= 1
    idx = np.flatnonzero(covered)
    if len(idx):
        with machine.step(active=len(idx), label=f"{label}:resolve"):
            cand = node_at_pos[covering_enter[idx]]
            # disjointness of region-root intervals guarantees the candidate
            # really covers the node; assert it for defence in depth.
            ok = (covering_enter[idx] > NEG_INF) & (exit_pos[cand] >= enter_pos[idx])
            if not np.all(ok):  # pragma: no cover - structural invariant
                raise AssertionError("region-root intervals are not disjoint")
            top[idx] = cand
    return top


def topmost_marked_ancestor_jumping(ctx, parent, marked, *,
                                    label: str = "topmark-crew") -> np.ndarray:
    """Pointer-doubling variant (CREW: children concurrently read their
    parent's cells).  Kept as an independent oracle and for the EREW/CREW
    comparison benchmark."""
    parent = np.asarray(parent, dtype=np.int64)
    marked = np.asarray(marked, dtype=bool)
    n = len(parent)
    machine = resolve_context(ctx)
    if n == 0:
        return np.full(0, -1, dtype=np.int64)

    best = machine.array(np.where(marked, np.arange(n), -1).astype(np.int64),
                         name=f"{label}.best")
    ptr = machine.array(parent, name=f"{label}.ptr")

    rounds = max(1, int(np.ceil(np.log2(max(n, 2)))) + 1)
    for _ in range(rounds):
        active = np.flatnonzero(ptr.data != -1)
        if len(active) == 0:
            break
        with machine.step(active=len(active), label=f"{label}:jump"):
            up = ptr.local(active)
            up_best = best.gather(up)
            my_best = best.local(active)
            # the ancestor's segment is closer to the root, so its candidate
            # wins whenever it exists
            new_best = np.where(up_best != -1, up_best, my_best)
            best.scatter(active, new_best)
            ptr.scatter(active, ptr.gather(up))
    return best.data.copy()
