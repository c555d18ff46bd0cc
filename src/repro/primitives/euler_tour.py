"""The Euler-tour technique for (binary) trees and forests — Lemma 5.2(1).

Every node ``v`` of a rooted binary tree contributes two *arcs* to the tour:
``enter(v)`` (the first visit, coming from the parent) and ``exit(v)`` (the
final departure back to the parent).  The tour of the whole tree is the
linked list

    enter(root), ..., exit(root)

obtained from the local successor rules

* ``succ(enter(v))`` = ``enter(left(v))`` if it exists, else
  ``enter(right(v))`` if it exists, else ``exit(v)``;
* ``succ(exit(v))`` = ``enter(right(parent))`` when ``v`` is a left child and
  a right sibling exists, else ``exit(parent)``, else the end of the tour.

Computing the successor array is a single O(1)-depth data-parallel step;
positions along the tour are then obtained by list ranking, after which every
tree statistic the paper needs (preorder/inorder/postorder numbers, depths,
subtree sizes, leaf counts) is a prefix sum over the tour order
(:mod:`repro.primitives.tree_numbering`).

Forests are handled by chaining the individual tours one after another, which
keeps all prefix computations correct per tree while using a single list
ranking.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..backends import resolve_context
from .list_ranking import list_ranks
from .scan import prefix_sum

__all__ = ["EulerTour", "build_euler_tour"]


class EulerTour:
    """The Euler tour of a binary forest.

    Arc ``v`` (``0 <= v < n``) is ``enter(v)``; arc ``n + v`` is ``exit(v)``.

    Attributes
    ----------
    successor:
        successor arc of each arc (``-1`` at the end of the chained tour).
        On the throughput path (positions derived from the DFS numbering)
        the array is materialised lazily on first access — nothing in the
        hot pipeline reads it.
    position:
        position of each arc along the (chained) tour, ``0`` first.
    num_nodes:
        number of tree nodes ``n`` (the tour has ``2n`` arcs).
    roots:
        the forest's root nodes, in the order their tours were chained.
    """

    __slots__ = ("_successor", "_successor_builder", "position", "num_nodes",
                 "roots")

    def __init__(self, successor, position, num_nodes: int, roots,
                 successor_builder=None) -> None:
        self._successor = successor
        self._successor_builder = successor_builder
        self.position = position
        self.num_nodes = num_nodes
        self.roots = roots

    @classmethod
    def from_positions(cls, position: np.ndarray, left: np.ndarray,
                       right: np.ndarray, parent: np.ndarray,
                       roots: np.ndarray) -> "EulerTour":
        """A tour whose arc positions were derived without ranking (the
        throughput path); the successor array is built on first access."""
        return cls(None, position, len(left), roots,
                   successor_builder=lambda: _chained_successors(
                       left, right, parent, roots))

    @property
    def successor(self) -> np.ndarray:
        if self._successor is None:
            self._successor = self._successor_builder()
        return self._successor

    def enter(self, nodes) -> np.ndarray:
        """Arc ids of ``enter(v)`` for the given nodes."""
        return np.asarray(nodes, dtype=np.int64)

    def exit(self, nodes) -> np.ndarray:
        """Arc ids of ``exit(v)`` for the given nodes."""
        return np.asarray(nodes, dtype=np.int64) + self.num_nodes

    def enter_position(self, nodes) -> np.ndarray:
        """Tour positions of the enter arcs."""
        return self.position[self.enter(nodes)]

    def exit_position(self, nodes) -> np.ndarray:
        """Tour positions of the exit arcs."""
        return self.position[self.exit(nodes)]

    def prefix_over_tour(self, ctx, arc_values,
                         *, inclusive: bool = True,
                         label: str = "tour-prefix") -> np.ndarray:
        """Prefix sums of per-arc values taken in tour order.

        Returns an array indexed by *arc id* whose entry is the prefix sum of
        ``arc_values`` over all arcs up to (and, if ``inclusive``, including)
        that arc in tour order.
        """
        machine = resolve_context(ctx)
        arc_values = np.asarray(arc_values, dtype=np.int64)
        if not machine.simulates:
            # permute into tour order, scan, permute back — one shot
            by_pos = np.zeros(2 * self.num_nodes, dtype=np.int64)
            by_pos[self.position] = arc_values
            scanned = np.cumsum(by_pos, dtype=np.int64)
            if not inclusive:
                scanned -= by_pos
            return scanned[self.position]
        by_pos = machine.array(2 * self.num_nodes, name=f"{label}.by-pos")
        arcs = np.arange(2 * self.num_nodes, dtype=np.int64)
        with machine.step(active=2 * self.num_nodes, label=f"{label}:permute"):
            # positions form a permutation, so the scatter is exclusive
            by_pos.scatter(self.position[arcs], arc_values[arcs])
        scanned = prefix_sum(machine, by_pos.data, inclusive=inclusive,
                             label=label)
        out_arr = machine.array(2 * self.num_nodes, name=f"{label}.out")
        with machine.step(active=2 * self.num_nodes, label=f"{label}:permute-back"):
            out_arr.scatter(arcs, scanned[self.position[arcs]])
        return out_arr.data.copy()


def build_euler_tour(ctx, left, right, parent,
                     roots: Sequence[int], *, work_efficient: bool = True,
                     label: str = "euler") -> EulerTour:
    """Build the Euler tour of a binary forest and rank it.

    Parameters
    ----------
    ctx:
        execution context (or a raw PRAM machine / backend name / ``None``).
    left, right, parent:
        binary-tree arrays (``-1`` where absent).
    roots:
        root node of every tree in the forest; their tours are chained in
        the given order.
    work_efficient:
        choose the work-efficient list ranking (default) or Wyllie pointer
        jumping.
    """
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    roots = np.asarray(list(roots), dtype=np.int64)
    n = len(left)
    machine = resolve_context(ctx)
    if n == 0:
        return EulerTour(np.empty(0, dtype=np.int64),
                         np.empty(0, dtype=np.int64), 0, roots)

    succ = machine.array(np.full(2 * n, -1, dtype=np.int64), name=f"{label}.succ")
    nodes = np.arange(n, dtype=np.int64)

    with machine.step(active=n, label=f"{label}:successors"):
        enter_succ, exit_succ = _local_successors(left, right, parent)
        succ.scatter(nodes, enter_succ)
        succ.scatter(nodes + n, exit_succ)

    # chain the individual tours: exit(root_i) -> enter(root_{i+1})
    if len(roots) > 1:
        with machine.step(active=len(roots) - 1, label=f"{label}:chain"):
            succ.scatter(roots[:-1] + n, roots[1:])

    # suffix sums with unit weights give "number of arcs from here to the
    # end"; position = total - suffix.
    ranks = list_ranks(machine, succ.data, None, work_efficient=work_efficient,
                       label=f"{label}:rank")
    position = (2 * n - ranks).astype(np.int64)
    return EulerTour(succ.data.copy(), position, n, roots)


def _local_successors(left: np.ndarray, right: np.ndarray,
                      parent: np.ndarray):
    """``succ(enter(v))`` and ``succ(exit(v))`` of every node by the local
    rules (one O(1)-depth data-parallel step)."""
    n = len(left)
    nodes = np.arange(n, dtype=np.int64)
    # successor of enter(v): down-left, else down-right, else exit(v)
    enter_succ = np.where(left != -1, left,
                 np.where(right != -1, right, nodes + n))
    # successor of exit(v): the right sibling of a left child, else
    # exit(parent), else the end of the tour
    has_parent = parent != -1
    is_left = np.zeros(n, dtype=bool)
    idx = np.flatnonzero(has_parent)
    is_left[idx] = left[parent[idx]] == idx
    right_sibling = np.full(n, -1, dtype=np.int64)
    right_sibling[idx] = np.where(is_left[idx], right[parent[idx]], -1)
    exit_succ = np.where(right_sibling != -1, right_sibling,
                np.where(has_parent, parent + n, -1))
    return enter_succ, exit_succ


def _chained_successors(left: np.ndarray, right: np.ndarray,
                        parent: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """The successor array of the chained tour (pure NumPy; the same rules
    as the machine-accounted construction in :func:`build_euler_tour`)."""
    succ = np.concatenate(_local_successors(left, right, parent))
    if len(roots) > 1:
        succ[roots[:-1] + len(left)] = roots[1:]
    return succ
