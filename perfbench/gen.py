"""Seeded instance generators: cotrees built directly as flat arrays.

Every generator here is loop-free NumPy (or a plain loop over at most one
entry per node), so a 10^5-vertex instance takes milliseconds rather than
the seconds of the recursive library generators, and deep shapes never
touch recursion.  All three shapes are *canonical* cotrees: every internal
node has at least two children and labels alternate along every path,
which is what the solver expects of wire-format input.

A tree is a :class:`Tree` of parent pointers; :meth:`Tree.csr` gives the
child arrays the wire format and the oracle use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.cograph.cotree import JOIN, LEAF, UNION

__all__ = ["Tree", "random_tree", "balanced_tree", "caterpillar_tree",
           "log_uniform_sizes", "to_text", "node_depths"]


@dataclass
class Tree:
    """A rooted cotree as arrays (leaves carry vertex ids ``0..n-1``)."""

    kind: np.ndarray          # int8: LEAF / UNION / JOIN
    parent: np.ndarray        # int64, -1 at the root
    leaf_vertex: np.ndarray   # int64, -1 at internal nodes
    root: int

    @property
    def num_vertices(self) -> int:
        return int(np.count_nonzero(self.kind == LEAF))

    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(child_offset, child_index)``: children grouped by parent."""
        nodes = np.flatnonzero(self.parent >= 0)
        order = nodes[np.argsort(self.parent[nodes], kind="stable")]
        counts = np.bincount(self.parent[nodes], minlength=len(self.kind))
        offset = np.zeros(len(self.kind) + 1, dtype=np.int64)
        np.cumsum(counts, out=offset[1:])
        return offset, order.astype(np.int64)


def _build(parent: np.ndarray, is_leaf: np.ndarray, root_kind: int,
           rng: np.random.Generator) -> Tree:
    """Stamp kinds and a random vertex labelling onto a parent array."""
    n_nodes = len(parent)
    kind = np.full(n_nodes, LEAF, dtype=np.int8)
    internal = np.flatnonzero(~is_leaf)
    depth = node_depths(parent)
    other = UNION if root_kind == JOIN else JOIN
    kind[internal] = np.where(depth[internal] % 2 == 0, root_kind, other)
    leaf_vertex = np.full(n_nodes, -1, dtype=np.int64)
    leaves = np.flatnonzero(is_leaf)
    leaf_vertex[leaves] = rng.permutation(len(leaves))
    root = int(np.flatnonzero(parent < 0)[0])
    return Tree(kind=kind, parent=parent.astype(np.int64),
                leaf_vertex=leaf_vertex, root=root)


def node_depths(parent: np.ndarray) -> np.ndarray:
    """Depth of every node (root 0) by pointer jumping.

    ``jump[u]`` is an ancestor of ``u`` and ``dist[u]`` the hops to it;
    doubling both until every jump reaches the root's sentinel takes
    ``O(log height)`` vectorized passes on any shape.
    """
    n = len(parent)
    jump = parent.astype(np.int64).copy()
    dist = (jump >= 0).astype(np.int64)
    live = np.flatnonzero(jump >= 0)
    while len(live):
        target = jump[live]
        dist[live] += dist[target]
        jump[live] = jump[target]
        live = live[jump[live] >= 0]
    return dist if n else np.zeros(0, dtype=np.int64)


def random_tree(n: int, rng: np.random.Generator,
                root_kind: int = None) -> Tree:
    """A random-shape canonical cotree over ``n`` vertices.

    The internal nodes form a random recursive tree (node ``i`` hangs under
    a uniform earlier node, so the height is ``O(log n)`` and arities vary
    widely); every internal node then receives the leaves it needs to have
    at least two children, and the remaining leaves land on uniformly
    random internal nodes.
    """
    if root_kind is None:
        root_kind = JOIN if rng.random() < 0.5 else UNION
    if n == 1:
        return Tree(kind=np.array([LEAF], np.int8),
                    parent=np.array([-1], np.int64),
                    leaf_vertex=np.array([0], np.int64), root=0)
    m = max(1, n // 2)
    iparent = np.empty(m, dtype=np.int64)
    iparent[0] = -1
    if m > 1:
        iparent[1:] = (rng.random(m - 1) * np.arange(1, m)).astype(np.int64)
    counts = np.bincount(iparent[1:], minlength=m)
    need = np.maximum(0, 2 - counts)
    extra = n - int(need.sum())
    leaf_parent = np.concatenate([np.repeat(np.arange(m), need),
                                  rng.integers(0, m, extra)])
    parent = np.concatenate([iparent, leaf_parent])
    is_leaf = np.zeros(m + n, dtype=bool)
    is_leaf[m:] = True
    return _build(parent, is_leaf, root_kind, rng)


def balanced_tree(n: int, rng: np.random.Generator,
                  root_kind: int = None) -> Tree:
    """A complete binary cotree over ``n`` vertices (height ``ceil(log2
    n)``), heap-numbered: the children of node ``i`` are ``2i+1, 2i+2``."""
    if root_kind is None:
        root_kind = JOIN if rng.random() < 0.5 else UNION
    total = 2 * n - 1
    parent = (np.arange(total, dtype=np.int64) - 1) // 2
    parent[0] = -1
    is_leaf = np.zeros(total, dtype=bool)
    is_leaf[n - 1:] = True
    return _build(parent, is_leaf, root_kind, rng)


def caterpillar_tree(n: int, rng: np.random.Generator,
                     root_kind: int = None) -> Tree:
    """A caterpillar cotree (a threshold graph): a spine of ``n - 1``
    alternating internal nodes, each with one leaf, so height is ``n - 1``."""
    if root_kind is None:
        root_kind = JOIN if rng.random() < 0.5 else UNION
    spine = n - 1
    parent = np.empty(spine + n, dtype=np.int64)
    parent[:spine] = np.arange(-1, spine - 1)
    parent[spine:spine + spine] = np.arange(spine)
    parent[-1] = spine - 1          # the bottom spine node takes two leaves
    is_leaf = np.zeros(spine + n, dtype=bool)
    is_leaf[spine:] = True
    return _build(parent, is_leaf, root_kind, rng)


def log_uniform_sizes(count: int, low: int, high: int,
                      rng: np.random.Generator) -> List[int]:
    """``count`` sizes, log-uniform in ``[low, high]``, stratified: one
    jittered draw per equal-width stratum of ``log n``, in random order.

    Stratifying keeps the size mix of every seed close to the intended
    distribution, so seeds differ in their instances, not in their load.
    """
    u = (np.arange(count) + rng.random(count)) / count
    sizes = np.exp(np.log(low) + u * (np.log(high) - np.log(low)))
    return [int(round(s)) for s in sizes[rng.permutation(count)]]


def to_text(tree: Tree) -> str:
    """Cotree text (``*`` join, ``+`` union), written without recursion."""
    offset, index = tree.csr()
    kind = tree.kind.tolist()
    vertex = tree.leaf_vertex.tolist()
    out: List[str] = []
    stack = [(tree.root, 0)]
    while stack:
        node, pos = stack.pop()
        if kind[node] == LEAF:
            out.append(str(vertex[node]))
            continue
        lo, hi = int(offset[node]), int(offset[node + 1])
        if pos == 0:
            out.append("(")
        elif lo + pos < hi:
            out.append(" * " if kind[node] == JOIN else " + ")
        if lo + pos < hi:
            stack.append((node, pos + 1))
            stack.append((int(index[lo + pos]), 0))
        else:
            out.append(")")
    return "".join(out)
