"""Modular decomposition: the cotree generalized to arbitrary graphs.

The paper's world is cographs, whose modular decomposition tree *is* the
cotree — every internal node is a union (parallel) or join (series) node.
General graphs add one more kind: **prime** nodes, whose children are the
maximal proper strong modules and whose quotient graph (one vertex per
child) is prime, i.e. has no non-trivial module (Gallai 1967).  This module
produces that tree in the same :class:`~repro.cograph.flat.FlatCotree` CSR
form the whole stack already runs on, with the quotient edges packed into
CSR side-arrays (``q_offset`` / ``q_edge_u`` / ``q_edge_v``) whose endpoints
are *local child slots*, so the payload survives renumbering and forest
packing.

Two decomposition paths:

* **cograph fast path** — :func:`md_tree` first runs the existing
  linear-ish :func:`~repro.cograph.recognition.cotree_from_graph`; when it
  succeeds the result is the bit-identical cotree the rest of the stack has
  always produced (the no-prime special case costs nothing new).
* **general path** — on :class:`~repro.cograph.recognition.NotACographError`
  a recursive decomposition takes over: disconnected → union node over the
  components, co-disconnected → join node over the co-components, otherwise
  a prime node.  Prime children are found by a **spider** fast path (the
  quotients of P4-sparse graphs — Jamison & Olariu 1992 — recognised in
  ``O(n + m)`` per node from the degree sequence) with a Gallai fallback
  (union-find over vectorized module closures) that is quadratic-ish but
  exact on arbitrary graphs.

Spider-flagged primes store their children in the fixed layout
``[s_1..s_k, k_1..k_k, (r)]`` (feet, matched body vertices, optional head)
so the DP engine's closed-form spider combine needs no edge scan.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .cotree import JOIN, LEAF, PRIME, UNION
from .flat import FlatCotree, _children_csr, as_flat_cotree
from .graph import Graph
from .recognition import NotACographError, cotree_from_graph

__all__ = [
    "md_tree",
    "graph_from_md_tree",
    "SPIDER_NONE",
    "SPIDER_THIN",
    "SPIDER_THICK",
]

#: ``spider`` flag values on :class:`FlatCotree` prime nodes.
SPIDER_NONE: int = 0
SPIDER_THIN: int = 1
SPIDER_THICK: int = 2


# --------------------------------------------------------------------------- #
# public entry points
# --------------------------------------------------------------------------- #

def md_tree(graph: Graph) -> FlatCotree:
    """Modular decomposition tree of ``graph`` as a :class:`FlatCotree`.

    Cograph inputs return the **bit-identical** flat cotree that
    ``as_flat_cotree(cotree_from_graph(graph))`` has always produced (no
    prime nodes, no payload).  Non-cograph inputs get a tree with at least
    one :data:`~repro.cograph.cotree.PRIME` node carrying its quotient
    edges; spider quotients (the P4-sparse case) are flagged and laid out
    for the closed-form DP combine.
    """
    try:
        return as_flat_cotree(cotree_from_graph(graph))
    except NotACographError:
        pass
    builder = _Builder()
    root = builder.decompose(graph, list(range(graph.n)))
    return builder.finish(root)


def graph_from_md_tree(tree) -> Graph:
    """Materialise the graph a modular decomposition tree represents.

    Inverse of :func:`md_tree` up to isomorphism of the decomposition: two
    leaves are adjacent iff their lowest common ancestor is a join node, or
    a prime node whose quotient joins the two child slots they sit under.
    Accepts plain cotrees too (where it matches ``Graph.from_cotree``).
    """
    flat = as_flat_cotree(tree)
    nn = flat.num_nodes
    if nn == 0:
        return Graph(0)
    leaves = flat.leaves
    n = int(flat.leaf_vertex[leaves].max()) + 1 if len(leaves) else 0
    depth = flat.depth
    order = np.argsort(depth, kind="stable")[::-1]          # deepest first
    leafset: List[Optional[np.ndarray]] = [None] * nn
    eu: List[np.ndarray] = []
    ev: List[np.ndarray] = []
    for u in order:
        u = int(u)
        if flat.kind[u] == LEAF:
            leafset[u] = flat.leaf_vertex[u:u + 1]
            continue
        kids = flat.children_of(u)
        sets = [leafset[int(c)] for c in kids]
        leafset[u] = np.concatenate(sets) if sets else \
            np.empty(0, dtype=np.int64)
        if flat.kind[u] == JOIN:
            pairs: Sequence[Tuple[int, int]] = [
                (i, j) for i in range(len(kids))
                for j in range(i + 1, len(kids))]
        elif flat.kind[u] == PRIME:
            qu, qv = flat.quotient_of(u)
            pairs = list(zip(qu.tolist(), qv.tolist()))
        else:
            pairs = []
        for i, j in pairs:
            a, b = sets[i], sets[j]
            eu.append(np.repeat(a, len(b)))
            ev.append(np.tile(b, len(a)))
    if not eu:
        return Graph(n)
    edges = np.stack([np.concatenate(eu), np.concatenate(ev)], axis=1)
    return Graph.from_edge_array(n, edges)


# --------------------------------------------------------------------------- #
# recursive decomposition
# --------------------------------------------------------------------------- #

class _Builder:
    """Accumulates nodes (postorder ids) and packs them into a FlatCotree."""

    def __init__(self) -> None:
        self.kind: List[int] = []
        self.children: List[List[int]] = []
        self.leaf_vertex: List[int] = []
        self.q_edges: List[List[Tuple[int, int]]] = []
        self.spider: List[int] = []

    def leaf(self, vertex: int) -> int:
        self.kind.append(LEAF)
        self.children.append([])
        self.leaf_vertex.append(vertex)
        self.q_edges.append([])
        self.spider.append(SPIDER_NONE)
        return len(self.kind) - 1

    def internal(self, kind: int, kids: List[int],
                 q_edges: Sequence[Tuple[int, int]] = (),
                 spider: int = SPIDER_NONE) -> int:
        self.kind.append(kind)
        self.children.append(kids)
        self.leaf_vertex.append(-1)
        self.q_edges.append(list(q_edges))
        self.spider.append(spider)
        return len(self.kind) - 1

    def decompose(self, g: Graph, ids: List[int]) -> int:
        """MD of induced subgraph ``g``; ``ids[v]`` is the original vertex
        id of local vertex ``v``.  Returns the subtree's root node id."""
        if g.n == 1:
            return self.leaf(ids[0])

        comps = g.connected_components()
        if len(comps) > 1:
            return self.internal(
                UNION, [self._recurse(g, ids, comp) for comp in comps])

        cocomps = g.complement_components()
        if len(cocomps) > 1:
            return self.internal(
                JOIN, [self._recurse(g, ids, comp) for comp in cocomps])

        # g and its complement are connected: prime node.
        hit = _spider_partition(g)
        if hit is not None:
            pairs, rest, thin = hit
            pairs = sorted(pairs, key=lambda p: ids[p[0]])  # deterministic
            kids = [self.leaf(ids[s]) for s, _ in pairs]
            kids += [self.leaf(ids[k]) for _, k in pairs]
            if rest:
                kids.append(self._recurse(g, ids, rest))
            edges = _spider_quotient_edges(len(pairs), bool(rest), thin)
            return self.internal(PRIME, kids, edges,
                                 SPIDER_THIN if thin else SPIDER_THICK)

        parts = _gallai_partition(g)
        parts.sort(key=lambda p: min(ids[v] for v in p))
        kids = [self.leaf(ids[p[0]]) if len(p) == 1
                else self._recurse(g, ids, p) for p in parts]
        reps = [p[0] for p in parts]
        edges = [(i, j) for i in range(len(reps))
                 for j in range(i + 1, len(reps))
                 if g.has_edge(reps[i], reps[j])]
        return self.internal(PRIME, kids, edges, SPIDER_NONE)

    def _recurse(self, g: Graph, ids: List[int],
                 vertices: Sequence[int]) -> int:
        vs = sorted(vertices)
        sub, back = g.induced_subgraph(vs)
        return self.decompose(sub, [ids[back[i]] for i in range(sub.n)])

    def finish(self, root: int) -> FlatCotree:
        n = len(self.kind)
        child_offset, child_index = _children_csr(self.children)
        parent = np.full(n, -1, dtype=np.int64)
        parent[child_index] = np.repeat(np.arange(n, dtype=np.int64),
                                        np.diff(child_offset))
        q_offset, q_edges = _children_csr(self.q_edges)
        q_edges = q_edges.reshape(-1, 2)
        return FlatCotree(
            np.asarray(self.kind, dtype=np.int8), child_offset, child_index,
            parent, np.asarray(self.leaf_vertex, dtype=np.int64), root,
            q_offset=q_offset, q_edge_u=q_edges[:, 0].copy(),
            q_edge_v=q_edges[:, 1].copy(),
            spider=np.asarray(self.spider, dtype=np.int8))


# --------------------------------------------------------------------------- #
# prime-node partitions
# --------------------------------------------------------------------------- #

def _spider_quotient_edges(k: int, has_head: bool,
                           thin: bool) -> List[Tuple[int, int]]:
    """Explicit quotient edges of a spider in the ``[s_*, k_*, (r)]``
    child-slot layout (so generic consumers need no spider special case)."""
    edges: List[Tuple[int, int]] = []
    for i in range(k):                       # body clique
        for j in range(i + 1, k):
            edges.append((k + i, k + j))
    for i in range(k):                       # feet attachment
        if thin:
            edges.append((i, k + i))
        else:
            for j in range(k):
                if j != i:
                    edges.append((i, k + j))
    if has_head:                             # head sees the whole body
        for i in range(k):
            edges.append((k + i, 2 * k))
    return edges


def _spider_partition(
        g: Graph) -> Optional[Tuple[List[Tuple[int, int]], List[int], bool]]:
    """Detect a spider partition ``(S, K, R)`` of connected, co-connected
    ``g``: ``K`` a clique, ``S`` a stable set, ``|S| = |K| = k >= 2``,
    ``K`` complete to ``R``, ``S`` anticomplete to ``R``, and the feet
    matched to the body (thin: ``s_i ~ k_i`` only; thick: ``s_i ~ K \\
    {k_i}``).  Every axiom is verified, so a hit proves the maximal strong
    modules are exactly ``{s_i}``, ``{k_i}`` and ``R`` and the quotient is
    a prime spider.  Returns ``(pairs, R, thin)`` with ``pairs[i] = (s_i,
    k_i)`` or ``None``.
    """
    thin = _thin_spider(g)
    if thin is not None:
        return thin
    return _thick_spider(g)


def _thin_spider(
        g: Graph) -> Optional[Tuple[List[Tuple[int, int]], List[int], bool]]:
    S = [v for v in range(g.n) if g.degree(v) == 1]
    k = len(S)
    if k < 2:
        return None
    sset = set(S)
    body = [next(iter(g.adj[s])) for s in S]
    kset = set(body)
    if len(kset) != k or kset & sset:
        return None
    rest = [v for v in range(g.n) if v not in kset and v not in sset]
    rset = set(rest)
    for s, kv in zip(S, body):
        if g.adj[kv] != (kset - {kv}) | rset | {s}:
            return None
    return list(zip(S, body)), rest, True


def _thick_spider(
        g: Graph) -> Optional[Tuple[List[Tuple[int, int]], List[int], bool]]:
    dmin = min(g.degree(v) for v in range(g.n))
    k = dmin + 1
    if k < 3:
        return None
    S = [v for v in range(g.n) if g.degree(v) == dmin]
    if len(S) != k:
        return None
    sset = set(S)
    kset: set = set()
    for s in S:
        kset |= g.adj[s]
    if len(kset) != k or kset & sset:
        return None
    rest = [v for v in range(g.n) if v not in kset and v not in sset]
    rset = set(rest)
    pairs: List[Tuple[int, int]] = []
    used: set = set()
    for s in S:
        missing = kset - g.adj[s]
        if len(missing) != 1:
            return None
        kv = missing.pop()
        if kv in used:
            return None
        used.add(kv)
        pairs.append((s, kv))
    for s, kv in pairs:
        if g.adj[kv] != (kset - {kv}) | (sset - {s}) | rset:
            return None
    return pairs, rest, False


def _gallai_partition(g: Graph) -> List[List[int]]:
    """Maximal proper modules of connected, co-connected ``g`` (they
    partition the vertices and the quotient is prime — Gallai).

    Union-find over pairwise module closures: ``closure({u, v})`` grows by
    adding every splitter (a vertex adjacent to some but not all current
    members) until none remain; when the closure is proper, all its members
    share a maximal module.  Transitivity holds exactly because ``g`` and
    its complement are connected (overlapping proper modules live inside
    one maximal module), so union-find classes are the partition.
    """
    n = g.n
    adj = np.zeros((n, n), dtype=bool)
    for u in range(n):
        for v in g.adj[u]:
            adj[u, v] = True

    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u in range(n):
        for v in range(u + 1, n):
            if find(u) == find(v):
                continue
            members = _module_closure(adj, u, v)
            if members is None:
                continue
            ru = find(int(members[0]))
            for w in members[1:]:
                rw = find(int(w))
                if rw != ru:
                    parent[rw] = ru
    groups: dict = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return [sorted(vs) for vs in groups.values()]


def _module_closure(adj: np.ndarray, u: int,
                    v: int) -> Optional[np.ndarray]:
    """Smallest module containing ``{u, v}``; ``None`` when it is all of
    ``V``.  Each round adds *all* current splitters at once (vectorized
    against the boolean adjacency matrix), so at most ``n`` rounds run."""
    n = len(adj)
    member = np.zeros(n, dtype=bool)
    member[u] = member[v] = True
    size = 2
    while True:
        cnt = adj[:, member].sum(axis=1)
        split = ~member & (cnt > 0) & (cnt < size)
        if not split.any():
            return np.flatnonzero(member)
        member |= split
        size = int(member.sum())
        if size == n:
            return None
