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

The tree comes from the one decomposer,
:func:`~repro.cograph.recognition.decompose` with ``modular=True``: twin
peeling and the union/join splits run once, and only a part that is
connected and co-connected reaches this module's :func:`prime_partition`.
Its children are found by a **spider** fast path (the quotients of
P4-sparse graphs — Jamison & Olariu 1992 — recognised in ``O(n + m)`` per
node from the degree sequence) with a Gallai fallback (union-find over
vectorized module closures) that is exact on arbitrary graphs but builds a
dense adjacency matrix and runs ``O(k^2)`` closures on a ``k``-vertex part.
A cograph input gets the bit-identical cotree of
:func:`~repro.cograph.cotree_from_graph` (no prime nodes, no payload).

Spider-flagged primes store their children in the fixed layout
``[s_1..s_k, k_1..k_k, (r)]`` (feet, matched body vertices, optional head)
so the DP engine's closed-form spider combine needs no edge scan.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .cotree import JOIN, LEAF, PRIME
from .flat import FlatCotree, as_flat_cotree
from .graph import Graph
from .recognition import decompose

__all__ = [
    "md_tree",
    "graph_from_md_tree",
    "prime_partition",
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

def md_tree(graph) -> FlatCotree:
    """Modular decomposition tree of ``graph`` (a :class:`Graph` or
    :class:`~repro.cograph.graph.CSRGraph`) as a :class:`FlatCotree`.

    Cograph inputs return the **bit-identical** flat cotree that
    ``as_flat_cotree(cotree_from_graph(graph))`` produces (no prime nodes,
    no payload).  Non-cograph inputs get a tree, numbered in postorder,
    with at least one :data:`~repro.cograph.cotree.PRIME` node carrying
    its quotient edges; spider quotients (the P4-sparse case) are flagged
    and laid out for the closed-form DP combine.
    """
    return decompose(graph, modular=True)


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


def prime_partition(adj: Dict[int, Set[int]], plain: Set[int]
                    ) -> Tuple[List[List[int]], List[Tuple[int, int]], int]:
    """Children and quotient of a connected, co-connected part.

    ``adj`` maps each vertex of the part, in ascending order, to its
    neighbours inside the part; ``plain`` holds the vertices that stand
    for one input vertex (feet and body of a spider must).  Returns the
    maximal strong modules as ascending vertex lists in child-slot order,
    the quotient edges as slot pairs ``i < j``, and the spider flag.

    A spider partition ``(S, K, R)`` comes first: ``K`` a clique, ``S`` a
    stable set, ``|S| = |K| = k >= 2``, ``K`` complete to ``R``, ``S``
    anticomplete to ``R``, and the feet matched to the body (thin:
    ``s_i ~ k_i`` only; thick: ``s_i ~ K \\ {k_i}``).  Every axiom is
    verified, so a hit proves the maximal strong modules are exactly
    ``{s_i}``, ``{k_i}`` and ``R`` and the quotient is a prime spider.
    Otherwise the Gallai partition decides.
    """
    hit = _thin_spider(adj) or _thick_spider(adj)
    if hit is not None and plain.issuperset(v for pair in hit[0]
                                            for v in pair):
        pairs, rest, thin = hit
        parts = [[s] for s, _ in pairs] + [[k] for _, k in pairs]
        edges = _spider_quotient_edges(len(pairs), bool(rest), thin)
        return (parts + [rest] if rest else parts), edges, \
            SPIDER_THIN if thin else SPIDER_THICK
    parts = sorted(_gallai_partition(adj))
    reps = [p[0] for p in parts]
    edges = [(i, j) for i in range(len(reps))
             for j in range(i + 1, len(reps)) if reps[j] in adj[reps[i]]]
    return parts, edges, SPIDER_NONE


def _thin_spider(adj: Dict[int, Set[int]]
                 ) -> Optional[Tuple[List[Tuple[int, int]], List[int], bool]]:
    S = [v for v in adj if len(adj[v]) == 1]
    k = len(S)
    if k < 2:
        return None
    sset = set(S)
    body = [next(iter(adj[s])) for s in S]
    kset = set(body)
    if len(kset) != k or kset & sset:
        return None
    rest = [v for v in adj if v not in kset and v not in sset]
    rset = set(rest)
    for s, kv in zip(S, body):
        if adj[kv] != (kset - {kv}) | rset | {s}:
            return None
    return list(zip(S, body)), rest, True


def _thick_spider(adj: Dict[int, Set[int]]
                  ) -> Optional[Tuple[List[Tuple[int, int]], List[int], bool]]:
    dmin = min(len(nbrs) for nbrs in adj.values())
    k = dmin + 1
    if k < 3:
        return None
    S = [v for v in adj if len(adj[v]) == dmin]
    if len(S) != k:
        return None
    sset = set(S)
    kset: set = set()
    for s in S:
        kset |= adj[s]
    if len(kset) != k or kset & sset:
        return None
    rest = [v for v in adj if v not in kset and v not in sset]
    rset = set(rest)
    pairs: List[Tuple[int, int]] = []
    used: set = set()
    for s in S:
        missing = kset - adj[s]
        if len(missing) != 1:
            return None
        kv = missing.pop()
        if kv in used:
            return None
        used.add(kv)
        pairs.append((s, kv))
    for s, kv in pairs:
        if adj[kv] != (kset - {kv}) | (sset - {s}) | rset:
            return None
    return pairs, rest, False


def _gallai_partition(adj: Dict[int, Set[int]]) -> List[List[int]]:
    """Maximal proper modules of connected, co-connected ``adj`` (they
    partition the vertices and the quotient is prime — Gallai), as
    ascending vertex lists.

    Union-find over pairwise module closures: ``closure({u, v})`` grows by
    adding every splitter (a vertex adjacent to some but not all current
    members) until none remain; when the closure is proper, all its members
    share a maximal module.  Transitivity holds exactly because the graph
    and its complement are connected (overlapping proper modules live
    inside one maximal module), so union-find classes are the partition.
    """
    verts = list(adj)
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    matrix = np.zeros((n, n), dtype=bool)
    for v in verts:
        matrix[index[v], [index[w] for w in adj[v]]] = True

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
            members = _module_closure(matrix, u, v)
            if members is None:
                continue
            ru = find(int(members[0]))
            for w in members[1:]:
                rw = find(int(w))
                if rw != ru:
                    parent[rw] = ru
    groups: dict = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(verts[i])
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
