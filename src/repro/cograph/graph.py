"""Explicit graphs: :class:`CSRGraph`, what a graph input becomes, and the
small set-based :class:`Graph` used by the validators, the brute-force
baseline, the examples and the tests.

The algorithms of the paper never materialise the cograph — they work on
the cotree — but a downstream user usually starts from an ordinary graph.
Edge lists, adjacency dicts and serialised graphs are read into a
:class:`CSRGraph` (offsets plus one sorted neighbour array, built by one
sort), which the decomposer in :mod:`repro.cograph.recognition` consumes.
:class:`Graph` keeps one Python set per vertex: an independent notion of
adjacency to check path covers against, for inputs up to a few thousand
vertices.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

import numpy as np

__all__ = ["Graph", "CSRGraph", "components", "co_components"]


class Graph:
    """An undirected simple graph over vertices ``0 .. n-1`` (adjacency sets)."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = int(n)
        self.adj: List[Set[int]] = [set() for _ in range(self.n)]
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_adjacency(cls, adj: Dict[int, Iterable[int]]) -> "Graph":
        """Build from a ``{vertex: neighbours}`` mapping (vertices 0..n-1);
        see :meth:`CSRGraph.from_adjacency`."""
        return CSRGraph.from_adjacency(adj).to_graph()

    @classmethod
    def from_edge_array(cls, n: int, edges) -> "Graph":
        """Build from an ``(m, 2)`` integer array without per-edge Python;
        see :meth:`CSRGraph.from_edges`."""
        return CSRGraph.from_edges(n, edges).to_graph()

    @classmethod
    def from_cotree(cls, cotree) -> "Graph":
        """Materialise the cograph represented by a cotree."""
        adj = cotree.adjacency_sets()
        n = cotree.num_vertices
        g = cls(n)
        for u, nbrs in adj.items():
            for v in nbrs:
                if u < v:
                    g.add_edge(u, v)
        return g

    def to_csr(self) -> "CSRGraph":
        """This graph in CSR form (what the decomposer consumes)."""
        edges = np.fromiter(chain.from_iterable(self.edges()), dtype=np.int64)
        return CSRGraph.from_edges(self.n, edges.reshape(-1, 2))

    def add_edge(self, u: int, v: int) -> None:
        """Add an undirected edge (self-loops are rejected)."""
        if u == v:
            raise ValueError("self-loops are not allowed")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
        self.adj[u].add(v)
        self.adj[v].add(u)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def has_edge(self, u: int, v: int) -> bool:
        """True when ``{u, v}`` is an edge."""
        return v in self.adj[u]

    def degree(self, u: int) -> int:
        """Degree of ``u``."""
        return len(self.adj[u])

    def num_edges(self) -> int:
        """Number of edges."""
        return sum(len(a) for a in self.adj) // 2

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate edges as ordered pairs ``(u, v)`` with ``u < v``."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def neighbours(self, u: int) -> Set[int]:
        """The neighbour set of ``u`` (do not mutate)."""
        return self.adj[u]

    def vertices(self) -> range:
        """The vertex range ``0 .. n-1``."""
        return range(self.n)

    # ------------------------------------------------------------------ #
    # derived graphs
    # ------------------------------------------------------------------ #

    def complement(self) -> "Graph":
        """The complement graph."""
        g = Graph(self.n)
        for u in range(self.n):
            g.adj[u] = set(range(self.n)) - self.adj[u] - {u}
        return g

    def induced_subgraph(self, vertices: Sequence[int]) -> Tuple["Graph", Dict[int, int]]:
        """Induced subgraph on ``vertices``.

        Returns the subgraph (with vertices renumbered ``0..k-1``) and the
        mapping from new ids back to original ids.
        """
        vs = list(vertices)
        index = {v: i for i, v in enumerate(vs)}
        g = Graph(len(vs))
        for v in vs:
            for w in self.adj[v]:
                if w in index and v < w:
                    g.add_edge(index[v], index[w])
        back = {i: v for v, i in index.items()}
        return g, back

    # ------------------------------------------------------------------ #
    # connectivity
    # ------------------------------------------------------------------ #

    def connected_components(self) -> List[List[int]]:
        """Connected components as vertex lists."""
        return components(self.adj, range(self.n))

    def complement_components(self) -> List[List[int]]:
        """Connected components of the *complement*, computed without
        materialising it (see :func:`co_components`)."""
        return co_components(self.adj, range(self.n))

    def is_connected(self) -> bool:
        """True for the empty graph and any connected graph."""
        if self.n <= 1:
            return True
        return len(self.connected_components()) == 1

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #

    def copy(self) -> "Graph":
        """Deep copy."""
        g = Graph(self.n)
        g.adj = [set(a) for a in self.adj]
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.n}, m={self.num_edges()})"


class CSRGraph:
    """An undirected simple graph over ``0 .. n-1`` in CSR form: the
    neighbours of ``u`` are ``nbr[offset[u]:offset[u + 1]]``, sorted, and
    every edge is listed from both ends.  Read-only; the query surface
    mirrors :class:`Graph`."""

    __slots__ = ("n", "offset", "nbr")

    def __init__(self, n: int, offset: np.ndarray, nbr: np.ndarray) -> None:
        self.n, self.offset, self.nbr = int(n), offset, nbr

    @classmethod
    def from_edges(cls, n: int, edges) -> "CSRGraph":
        """Build from an ``(m, 2)`` integer array: range and self-loop
        checks, symmetrisation and deduplication are one sort of the
        ``u * n + v`` keys and a few array passes, with no per-vertex or
        per-edge Python.  At most ``2**31`` vertices (their offsets alone
        would take 16 GiB), so a key fits in 64 bits."""
        if not 0 <= n <= 1 << 31:
            raise ValueError(f"vertex count must be 0..2**31, got {n}")
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        u, v = edges[:, 0], edges[:, 1]
        if len(edges) and (int(edges.min()) < 0 or int(edges.max()) >= n):
            bad = np.flatnonzero((u < 0) | (v < 0) | (u >= n) | (v >= n))[0]
            raise ValueError(f"edge ({u[bad]},{v[bad]}) out of range for "
                             f"n={n}")
        if (u == v).any():
            raise ValueError("self-loops are not allowed")
        keys = np.sort(np.concatenate([u * n + v, v * n + u]))
        fresh = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        keys = keys[fresh]
        rows = keys // n if n else keys
        offset = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=offset[1:])
        return cls(n, offset, keys - rows * n)

    @classmethod
    def from_adjacency(cls, adj: Dict[int, Iterable[int]]) -> "CSRGraph":
        """Build from a ``{vertex: neighbours}`` mapping (vertices 0..n-1).

        One-sided listings are accepted: a vertex may appear only as a
        neighbour (``{0: [1, 2]}`` is the 3-vertex star/path ``1-0-2``).
        """
        keys = np.fromiter(adj.keys(), dtype=np.int64, count=len(adj))
        lists = [list(nbrs) for nbrs in adj.values()]
        cols = np.fromiter(chain.from_iterable(lists), dtype=np.int64)
        rows = np.repeat(keys, [len(c) for c in lists])
        n = max([int(a.max()) + 1 for a in (keys, cols) if len(a)],
                default=0)
        return cls.from_edges(n, np.stack([rows, cols], axis=1))

    def num_edges(self) -> int:
        """Number of edges."""
        return len(self.nbr) // 2

    def has_edge(self, u: int, v: int) -> bool:
        """True when ``{u, v}`` is an edge (a binary search in ``u``'s row)."""
        row = self.nbr[self.offset[u]:self.offset[u + 1]]
        i = int(np.searchsorted(row, v))
        return i < len(row) and int(row[i]) == v

    def edge_array(self) -> np.ndarray:
        """Every edge once, as an ``(m, 2)`` array of rows ``u < v``."""
        rows = np.repeat(np.arange(self.n, dtype=np.int64),
                         np.diff(self.offset))
        upper = self.nbr > rows
        return np.stack([rows[upper], self.nbr[upper]], axis=1)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate edges as ordered pairs ``(u, v)`` with ``u < v``."""
        return map(tuple, self.edge_array().tolist())

    @property
    def adj(self) -> List[Set[int]]:
        """One neighbour set per vertex (built on each access)."""
        flat, bounds = self.nbr.tolist(), self.offset.tolist()
        return [set(flat[bounds[u]:bounds[u + 1]]) for u in range(self.n)]

    def to_graph(self) -> Graph:
        """The same graph as a set-based :class:`Graph`."""
        g = Graph(self.n)
        g.adj = self.adj
        return g

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRGraph(n={self.n}, m={self.num_edges()})"


def components(adj, vertices: Iterable[int]) -> List[List[int]]:
    """Connected components of the subgraph ``adj`` (neighbour sets)
    induces on ``vertices``, each led by its first vertex in ``vertices``
    order; set operations per vertex, ``O(n + m)`` in all."""
    inside = set(vertices)
    comps: List[List[int]] = []
    for s in vertices:
        if s not in inside:
            continue
        inside.discard(s)
        comp, stack = [s], [s]
        while stack:
            reach = adj[stack.pop()] & inside
            inside -= reach
            comp += reach
            stack += reach
        comps.append(comp)
    return comps


def co_components(adj, vertices: Iterable[int]) -> List[List[int]]:
    """Connected components of the *complement* of the subgraph ``adj``
    induces on ``vertices``, without materialising it: the "remaining set"
    search moves every unvisited non-neighbour of the vertex it explores,
    and what stays is a neighbour, so the work is ``O(n + m)``."""
    remaining = set(vertices)
    comps: List[List[int]] = []
    for s in vertices:
        if s not in remaining:
            continue
        remaining.discard(s)
        comp, queue = [s], [s]
        while queue:
            nbrs = adj[queue.pop()]
            reach = remaining - nbrs
            remaining &= nbrs
            comp += reach
            queue += reach
        comps.append(comp)
    return comps
