"""A small explicit graph container used by the recognition code, the
validators, the brute-force baseline and the examples.

The algorithms of the paper never materialise the cograph — they work on the
cotree — but a downstream user usually starts from an ordinary graph, and the
test-suite needs an independent notion of adjacency to check the produced
path covers against.  Cographs can have :math:`\\Theta(n^2)` edges, so this
class is meant for inputs up to a few thousand vertices; beyond that use the
LCA oracle in :mod:`repro.cograph.lca`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

import numpy as np

__all__ = ["Graph"]


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
        """Build from a ``{vertex: neighbours}`` mapping (vertices 0..n-1).

        One-sided listings are accepted: a vertex may appear only as a
        neighbour (``{0: [1, 2]}`` is the 3-vertex star/path ``1-0-2``).
        The neighbour lists are flattened into one edge array and routed
        through :meth:`from_edge_array`, so no per-edge Python loop runs.
        """
        from .flat import _children_csr
        keys = np.fromiter(adj.keys(), dtype=np.int64,   # per-vertex, not
                           count=len(adj))               # per-edge work
        offset, cols = _children_csr([list(nbrs) for nbrs in adj.values()])
        rows = np.repeat(keys, np.diff(offset))
        n = 0
        if len(keys):
            n = max(n, int(keys.max()) + 1)
        if len(cols):
            n = max(n, int(cols.max()) + 1)
        edges = np.stack([rows, cols], axis=1) if len(rows) else \
            np.empty((0, 2), dtype=np.int64)
        return cls.from_edge_array(n, edges)

    @classmethod
    def from_edge_array(cls, n: int, edges) -> "Graph":
        """Build from an ``(m, 2)`` integer array without per-edge Python.

        Validation (range, self-loops), symmetrisation and deduplication are
        NumPy operations; the adjacency sets are assembled from one C-level
        ``tolist`` with per-vertex slices.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        g = cls(n)
        if len(edges) == 0:
            return g
        if np.any(edges < 0) or np.any(edges >= n):
            u, v = next((int(u), int(v)) for u, v in edges
                        if u < 0 or v < 0 or u >= n or v >= n)
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if np.any(edges[:, 0] == edges[:, 1]):
            raise ValueError("self-loops are not allowed")
        both = np.concatenate([edges, edges[:, ::-1]])
        order = np.lexsort((both[:, 1], both[:, 0]))
        both = both[order]
        counts = np.bincount(both[:, 0], minlength=n)
        bounds = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        flat = both[:, 1].tolist()
        b = bounds.tolist()
        g.adj = [set(flat[b[u]:b[u + 1]]) for u in range(n)]
        return g

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
        seen = [False] * self.n
        comps: List[List[int]] = []
        for s in range(self.n):
            if seen[s]:
                continue
            comp = [s]
            seen[s] = True
            stack = [s]
            while stack:
                u = stack.pop()
                for v in self.adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        comp.append(v)
                        stack.append(v)
            comps.append(comp)
        return comps

    def complement_components(self) -> List[List[int]]:
        """Connected components of the *complement*, computed without
        materialising it.

        Uses the classic "remaining set" BFS: when exploring vertex ``u`` in
        the complement, its unvisited complement-neighbours are exactly the
        unvisited vertices that are *not* graph-neighbours of ``u``.
        """
        remaining: Set[int] = set(range(self.n))
        comps: List[List[int]] = []
        while remaining:
            s = next(iter(remaining))
            remaining.discard(s)
            comp = [s]
            queue = [s]
            while queue:
                u = queue.pop()
                nbrs = self.adj[u]
                reachable = [w for w in remaining if w not in nbrs]
                for w in reachable:
                    remaining.discard(w)
                    comp.append(w)
                    queue.append(w)
            comps.append(comp)
        return comps

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
