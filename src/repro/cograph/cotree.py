"""General (multi-way) cotree representation of a cograph.

A *cograph* (complement-reducible graph) is built from single vertices by
disjoint union and join.  Every cograph ``G`` admits a canonical rooted tree
representation, the *cotree* ``T(G)`` (Corneil, Lerchs, Stewart Burlingham
1981), with the properties used throughout the paper:

(4) every internal node has at least two children;
(5) internal nodes are labelled 0 (union) or 1 (join) and labels alternate on
    every root-to-leaf path;
(6) leaves are the vertices of ``G`` and two vertices are adjacent iff their
    lowest common ancestor is a 1-node.

This module provides :class:`Cotree`, an arbitrary-arity rooted cotree with a
structure-of-arrays backing store, plus construction, canonicalisation,
traversal and conversion helpers.  The binarized form used by the algorithms
lives in :mod:`repro.cograph.binary`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .._dfs import depth_by_doubling

__all__ = [
    "LEAF",
    "UNION",
    "JOIN",
    "PRIME",
    "Cotree",
    "CotreeError",
    "kind_name",
]

#: Node-kind code for a leaf (a vertex of the cograph).
LEAF: int = 0
#: Node-kind code for a 0-node (disjoint union of its children).
UNION: int = 1
#: Node-kind code for a 1-node (join of its children).
JOIN: int = 2
#: Node-kind code for a prime node of a *modular decomposition* tree: the
#: children are the node's maximal strong modules and a packed quotient
#: graph over them (carried by :class:`~repro.cograph.FlatCotree` CSR
#: side-arrays) records which child pairs are joined.  Cotrees never
#: contain this kind — it only appears in trees built by
#: :func:`~repro.cograph.md_tree`.
PRIME: int = 3

_KIND_NAMES = {LEAF: "leaf", UNION: "0", JOIN: "1", PRIME: "prime"}


def kind_name(kind: int) -> str:
    """Return a human-readable name ("leaf", "0" or "1") for a node kind."""
    return _KIND_NAMES[int(kind)]


class CotreeError(ValueError):
    """Raised when a structure is not a valid cotree."""


def prime_refusal(what: str) -> CotreeError:
    """The error raised when ``what``, exact on cographs only, is handed a
    modular decomposition tree with prime nodes."""
    return CotreeError(
        f"{what} has no prime combine: it is exact on cographs only, but "
        f"the input is a modular decomposition tree with prime nodes")


# A nested specification of a cotree:  either an ``int`` (a leaf holding that
# vertex id), the string "v<k>" form is not supported -- just ints -- or a
# tuple ``(op, child, child, ...)`` where ``op`` is "union"/"0" or "join"/"1".
NestedSpec = Union[int, Tuple]

_OP_CODES = {
    "union": UNION,
    "0": UNION,
    0: UNION,
    "join": JOIN,
    "1": JOIN,
    1: JOIN,
}


@dataclass
class _NodeRecord:
    """Mutable node record used while building a :class:`Cotree`."""

    kind: int
    children: List[int] = field(default_factory=list)
    vertex: int = -1


class Cotree:
    """An arbitrary-arity rooted cotree.

    Nodes are integers ``0 .. num_nodes - 1``.  Leaves carry a *vertex id* in
    ``0 .. num_vertices - 1``; the mapping between vertex ids and leaf nodes
    is explicit so vertices keep their identity through binarisation,
    reduction and path construction.

    Instances are immutable once constructed; all mutating helpers return new
    trees.

    Parameters
    ----------
    kind:
        integer array of node kinds (:data:`LEAF`, :data:`UNION`,
        :data:`JOIN`).
    children:
        list of child-id lists, one per node (empty for leaves).
    leaf_vertex:
        integer array mapping node id -> vertex id (``-1`` for internal
        nodes).
    root:
        id of the root node.
    """

    __slots__ = ("kind", "children", "leaf_vertex", "parent", "root",
                 "_vertex_to_leaf")

    def __init__(
        self,
        kind: Sequence[int],
        children: Sequence[Sequence[int]],
        leaf_vertex: Sequence[int],
        root: int,
        *,
        validate: bool = True,
    ) -> None:
        self.kind = np.asarray(kind, dtype=np.int8)
        self.children: List[List[int]] = [list(c) for c in children]
        self.leaf_vertex = np.asarray(leaf_vertex, dtype=np.int64)
        self.root = int(root)
        n = len(self.kind)
        if not (len(self.children) == n == len(self.leaf_vertex)):
            raise CotreeError("kind, children and leaf_vertex must have the "
                              "same length")
        if n == 0:
            # the cotree of the empty cograph: no nodes, root -1 (round-trips
            # through FlatCotree and canonical_key must not raise)
            if self.root != -1:
                raise CotreeError("an empty cotree must have root -1")
            self.parent = np.empty(0, dtype=np.int64)
            self._vertex_to_leaf = {}
            return
        parent = np.full(n, -1, dtype=np.int64)
        for u, cs in enumerate(self.children):
            for c in cs:
                if parent[c] != -1:
                    raise CotreeError(f"node {c} has two parents")
                parent[c] = u
        self.parent = parent
        # vertex id -> leaf node id
        leaves = np.flatnonzero(self.kind == LEAF)
        vmap = {}
        for leaf in leaves:
            v = int(self.leaf_vertex[leaf])
            if v < 0:
                raise CotreeError(f"leaf node {leaf} has no vertex id")
            if v in vmap:
                raise CotreeError(f"vertex {v} appears on two leaves")
            vmap[v] = int(leaf)
        self._vertex_to_leaf = vmap
        if validate:
            self._validate_basic()

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def single_vertex(cls, vertex: int = 0) -> "Cotree":
        """The cotree of the one-vertex cograph."""
        return cls([LEAF], [[]], [vertex], 0)

    @classmethod
    def from_nested(cls, spec: NestedSpec) -> "Cotree":
        """Build a cotree from a nested tuple specification.

        ``spec`` is either an ``int`` (a leaf whose vertex id is that
        integer) or a tuple ``(op, child_spec, child_spec, ...)`` with ``op``
        one of ``"union"``, ``"0"``, ``0`` (union node) or ``"join"``,
        ``"1"``, ``1`` (join node).

        Examples
        --------
        >>> t = Cotree.from_nested(("join", 0, ("union", 1, 2)))
        >>> t.num_vertices
        3
        """
        records: List[_NodeRecord] = []

        def new_record(s: NestedSpec) -> int:
            """Create the record for one spec element (children added later)."""
            if isinstance(s, (int, np.integer)):
                records.append(_NodeRecord(LEAF, [], int(s)))
            else:
                if not isinstance(s, tuple) or len(s) < 2:
                    raise CotreeError(f"bad nested spec element: {s!r}")
                op = s[0]
                if op not in _OP_CODES:
                    raise CotreeError(f"unknown cotree operation {op!r}")
                records.append(_NodeRecord(_OP_CODES[op]))
            return len(records) - 1

        # Iterative construction (deep caterpillar specs would overflow the
        # Python recursion limit otherwise).
        root = new_record(spec)
        stack: List[Tuple[int, NestedSpec]] = [(root, spec)]
        while stack:
            idx, s = stack.pop()
            if isinstance(s, (int, np.integer)):
                continue
            for child_spec in s[1:]:
                child_idx = new_record(child_spec)
                records[idx].children.append(child_idx)
                stack.append((child_idx, child_spec))
        return cls(
            [r.kind for r in records],
            [r.children for r in records],
            [r.vertex for r in records],
            root,
        )

    @classmethod
    def from_parent_pointers(
        cls,
        parent: Sequence[int],
        kind: Sequence[int],
        leaf_vertex: Optional[Sequence[int]] = None,
    ) -> "Cotree":
        """Build a cotree from the parent-pointer representation.

        This is the representation used in the paper's lower-bound
        construction ("It is trivial to construct the cotree using the
        well-known parent-pointer representation").

        Parameters
        ----------
        parent:
            ``parent[u]`` is the parent node of ``u``; the root has parent
            ``-1``.
        kind:
            node kinds.
        leaf_vertex:
            optional vertex ids for the leaves; defaults to numbering the
            leaves ``0, 1, ...`` in node-id order.
        """
        from .flat import FlatCotree, _parent_csr
        parent = np.asarray(parent, dtype=np.int64)
        kind = np.asarray(kind, dtype=np.int8)
        roots = np.flatnonzero(parent == -1)
        if len(roots) != 1:
            raise CotreeError("multiple roots in parent-pointer form"
                              if len(roots) else
                              "no root in parent-pointer form")
        if leaf_vertex is None:
            leaf_vertex = np.full(len(parent), -1, dtype=np.int64)
            leaf_vertex[kind == LEAF] = np.arange(np.count_nonzero(
                kind == LEAF))
        return FlatCotree(kind, *_parent_csr(parent), parent, leaf_vertex,
                          int(roots[0])).to_cotree()

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        """Total number of cotree nodes (leaves plus internal nodes)."""
        return len(self.kind)

    @property
    def num_vertices(self) -> int:
        """Number of cograph vertices, i.e. number of leaves."""
        return int(np.count_nonzero(self.kind == LEAF))

    @property
    def internal_nodes(self) -> np.ndarray:
        """Array of internal node ids."""
        return np.flatnonzero(self.kind != LEAF)

    @property
    def leaves(self) -> np.ndarray:
        """Array of leaf node ids."""
        return np.flatnonzero(self.kind == LEAF)

    @property
    def vertices(self) -> np.ndarray:
        """Sorted array of vertex ids."""
        return np.sort(self.leaf_vertex[self.kind == LEAF])

    def leaf_of_vertex(self, vertex: int) -> int:
        """Return the leaf node holding ``vertex``."""
        return self._vertex_to_leaf[int(vertex)]

    def is_leaf(self, node: int) -> bool:
        """True when ``node`` is a leaf."""
        return self.kind[node] == LEAF

    def degree(self, node: int) -> int:
        """Number of children of ``node``."""
        return len(self.children[node])

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #

    def preorder(self) -> Iterator[int]:
        """Iterate node ids in preorder (iterative, recursion-free)."""
        stack = [self.root] if self.num_nodes else []
        while stack:
            u = stack.pop()
            yield u
            stack.extend(reversed(self.children[u]))

    def postorder(self) -> Iterator[int]:
        """Iterate node ids in postorder (children before parents)."""
        order: List[int] = []
        stack = [self.root] if self.num_nodes else []
        while stack:
            u = stack.pop()
            order.append(u)
            stack.extend(self.children[u])
        return reversed(order)

    def depth(self) -> np.ndarray:
        """Depth of each node (root depth 0)."""
        return depth_by_doubling(self.parent)

    def height(self) -> int:
        """Height of the tree (number of edges on the longest root path)."""
        if self.num_nodes <= 1:
            return 0
        return int(self.depth().max())

    def subtree_leaf_counts(self) -> np.ndarray:
        """``L(u)``: number of leaf descendants of every node."""
        counts = np.zeros(self.num_nodes, dtype=np.int64)
        for u in self.postorder():
            if self.kind[u] == LEAF:
                counts[u] = 1
            else:
                counts[u] = sum(counts[c] for c in self.children[u])
        return counts

    def leaf_descendants(self, node: int) -> List[int]:
        """Vertex ids of the leaf descendants of ``node`` (left-to-right)."""
        out: List[int] = []
        stack = [node]
        while stack:
            u = stack.pop()
            if self.kind[u] == LEAF:
                out.append(int(self.leaf_vertex[u]))
            else:
                stack.extend(reversed(self.children[u]))
        return out

    # ------------------------------------------------------------------ #
    # validation / canonical form
    # ------------------------------------------------------------------ #

    def _validate_basic(self) -> None:
        """Check tree-ness and leaf/internal consistency."""
        n = self.num_nodes
        seen = np.zeros(n, dtype=bool)
        count = 0
        for u in self.preorder():
            if seen[u]:
                raise CotreeError("cycle or shared node in cotree")
            seen[u] = True
            count += 1
        if count != n:
            raise CotreeError("cotree has unreachable nodes")
        for u in range(n):
            if self.kind[u] == LEAF:
                if self.children[u]:
                    raise CotreeError(f"leaf node {u} has children")
            else:
                if len(self.children[u]) == 0:
                    raise CotreeError(f"internal node {u} has no children")

    def is_canonical(self) -> bool:
        """True when the cotree satisfies properties (4) and (5): every
        internal node has two or more children, and labels alternate."""
        from .flat import _is_canonical
        return _is_canonical(self.kind, self.parent)

    def canonicalize(self) -> "Cotree":
        """Return an equivalent canonical cotree.

        Unary internal nodes are spliced out and children with the same label
        as their parent are merged into the parent, which restores properties
        (4) and (5) without changing the represented cograph.  One postorder
        pass does it: a node's children are canonical by the time it is
        reached, so a unary child stands for its one child and a same-label
        child hands over its children.  The result is numbered in preorder.
        """
        kind = self.kind.tolist()
        rows: List[List[int]] = [[]] * self.num_nodes
        rep = list(range(self.num_nodes))   # the node standing for u
        for u in self.postorder():
            if kind[u] == LEAF:
                continue
            row: List[int] = []
            for c in self.children[u]:
                r = rep[c]
                row += rows[r] if kind[r] == kind[u] else (r,)
            rows[u] = row
            if len(row) == 1:
                rep[u] = row[0]
        order: List[int] = []
        stack = [rep[self.root]] if self.num_nodes else []
        while stack:
            u = stack.pop()
            order.append(u)
            stack.extend(reversed(rows[u]))
        new = {old: i for i, old in enumerate(order)}
        return Cotree(self.kind[order], [[new[c] for c in rows[u]]
                                         for u in order],
                      self.leaf_vertex[order], 0 if order else -1)

    # ------------------------------------------------------------------ #
    # graph semantics
    # ------------------------------------------------------------------ #

    def adjacency_sets(self) -> dict:
        """Materialise the cograph as ``{vertex: set(neighbours)}``.

        This is quadratic in the worst case (a join has Θ(n²) edges); use the
        LCA-based oracle in :mod:`repro.cograph.lca` for large graphs.
        """
        adj: dict = {int(v): set() for v in self.vertices}
        # compute bottom-up: each internal node knows the vertex sets of its
        # children; a JOIN node adds the complete bipartite edges between
        # every pair of distinct children.
        vsets: dict = {}
        for u in self.postorder():
            if self.kind[u] == LEAF:
                vsets[u] = [int(self.leaf_vertex[u])]
            else:
                child_sets = [vsets[c] for c in self.children[u]]
                if self.kind[u] == JOIN:
                    for i in range(len(child_sets)):
                        for j in range(i + 1, len(child_sets)):
                            for a in child_sets[i]:
                                for b in child_sets[j]:
                                    adj[a].add(b)
                                    adj[b].add(a)
                merged: List[int] = []
                for s in child_sets:
                    merged.extend(s)
                vsets[u] = merged
        return adj

    def edge_count(self) -> int:
        """Number of edges of the represented cograph (without materialising)."""
        counts = self.subtree_leaf_counts()
        m = 0
        for u in self.internal_nodes:
            if self.kind[u] == JOIN:
                cs = [counts[c] for c in self.children[u]]
                total = sum(cs)
                # sum over unordered pairs of children of |Vi|*|Vj|
                m += (total * total - sum(c * c for c in cs)) // 2
        return int(m)

    # ------------------------------------------------------------------ #
    # dunder / misc
    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Cotree(num_vertices={self.num_vertices}, "
                f"num_nodes={self.num_nodes}, root_kind="
                f"{kind_name(self.kind[self.root])!r})")

    def to_nested(self) -> NestedSpec:
        """Inverse of :meth:`from_nested` (up to child ordering); built in
        postorder, so any height is fine."""
        spec: dict = {}
        for u in self.postorder():
            if self.kind[u] == LEAF:
                spec[u] = int(self.leaf_vertex[u])
            else:
                spec[u] = ("union" if self.kind[u] == UNION else "join",
                           *(spec.pop(c) for c in self.children[u]))
        return spec[self.root]

    def to_flat(self):
        """This tree in :class:`~repro.cograph.flat.FlatCotree` (CSR) form."""
        from .flat import FlatCotree
        return FlatCotree.from_cotree(self)

    def relabel_vertices(self, mapping: dict) -> "Cotree":
        """Return a copy with vertex ids replaced according to ``mapping``."""
        lv = self.leaf_vertex.copy()
        for node in self.leaves:
            lv[node] = mapping[int(self.leaf_vertex[node])]
        return Cotree(self.kind, self.children, lv, self.root)

    def _ordered_key(self) -> Tuple[bytes, bytes, bytes]:
        """The rooted, ordered tree as flat preorder sequences of kinds,
        child counts and leaf vertices: equal exactly when
        :meth:`to_nested` is, and compared without recursion."""
        order = list(self.preorder())
        kind = self.kind[order]
        return (kind.tobytes(),
                np.fromiter((len(self.children[u]) for u in order),
                            dtype=np.int64, count=len(order)).tobytes(),
                np.where(kind == LEAF, self.leaf_vertex[order],
                         -1).astype(np.int64).tobytes())

    def __eq__(self, other: object) -> bool:
        """Structural equality of the rooted, ordered trees."""
        if not isinstance(other, Cotree):
            return NotImplemented
        return self._ordered_key() == other._ordered_key()

    def __hash__(self) -> int:
        return hash(self._ordered_key())
