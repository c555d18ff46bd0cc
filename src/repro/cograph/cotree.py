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

This module provides :class:`Cotree`, an arbitrary-arity rooted cotree, with
construction, traversal and conversion helpers.  A :class:`Cotree` is an
immutable view over one :class:`~repro.cograph.flat.FlatCotree`: the CSR
arrays are the data, :meth:`~repro.cograph.flat.FlatCotree.validate` decides
what a tree is and :meth:`~repro.cograph.flat.FlatCotree.canonicalize`
restores properties (4) and (5).  The binarized form used by the algorithms
lives in :mod:`repro.cograph.binary`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple, \
    Union

import numpy as np

if TYPE_CHECKING:
    from .flat import FlatCotree

__all__ = ["LEAF", "UNION", "JOIN", "PRIME", "Cotree", "CotreeError",
           "kind_name"]

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
    """Return a human-readable name ("leaf", "0", "1" or "prime") for a node
    kind."""
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

_OP_CODES = {"union": UNION, "0": UNION, 0: UNION,
             "join": JOIN, "1": JOIN, 1: JOIN}


def _held(name: str, doc: str) -> property:
    """A read-only :class:`Cotree` attribute read off the held tree."""
    return property(lambda self: getattr(self._flat, name), doc=doc)


class Cotree:
    """An arbitrary-arity rooted cotree.

    Nodes are integers ``0 .. num_nodes - 1``.  Leaves carry distinct,
    non-negative *vertex ids* (every task needs ``0 .. num_vertices - 1``);
    the mapping between vertex ids and leaf nodes is explicit so vertices
    keep their identity through binarisation, reduction and path
    construction.

    A view over one :class:`~repro.cograph.flat.FlatCotree`, checked once
    by its :meth:`~repro.cograph.flat.FlatCotree.validate` (with
    ``sparse_ids=True``) at construction: every attribute reads the held
    arrays.  Instances are immutable; all mutating helpers return new
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

    __slots__ = ("_flat", "_children")

    def __init__(self, kind: Sequence[int],
                 children: Sequence[Sequence[int]],
                 leaf_vertex: Sequence[int], root: int) -> None:
        from .flat import _from_lists
        self._flat = _from_lists(kind, children, leaf_vertex,
                                 root).validate(sparse_ids=True)
        self._children: Optional[List[List[int]]] = None

    @classmethod
    def _of(cls, flat: "FlatCotree") -> "Cotree":
        """A view of ``flat`` as it stands: the caller has checked it."""
        tree = cls.__new__(cls)
        tree._flat, tree._children = flat, None
        return tree

    def __reduce__(self):
        # pickles as its flat tree, so pickle's memo sends a tree shared
        # with a Problem's checked form once
        return Cotree._of, (self._flat,)

    # ------------------------------------------------------------------ #
    # the held arrays and their basic properties
    # ------------------------------------------------------------------ #

    kind = _held("kind", "``int8`` node kinds.")
    leaf_vertex = _held("leaf_vertex", "Vertex id of every leaf (``-1`` for "
                        "internal nodes).")
    parent = _held("parent", "Parent of every node (``-1`` at the root).")
    root = _held("root", "Id of the root node (``-1`` for the empty cotree).")
    num_nodes = _held("num_nodes", "Total number of cotree nodes (leaves "
                      "plus internal nodes).")
    num_vertices = _held("num_vertices", "Number of cograph vertices, i.e. "
                         "number of leaves.")
    internal_nodes = _held("internal_nodes", "Array of internal node ids.")
    leaves = _held("leaves", "Array of leaf node ids.")
    vertices = _held("vertices", "Sorted array of vertex ids.")

    @property
    def children(self) -> List[List[int]]:
        """One child-id list per node (built on first use, cached)."""
        if self._children is None:
            kids = self._flat.child_index.tolist()
            bounds = self._flat.child_offset.tolist()
            self._children = [kids[bounds[u]:bounds[u + 1]]
                              for u in range(self.num_nodes)]
        return self._children

    def leaf_of_vertex(self, vertex: int) -> int:
        """Return the leaf node holding ``vertex`` (``KeyError`` if none)."""
        hit = self.leaves[self.leaf_vertex[self.leaves] == int(vertex)]
        if not len(hit):
            raise KeyError(vertex)
        return int(hit[0])

    def is_leaf(self, node: int) -> bool:
        """True when ``node`` is a leaf."""
        return self.kind[node] == LEAF

    def degree(self, node: int) -> int:
        """Number of children of ``node``."""
        return int(self._flat.degrees()[node])

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
        # Iterative (deep caterpillar specs would overflow the Python
        # recursion limit otherwise): a node's children are numbered
        # together when it is expanded.
        specs: List[NestedSpec] = [spec]
        children: List[List[int]] = [[]]
        stack = [0]
        while stack:
            u = stack.pop()
            s = specs[u]
            if isinstance(s, (int, np.integer)):
                continue
            if not isinstance(s, tuple) or len(s) < 2:
                raise CotreeError(f"bad nested spec element: {s!r}")
            if s[0] not in _OP_CODES:
                raise CotreeError(f"unknown cotree operation {s[0]!r}")
            children[u] = list(range(len(specs), len(specs) + len(s) - 1))
            specs += s[1:]
            children += [[] for _ in s[1:]]
            stack += children[u]
        leaf = [isinstance(s, (int, np.integer)) for s in specs]
        return cls([LEAF if is_leaf else _OP_CODES[s[0]]
                    for s, is_leaf in zip(specs, leaf)], children,
                   [int(s) if is_leaf else -1 for s, is_leaf in
                    zip(specs, leaf)], 0)

    @classmethod
    def from_parent_pointers(cls, parent: Sequence[int], kind: Sequence[int],
                             leaf_vertex: Optional[Sequence[int]] = None
                             ) -> "Cotree":
        """Build a cotree from the parent-pointer representation
        (``parent[u]`` is ``u``'s parent, ``-1`` at the root), the one the
        paper's lower-bound construction uses ("It is trivial to construct
        the cotree using the well-known parent-pointer representation").
        ``leaf_vertex`` defaults to numbering the leaves ``0, 1, ...`` in
        node-id order."""
        from .flat import FlatCotree, _parent_csr, _refuse_outside
        parent = np.asarray(parent, dtype=np.int64)
        kind = np.asarray(kind, dtype=np.int8)
        _refuse_outside(parent, "parent", -1, len(parent) - 1)
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
    # traversal
    # ------------------------------------------------------------------ #

    def preorder(self) -> Iterator[int]:
        """Iterate node ids in preorder (children left to right)."""
        return iter(self._flat.preorder().tolist())

    def postorder(self) -> Iterator[int]:
        """Iterate node ids in postorder (children before parents)."""
        return iter(self._flat.postorder().tolist())

    def depth(self) -> np.ndarray:
        """Depth of each node (root depth 0)."""
        return self._flat.depth

    def height(self) -> int:
        """Height of the tree (number of edges on the longest root path)."""
        if self.num_nodes <= 1:
            return 0
        return int(self.depth().max())

    def subtree_leaf_counts(self) -> np.ndarray:
        """``L(u)``: number of leaf descendants of every node."""
        _, lo, hi = self._flat.leaf_spans()
        return hi - lo

    def leaf_descendants(self, node: int) -> List[int]:
        """Vertex ids of the leaf descendants of ``node`` (left-to-right)."""
        ids, lo, hi = self._flat.leaf_spans()
        return ids[lo[node]:hi[node]].tolist()

    # ------------------------------------------------------------------ #
    # canonical form, graph semantics, conversions
    # ------------------------------------------------------------------ #

    def is_canonical(self) -> bool:
        """True when the cotree satisfies properties (4) and (5): every
        internal node has two or more children, and labels alternate."""
        return self._flat.is_canonical()

    def canonicalize(self) -> "Cotree":
        """Return an equivalent canonical cotree.

        Unary internal nodes are spliced out and children with the same label
        as their parent are merged into the parent, which restores properties
        (4) and (5) without changing the represented cograph
        (:meth:`FlatCotree.canonicalize
        <repro.cograph.flat.FlatCotree.canonicalize>`).  The result is
        numbered in preorder, children left to right.
        """
        return Cotree._of(self._flat.canonicalize())

    def adjacency_sets(self) -> dict:
        """Materialise the cograph as ``{vertex: set(neighbours)}``.

        This is quadratic in the worst case (a join has Θ(n²) edges); use the
        LCA-based oracle in :mod:`repro.cograph.lca` for large graphs.  A
        JOIN node joins every leaf below a child to the leaves below the
        other children.
        """
        ids, lo, hi = self._flat.leaf_spans()
        ids = ids.tolist()
        adj: dict = {v: set() for v in ids}
        for u in np.flatnonzero(self.kind == JOIN).tolist():
            below = set(ids[lo[u]:hi[u]])
            for c in self.children[u]:
                side = ids[lo[c]:hi[c]]
                others = below.difference(side)
                for a in side:
                    adj[a] |= others
        return adj

    def edge_count(self) -> int:
        """Number of edges of the represented cograph (without materialising):
        a JOIN node ``u`` adds ``(L(u)² - Σ L(c)²) / 2`` over its children."""
        counts = self.subtree_leaf_counts()
        below = np.flatnonzero(self.parent >= 0)
        squares = np.zeros(self.num_nodes, dtype=np.int64)
        np.add.at(squares, self.parent[below], counts[below] ** 2)
        join = self.kind == JOIN
        return int(((counts[join] ** 2 - squares[join]) // 2).sum())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Cotree(num_vertices={self.num_vertices}, "
                f"num_nodes={self.num_nodes}, root_kind="
                f"{kind_name(self.kind[self.root])!r})")

    def to_nested(self) -> NestedSpec:
        """Inverse of :meth:`from_nested` (up to child ordering); built in
        postorder, so any height is fine."""
        kind, vertex = self.kind.tolist(), self.leaf_vertex.tolist()
        children = self.children
        spec: dict = {}
        for u in self.postorder():
            if kind[u] == LEAF:
                spec[u] = vertex[u]
            else:
                spec[u] = ("union" if kind[u] == UNION else "join",
                           *(spec.pop(c) for c in children[u]))
        return spec[self.root]

    def to_flat(self) -> "FlatCotree":
        """The :class:`~repro.cograph.flat.FlatCotree` this view holds."""
        return self._flat

    def relabel_vertices(self, mapping: dict) -> "Cotree":
        """Return a copy with vertex ids replaced according to ``mapping``."""
        from .flat import FlatCotree
        flat = self._flat
        lv = flat.leaf_vertex.copy()
        lv[flat.leaves] = [mapping[v] for v in lv[flat.leaves].tolist()]
        return FlatCotree(flat.kind, flat.child_offset, flat.child_index,
                          flat.parent, lv, flat.root).to_cotree()

    def _ordered_key(self) -> Tuple[bytes, bytes, bytes]:
        """The rooted, ordered tree as flat preorder sequences of kinds,
        child counts and leaf vertices: equal exactly when
        :meth:`to_nested` is, whatever the node numbering."""
        flat = self._flat
        order = flat.preorder()
        kind = flat.kind[order]
        return (kind.tobytes(), flat.degrees()[order].tobytes(),
                np.where(kind == LEAF, flat.leaf_vertex[order],
                         -1).astype(np.int64).tobytes())

    def __eq__(self, other: object) -> bool:
        """Structural equality of the rooted, ordered trees."""
        if not isinstance(other, Cotree):
            return NotImplemented
        return self._ordered_key() == other._ordered_key()

    def __hash__(self) -> int:
        return hash(self._ordered_key())
