"""Flat (CSR) cotree — the canonical in-memory form of the hot path.

:class:`FlatCotree` stores an arbitrary-arity cotree as five NumPy arrays
(kinds, CSR child offsets/indices, parents, leaf vertex ids).  It is the
one tree type: a :class:`~repro.cograph.cotree.Cotree` is a view holding
one, and a ``BinaryCotree`` reads its two-slot CSR form.  Every pipeline
stage, the input adapters and the solution cache operate on this
struct-of-arrays layout directly, so no per-node Python objects are
touched between "instance adapted" and "cover extracted", and
:meth:`FlatCotree.validate` alone decides what a tree is.

The module also hosts the *iterative* canonical-form kernel:

* :meth:`FlatCotree.canonicalize` restores cotree properties (4) and (5)
  (no unary internal nodes, alternating labels) with pointer-jumping over
  arrays — ``O(log n)`` vectorized rounds, no recursion, no fixpoint loop
  over Python lists;
* :func:`canonical_key` produces a hashable canonical form (children ordered
  by their minimum leaf vertex, serialised as preorder byte strings) shared
  by :class:`~repro.api.cache.SolutionCache` and the equality helpers.
  Unlike the old recursive nested-tuple key it survives arbitrarily deep
  trees (a depth-5000 caterpillar is a regression test) and costs
  ``O(n log n)`` array work instead of quadratic ``repr``-sorting.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .._dfs import (
    HAVE_SPARSE_DFS as _HAVE_SPARSE_DFS,
    chase_pointers as _chase,
    depth_by_doubling as _depth_by_doubling,
    multiway_numbering as _multiway_numbering,
    sibling_chain_preorder as _sibling_chain_preorder,
    two_slot_csr as _two_slot_csr,
)
from .cotree import JOIN, LEAF, PRIME, Cotree, CotreeError

__all__ = ["FlatCotree", "LevelSchedule", "as_flat_cotree", "canonical_key",
           "gather_children"]


class FlatCotree:
    """An arbitrary-arity rooted cotree in CSR struct-of-arrays form.

    Attributes
    ----------
    kind:
        ``int8`` array of node kinds (:data:`~repro.cograph.cotree.LEAF` /
        ``UNION`` / ``JOIN``).
    child_offset:
        ``int64`` array of length ``num_nodes + 1``; the children of node
        ``u`` are ``child_index[child_offset[u]:child_offset[u + 1]]``.
    child_index:
        flattened children array (CSR indices).
    parent:
        parent node of every node (``-1`` at the root).
    leaf_vertex:
        vertex id carried by each leaf (``-1`` for internal nodes).
    root:
        root node id.
    roots:
        ``int64`` array of the root node id of every tree in the arrays:
        ``[root]`` for a single tree (a
        :class:`~repro.cograph.forest.FlatForest` lists one per packed
        instance).
    q_offset / q_edge_u / q_edge_v:
        packed quotient-edge payload for :data:`~repro.cograph.cotree.PRIME`
        nodes (modular decomposition trees).  The quotient graph of prime
        node ``u`` has one vertex per child, numbered by **local child slot**
        (position inside ``children_of(u)``, so the payload survives node
        renumbering and forest packing); its edges are
        ``zip(q_edge_u[q_offset[u]:q_offset[u+1]],
        q_edge_v[q_offset[u]:q_offset[u+1]])`` with ``u < v`` per edge.
        Non-prime nodes have zero-width slices.  All three default to empty
        arrays, so plain cotrees carry no payload and stay bit-identical to
        the pre-MD layout.
    spider:
        ``int8`` per-node flag for prime nodes whose quotient is a spider
        (``0`` generic, ``1`` thin, ``2`` thick).  A spider-flagged prime
        lays its children out as ``[s_1..s_k, k_1..k_k, (r)]`` (feet, body,
        optional head) so closed-form DP combines need no edge scan.
    """

    __slots__ = ("kind", "child_offset", "child_index", "parent",
                 "leaf_vertex", "root", "roots",
                 "q_offset", "q_edge_u", "q_edge_v", "spider",
                 "_leaves", "_internal", "_vertices", "_degrees",
                 "_has_primes", "_depth", "_schedule", "_intervals",
                 "_ordered")

    def __init__(self, kind, child_offset, child_index, parent, leaf_vertex,
                 root: int, *, q_offset=None, q_edge_u=None, q_edge_v=None,
                 spider=None) -> None:
        self.kind = np.asarray(kind, dtype=np.int8)
        self.child_offset = np.asarray(child_offset, dtype=np.int64)
        self.child_index = np.asarray(child_index, dtype=np.int64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.leaf_vertex = np.asarray(leaf_vertex, dtype=np.int64)
        self.root = int(root)
        self.roots = np.array([self.root], dtype=np.int64)
        # lazily-computed derived arrays (hot in the DP level loop)
        self._leaves = None
        self._internal = None
        self._vertices = None
        self._degrees = None
        self._has_primes = None
        self._depth = None
        self._schedule = None
        self._intervals = None
        self._ordered = None
        empty = np.empty(0, dtype=np.int64)
        self.q_offset = empty if q_offset is None else \
            np.asarray(q_offset, dtype=np.int64)
        self.q_edge_u = empty if q_edge_u is None else \
            np.asarray(q_edge_u, dtype=np.int64)
        self.q_edge_v = empty if q_edge_v is None else \
            np.asarray(q_edge_v, dtype=np.int64)
        self.spider = np.empty(0, dtype=np.int8) if spider is None else \
            np.asarray(spider, dtype=np.int8)

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #

    @classmethod
    def from_cotree(cls, tree) -> "FlatCotree":
        """The flat form of a tree: a :class:`Cotree`'s own (no copy), a
        ``BinaryCotree``'s two-slot CSR rows, a FlatCotree itself."""
        from .binary import BinaryCotree
        if isinstance(tree, FlatCotree):
            return tree
        if isinstance(tree, Cotree):
            return tree.to_flat()
        if not isinstance(tree, BinaryCotree):
            raise TypeError(f"cannot convert {type(tree).__name__} to "
                            f"FlatCotree")
        flat = cls(tree.kind, *_two_slot_csr(tree.left, tree.right),
                   tree.parent, tree.leaf_vertex, tree.root)
        flat.roots = tree.roots
        return flat

    def to_cotree(self) -> Cotree:
        """This tree as a :class:`Cotree` view (same arrays, no child
        lists), once :meth:`validate` with ``sparse_ids=True`` passes."""
        if self.has_primes:
            raise CotreeError("a modular decomposition tree with prime nodes "
                              "has no plain-Cotree form; keep it flat")
        if len(self.roots) > 1:
            raise CotreeError(f"a forest of {len(self.roots)} trees has no "
                              f"single-Cotree form")
        return Cotree._of(self.validate(sparse_ids=True))

    def copy(self) -> "FlatCotree":
        return FlatCotree(self.kind.copy(), self.child_offset.copy(),
                          self.child_index.copy(), self.parent.copy(),
                          self.leaf_vertex.copy(), self.root,
                          q_offset=self.q_offset.copy(),
                          q_edge_u=self.q_edge_u.copy(),
                          q_edge_v=self.q_edge_v.copy(),
                          spider=self.spider.copy())

    # ------------------------------------------------------------------ #
    # basic properties (mirror the Cotree surface)
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        """Total number of cotree nodes."""
        return len(self.kind)

    @property
    def num_vertices(self) -> int:
        """Number of cograph vertices (= leaves)."""
        return len(self.leaves)

    @property
    def leaves(self) -> np.ndarray:
        """Array of leaf node ids (computed once, cached)."""
        if self._leaves is None:
            self._leaves = np.flatnonzero(self.kind == LEAF)
        return self._leaves

    @property
    def internal_nodes(self) -> np.ndarray:
        """Array of internal node ids (computed once, cached)."""
        if self._internal is None:
            self._internal = np.flatnonzero(self.kind != LEAF)
        return self._internal

    @property
    def vertices(self) -> np.ndarray:
        """Sorted array of vertex ids (computed once, cached)."""
        if self._vertices is None:
            self._vertices = np.sort(self.leaf_vertex[self.kind == LEAF])
        return self._vertices

    def degrees(self) -> np.ndarray:
        """Child count of every node (computed once, cached)."""
        if self._degrees is None:
            self._degrees = np.diff(self.child_offset)
        return self._degrees

    def children_of(self, node: int) -> np.ndarray:
        """Children of ``node`` (a CSR slice view)."""
        return self.child_index[self.child_offset[node]:
                                self.child_offset[node + 1]]

    @property
    def depth(self) -> np.ndarray:
        """Depth of every node by pointer doubling (cached); a cycle of
        parent pointers raises :class:`CotreeError` naming a node on it."""
        if self._depth is None:
            self._depth = _depth_by_doubling(self.parent)
        return self._depth

    @property
    def level_schedule(self) -> "LevelSchedule":
        """The internal nodes level by level with their children gathered
        once (cached): the order the cotree-DP level sweep and its
        top-down witnesses walk."""
        if self._schedule is None:
            self._schedule = LevelSchedule(self)
        return self._schedule

    @property
    def intervals(self):
        """``(preorder, subtree_size)`` from one C-level DFS over ``roots``
        (cached): every subtree is the preorder interval ``[pre, pre +
        size)``.  ``None`` without scipy or when the arrays are not a
        forest rooted at ``roots``."""
        if self._intervals is None:
            self._intervals = _multiway_numbering(
                self.child_offset, self.child_index, self.roots)
        return self._intervals

    @property
    def ordered_intervals(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(preorder, subtree_size)`` of the left-to-right order: children
        in CSR order, trees in ``roots`` order (cached).  :attr:`intervals`
        may visit a leaf child last; :meth:`preorder`, :meth:`postorder`
        and :meth:`canonicalize` need the stored order.  Trees of at most
        :data:`_STACK_NODES` nodes take the explicit stack."""
        if self._ordered is None and self.num_nodes > _STACK_NODES:
            self._ordered = _multiway_numbering(
                self.child_offset, self.child_index, self.roots,
                leaf_last=False)
        if self._ordered is None:
            self._ordered = _stack_numbering(self)
        return self._ordered

    def preorder(self) -> np.ndarray:
        """Node ids in left-to-right preorder, tree by tree."""
        pre = self.ordered_intervals[0]
        order = np.empty_like(pre)
        order[pre] = np.arange(len(pre), dtype=np.int64)
        return order

    def postorder(self) -> np.ndarray:
        """Node ids in left-to-right postorder (children before parents):
        ``u`` follows the ``pre[u] - depth[u]`` nodes that precede it in
        preorder and are not its ancestors, and its ``size[u] - 1``
        descendants."""
        pre, size = self.ordered_intervals
        order = np.empty_like(pre)
        order[pre - self.depth + size - 1] = np.arange(len(pre),
                                                       dtype=np.int64)
        return order

    def leaf_spans(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The vertex ids of the leaves from left to right, and every
        node's slice ``[lo, hi)`` of them: its leaf descendants."""
        pre, size = self.ordered_intervals
        order = self.preorder()
        leafy = self.kind[order] == LEAF
        before = np.zeros(len(order) + 1, dtype=np.int64)
        np.cumsum(leafy, out=before[1:])
        return self.leaf_vertex[order[leafy]], before[pre], before[pre + size]

    # ------------------------------------------------------------------ #
    # the structural validator
    # ------------------------------------------------------------------ #

    def validate(self, *, sparse_ids: bool = False) -> "FlatCotree":
        """Return ``self`` if the arrays are a cotree per root, else raise
        :class:`CotreeError` naming the field and its first offender (one
        vectorized ``O(n)`` pass: kinds, CSR offsets, index ranges, each
        node once a child or a root, ``parent`` agreeing, no cycle, leaf
        ids a permutation of ``0..n_vertices-1``, the quotient payload).
        With ``sparse_ids`` (a :class:`Cotree`'s rule) the leaf ids need
        only be distinct and non-negative: their ranks are checked."""
        kind, kids, parent, roots = (self.kind, self.child_index,
                                     self.parent, self.roots)
        n, e = len(kind), len(kids)
        payload = len(self.q_offset) > 0
        _refuse_outside(kind, "kind", LEAF, PRIME if payload else JOIN,
                        "" if payload else " (prime kinds need the prime "
                                           "flag: a quotient payload)")
        if not len(self.child_offset) == n + 1 == len(parent) + 1 \
                == len(self.leaf_vertex) + 1:
            raise CotreeError("kind, parent and leaf_vertex need one entry "
                              "per node, child_offset num_nodes + 1")
        if int(self.child_offset[0]) != 0 or int(self.child_offset[-1]) != e:
            raise CotreeError("child_offset does not span the child_index "
                              "array")
        degree, leaf = self.degrees(), kind == LEAF
        # the masks below are built only on the error path: the reductions
        # in front of them are the cheap O(n) test
        if n and (int(degree.min()) < 0 or ((degree == 0) != leaf).any()):
            _refuse(np.where(leaf, degree != 0, degree < 1), lambda u: (
                f"child_offset gives {'leaf' if leaf[u] else 'internal'} "
                f"node {u} {degree[u]} children (a leaf has none, an "
                f"internal node at least one)"))
        _refuse_outside(kids, "child_index", 0, n - 1)
        _refuse_outside(parent, "parent", -1, n - 1)
        _refuse_outside(roots, "roots", -1, n - 1)
        roots = roots[roots >= 0]
        owned = np.zeros(n, dtype=bool)
        owned[kids] = owned[roots] = True
        if e + len(roots) != n or not owned.all():
            owners = np.bincount(np.concatenate([kids, roots]), minlength=n)
            _refuse(owners != 1, lambda u: (
                f"child_index / roots: node {u} appears {owners[u]} times "
                f"(each node must be one node's child or a root, once)"))
        # internal node u owns child slots child_offset[u] ..
        # child_offset[u + 1] - 1, in id order: parent[child_index] agrees
        # iff it reads u at both ends of u's slots and never decreases
        above, inner = parent[kids], self.internal_nodes
        if not ((above[self.child_offset[inner]] == inner).all()
                and (above[self.child_offset[inner + 1] - 1] == inner).all()
                and (above[1:] >= above[:-1]).all()
                and (parent[roots] == -1).all()):
            owner = np.full(n, -1, dtype=np.int64)
            owner[kids] = np.repeat(np.arange(n, dtype=np.int64), degree)
            _refuse(parent != owner, lambda u: (
                f"parent[{u}] = {parent[u]}, but child_index / roots make "
                f"node {u} " + (f"the child of node {owner[u]}"
                                if owner[u] >= 0 else "a root")))
        # ids that only rise (or only fall) from parent to child admit no
        # cycle; any other tree takes the depth, which refuses one by name
        if not ((above < kids).all() or (above > kids).all()):
            self.depth
        vertices = self.leaf_vertex[self.leaves]
        nv, names = len(vertices), None
        if sparse_ids and nv and int(vertices.max()) >= nv:
            _refuse(vertices < 0, lambda i: (
                f"leaf_vertex[{self.leaves[i]}] = {vertices[i]} is not a "
                f"vertex id (vertex ids are non-negative)"))
            names, vertices = np.unique(vertices, return_inverse=True)
        if nv and (int(vertices.min()) < 0 or int(vertices.max()) >= nv):
            _refuse((vertices < 0) | (vertices >= nv), lambda i: (
                f"vertex id {vertices[i]} is out of range: vertex ids must "
                f"be 0..n-1 (n = {nv}); leaf_vertex[{self.leaves[i]}] = "
                f"{vertices[i]} is outside 0..{nv - 1}"))
        seen = np.zeros(nv, dtype=bool)
        seen[vertices] = True
        if not seen.all():
            labels = np.bincount(vertices, minlength=nv)
            _refuse(labels > 1, lambda v: (
                f"leaf_vertex: vertex {v if names is None else names[v]} "
                f"labels {labels[v]} leaves"))
        if payload:
            self._validate_quotients(degree)
        return self

    def _validate_quotients(self, degree: np.ndarray) -> None:
        """:meth:`validate` on the prime payload: edges only at primes,
        child-slot pairs ``u < v`` once, spider flags matching the edges."""
        n, q, eu, ev, spider = (self.num_nodes, self.q_offset, self.q_edge_u,
                                self.q_edge_v, self.spider)
        if len(q) != n + 1 or len(eu) != len(ev) or len(spider) != n \
                or int(q[0]) != 0 or int(q[-1]) != len(eu):
            raise CotreeError("q_offset / q_edge_u / q_edge_v / spider: a "
                              "quotient payload has one q_offset slice per "
                              "node spanning equal-length edge arrays and "
                              "one spider flag per node")
        width, prime = np.diff(q), self.kind == PRIME
        _refuse((width < 0) | ((width != 0) & ~prime), lambda u: (
            f"q_offset gives {'prime' if prime[u] else 'non-prime'} node {u}"
            f" {width[u]} quotient edges (only a prime node has any)"))
        _refuse_outside(spider, "spider", 0, 2)
        _refuse((spider != 0) & ~prime, lambda u: (
            f"spider[{u}] = {spider[u]} flags non-prime node {u}"))
        host = np.repeat(np.arange(n, dtype=np.int64), width)
        # a spider lists exactly md's [feet, body, (head)] layout edges
        k, thin, flagged = degree // 2, spider == 1, spider != 0
        kk, layout = k[host], flagged[host]
        foot = np.where(thin[host], ev == eu + kk,
                        (ev >= kk) & (ev < 2 * kk) & (ev != eu + kk))
        bad = (eu < 0) | (eu >= ev) | (ev >= degree[host]) \
            | (layout & ~np.where(eu >= kk, ev <= 2 * kk, foot))
        count = k * (k - 1) // 2 + np.where(thin, k, k * (k - 1)) \
            + degree % 2 * k
        misfit = flagged & ((k < 2) | (width != count))
        # only generic primes need a sort to find a repeated edge: a
        # spider's, all in its layout, are checked by code
        sort = ~layout
        if bad.any() or misfit.any() \
                or _spider_repeats(host, eu, ev, degree, flagged):
            sort[:] = True              # refusing: locate as always
        twice = np.zeros(len(eu), dtype=bool)
        if sort.any():
            at = np.flatnonzero(sort)
            at = at[np.lexsort((ev[at], eu[at], host[at]))]
            twice[at[1:]] = (np.diff(host[at]) == 0) \
                & (np.diff(eu[at]) == 0) & (np.diff(ev[at]) == 0)
        _refuse(bad | twice, lambda i: (
            f"q_edge_u / q_edge_v[{i}] = ({eu[i]}, {ev[i]}) is not a "
            f"quotient edge of prime node {host[i]}: two of its "
            f"{degree[host[i]]} child slots u < v, listed once"
            + (", in its spider layout" if flagged[host[i]] else "")))
        _refuse(misfit, lambda u: (
            f"spider[{u}] = {spider[u]}, but prime node {u} with {degree[u]} "
            f"children and {width[u]} quotient edges is no "
            f"{'thin' if thin[u] else 'thick'} spider"))

    # ------------------------------------------------------------------ #
    # modular decomposition payload
    # ------------------------------------------------------------------ #

    @property
    def has_primes(self) -> bool:
        """Whether any node is a :data:`~repro.cograph.cotree.PRIME` node
        (i.e. this is a proper modular decomposition tree, not a cotree)."""
        if self._has_primes is None:
            self._has_primes = bool(np.any(self.kind == PRIME))
        return self._has_primes

    @property
    def prime_nodes(self) -> np.ndarray:
        """Array of prime node ids (empty for plain cotrees)."""
        return np.flatnonzero(self.kind == PRIME)

    def quotient_of(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """Quotient-graph edges of prime ``node`` as ``(u, v)`` arrays of
        **local child slots** (``u < v`` per edge)."""
        lo = self.q_offset[node]
        hi = self.q_offset[node + 1]
        return self.q_edge_u[lo:hi], self.q_edge_v[lo:hi]

    # ------------------------------------------------------------------ #
    # canonical form (vectorized)
    # ------------------------------------------------------------------ #

    def is_canonical(self) -> bool:
        """Properties (4) and (5) read off parent pointers: every internal
        node has two or more children, and no internal child shares its
        parent's label (prime nodes never merge: adjacent primes are legal
        in a modular decomposition tree)."""
        kind, parent = self.kind, self.parent
        internal, has_parent = kind != LEAF, parent != -1
        deg = np.bincount(parent[has_parent], minlength=len(kind))
        child = np.flatnonzero(has_parent & internal & (kind != PRIME))
        return bool(np.all(deg[internal] >= 2)) and \
            not np.any(kind[child] == kind[parent[child]])

    def canonicalize(self) -> "FlatCotree":
        """Equivalent canonical cotree via pointer jumping (no recursion).

        Phase A splices out unary internal nodes (their child count is
        invariant under splicing, so "unary" can be read off the input);
        phase B merges maximal same-label clusters of the spliced tree into
        their topmost node.  Both phases are ``O(log n)`` rounds of array
        jumps.  The surviving nodes are numbered in the input's
        left-to-right preorder, which is the result's own preorder, so
        children keep their left-to-right order; ids that already are a
        preorder (parsed text, combined and canonical trees) need no
        numbering.
        """
        n = self.num_nodes
        if n == 0:
            return self
        if self.has_primes:
            # md_tree emits canonical trees; renumbering would invalidate
            # the local-slot quotient payload, so reject the rare non-
            # canonical case instead of silently corrupting it.
            if self.is_canonical():
                return self
            raise CotreeError("cannot canonicalize a tree with prime nodes")
        kind = self.kind
        parent = self.parent
        internal = kind != LEAF
        deg = self.degrees()
        unary = internal & (deg == 1)

        # ---- phase A: nearest non-unary ancestor-or-self ----------------- #
        # g(v) = v for kept nodes, parent(v) for unary nodes; chase to the
        # fixpoint.  A unary chain above the root resolves to -1, which makes
        # its first non-unary descendant the new root.
        g = np.where(unary, parent, np.arange(n, dtype=np.int64))
        g = _chase(g)
        kept = ~unary
        # effective parent in the spliced tree
        ep = np.full(n, -1, dtype=np.int64)
        has_p = parent != -1
        ep[has_p] = g[parent[has_p]]

        # ---- phase B: same-label cluster tops ----------------------------- #
        idx = np.flatnonzero(kept & internal & (ep != -1))
        same = np.zeros(n, dtype=bool)
        same[idx] = kind[ep[idx]] == kind[idx]
        h = np.where(same, ep, np.arange(n, dtype=np.int64))
        top = _chase(h)

        survives = kept & ~same
        # final parent of every surviving node: the cluster top of its
        # effective parent
        fp = np.full(n, -1, dtype=np.int64)
        sv = np.flatnonzero(survives)
        sv_ep = ep[sv]
        with_p = sv_ep != -1
        fp[sv[with_p]] = top[sv_ep[with_p]]

        # ---- compaction --------------------------------------------------- #
        if not _in_preorder(self):
            sv = sv[np.argsort(self.ordered_intervals[0][sv])]
        remap = np.full(n, -1, dtype=np.int64)
        remap[sv] = np.arange(len(sv), dtype=np.int64)
        new_kind = kind[sv]
        new_parent = np.where(fp[sv] != -1, remap[np.maximum(fp[sv], 0)], -1)
        new_leaf_vertex = self.leaf_vertex[sv]
        # children are listed in sv order
        return FlatCotree(new_kind, *_parent_csr(new_parent), new_parent,
                          new_leaf_vertex,
                          int(np.flatnonzero(new_parent == -1)[0]))

    # ------------------------------------------------------------------ #
    # dunder / misc
    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"FlatCotree(num_vertices={self.num_vertices}, "
                f"num_nodes={self.num_nodes})")

    def __eq__(self, other: object) -> bool:
        """Structural equality of the rooted, ordered trees."""
        if not isinstance(other, FlatCotree):
            return NotImplemented
        return (self.root == other.root
                and np.array_equal(self.kind, other.kind)
                and np.array_equal(self.child_offset, other.child_offset)
                and np.array_equal(self.child_index, other.child_index)
                and np.array_equal(self.leaf_vertex, other.leaf_vertex)
                and np.array_equal(self.q_offset, other.q_offset)
                and np.array_equal(self.q_edge_u, other.q_edge_u)
                and np.array_equal(self.q_edge_v, other.q_edge_v))

    def __hash__(self) -> int:
        return hash(canonical_key(self))


class LevelSchedule:
    """A tree's internal nodes grouped by depth, deepest level first, with
    their children gathered once (:attr:`FlatCotree.level_schedule`).

    Inside a level the nodes run by kind (union, join, prime) and by
    ascending id within a kind, so every ``(level, kind)`` group is one
    block of :attr:`nodes` and its children one block of :attr:`children`.
    The order is one stable sort of a ``(level, kind)`` key, a radix sort
    while the key fits 16 bits (height below ``2**16 / 3``).
    """

    __slots__ = ("nodes", "children", "seg", "levels")

    def __init__(self, flat: FlatCotree) -> None:
        inner = flat.internal_nodes
        depth = flat.depth[inner]
        height = int(depth.max()) if len(inner) else 0
        # the level from the bottom times PRIME plus the kind (1..PRIME)
        top = PRIME * (height + 1)
        key = ((height - depth) * PRIME + flat.kind[inner]).astype(
            np.min_scalar_type(top))
        order = np.argsort(key, kind="stable")
        #: internal node ids in schedule order
        self.nodes = inner[order]
        #: the children of :attr:`nodes` back to back; node ``i``'s are
        #: ``children[seg[i]:seg[i + 1]]``
        self.children, self.seg = gather_children(flat, self.nodes)
        bounds = np.searchsorted(key[order], np.arange(1, top + 2)).tolist()
        #: ``(depth, groups)`` per level, deepest first; ``groups`` lists
        #: the level's ``(kind, lo, hi)`` blocks of :attr:`nodes`
        self.levels: List[Tuple[int, List[Tuple[int, int, int]]]] = []
        for level in range(height + 1):
            cut = bounds[level * PRIME:(level + 1) * PRIME + 1]
            groups = [(kind, lo, hi) for kind, lo, hi in zip(
                range(1, PRIME + 1), cut, cut[1:]) if hi > lo]
            if groups:
                self.levels.append((height - level, groups))

    def block(self, lo: int, hi: int
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(nodes, children, seg_offsets)`` of ``nodes[lo:hi]``: their
        children back to back and each node's ``[start, end)`` in them."""
        seg = self.seg[lo:hi + 1]
        return self.nodes[lo:hi], self.children[seg[0]:seg[-1]], seg - seg[0]

    def of_kind(self, kind: int
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`block` of every node of ``kind``: its blocks of each
        level, deepest level first, joined."""
        # the empty block first keeps a kind the tree lacks well formed
        nodes, children, segs = zip(self.block(0, 0), *(
            self.block(lo, hi) for _, groups in self.levels
            for k, lo, hi in groups if k == kind))
        counts = np.concatenate([np.diff(part) for part in segs])
        return np.concatenate(nodes), np.concatenate(children), \
            np.append(0, np.cumsum(counts))


def gather_children(flat: FlatCotree, nodes: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Contiguous per-node child segments of ``nodes``.

    Returns ``(child_nodes, seg_offsets)`` where ``child_nodes`` lists the
    children of every node in ``nodes`` back to back and ``seg_offsets``
    (length ``len(nodes) + 1``) delimits each node's block.  Pure index
    arithmetic — no Python loop over nodes.
    """
    starts = flat.child_offset[nodes]
    counts = flat.child_offset[nodes + 1] - starts
    seg_offsets = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum(counts, out=seg_offsets[1:])
    # slot of child j of node i: starts[i] + (j - seg_offsets[i])
    pos = np.arange(int(seg_offsets[-1]), dtype=np.int64)
    pos -= np.repeat(seg_offsets[:-1] - starts, counts)
    return flat.child_index[pos], seg_offsets


def _spider_repeats(host: np.ndarray, eu: np.ndarray, ev: np.ndarray,
                    degree: np.ndarray, flagged: np.ndarray) -> bool:
    """Whether a spider lists a child-slot pair ``(u, v)`` twice: each
    spider's pairs take the codes ``u * degree + v`` in a block of
    ``degree**2`` of its own, so a repeat is a code hit twice.  The slots
    must lie in ``0..degree - 1`` and each spider list as many edges as
    its layout has, which makes ``degree**2`` at most nine times that."""
    on = flagged[host]
    if not on.all():
        host, eu, ev = host[on], eu[on], ev[on]
    block = np.where(flagged, degree * degree, 0)
    code = (np.cumsum(block) - block)[host] + eu * degree[host] + ev
    hit = np.zeros(int(block.sum()), dtype=bool)
    hit[code] = True
    return int(np.count_nonzero(hit)) < len(code)


def _refuse(bad: np.ndarray, message) -> None:
    """Raise ``CotreeError(message(i))`` at the first ``i`` where ``bad``."""
    if bad.any():
        raise CotreeError(message(int(np.flatnonzero(bad)[0])))


def _refuse_outside(values: np.ndarray, field: str, lo: int, hi: int,
                    hint: str = "") -> None:
    """Refuse any entry of ``values`` outside ``lo..hi`` (two reductions;
    the offender is located only on the error path)."""
    if len(values) and (int(values.min()) < lo or int(values.max()) > hi):
        pos = int(np.flatnonzero((values < lo) | (values > hi))[0])
        raise CotreeError(f"{field}[{pos}] = {int(values[pos])} is outside "
                          f"{lo}..{hi}{hint}")


def _parent_csr(parent: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(child_offset, child_index)`` from parent pointers: one stable sort
    by parent lists every node's children in id order."""
    child = np.flatnonzero(parent >= 0)
    offset = np.zeros(len(parent) + 1, dtype=np.int64)
    np.cumsum(np.bincount(parent[child], minlength=len(parent)),
              out=offset[1:])
    return offset, child[np.argsort(parent[child], kind="stable")]


def _in_preorder(flat: FlatCotree) -> bool:
    """Whether a tree's ids already are its left-to-right preorder, read
    without a DFS: the root is 0, every first child follows its parent, and
    every later child follows its elder sibling's rightmost descendant."""
    offset, kids = flat.child_offset, flat.child_index
    inner = flat.internal_nodes
    if flat.root != 0 or (kids[offset[inner]] != inner + 1).any():
        return False
    last = np.arange(flat.num_nodes, dtype=np.int64)
    last[inner] = kids[offset[inner + 1] - 1]
    rightmost = _chase(last)
    later = np.ones(len(kids), dtype=bool)
    later[offset[inner]] = False
    slot = np.flatnonzero(later)
    return bool((rightmost[kids[slot - 1]] == kids[slot] - 1).all())


def _stack_preorder(offset: np.ndarray, kids: np.ndarray, roots) -> List[int]:
    """The nodes of a CSR forest in preorder by an explicit stack: rows in
    stored order, trees in ``roots`` order, stopping after one visit per
    node even if the arrays are no forest."""
    n, kids, bounds = len(offset) - 1, kids.tolist(), offset.tolist()
    order: List[int] = []
    stack = [r for r in reversed(roots) if r >= 0]
    while stack and len(order) < n:
        u = stack.pop()
        order.append(u)
        stack.extend(reversed(kids[bounds[u]:bounds[u + 1]]))
    return order


def _stack_numbering(flat: FlatCotree) -> Tuple[np.ndarray, np.ndarray]:
    """:attr:`FlatCotree.ordered_intervals` without scipy."""
    order = _stack_preorder(flat.child_offset, flat.child_index,
                            flat.roots.tolist())
    size, parent = [1] * flat.num_nodes, flat.parent.tolist()
    for u in reversed(order):
        if parent[u] >= 0:
            size[parent[u]] += size[u]
    pre = np.zeros(flat.num_nodes, dtype=np.int64)
    pre[order] = np.arange(len(order), dtype=np.int64)
    return pre, np.asarray(size, dtype=np.int64)


def _children_csr(children) -> Tuple[np.ndarray, np.ndarray]:
    """``(child_offset, child_index)`` of one child-id list per node."""
    counts = np.fromiter(map(len, children), dtype=np.int64,
                         count=len(children))
    offset = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offset[1:])
    flat: List[int] = []
    for c in children:
        flat += c
    return offset, np.asarray(flat, dtype=np.int64)


def _int_array(values, field: str, dtype) -> np.ndarray:
    """``values`` as a 1-d integer array, or a :class:`CotreeError` naming
    ``field`` (never a raw ``OverflowError`` / ``TypeError``)."""
    try:
        out = np.asarray(values, dtype=dtype)
        if out.ndim == 1:
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    raise CotreeError(f"{field} must be a flat list of integers that fit in "
                      f"{np.dtype(dtype).name}")


def _from_lists(kind, children, leaf_vertex, root) -> FlatCotree:
    """The CSR arrays of a ``(kind, children, leaf_vertex, root)``
    spelling, shape kept.  Refuses, naming the field, only what stops the
    arrays being built: non-integer or oversized entries, ragged lists, a
    child id or root outside the node range; :meth:`FlatCotree.validate`
    decides the rest."""
    kind = _int_array(kind, "kind", np.int8)
    leaf_vertex = _int_array(leaf_vertex, "leaf_vertex", np.int64)
    try:
        offset, index = _children_csr(children)
        one_row_each = index.ndim == 1
    except (TypeError, ValueError, OverflowError):
        one_row_each = False
    if not one_row_each:
        raise CotreeError("children must hold one list of integer node ids "
                          "per node")
    n = len(kind)
    if not len(offset) - 1 == n == len(leaf_vertex):
        raise CotreeError("kind, children and leaf_vertex must have the "
                          "same length")
    if isinstance(root, bool) or not isinstance(root, (int, np.integer)) \
            or not (0 <= root < n or root == -1 == n - 1):
        raise CotreeError(f"root = {root!r} is not a node id 0..{n - 1}"
                          if n else "an empty cotree must have root -1")
    _refuse_outside(index, "children", 0, n - 1)
    parent = np.full(n, -1, dtype=np.int64)
    parent[index] = np.repeat(np.arange(n, dtype=np.int64), np.diff(offset))
    return FlatCotree(kind, offset, index, parent, leaf_vertex, root)


def as_flat_cotree(tree) -> FlatCotree:
    """Coerce a ``Cotree`` / ``BinaryCotree`` / ``FlatCotree`` to flat form."""
    return FlatCotree.from_cotree(tree)


# --------------------------------------------------------------------------- #
# array kernels
# --------------------------------------------------------------------------- #

#: trees up to this many nodes are numbered by the explicit stack: below
#: about 130 nodes it beats building scipy's sparse matrix (both kernels
#: timed on the trees the decomposer and ``canonical_key`` number; for
#: :attr:`FlatCotree.ordered_intervals` the crossover is near 180).
_STACK_NODES = 128


def _preorder_with_sibling_keys(parent: np.ndarray, root: int,
                                sibling_key: np.ndarray) -> np.ndarray:
    """Preorder numbers of an n-ary tree visiting siblings by ascending key.

    Uses the C-level sparse DFS on the first-child / next-sibling form when
    scipy is present and the tree has more than :data:`_STACK_NODES` nodes
    (linear however wide a node is), otherwise an explicit-stack traversal,
    which costs less than building the sparse matrix on small trees — both
    recursion-free.
    """
    n = len(parent)
    order = np.lexsort((sibling_key, parent))   # children grouped per parent
    child_sorted = order[parent[order] != -1]
    if _HAVE_SPARSE_DFS and n > _STACK_NODES and len(child_sorted) == n - 1:
        owner = parent[child_sorted]
        same = owner[1:] == owner[:-1]
        eldest = np.flatnonzero(np.r_[True, ~same])
        first = np.full(n, -1, dtype=np.int64)
        first[owner[eldest]] = child_sorted[eldest]
        nxt = np.full(n, -1, dtype=np.int64)
        nxt[child_sorted[:-1]] = np.where(same, child_sorted[1:], -1)
        pre = _sibling_chain_preorder(first, nxt, int(root))
        if pre is not None:
            return pre
        # fall through (unreachable nodes) to the stack traversal
    # CSR of children in sibling-key order for the explicit stack
    offset = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(parent[child_sorted], minlength=n), out=offset[1:])
    order = _stack_preorder(offset, child_sorted, [int(root)])
    pre = np.empty(n, dtype=np.int64)
    pre[order] = np.arange(len(order), dtype=np.int64)
    return pre


def _subtree_min_vertex(flat: FlatCotree, depth: np.ndarray) -> np.ndarray:
    """Minimum leaf vertex id in every node's subtree (height-independent).

    The tree's cached interval numbering makes every subtree a contiguous
    preorder interval, so a doubling sparse table answers all the interval
    minima at once: ``O(n log n)`` array work, no per-level loop, so deep
    caterpillars cost the same as balanced trees.  Without scipy one
    bottom-up pass (deepest nodes first) takes the minima instead.
    """
    n = flat.num_nodes
    INF = np.int64(2 ** 62)
    values = np.where(flat.kind == LEAF, flat.leaf_vertex, INF)
    numbering = flat.intervals if _HAVE_SPARSE_DFS else None
    if numbering is None:
        out = values.tolist()
        parent = flat.parent.tolist()
        for u in np.argsort(depth)[::-1].tolist():
            p = parent[u]
            if p >= 0 and out[u] < out[p]:
                out[p] = out[u]
        return np.asarray(out, dtype=np.int64)
    pre, size = numbering
    by_pre = np.empty(n, dtype=np.int64)
    by_pre[pre] = values                             # values in preorder

    # sparse table: tables[k][i] = min(by_pre[i : i + 2**k])
    tables = [by_pre]
    while (1 << len(tables)) <= n:
        span = 1 << (len(tables) - 1)
        prev = tables[-1]
        tables.append(np.minimum(prev[:-span], prev[span:]))

    # range minimum over [pre, pre + size): two overlapping power-of-two
    # windows, grouped by window level
    k = np.zeros(n, dtype=np.int64)
    big = size > 1
    k[big] = np.floor(np.log2(size[big].astype(np.float64))).astype(np.int64)
    out = np.empty(n, dtype=np.int64)
    for kk in np.unique(k):
        sel = np.flatnonzero(k == kk)
        tbl = tables[int(kk)]
        span = np.int64(1) << int(kk)
        out[sel] = np.minimum(tbl[pre[sel]],
                              tbl[pre[sel] + size[sel] - span])
    return out


def canonical_key(tree) -> Tuple:
    """A hashable canonical form of a cotree (iterative, array-based).

    Two cotrees get the same key iff they represent the same labelled
    cograph: the tree is canonicalised (properties (4) and (5)) and every
    node's children are ordered by the minimum vertex id in their subtree —
    sibling subtrees have disjoint leaf sets, so this order is total and
    independent of the input's child order.  The ordered canonical tree is
    then serialised as its preorder kind/depth/vertex sequences, which
    reconstruct it uniquely.

    Accepts :class:`Cotree`, ``BinaryCotree`` and :class:`FlatCotree`
    inputs; never recurses, so arbitrarily deep trees are safe.
    """
    flat = FlatCotree.from_cotree(tree)
    if flat.num_vertices > 1 and not flat.is_canonical():
        flat = flat.canonicalize()
    n = flat.num_nodes
    if n == 0:
        return ("cotree", 0)
    if n == 1:
        return ("cotree", 1, int(flat.leaf_vertex[flat.root]))
    depth = flat.depth
    minv = _subtree_min_vertex(flat, depth)
    pre = _preorder_with_sibling_keys(flat.parent, flat.root, minv)
    by_pre = np.empty(n, dtype=np.int64)
    by_pre[pre] = np.arange(n, dtype=np.int64)
    key = ("cotree", n,
           flat.kind[by_pre].tobytes(),
           depth[by_pre].astype(np.int64).tobytes(),
           flat.leaf_vertex[by_pre].astype(np.int64).tobytes())
    if not flat.has_primes:
        return key
    # fold the quotient-edge payload in, expressed in *canonical* child
    # numbering (rank by min subtree vertex — the key's sibling order), so
    # equal labelled graphs agree regardless of input child order.  Plain
    # cotrees never reach this branch: their key stays byte-identical to
    # the pre-MD format.
    primes = flat.prime_nodes
    parts = []
    for u in primes[np.argsort(pre[primes])]:
        cs = flat.children_of(u)
        rank = np.empty(len(cs), dtype=np.int64)
        rank[np.argsort(minv[cs], kind="stable")] = np.arange(
            len(cs), dtype=np.int64)
        eu, ev = flat.quotient_of(u)
        a = rank[eu]
        b = rank[ev]
        enc = np.minimum(a, b) * len(cs) + np.maximum(a, b)
        parts.append(np.int64(len(cs)).tobytes()
                     + np.sort(enc).astype(np.int64).tobytes())
    return key + ("prime", b"".join(parts))
