"""Binary cotree (``Tb(G)``) in structure-of-arrays form.

The parallel algorithm operates on a *binarized* cotree in which every
internal node has exactly two children (Fig. 3 of the paper).  Binarisation
replaces a node with ``k >= 3`` children by a chain of ``k - 1`` binary nodes
carrying the same label; because union and join are associative this does not
change the represented cograph, although property (5) (alternating labels) no
longer holds along the introduced chains.

The arrays are laid out so that the parallel primitives
(:mod:`repro.primitives`) can operate on them directly with NumPy
vectorisation — this is the "structure of arrays, not array of structures"
idiom recommended for HPC-style Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .cotree import LEAF, Cotree, CotreeError, prime_refusal
from .flat import as_flat_cotree

__all__ = ["BinaryCotree", "binarize_cotree"]


@dataclass
class BinaryCotree:
    """A full binary cotree in structure-of-arrays form.

    Attributes
    ----------
    kind:
        ``int8`` array of node kinds (:data:`~repro.cograph.cotree.LEAF`,
        :data:`~repro.cograph.cotree.UNION`,
        :data:`~repro.cograph.cotree.JOIN`).
    left, right:
        child arrays; ``-1`` for leaves.
    parent:
        parent array; ``-1`` for the root.
    leaf_vertex:
        vertex id carried by each leaf node (``-1`` for internal nodes).
    root:
        root node id (the first of ``roots``).
    roots:
        ``int64`` array of every root node id: ``[root]`` for a single
        tree (the default), one root per instance for the binarized form
        of a packed :class:`~repro.cograph.forest.FlatForest`.

    A binary cotree over ``n`` vertices in ``k`` trees has exactly
    ``2n - k`` nodes (every internal node has two children).
    """

    kind: np.ndarray
    left: np.ndarray
    right: np.ndarray
    parent: np.ndarray
    leaf_vertex: np.ndarray
    root: int
    roots: np.ndarray = None

    def __post_init__(self) -> None:
        self.kind = np.asarray(self.kind, dtype=np.int8)
        self.left = np.asarray(self.left, dtype=np.int64)
        self.right = np.asarray(self.right, dtype=np.int64)
        self.parent = np.asarray(self.parent, dtype=np.int64)
        self.leaf_vertex = np.asarray(self.leaf_vertex, dtype=np.int64)
        self.root = int(self.root)
        self.roots = np.asarray([self.root] if self.roots is None
                                else self.roots, dtype=np.int64)
        if len(self.roots) == 0 or int(self.roots[0]) != self.root:
            raise CotreeError(f"root {self.root} must be the first of "
                              f"roots {self.roots.tolist()[:8]}")

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        """Total number of nodes."""
        return len(self.kind)

    @property
    def num_vertices(self) -> int:
        """Number of leaves (= cograph vertices)."""
        return int(np.count_nonzero(self.kind == LEAF))

    @property
    def leaves(self) -> np.ndarray:
        """Leaf node ids."""
        return np.flatnonzero(self.kind == LEAF)

    @property
    def internal_nodes(self) -> np.ndarray:
        """Internal node ids."""
        return np.flatnonzero(self.kind != LEAF)

    def is_leaf(self, node: int) -> bool:
        """True when ``node`` is a leaf."""
        return bool(self.kind[node] == LEAF)

    def is_left_child(self, node: int) -> bool:
        """True when ``node`` is the left child of its parent."""
        p = self.parent[node]
        return p != -1 and self.left[p] == node

    def is_right_child(self, node: int) -> bool:
        """True when ``node`` is the right child of its parent."""
        p = self.parent[node]
        return p != -1 and self.right[p] == node

    def vertex_to_leaf(self) -> dict:
        """Mapping vertex id -> leaf node id."""
        return {int(self.leaf_vertex[u]): int(u) for u in self.leaves}

    # ------------------------------------------------------------------ #
    # traversal helpers (sequential; used by tests and baselines), read off
    # the two-slot CSR form's numbering kernels
    # ------------------------------------------------------------------ #

    def postorder(self) -> List[int]:
        """Node ids in postorder (tree by tree, in ``roots`` order)."""
        return as_flat_cotree(self).postorder().tolist()

    def preorder(self) -> List[int]:
        """Node ids in preorder (tree by tree, in ``roots`` order)."""
        return as_flat_cotree(self).preorder().tolist()

    def inorder_leaves(self) -> List[int]:
        """Vertex ids of the leaves in left-to-right order."""
        return as_flat_cotree(self).leaf_spans()[0].tolist()

    def depth(self) -> np.ndarray:
        """Depth of each node (root depth 0)."""
        return as_flat_cotree(self).depth

    def height(self) -> int:
        """Tree height in edges."""
        if self.num_nodes <= 1:
            return 0
        return int(self.depth().max())

    def subtree_leaf_counts(self) -> np.ndarray:
        """``L(u)`` — number of leaf descendants — for every node."""
        _, lo, hi = as_flat_cotree(self).leaf_spans()
        return hi - lo

    # ------------------------------------------------------------------ #
    # validation / conversion
    # ------------------------------------------------------------------ #

    def validate(self) -> "BinaryCotree":
        """Return ``self`` if every tree is a full binary cotree, else raise
        :class:`CotreeError`: :meth:`~repro.cograph.FlatCotree.validate` on
        the CSR form, two children per internal node, ``2k - t`` nodes."""
        n = self.num_nodes
        if not (len(self.left) == len(self.right) == len(self.parent)
                == len(self.leaf_vertex) == n):
            raise CotreeError("array length mismatch in BinaryCotree")
        as_flat_cotree(self).validate()
        one_child = (self.kind != LEAF) & ((self.left == -1)
                                           | (self.right == -1))
        if one_child.any():
            raise CotreeError(f"left / right: internal node "
                              f"{int(np.flatnonzero(one_child)[0])} has one "
                              f"child (a binary cotree has two)")
        if self.num_vertices >= 1 and \
                n != 2 * self.num_vertices - len(self.roots):
            raise CotreeError("a full binary forest over k leaves in t trees "
                              "must have 2k-t nodes")
        return self

    def to_cotree(self) -> Cotree:
        """Convert back to an arbitrary-arity :class:`Cotree` (same shape)."""
        return as_flat_cotree(self).to_cotree()

    def copy(self) -> "BinaryCotree":
        """Deep copy."""
        return BinaryCotree(self.kind.copy(), self.left.copy(),
                            self.right.copy(), self.parent.copy(),
                            self.leaf_vertex.copy(), self.root,
                            self.roots.copy())

    def swap_children(self, nodes: Sequence[int]) -> "BinaryCotree":
        """Return a copy with left/right swapped at the given nodes."""
        out = self.copy()
        nodes = np.asarray(list(nodes), dtype=np.int64)
        if len(nodes):
            tmp = out.left[nodes].copy()
            out.left[nodes] = out.right[nodes]
            out.right[nodes] = tmp
        return out


def binarize_cotree(tree) -> BinaryCotree:
    """Binarize a cotree: replace every node with ``k >= 3`` children by a
    left-deep chain of ``k - 1`` binary nodes with the same label (Fig. 3).

    The direct version, numbered in the input's postorder (a leaf's node,
    then each internal node's chain); the PRAM-costed version used by the
    optimal pipeline lives in :mod:`repro.core.binarize` and produces the
    same tree.  Accepts a :class:`Cotree` or a ``FlatCotree``.

    A single-vertex cotree maps to a single-leaf binary cotree.

    Raises
    ------
    CotreeError
        if the input has a unary internal node (call
        :meth:`Cotree.canonicalize` first).
    """
    flat = as_flat_cotree(tree)
    if flat.num_vertices == 0:
        raise CotreeError("cannot binarize an empty cotree")
    if flat.has_primes:
        raise prime_refusal("binarize_cotree")
    kind, degree = flat.kind, flat.degrees()
    leaf = kind == LEAF
    unary = np.flatnonzero(~leaf & (degree < 2))
    if len(unary):
        u = int(unary[0])
        raise CotreeError(
            f"internal node {u} has {degree[u]} child(ren); canonicalize "
            "the cotree before binarizing")
    # node u becomes `count` consecutive new nodes from `base`, in postorder
    post = flat.postorder()
    count = np.where(leaf, 1, degree - 1)
    base = np.empty_like(count)
    base[post] = np.cumsum(count[post]) - count[post]
    built = base + count - 1                # the node standing for u
    # child slot i >= 1 of u feeds chain node base[u] + i - 1: its right
    # child, with the chain so far (or the first child) on its left
    owner = np.repeat(np.arange(flat.num_nodes), degree)
    slot = np.arange(len(owner)) - flat.child_offset[owner]
    later = slot >= 1
    node = base[owner[later]] + slot[later] - 1
    m = int(count.sum())
    left = np.full(m, -1, dtype=np.int64)
    right = np.full(m, -1, dtype=np.int64)
    right[node] = built[flat.child_index[later]]
    left[node] = np.where(slot[later] == 1,
                          built[flat.child_index[np.flatnonzero(later) - 1]],
                          node - 1)
    parent = np.full(m, -1, dtype=np.int64)
    parent[left[node]] = parent[right[node]] = node
    return BinaryCotree(np.repeat(kind[post], count[post]), left, right,
                        parent,
                        np.repeat(np.where(leaf, flat.leaf_vertex, -1)[post],
                                  count[post]),
                        int(built[flat.root]))
