"""Packing many small cotrees into one disjoint CSR forest.

The level-wise DP engine (:mod:`repro.core.dp`) and the path-cover pipeline
are loop-free *per instance*: every stage is a handful of NumPy dispatches
over arrays indexed by node id.  At small ``n`` that fixed dispatch cost
dominates, so solving thousands of tiny instances one by one (or fanning
them out over a process pool, paying pickling on top) wastes almost all of
its time outside the actual arithmetic.

Because both the engine and the pipeline key everything off ``parent`` /
``child_offset`` arrays — and none of the kernels ever walks *across* a
``-1`` parent — a list of instances can be concatenated into one big
disjoint forest and swept in a single pass:

* :class:`FlatForest` is a :class:`FlatCotree` whose arrays hold ``k``
  disjoint trees.  Node ids, CSR edges and (crucially) *vertex ids* are
  globally shifted so the packed object looks like one giant instance;
  ``node_base`` / ``vertex_base`` offset arrays and a per-node
  ``instance_id`` recover the per-instance view.
* :func:`pack` builds a forest from a list of trees; :func:`unpack` inverts
  it exactly (``unpack(pack(ts))[i] == as_flat_cotree(ts[i])``).

Every tree already exposes its ``roots`` array (``[root]`` for a single
tree), and every pipeline stage and the DP engine run over that array, so
a forest needs no code path of its own: binarizing one gives a
:class:`~repro.cograph.binary.BinaryCotree` whose ``roots`` lists every
instance.

``leaf_vertex`` holds the *globally shifted* vertex ids (instance ``i``'s
vertices live in ``[vertex_base[i], vertex_base[i+1])``) so that pipeline
stages operating on the vertex universe need no per-instance handling;
``leaf_vertex_local`` keeps the original per-instance ids so DP leaf
initialisers see exactly the values a solo run would.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .cotree import LEAF, CotreeError
from .flat import FlatCotree, _refuse, as_flat_cotree

__all__ = ["FlatForest", "pack", "unpack"]


class FlatForest(FlatCotree):
    """``k`` disjoint cotrees packed into one CSR struct-of-arrays.

    Additional attributes
    ---------------------
    roots:
        ``int64`` array of length ``k``: the (global) root node id of every
        instance, ``-1`` for an empty instance.
    instance_id:
        per-node instance index (length ``num_nodes``).
    node_base:
        ``int64`` array of length ``k + 1``; instance ``i`` owns nodes
        ``[node_base[i], node_base[i+1])``.
    vertex_base:
        ``int64`` array of length ``k + 1``; instance ``i`` owns (global)
        vertices ``[vertex_base[i], vertex_base[i+1])``.
    leaf_vertex_local:
        the instances' original (un-shifted) leaf vertex ids.

    The inherited ``root`` attribute is the first non-empty instance's root
    (or ``-1`` for an all-empty forest); code that is forest-aware should
    use ``roots`` instead.
    """

    __slots__ = ("instance_id", "node_base", "vertex_base",
                 "leaf_vertex_local")

    def __init__(self, kind, child_offset, child_index, parent, leaf_vertex,
                 roots, instance_id, node_base, vertex_base,
                 leaf_vertex_local) -> None:
        roots = np.asarray(roots, dtype=np.int64)
        real = roots[roots >= 0]
        super().__init__(kind, child_offset, child_index, parent, leaf_vertex,
                         int(real[0]) if len(real) else -1)
        self.roots = roots
        self.instance_id = np.asarray(instance_id, dtype=np.int64)
        self.node_base = np.asarray(node_base, dtype=np.int64)
        self.vertex_base = np.asarray(vertex_base, dtype=np.int64)
        self.leaf_vertex_local = np.asarray(leaf_vertex_local, dtype=np.int64)

    @property
    def num_instances(self) -> int:
        """Number of packed instances (including empty ones)."""
        return len(self.roots)

    def validate(self) -> "FlatForest":
        """:meth:`FlatCotree.validate`, plus the pack bookkeeping: one
        ``node_base`` range per root (empty for ``-1``) that no parent
        pointer leaves, with ``instance_id`` following it, and
        ``vertex_base`` / ``leaf_vertex_local`` giving instance ``i`` the
        local vertex ids ``0..n_i-1``."""
        super().validate()
        n, k, roots, kids = (self.num_nodes, self.num_instances, self.roots,
                             self.child_index)
        nb, vb, inst = self.node_base, self.vertex_base, self.instance_id
        size = np.diff(nb)
        if len(nb) != k + 1 or int(nb[0]) != 0 or int(nb[-1]) != n \
                or np.any(size < 0) or not np.array_equal(
                    inst, np.repeat(np.arange(k, dtype=np.int64), size)):
            raise CotreeError("node_base / instance_id do not split the "
                              "nodes into one consecutive range per root")
        _refuse(np.where(size == 0, roots != -1,
                         (roots < nb[:-1]) | (roots >= nb[1:])), lambda i: (
            f"roots[{i}] = {roots[i]} is not in instance {i}'s nodes "
            f"{nb[i]}..{nb[i + 1] - 1}"))
        _refuse(inst[kids] != inst[self.parent[kids]], lambda s: (
            f"parent[{kids[s]}] = {self.parent[kids[s]]} links instance "
            f"{inst[kids[s]]} to another"))
        leaves = self.leaves
        owner = inst[leaves]
        counts = np.bincount(owner, minlength=k)
        if len(vb) != k + 1 or int(vb[0]) != 0 \
                or not np.array_equal(np.diff(vb), counts) \
                or len(self.leaf_vertex_local) != n:
            raise CotreeError("vertex_base / leaf_vertex_local do not count "
                              "every instance's leaves")
        local = self.leaf_vertex_local[leaves]
        _refuse((local < 0) | (local >= counts[owner])
                | (self.leaf_vertex[leaves] != local + vb[owner]), lambda i: (
            f"leaf_vertex_local[{leaves[i]}] = {local[i]} is not "
            f"leaf_vertex - vertex_base in 0..{counts[owner[i]] - 1}"))
        return self

    def instance_of_vertex(self, vertices) -> np.ndarray:
        """Instance index owning each (global) vertex id."""
        v = np.asarray(vertices, dtype=np.int64)
        return np.searchsorted(self.vertex_base, v, side="right") - 1

    def copy(self) -> "FlatForest":
        return FlatForest(self.kind.copy(), self.child_offset.copy(),
                          self.child_index.copy(), self.parent.copy(),
                          self.leaf_vertex.copy(), self.roots.copy(),
                          self.instance_id.copy(), self.node_base.copy(),
                          self.vertex_base.copy(),
                          self.leaf_vertex_local.copy())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"FlatForest(num_instances={self.num_instances}, "
                f"num_vertices={self.num_vertices}, "
                f"num_nodes={self.num_nodes})")


def pack(trees: Sequence) -> FlatForest:
    """Pack a list of cotrees into one :class:`FlatForest`.

    Every input is coerced via :func:`as_flat_cotree`, and the packed
    forest passes :meth:`FlatForest.validate` — one vectorized pass checks
    every instance (vertex ids ``0 .. n_i - 1`` included); a refusal names
    the instance at fault.  Empty instances pack to an empty node range
    with root ``-1``.
    """
    flats = [t if type(t) is FlatCotree else as_flat_cotree(t)
             for t in trees]
    for i, f in enumerate(flats):
        if f.has_primes:
            raise ValueError(f"instance {i}: modular decomposition trees "
                             f"with prime nodes cannot be forest-packed")
        # the packed offsets re-derive each instance's CSR span: a wrong
        # one would be repaired silently, not caught below
        if len(f.child_offset) != len(f.kind) + 1 or f.child_offset[0] \
                or f.child_offset[-1] != len(f.child_index):
            _refuse_instance(i, f)
    k = len(flats)
    num_nodes = np.fromiter((len(f.kind) for f in flats), np.int64, count=k)
    num_edges = np.fromiter((len(f.child_index) for f in flats),
                            np.int64, count=k)
    node_base = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(num_nodes, out=node_base[1:])
    edge_base = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(num_edges, out=edge_base[1:])

    def cat(arrays, dtype):
        arrays = [a for a in arrays if len(a)]
        if not arrays:
            return np.empty(0, dtype=dtype)
        return np.concatenate(arrays).astype(dtype, copy=False)

    # concatenate every field raw, then shift in ONE vectorized pass per
    # field (per-instance arithmetic would cost k NumPy dispatches each —
    # the very overhead packing exists to amortise)
    kind = cat([f.kind for f in flats], np.int8)
    total_nodes = int(node_base[-1])
    node_shift = np.repeat(node_base[:-1], num_nodes)
    leaf_vertex_local = cat([f.leaf_vertex for f in flats], np.int64)
    leaf_pos = np.flatnonzero(kind == LEAF)
    # leaves per instance, from where node_base lands between leaf positions
    num_verts = np.diff(np.searchsorted(leaf_pos, node_base))
    vertex_base = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(num_verts, out=vertex_base[1:])

    shifted = leaf_vertex_local[leaf_pos] + np.repeat(vertex_base[:-1],
                                                      num_verts)

    raw_roots = np.fromiter((f.root for f in flats), np.int64, count=k)
    roots = np.where(num_nodes > 0, raw_roots + node_base[:-1],
                     np.int64(-1))
    child_index = cat([f.child_index for f in flats], np.int64)
    child_index += np.repeat(node_base[:-1], num_edges)
    child_offset = np.empty(total_nodes + 1, dtype=np.int64)
    child_offset[-1] = edge_base[-1]
    child_offset[:-1] = cat([f.child_offset[:-1] for f in flats], np.int64) \
        + np.repeat(edge_base[:-1], num_nodes)
    raw_parent = cat([f.parent for f in flats], np.int64)
    parent = np.where(raw_parent < 0, raw_parent, raw_parent + node_shift)
    leaf_vertex = np.full(total_nodes, -1, dtype=np.int64)
    leaf_vertex[leaf_pos] = shifted
    instance_id = np.repeat(np.arange(k, dtype=np.int64), num_nodes)
    forest = FlatForest(kind, child_offset, child_index, parent, leaf_vertex,
                        roots, instance_id, node_base, vertex_base,
                        leaf_vertex_local)
    try:
        return forest.validate()
    except CotreeError:
        for i, f in enumerate(flats):       # name the instance at fault
            _refuse_instance(i, f)
        raise


def _refuse_instance(i: int, tree: FlatCotree) -> None:
    """Re-raise ``tree``'s validation failure as instance ``i``'s."""
    try:
        tree.validate()
    except CotreeError as exc:
        raise CotreeError(f"instance {i}: {exc}") from None


def unpack(forest: FlatForest) -> List[FlatCotree]:
    """Invert :func:`pack`: recover each instance as a :class:`FlatCotree`.

    The returned trees compare equal (``==``) to ``as_flat_cotree`` of the
    packed inputs; empty instances come back as empty trees with root
    ``-1``.
    """
    out: List[FlatCotree] = []
    nb = forest.node_base
    co = forest.child_offset
    for i in range(forest.num_instances):
        lo, hi = int(nb[i]), int(nb[i + 1])
        elo, ehi = int(co[lo]), int(co[hi])
        kind = forest.kind[lo:hi].copy()
        offset = (co[lo:hi + 1] - elo).copy()
        index = (forest.child_index[elo:ehi] - lo).copy()
        par = forest.parent[lo:hi]
        parent = np.where(par < 0, np.int64(-1), par - lo)
        leaf_vertex = forest.leaf_vertex_local[lo:hi].copy()
        r = int(forest.roots[i])
        out.append(FlatCotree(kind, offset, index, parent,
                              leaf_vertex, r - lo if r >= 0 else -1))
    return out
