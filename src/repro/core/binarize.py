"""Step 1 — binarize the cotree (``T(G)`` → ``Tb(G)``), PRAM-costed.

Every internal node with ``k >= 3`` children is replaced by a left-deep chain
of ``k - 1`` binary nodes carrying the same label (Fig. 3).  In parallel this
is an id-allocation problem: prefix sums over the child counts give every
original node the block of new node ids its chain occupies, after which each
child can compute its new parent (and each chain node its children) with O(1)
work, independently of all others.

The output is identical to the sequential
:func:`repro.cograph.binary.binarize_cotree` (the tests assert this); the
point of this module is that the transformation costs ``O(log n)`` time and
``O(n)`` work on the simulator, matching the citation of [1] in Section 5 of
the paper.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..backends import resolve_context
from ..cograph import BinaryCotree, Cotree, CotreeError, FlatCotree
from ..cograph.cotree import LEAF
from ..primitives import prefix_sum

__all__ = ["binarize_parallel"]


def binarize_parallel(ctx, tree: Union[Cotree, FlatCotree], *,
                      label: str = "binarize") -> BinaryCotree:
    """Binarize a (canonical) cotree with PRAM accounting.

    Parameters
    ----------
    ctx:
        execution context (or a raw PRAM machine / backend name / ``None``).
    tree:
        the input cotree — a :class:`Cotree` or, on the hot path, a
        :class:`FlatCotree` whose CSR arrays are consumed directly; every
        internal node must have at least two children.

    Returns
    -------
    BinaryCotree
        the binarized cotree ``Tb(G)``; its ``roots`` holds one root per
        input tree (one per instance of a packed forest).
    """
    machine = resolve_context(ctx)
    flat = FlatCotree.from_cotree(tree)
    n_old = flat.num_nodes
    if flat.num_vertices == 0:
        raise CotreeError("cannot binarize an empty cotree")

    kind_old = np.asarray(flat.kind, dtype=np.int64)
    child_count = flat.degrees()
    internal = kind_old != LEAF
    if np.any(internal & (child_count < 2)):
        raise CotreeError("binarize_parallel requires every internal node to "
                          "have at least two children (canonicalize first)")

    # CSR layout of the children lists: child_index[child_offset[u]:...+k]
    child_offset_incl = prefix_sum(machine, child_count, inclusive=True,
                                   label=f"{label}.csr")
    child_offset = child_offset_incl - child_count
    total_children = int(child_offset_incl[-1]) if n_old else 0
    child_index = flat.child_index
    # position among siblings: index within the CSR segment
    child_pos_of = np.zeros(n_old, dtype=np.int64)
    child_pos_of[child_index] = np.arange(total_children, dtype=np.int64) \
        - np.repeat(child_offset, child_count)
    with machine.step(active=max(1, len(child_index)), label=f"{label}:csr-fill"):
        pass  # the flattening above is one O(1)-depth scatter per child

    # Each internal node u with k children contributes k-1 chain nodes; leaves
    # contribute one node.  Allocate new ids: leaves first keep a compact
    # id block, then chains (any consistent scheme works; we keep original
    # leaves' relative order so vertex ids are easy to track).
    contribution = np.where(internal, child_count - 1, 1)
    alloc_incl = prefix_sum(machine, contribution, inclusive=True,
                            label=f"{label}.alloc")
    first_new_id = alloc_incl - contribution
    n_new = int(alloc_incl[-1])

    kind_new = np.zeros(n_new, dtype=np.int8)
    left_new = np.full(n_new, -1, dtype=np.int64)
    right_new = np.full(n_new, -1, dtype=np.int64)
    leaf_vertex_new = np.full(n_new, -1, dtype=np.int64)

    # "representative" of an original node: the new id of its chain's top
    # (for internal nodes the last chain node; for leaves their own new id).
    rep = np.where(internal, first_new_id + contribution - 1, first_new_id)

    with machine.step(active=n_old, label=f"{label}:emit-nodes"):
        # leaves keep their vertex ids; chain nodes inherit their original
        # node's label in the wiring step below.
        leaf_nodes = np.flatnonzero(~internal)
        kind_new[rep[leaf_nodes]] = LEAF
        leaf_vertex_new[rep[leaf_nodes]] = flat.leaf_vertex[leaf_nodes]

    # chain wiring: for original internal node u with children c_0..c_{k-1}
    # and chain nodes q_0..q_{k-2} (= first_new_id[u] .. rep[u]):
    #   left(q_0)  = rep[c_0],  right(q_0) = rep[c_1]
    #   left(q_j)  = q_{j-1},   right(q_j) = rep[c_{j+1}]   (j >= 1)
    # Every child c of u knows its position i = child_pos_of[c], so each
    # child writes exactly one child pointer: this is one parallel step over
    # all children.
    parent_old = flat.parent
    all_children = np.flatnonzero(parent_old != -1)
    with machine.step(active=max(1, len(all_children)), label=f"{label}:wire"):
        u_of = parent_old[all_children]
        i_of = child_pos_of[all_children]
        q0 = first_new_id[u_of]
        target = np.where(i_of == 0, q0, q0 + i_of - 1)
        side_left = i_of == 0
        left_new[target[side_left]] = rep[all_children[side_left]]
        right_new[target[~side_left]] = rep[all_children[~side_left]]
        # internal chain links: q_j's left child is q_{j-1}; each internal
        # node u with k >= 3 children contributes links at offsets 1..k-2
        # (one flat arange minus a per-segment base recovers the offsets).
        internal_nodes = np.flatnonzero(internal)
        link_counts = np.maximum(child_count[internal_nodes] - 2, 0)
        if link_counts.sum():
            link_base = np.repeat(first_new_id[internal_nodes], link_counts)
            seg_start = np.repeat(np.cumsum(link_counts) - link_counts,
                                  link_counts)
            js = np.arange(int(link_counts.sum()), dtype=np.int64) - \
                seg_start + 1
            left_new[link_base + js] = link_base + js - 1
        chain_counts = (child_count - 1)[internal_nodes]
        kinds_chain = np.repeat(kind_old[internal_nodes], chain_counts)
        if internal_nodes.size:
            chain_base = np.repeat(first_new_id[internal_nodes], chain_counts)
            chain_seg = np.repeat(np.cumsum(chain_counts) - chain_counts,
                                  chain_counts)
            chain_ids = chain_base + \
                np.arange(int(chain_counts.sum()), dtype=np.int64) - chain_seg
        else:
            chain_ids = np.empty(0, dtype=np.int64)
        kind_new[chain_ids] = kinds_chain.astype(np.int8)

    parent_new = np.full(n_new, -1, dtype=np.int64)
    has_l = np.flatnonzero(left_new != -1)
    has_r = np.flatnonzero(right_new != -1)
    with machine.step(active=len(has_l) + len(has_r), label=f"{label}:parents"):
        parent_new[left_new[has_l]] = has_l
        parent_new[right_new[has_r]] = has_r

    # one root per tree: a packed forest keeps its per-instance root map
    roots = flat.roots
    if np.any(roots < 0):
        raise CotreeError("cannot binarize an empty instance (root -1)")
    roots_new = rep[roots]
    return BinaryCotree(kind_new, left_new, right_new, parent_new,
                        leaf_vertex_new, int(roots_new[0]), roots_new)
