"""Step 4 — generate the bracket sequence ``B(R)`` of the reduced cotree.

Every cograph vertex (and every dummy vertex) contributes a fixed pattern of
brackets; the concatenation order is the one induced by
``B(u) = B(v) · B(w)`` at 0-nodes and ``B(u) = B(v) · suffix(u)`` at 1-nodes
(Section 4 of the paper).  Concretely the sequence is a concatenation of
*blocks*, one per **emitter**:

* a primary vertex ``x`` emits ``x_p[  x_l(  x_r(``;
* an active 1-node ``u`` (Case 1, ``p(v) > L(w)``) emits, for each of its
  ``L(w)`` bridge vertices ``s_i``:  ``s_i^r]  s_i^l]  s_i^p[``;
* an active 1-node ``u`` (Case 2, ``p(v) <= L(w)``) emits the bridge pattern
  for its ``p(v) - 1`` bridge vertices, then one ``)`` per insert vertex
  (parent finders), then one ``)`` per dummy vertex, then one ``(`` per dummy
  vertex (child finders), then ``( (`` per insert vertex — exactly the
  dummy-augmented ``B(u)`` displayed at the end of Section 4.

Blocks are ordered by the preorder number of their *anchor* (the primary leaf
itself, or the 1-node's right child), which reproduces the recursive
concatenation order; offsets come from one prefix sum, and every bracket is
then written independently in O(1) — the whole step is ``O(log n)`` time and
``O(n)`` work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..backends import resolve_context
from ..cograph.cotree import JOIN, LEAF
from ..primitives import prefix_sum
from .reduce import ReducedCotree, VertexClass

__all__ = ["ROLE_P", "ROLE_L", "ROLE_R", "BracketSequence", "generate_brackets",
           "render_brackets"]

#: bracket roles (the superscripts p, l, r of the paper)
ROLE_P = 0
ROLE_L = 1
ROLE_R = 2


@dataclass
class BracketSequence:
    """The bracket sequence ``B(R)`` in structure-of-arrays form.

    ``vertex[i]`` is a cograph vertex id (``< num_real``) or a dummy id
    (``>= num_real``); ``role`` is one of :data:`ROLE_P` / :data:`ROLE_L` /
    :data:`ROLE_R`; ``is_square`` selects square vs round brackets and
    ``is_open`` opening vs closing ones.

    Every close bracket of either class (square, round) is matched inside
    its own tree.  A packed forest's sequence is its instances' sequences
    laid end to end in root order, so matching it pairs no bracket across
    two instances (:func:`~repro.primitives.match_brackets`).
    """

    vertex: np.ndarray
    role: np.ndarray
    is_square: np.ndarray
    is_open: np.ndarray
    num_real: int
    num_dummies: int
    dummy_owner: np.ndarray      # owning active 1-node of each dummy
    dummy_ids: np.ndarray        # the dummy vertex ids (num_real + arange)

    def __len__(self) -> int:
        return len(self.vertex)

    def total_nodes(self) -> int:
        """Real vertices plus dummies — the node universe of the path trees."""
        return self.num_real + self.num_dummies


def generate_brackets(ctx, reduced: ReducedCotree, *,
                      label: str = "brackets") -> BracketSequence:
    """Emit the bracket sequence of the reduced cotree."""
    machine = resolve_context(ctx)
    tree = reduced.tree
    n_nodes = tree.num_nodes
    n_vertices = tree.num_vertices
    kind = np.asarray(tree.kind, dtype=np.int64)
    pre = reduced.numbers.preorder
    p = reduced.p
    L = reduced.leaf_count

    leaves = tree.leaves
    leaf_vertex = np.asarray(tree.leaf_vertex)
    is_primary_leaf = np.zeros(n_nodes, dtype=bool)
    primary_vertices = np.flatnonzero(reduced.vertex_class == VertexClass.PRIMARY)
    # map vertex id -> leaf node id
    leaf_of_vertex = np.zeros(n_vertices, dtype=np.int64)
    leaf_of_vertex[leaf_vertex[leaves]] = leaves
    is_primary_leaf[leaf_of_vertex[primary_vertices]] = True

    active_joins = reduced.active_join_nodes()

    # ---- per-anchor block lengths ---------------------------------------- #
    # anchor of a primary leaf is the leaf node; anchor of an active 1-node
    # is its right child (the root of the flattened region), which keeps the
    # block in the position the recursion would put it.
    block_len_by_anchor = np.zeros(n_nodes, dtype=np.int64)
    block_len_by_anchor[is_primary_leaf] = 3
    if len(active_joins):
        p_v = p[tree.left[active_joins]]
        L_w = L[tree.right[active_joins]]
        case1 = p_v > L_w
        n_bridge = np.where(case1, L_w, p_v - 1)
        n_ins = np.where(case1, 0, L_w - p_v + 1)
        n_dum = np.where(case1, 0, 2 * p_v - 2)
        block_len = 3 * n_bridge + 3 * n_ins + 2 * n_dum
        block_len_by_anchor[tree.right[active_joins]] = block_len

    # ---- block offsets (prefix sum in preorder order) --------------------- #
    len_by_pre = np.zeros(n_nodes, dtype=np.int64)
    len_by_pre[pre] = block_len_by_anchor
    offset_by_pre = prefix_sum(machine, len_by_pre, inclusive=False,
                               label=f"{label}.offsets")
    block_start = np.zeros(n_nodes, dtype=np.int64)
    block_start[np.arange(n_nodes)] = offset_by_pre[pre]
    total = int(len_by_pre.sum())

    # ---- dummy id allocation ---------------------------------------------- #
    num_dummies_of = reduced.num_dummies_of
    dummies_of_joins = num_dummies_of[active_joins] if len(active_joins) else \
        np.zeros(0, dtype=np.int64)
    dummy_offsets = prefix_sum(machine, dummies_of_joins, inclusive=False,
                               label=f"{label}.dummies")
    total_dummies = int(dummies_of_joins.sum())
    dummy_owner = np.zeros(total_dummies, dtype=np.int64)
    if total_dummies:
        # owner of dummy j: the active join whose block it belongs to
        dummy_owner = np.repeat(active_joins, dummies_of_joins)
    dummy_ids = n_vertices + np.arange(total_dummies, dtype=np.int64)

    # ---- emit ------------------------------------------------------------- #
    out_vertex = np.full(total, -1, dtype=np.int64)
    out_role = np.zeros(total, dtype=np.int64)
    out_square = np.zeros(total, dtype=bool)
    out_open = np.zeros(total, dtype=bool)

    def emit(pos, vertex, role, square, open_):
        out_vertex[pos] = vertex
        out_role[pos] = role
        out_square[pos] = square
        out_open[pos] = open_

    # primary vertices: x_p[  x_l(  x_r(
    if len(primary_vertices):
        anchors = leaf_of_vertex[primary_vertices]
        start = block_start[anchors]
        with machine.step(active=len(primary_vertices), label=f"{label}:primary"):
            emit(start, primary_vertices, ROLE_P, True, True)
            emit(start + 1, primary_vertices, ROLE_L, False, True)
            emit(start + 2, primary_vertices, ROLE_R, False, True)

    # per-vertex data for bridge / insert vertices
    owner = reduced.vertex_owner
    rank = reduced.vertex_rank
    vclass = reduced.vertex_class

    bridge_vertices = np.flatnonzero(vclass == VertexClass.BRIDGE)
    if len(bridge_vertices):
        u = owner[bridge_vertices]
        anchors = tree.right[u]
        start = block_start[anchors] + 3 * rank[bridge_vertices]
        with machine.step(active=len(bridge_vertices), label=f"{label}:bridge"):
            # s_i^r]  s_i^l]  s_i^p[
            emit(start, bridge_vertices, ROLE_R, True, False)
            emit(start + 1, bridge_vertices, ROLE_L, True, False)
            emit(start + 2, bridge_vertices, ROLE_P, True, True)

    insert_vertices = np.flatnonzero(vclass == VertexClass.INSERT)
    if len(insert_vertices):
        u = owner[insert_vertices]
        p_v = p[tree.left[u]]
        L_w = L[tree.right[u]]
        n_bridge = p_v - 1
        n_ins = L_w - p_v + 1
        n_dum = 2 * p_v - 2
        anchors = tree.right[u]
        base = block_start[anchors] + 3 * n_bridge
        k = rank[insert_vertices] - n_bridge          # 0-based insert index
        with machine.step(active=len(insert_vertices), label=f"{label}:insert"):
            # parent finder t_i^p)
            emit(base + k, insert_vertices, ROLE_P, False, False)
            # child finders t_i^l(  t_i^r(  (after the dummy brackets)
            child_base = base + n_ins + 2 * n_dum
            emit(child_base + 2 * k, insert_vertices, ROLE_L, False, True)
            emit(child_base + 2 * k + 1, insert_vertices, ROLE_R, False, True)

    if total_dummies:
        u = dummy_owner
        p_v = p[tree.left[u]]
        L_w = L[tree.right[u]]
        n_bridge = p_v - 1
        n_ins = L_w - p_v + 1
        n_dum = 2 * p_v - 2
        anchors = tree.right[u]
        # j = index of the dummy within its owner's block
        j = np.arange(total_dummies, dtype=np.int64) - np.repeat(
            dummy_offsets, dummies_of_joins)
        base = block_start[anchors] + 3 * n_bridge + n_ins
        with machine.step(active=total_dummies, label=f"{label}:dummy"):
            # parent finder d_j^p)
            emit(base + j, dummy_ids, ROLE_P, False, False)
            # child finder d_j^r(
            emit(base + n_dum + j, dummy_ids, ROLE_R, False, True)

    if np.any(out_vertex < 0):  # pragma: no cover - structural invariant
        raise AssertionError("bracket sequence has unfilled positions")

    return BracketSequence(vertex=out_vertex, role=out_role,
                           is_square=out_square, is_open=out_open,
                           num_real=n_vertices, num_dummies=total_dummies,
                           dummy_owner=dummy_owner, dummy_ids=dummy_ids)


def render_brackets(seq: BracketSequence, names=None) -> str:
    """Human-readable rendering, e.g. ``a^p[ a^l( a^r( b^p) ...`` — used by the
    figure-gallery example to reproduce the displayed sequence of Fig. 10."""
    role_names = {ROLE_P: "p", ROLE_L: "l", ROLE_R: "r"}
    parts = []
    for i in range(len(seq)):
        v = int(seq.vertex[i])
        if names is not None and v < len(names):
            name = str(names[v])
        elif v >= seq.num_real:
            name = f"d{v - seq.num_real + 1}"
        else:
            name = f"v{v}"
        if seq.is_square[i]:
            sym = "[" if seq.is_open[i] else "]"
        else:
            sym = "(" if seq.is_open[i] else ")"
        parts.append(f"{name}^{role_names[int(seq.role[i])]}{sym}")
    return " ".join(parts)
