"""Parallel tree contraction (rake) for evaluating the path-cover recurrence.

Lemma 2.4 of the paper computes, for every internal node ``u`` of the leftist
binarized cotree, the minimum path-cover size

    p(u) = p(v) + p(w)              if u is a 0-node
    p(u) = max(p(v) - L(w), 1)      if u is a 1-node

in ``O(log n)`` time and ``O(n)`` work on the EREW PRAM, using tree
contraction [1, 13].  This module implements that computation from scratch:

* the *max-plus* function class ``f(x) = max(x + a, b)`` (with ``a`` possibly
  ``-inf``), which is closed under composition and under partial evaluation
  of both node operators — the invariant that makes contraction work;
* the segmented scan of that class along chains of one-child maps
  (:func:`_max_plus_chains`), shared by the cotree-DP engine's heavy-path
  contraction and Step 3's left-spine evaluation off the simulator;
* the rake-based contraction schedule of Abrahamson–Dadoun–Kirkpatrick–
  Przytycka [1]: in each round all odd-ranked leaves that are left children
  are raked simultaneously, then all odd-ranked right children, after which
  leaf ranks are recompacted; ``O(log n)`` rounds, geometrically decreasing
  work.  There is one schedule, over a *root array*: a single tree is a
  forest of one.  Each round first retires the leaves whose parent is a
  root (they are that root's final children), and one vectorized combine
  over all internal roots ends the contraction;
* the matching *expansion* phase that replays the rakes backwards to recover
  the value of every internal node (not only the root), which is what
  Lemma 2.4 needs.

The implementation is vectorised: each sub-step is one synchronous PRAM step
over NumPy arrays, and all shared-memory accesses are declared to the
machine, so the EREW checker certifies the access pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..backends import resolve_context
from ..cograph.cotree import LEAF, UNION

__all__ = [
    "NEG_INF",
    "mp_identity",
    "mp_constant",
    "mp_compose",
    "mp_apply",
    "evaluate_max_plus_tree",
]

#: "minus infinity" for the max-plus function class.  Chosen so that adding
#: two sentinels (or a sentinel and any value that appears in a cotree
#: computation) cannot overflow an int64.
NEG_INF = np.int64(-(2 ** 60))


# --------------------------------------------------------------------------- #
# the max-plus function class  f(x) = max(x + a, b)
# --------------------------------------------------------------------------- #

def _sat_add(x, y):
    """Saturating addition: anything plus -inf is -inf."""
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    out = x + y
    return np.where((x <= NEG_INF) | (y <= NEG_INF), NEG_INF, out)


def mp_identity(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``n`` copies of the identity function (``a = 0``, ``b = -inf``)."""
    return (np.zeros(n, dtype=np.int64), np.full(n, NEG_INF, dtype=np.int64))


def mp_constant(values) -> Tuple[np.ndarray, np.ndarray]:
    """Constant functions ``f(x) = c`` (``a = -inf``, ``b = c``)."""
    values = np.asarray(values, dtype=np.int64)
    return (np.full(len(values), NEG_INF, dtype=np.int64), values.copy())


def mp_compose(a1, b1, a2, b2) -> Tuple[np.ndarray, np.ndarray]:
    """Composition ``f2 ∘ f1`` where ``f_i(x) = max(x + a_i, b_i)``.

    ``(f2 ∘ f1)(x) = max(x + a1 + a2, max(b1 + a2, b2))``.
    """
    a = _sat_add(a1, a2)
    b = np.maximum(_sat_add(b1, a2), np.asarray(b2, dtype=np.int64))
    return a, b


def mp_apply(a, b, x) -> np.ndarray:
    """Apply ``f(x) = max(x + a, b)`` elementwise."""
    return np.maximum(_sat_add(x, a), np.asarray(b, dtype=np.int64))


def _max_plus_chains(a: np.ndarray, b: np.ndarray, below: np.ndarray,
                     bottom: np.ndarray) -> np.ndarray:
    """Values along chains of maps ``x -> max(x + a, b)`` (``a`` finite).

    The chains are contiguous runs, each starting where ``bottom`` is set;
    ``below`` holds every node's heavy-child value, known at each bottom.
    Unrolled, node ``i`` of a chain over leaf value ``x`` is worth
    ``A_i + x + max(0, max_{j <= i} (b_j - A_j - x))`` with ``A`` the
    chain's prefix sum of ``a``: one segmented sum and one segmented
    running max.  The running max is one ``maximum.accumulate`` once each
    chain is lifted above the values of all chains before it; should the
    lifts overflow (values near ``2**62``), pairwise doubling over slices
    takes ``log2(longest chain)`` steps instead.
    """
    starts = np.flatnonzero(bottom)
    pos = np.arange(len(a), dtype=np.int64)
    first = np.maximum.accumulate(np.where(bottom, pos, 0))
    A = np.cumsum(a)
    A += a[first] - A[first]
    x = below[first]
    best = np.maximum(b - A - x, 0)
    span = np.maximum.reduceat(best, starts) + 1
    if span.sum(dtype=np.float64) < 2.0 ** 61:
        lift = np.repeat(np.cumsum(span) - span, np.diff(np.append(
            starts, len(a))))
        best = np.maximum.accumulate(best + lift) - lift
    else:
        pos -= first                                # index within the chain
        h = 1
        while h <= int(pos.max()):
            best[h:] = np.where(pos[h:] >= h,
                                np.maximum(best[h:], best[:-h]), best[h:])
            h *= 2
    return A + x + best


# --------------------------------------------------------------------------- #
# rake events
# --------------------------------------------------------------------------- #

@dataclass
class _RakeEvent:
    """All rakes performed in one sub-step (arrays are parallel)."""

    leaf: np.ndarray            # raked leaf l
    parent: np.ndarray          # removed internal node u
    sibling: np.ndarray         # sibling s re-attached to the grandparent
    leaf_is_left: np.ndarray    # True when l was the left child of u
    fa_leaf: np.ndarray         # edge function of l at rake time
    fb_leaf: np.ndarray
    fa_sib: np.ndarray          # edge function of s at rake time (before update)
    fb_sib: np.ndarray
    val_leaf: np.ndarray        # constant value carried by l


# --------------------------------------------------------------------------- #
# the evaluator
# --------------------------------------------------------------------------- #

def evaluate_max_plus_tree(
    ctx,
    left,
    right,
    parent,
    root: int,
    kind,
    join_const,
    leaf_values,
    *,
    leaf_inorder: Optional[np.ndarray] = None,
    label: str = "contract",
) -> np.ndarray:
    """Evaluate the Lemma 2.4 recurrence for **every** node of a full binary
    tree by parallel rake contraction + expansion.

    Parameters
    ----------
    left, right, parent:
        binary-tree arrays (``-1`` where absent); every internal node must
        have both children.
    root:
        the root array: every root id when the arrays hold a *forest* of
        disjoint trees (all ids must be valid nodes); a scalar root id is
        a forest of one.  The rake-safety invariant is per subtree, so the
        trees do not interact.
    kind:
        per-node operator: :data:`~repro.cograph.cotree.LEAF`,
        :data:`~repro.cograph.cotree.UNION` (value = sum of children) or
        :data:`~repro.cograph.cotree.JOIN`
        (value = ``max(left_child_value - join_const, 1)``).  Prime
        nodes have no such operator; :meth:`repro.core.Pipeline.run`
        refuses trees that carry them.
    join_const:
        per-node constant used by JOIN nodes (ignored elsewhere); for the
        paper's recurrence this is ``L(w)``, the leaf count of the right
        child.
    leaf_values:
        per-node constant for leaves (ignored elsewhere); ``p(leaf) = 1`` in
        the paper.
    leaf_inorder:
        optional left-to-right rank of every leaf (computed internally when
        omitted — sequentially, since the PRAM-costed pipeline already has
        the tree numbering and passes it in).

    Returns
    -------
    numpy.ndarray
        ``val[u]`` for every node ``u``.
    """
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    kind = np.asarray(kind, dtype=np.int64)
    join_const = np.asarray(join_const, dtype=np.int64)
    leaf_values = np.asarray(leaf_values, dtype=np.int64)
    n = len(left)
    machine = resolve_context(ctx)

    roots_arr = np.atleast_1d(np.asarray(root, dtype=np.int64))

    val = np.full(n, NEG_INF, dtype=np.int64)
    is_leaf = kind == LEAF
    val[is_leaf] = leaf_values[is_leaf]
    if bool(np.all(is_leaf[roots_arr])):
        return val

    # ---- leaf order ---------------------------------------------------- #
    if leaf_inorder is None:
        leaf_inorder = _sequential_leaf_order(left, right, roots_arr, n)
    leaf_inorder = np.asarray(leaf_inorder, dtype=np.int64)

    # alive leaves sorted by left-to-right order; the position in this array
    # is the current rank.
    leaf_nodes = np.flatnonzero(is_leaf)
    alive_leaves = leaf_nodes[np.argsort(leaf_inorder[leaf_nodes], kind="stable")]

    # ---- mutable contracted-tree state (shared arrays) ------------------ #
    cur_left = machine.array(left, name=f"{label}.left")
    cur_right = machine.array(right, name=f"{label}.right")
    cur_parent = machine.array(parent, name=f"{label}.parent")
    side_is_left = np.zeros(n, dtype=bool)
    has_par = parent != -1
    idx = np.flatnonzero(has_par)
    side_is_left[idx] = left[parent[idx]] == idx
    cur_side = machine.array(side_is_left.astype(np.int64), name=f"{label}.side")
    fa0, fb0 = mp_identity(n)
    fa = machine.array(fa0, name=f"{label}.fa")
    fb = machine.array(fb0, name=f"{label}.fb")

    events: List[_RakeEvent] = []
    is_root = np.zeros(n, dtype=bool)
    is_root[roots_arr] = True
    # a leaf that is itself a root never rakes
    alive_leaves = alive_leaves[parent[alive_leaves] != -1]
    # the alive leaves halve every round; the bound only stops malformed
    # arrays (not a full binary forest) from looping forever
    max_rounds = 4 * max(1, int(np.ceil(np.log2(max(n, 2))))) + 8
    for _ in range(max_rounds):
        # retire the leaves whose current parent is a root: they are that
        # root's final contracted children.  Every other odd-ranked leaf
        # rakes this round (left children first, then right children; a
        # raked leaf's sibling is never odd-ranked, so one side read serves
        # both sub-steps), which halves the alive leaves.
        alive_leaves = alive_leaves[~is_root[cur_parent.data[alive_leaves]]]
        if len(alive_leaves) == 0:
            break
        odd = alive_leaves[1::2]
        odd_is_left = cur_side.data[odd] == 1
        for cand in (odd[odd_is_left], odd[~odd_is_left]):
            if len(cand):
                events.append(_rake(machine, cand, cur_left, cur_right,
                                    cur_parent, cur_side, fa, fb, kind,
                                    join_const, val, label=label))
        alive_leaves = alive_leaves[::2]
    else:
        raise ValueError("rake contraction did not finish: the arrays are "
                         "not a full binary forest")

    # ---- root values ----------------------------------------------------- #
    internal_roots = roots_arr[~is_leaf[roots_arr]]
    rl = cur_left.data[internal_roots]
    rr = cur_right.data[internal_roots]
    xl = mp_apply(fa.data[rl], fb.data[rl], val[rl])
    xr = mp_apply(fa.data[rr], fb.data[rr], val[rr])
    val[internal_roots] = _combine(kind[internal_roots],
                                   join_const[internal_roots], xl, xr)

    # ---- expansion ------------------------------------------------------ #
    for event in reversed(events):
        with machine.step(active=len(event.leaf), label=f"{label}:expand"):
            xs = mp_apply(event.fa_sib, event.fb_sib, val[event.sibling])
            xleaf = mp_apply(event.fa_leaf, event.fb_leaf, event.val_leaf)
            xl = np.where(event.leaf_is_left, xleaf, xs)
            xr = np.where(event.leaf_is_left, xs, xleaf)
            u = event.parent
            val[u] = _combine(kind[u], join_const[u], xl, xr)
    return val


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #

def _sequential_leaf_order(left: np.ndarray, right: np.ndarray, roots,
                           n: int) -> np.ndarray:
    """Left-to-right rank of every leaf (``-1`` for internal nodes).

    ``roots`` may list several tree roots; their leaf ranks are chained in
    roots order, matching a chained Euler tour of the forest.
    """
    order = np.full(n, -1, dtype=np.int64)
    counter = 0
    for root in np.atleast_1d(np.asarray(roots, dtype=np.int64)):
        stack = [int(root)]
        while stack:
            u = stack.pop()
            if left[u] == -1 and right[u] == -1:
                order[u] = counter
                counter += 1
            else:
                if right[u] != -1:
                    stack.append(int(right[u]))
                if left[u] != -1:
                    stack.append(int(left[u]))
    return order


def _combine(kind: np.ndarray, join_const: np.ndarray, xl: np.ndarray,
             xr: np.ndarray) -> np.ndarray:
    """The node operator, elementwise: ``xl + xr`` at a UNION node,
    ``max(xl - join_const, 1)`` at a JOIN node."""
    return np.where(kind == UNION, xl + xr, np.maximum(xl - join_const, 1))


def _rake(machine, cand: np.ndarray, cur_left, cur_right, cur_parent,
          cur_side, fa, fb, kind: np.ndarray, join_const: np.ndarray,
          val: np.ndarray, *, label: str) -> _RakeEvent:
    """Rake all candidate leaves simultaneously (one PRAM sub-step)."""
    with machine.step(active=len(cand), label=f"{label}:rake"):
        # own fields of the raked leaf (local registers)
        u = cur_parent.local(cand)
        l_is_left = cur_side.local(cand) == 1
        fa_l = fa.local(cand)
        fb_l = fb.local(cand)
        val_l = val[cand]

        # fields of the removed parent u (exclusive: distinct parents, and no
        # simultaneous rake uses u as its grandparent or sibling -- see the
        # module docstring / tests)
        u_left = cur_left.gather(u)
        u_right = cur_right.gather(u)
        g = cur_parent.gather(u)
        u_side = cur_side.gather(u)
        fa_u = fa.gather(u)
        fb_u = fb.gather(u)
        kind_u = kind[u]
        jc_u = join_const[u]

        s = np.where(l_is_left, u_right, u_left)

        # sibling's edge function (exclusive: distinct siblings)
        fa_s = fa.gather(s)
        fb_s = fb.gather(s)

        # partially evaluate op_u with the leaf's (constant) argument:
        # phi(x) = op_u(... h_l(val_l) ..., h_s(x)) as a max-plus function.
        leaf_arg = mp_apply(fa_l, fb_l, val_l)
        is_union = kind_u == UNION
        # UNION: phi = h_s + leaf_arg
        phi_a_union, phi_b_union = _sat_add(fa_s, leaf_arg), _sat_add(fb_s, leaf_arg)
        # JOIN, leaf on the right: phi(x) = max(h_s(x) - jc, 1)
        phi_a_jr = _sat_add(fa_s, -jc_u)
        phi_b_jr = np.maximum(_sat_add(fb_s, -jc_u), 1)
        # JOIN, leaf on the left: phi(x) = max(leaf_arg - jc, 1)  (constant)
        const_val = np.maximum(leaf_arg - jc_u, 1)
        phi_a_jl = np.full(len(cand), NEG_INF, dtype=np.int64)
        phi_b_jl = const_val

        phi_a = np.where(is_union, phi_a_union,
                         np.where(l_is_left, phi_a_jl, phi_a_jr))
        phi_b = np.where(is_union, phi_b_union,
                         np.where(l_is_left, phi_b_jl, phi_b_jr))

        # new edge function of the sibling: h_u ∘ phi
        new_a, new_b = mp_compose(phi_a, phi_b, fa_u, fb_u)

        event = _RakeEvent(
            leaf=cand.copy(), parent=u.copy(), sibling=s.copy(),
            leaf_is_left=l_is_left.copy(), fa_leaf=fa_l.copy(),
            fb_leaf=fb_l.copy(), fa_sib=fa_s.copy(), fb_sib=fb_s.copy(),
            val_leaf=np.asarray(val_l, dtype=np.int64).copy())

        # re-attach the sibling to the grandparent in u's slot
        fa.scatter(s, new_a)
        fb.scatter(s, new_b)
        cur_parent.scatter(s, g)
        cur_side.scatter(s, u_side)
        left_slots = np.flatnonzero(u_side == 1)
        right_slots = np.flatnonzero(u_side == 0)
        if len(left_slots):
            cur_left.scatter(g[left_slots], s[left_slots])
        if len(right_slots):
            cur_right.scatter(g[right_slots], s[right_slots])
    return event

