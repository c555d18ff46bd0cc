"""Steps 5–7 — pseudo path trees from bracket matching, legalisation, and
dummy removal.

* **Step 5** (:func:`build_pseudo_forest`): the square and the round brackets
  are matched independently (Lemma 5.1(3)); every matched pair is one edge of
  the pseudo path forest, with the bracket roles encoding the child side
  (``a^p[`` matched by ``b^l]`` makes ``a`` the left child of ``b``, and the
  round brackets mirror this with the parent on the open side).

* **Step 6** (:func:`legalize_forest`): an insert or dummy vertex is
  *illegal* when its inorder neighbour within its path tree is a bridge
  vertex of the same 1-node — exactly the ``2p(v) − 2`` bad slots of
  Section 3.  Illegal insert vertices are exchanged (together with their
  subtrees) with legal dummy vertices of the same 1-node.  A dummy's
  slot is judged by the neighbours outside the dummy's subtree, since
  that subtree leaves with it.  Off the simulator the stage hands its
  inorder sequence on, updated for the exchanges, so Step 8 reads the
  paths off it without numbering the forest again.

* **Step 7** (:func:`remove_dummies`): dummy vertices (which by construction
  have at most one child, on the right) are spliced out, turning the pseudo
  path trees into genuine path trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .._dfs import depth_by_doubling
from ..backends import resolve_context
from ..primitives import inorder_numbers, match_brackets, prefix_max, prefix_sum
from .brackets import ROLE_L, ROLE_P, ROLE_R, BracketSequence
from .reduce import ReducedCotree, VertexClass

__all__ = ["PathForest", "build_pseudo_forest", "legalize_forest",
           "remove_dummies"]


@dataclass
class PathForest:
    """A binary forest over the path-tree node universe (vertices + dummies).

    Node ids ``0 .. num_real-1`` are cograph vertices; ids
    ``num_real .. num_real+num_dummies-1`` are dummy vertices.

    ``chain``, when known, is ``(sequence, tree_start)``: the forest's
    inorder sequence (node ids, the trees chained in root order) and the
    position where each tree starts.  Dropping the dummies from it gives
    the chained inorder of the real vertices whether or not the dummies
    are spliced out yet, since a dummy has at most a right child.
    """

    parent: np.ndarray
    left: np.ndarray
    right: np.ndarray
    num_real: int
    num_dummies: int
    dummy_owner: np.ndarray
    chain: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def num_nodes(self) -> int:
        return self.num_real + self.num_dummies

    def is_dummy(self, nodes) -> np.ndarray:
        return np.asarray(nodes) >= self.num_real

    def roots(self, include_dummies: bool = True) -> np.ndarray:
        """Nodes with no parent (in node-id order)."""
        r = np.flatnonzero(self.parent == -1)
        if not include_dummies:
            r = r[r < self.num_real]
        return r

    def copy(self) -> "PathForest":
        return PathForest(self.parent.copy(), self.left.copy(),
                          self.right.copy(), self.num_real, self.num_dummies,
                          self.dummy_owner.copy(), self.chain)


# --------------------------------------------------------------------------- #
# Step 5: matching -> pseudo forest
# --------------------------------------------------------------------------- #

def build_pseudo_forest(ctx, seq: BracketSequence, *,
                        label: str = "pseudo") -> PathForest:
    """Match the brackets and convert the matched pairs into tree edges."""
    machine = resolve_context(ctx)
    total_nodes = seq.total_nodes()
    parent = np.full(total_nodes, -1, dtype=np.int64)
    left = np.full(total_nodes, -1, dtype=np.int64)
    right = np.full(total_nodes, -1, dtype=np.int64)

    for square in (True, False):
        positions = np.flatnonzero(seq.is_square == square)
        if len(positions) == 0:
            continue
        sub_open = seq.is_open[positions]
        sub_match = match_brackets(machine, sub_open,
                                   label=f"{label}.match-{'sq' if square else 'rd'}")
        matched = np.flatnonzero(sub_match >= 0)
        if len(matched) == 0:
            continue
        # consider each matched *close* once; its partner is an open
        closes = matched[~sub_open[matched]]
        opens = sub_match[closes]
        close_pos = positions[closes]
        open_pos = positions[opens]
        with machine.step(active=len(closes), label=f"{label}:edges"):
            if square:
                # open is a^p[ , close is b^l] or b^r] : a is a child of b
                child = seq.vertex[open_pos]
                par = seq.vertex[close_pos]
                close_role = seq.role[close_pos]
                parent[child] = par
                left_mask = close_role == ROLE_L
                left[par[left_mask]] = child[left_mask]
                right[par[~left_mask]] = child[~left_mask]
            else:
                # open is a^l( or a^r( , close is b^p) : b is a child of a
                par = seq.vertex[open_pos]
                child = seq.vertex[close_pos]
                open_role = seq.role[open_pos]
                parent[child] = par
                left_mask = open_role == ROLE_L
                left[par[left_mask]] = child[left_mask]
                right[par[~left_mask]] = child[~left_mask]

    return PathForest(parent=parent, left=left, right=right,
                      num_real=seq.num_real, num_dummies=seq.num_dummies,
                      dummy_owner=seq.dummy_owner)


# --------------------------------------------------------------------------- #
# Step 6: legalisation
# --------------------------------------------------------------------------- #

def legalize_forest(ctx, forest: PathForest,
                    reduced: ReducedCotree, *, work_efficient: bool = True,
                    label: str = "legalize") -> Tuple[PathForest, int]:
    """Exchange illegal insert vertices with legal dummy vertices.

    Returns the legalised forest (a copy) and the number of exchanges made.
    Off the simulator the copy carries its ``chain``.
    """
    machine = resolve_context(ctx)
    forest = forest.copy()
    forest.chain = None                 # the exchanges below would stale it
    n_total = forest.num_nodes
    num_real = forest.num_real

    # node attributes over the forest universe
    node_owner = np.full(n_total, -1, dtype=np.int64)
    node_owner[:num_real] = reduced.vertex_owner
    if forest.num_dummies:
        node_owner[num_real:] = forest.dummy_owner
    node_class = np.full(n_total, -1, dtype=np.int64)
    node_class[:num_real] = reduced.vertex_class
    DUMMY = 3
    if forest.num_dummies:
        node_class[num_real:] = DUMMY

    movable = np.flatnonzero((node_class == VertexClass.INSERT) |
                             (node_class == DUMMY))
    # nothing can move: off the simulator Step 8 still reads the numbering
    if len(movable) == 0 and machine.simulates:
        return forest, 0

    roots = forest.roots()
    inorder, size = inorder_numbers(machine, forest.left, forest.right,
                                    forest.parent, roots,
                                    work_efficient=work_efficient,
                                    label=f"{label}.numbers")
    node_at_pos = np.full(n_total, -1, dtype=np.int64)
    node_at_pos[inorder] = np.arange(n_total)

    # tree id of every inorder position (the tours of the roots are chained
    # in `roots` order, so tree sizes give the boundaries)
    tree_sizes = size[roots]
    tree_start = prefix_sum(machine, tree_sizes, inclusive=False,
                            label=f"{label}.boundaries")
    if not machine.simulates:
        forest.chain = (node_at_pos, tree_start)
    if len(movable) == 0:
        return forest, 0
    tree_id_of_pos = np.zeros(n_total, dtype=np.int64)
    tree_id_of_pos[tree_start] = 1
    tree_id_of_pos = np.cumsum(tree_id_of_pos) - 1

    # Legality must be judged on the inorder sequence *as it will look after
    # Step 7*, i.e. with dummy vertices skipped: a dummy hanging off an
    # insert would otherwise shield it from the bridge vertex it ends up next
    # to once the dummies are spliced out.  The nearest non-dummy node to the
    # left/right of every position is a prefix/suffix maximum.
    NEG = np.int64(-1)
    is_real_pos = node_at_pos < forest.num_real
    pos_if_real = np.where(is_real_pos, np.arange(n_total), NEG)
    # nearest real position strictly to the left of every position
    left_real = prefix_max(machine, pos_if_real, inclusive=False,
                           label=f"{label}.left-real")
    left_real = np.where(left_real >= 0, left_real, NEG)
    # nearest real position strictly to the right: the same scan on the
    # reversed sequence (reversed coordinate r <-> original n_total-1-r)
    rev_pos_if_real = np.where(is_real_pos[::-1], np.arange(n_total), NEG)
    rev_left = prefix_max(machine, rev_pos_if_real, inclusive=False,
                          label=f"{label}.right-real")
    vals = rev_left[::-1]
    right_real = np.where(vals >= 0, (n_total - 1) - vals, NEG)

    def real_neighbour(positions: np.ndarray, side_left: bool) -> np.ndarray:
        """Nearest non-dummy inorder neighbour within the same tree (or -1)."""
        q = left_real[positions] if side_left else right_real[positions]
        at = np.maximum(q, 0)
        same = (q >= 0) & (tree_id_of_pos[at] == tree_id_of_pos[positions])
        return np.where(same, node_at_pos[at], -1)

    # An insert keeps its subtree when it moves, so it is judged by its own
    # nearest real neighbours.  A dummy leaves with its subtree (later
    # inserts hanging off it), so its slot is judged by the nearest real
    # nodes outside that subtree: those become the neighbours of whatever
    # insert takes the slot.
    pos = inorder[movable]
    is_insert = node_class[movable] == VertexClass.INSERT
    kids = (forest.left[movable], forest.right[movable])
    below_left, below_right = (
        np.where(k >= 0, size[np.maximum(k, 0)], 0) for k in kids)
    with machine.step(active=len(movable), label=f"{label}:check"):
        prev_nb = real_neighbour(np.where(is_insert, pos, pos - below_left),
                                 True)
        next_nb = real_neighbour(np.where(is_insert, pos, pos + below_right),
                                 False)

        movable_owner = node_owner[movable]

        def is_bad(nb):
            at = np.maximum(nb, 0)
            return ((nb != -1) & (node_class[at] == VertexClass.BRIDGE) &
                    (node_owner[at] == movable_owner))

        illegal = is_bad(prev_nb) | is_bad(next_nb)

    illegal_inserts = movable[illegal & is_insert]
    legal_dummies = movable[(~illegal) & (~is_insert)]

    if len(illegal_inserts) == 0:
        return forest, 0

    # pair the k-th illegal insert with the k-th legal dummy of the same
    # owner (ordered by inorder position); the counting argument of Section 4
    # guarantees enough legal dummies exist.  Segmented matching: with both
    # sides sorted by (owner, inorder), insert number j of an owner block
    # picks dummy number j of the same owner's block — two searchsorted
    # calls instead of a Python loop over owners.
    def sort_by_owner(nodes: np.ndarray) -> np.ndarray:
        order = np.lexsort((inorder[nodes], node_owner[nodes]))
        return nodes[order]

    ins_sorted = sort_by_owner(illegal_inserts)
    dum_sorted = sort_by_owner(legal_dummies)
    ins_owner = node_owner[ins_sorted]
    dum_owner = node_owner[dum_sorted]

    within_owner = np.arange(len(ins_sorted)) - \
        np.searchsorted(ins_owner, ins_owner, side="left")
    d_idx = np.searchsorted(dum_owner, ins_owner, side="left") + within_owner
    bad = d_idx >= len(dum_sorted)
    if not bad.all():
        ok = ~bad
        bad[ok] = dum_owner[d_idx[ok]] != ins_owner[ok]
    if np.any(bad):  # pragma: no cover - structural invariant
        owner = int(ins_owner[np.flatnonzero(bad)[0]])
        raise AssertionError(
            f"owner {owner}: more illegal inserts than legal dummies")
    x = ins_sorted
    d = dum_sorted[d_idx]
    if not machine.simulates:
        forest.chain = _exchanged_chain(node_at_pos, tree_start, inorder,
                                        size, forest.left, x, d)

    # exchange positions (subtrees travel with their roots)
    parent = forest.parent
    left = forest.left
    right = forest.right
    with machine.step(active=len(x), label=f"{label}:swap"):
        px, pd = parent[x].copy(), parent[d].copy()
        x_is_left = (px != -1) & (left[np.maximum(px, 0)] == x)
        d_is_left = (pd != -1) & (left[np.maximum(pd, 0)] == d)
        parent[x], parent[d] = pd, px
        # re-point the child slots
        _set_child(left, right, pd, d_is_left, x)
        _set_child(left, right, px, x_is_left, d)

    return forest, int(len(x))


def _exchanged_chain(sequence: np.ndarray, tree_start: np.ndarray,
                     inorder: np.ndarray, size: np.ndarray, left: np.ndarray,
                     x: np.ndarray, d: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """``(sequence, tree_start)`` of a chained inorder after every subtree
    ``x[i]`` swapped places with the subtree ``d[i]``.

    Every subtree is a block of the sequence: node ``v``'s holds
    ``size[v]`` positions and starts its left subtree's size before
    ``inorder[v]``.  Call the blocks of ``x`` and ``d`` slots.  Partner
    slots are disjoint, but one pair's slot can lie inside another's, so
    the slot of ``x[i]`` receives ``d[i]``'s subtree together with what
    the slots inside that subtree received in turn.  The slots nest as a
    laminar family, and the subtree moving into slot ``s`` hangs, in the
    new forest, inside the subtree owning the innermost slot around
    ``s``.  New sizes follow bottom-up over that nesting (innermost
    first); every cut of the sequence at a slot boundary is then placed by
    a prefix sum of the partner-minus-own sizes of the slots before it in
    its enclosing slot, top-down.  Work is linear in the sequence plus
    ``O(k log k)`` for ``k`` pairs, with one vectorised round per nesting
    level.
    """
    n = len(sequence)
    k = len(x)
    top = 2 * k                         # a slot holding the whole sequence
    slots = np.concatenate([x, d])
    lchild = left[slots]
    start = inorder[slots] - np.where(lchild >= 0, size[lchild], 0)
    width = size[slots]
    # slots by start, an enclosing slot before the slots it encloses
    order = np.lexsort((-width, start))
    start = np.append(start[order], 0)
    width = np.append(width[order], n)
    rank = np.empty(top, dtype=np.int64)
    rank[order] = np.arange(top)
    partner = rank[(order + k) % top]
    ends = np.sort(start[:top] + width[:top])
    # the slots open at a point are a chain; the innermost one open before
    # index `before` is the last with nesting depth `count - 1`
    depth = np.arange(top) - np.searchsorted(ends, start[:top], side="right")
    key = depth * top + np.arange(top)
    by_key = np.argsort(key)

    def innermost(count, before):
        at = np.searchsorted(key[by_key], (count - 1) * top + before)
        return np.where(count > 0, by_key[np.maximum(at - 1, 0)], top)

    enclosing = innermost(depth, np.arange(top))
    cuts = np.sort(np.concatenate(([0], start[:top], ends)))
    cuts = cuts[cuts < n]               # a repeated cut cuts an empty piece
    opened = np.searchsorted(start[:top], cuts, side="right")
    cut_owner = innermost(opened - np.searchsorted(ends, cuts, side="right"),
                          opened)

    # the subtree of slot i moves into slot partner[i], so it hangs inside
    # the subtree owning enclosing[partner[i]]
    host = np.append(enclosing[partner], -1)
    level = depth_by_doubling(host)
    by_level = np.argsort(level, kind="stable")
    bounds = np.searchsorted(level[by_level], np.arange(level.max() + 2))
    levels = [by_level[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    new_width = width.copy()
    for group in levels[:0:-1]:
        np.add.at(new_width, host[group],
                  new_width[group] - width[partner[group]])

    # the offset of every tree start, slot and cut inside its enclosing
    # slot's new block: its old offset plus the growth of the slots before
    # it there (a tree start comes before a slot starting with the tree)
    trees = len(tree_start)
    region = np.concatenate([np.full(trees, top), enclosing, cut_owner])
    at = np.concatenate([tree_start, start[:top], cuts])
    grown = np.zeros(len(at), dtype=np.int64)
    grown[trees:trees + top] = new_width[partner] - width[:top]
    by_region = np.lexsort((at, region))
    seen = np.cumsum(grown[by_region]) - grown[by_region]
    ordered = region[by_region]
    first = np.flatnonzero(np.concatenate(([True],
                                           ordered[1:] != ordered[:-1])))
    seen -= np.repeat(seen[first], np.diff(np.append(first, len(at))))
    offset = np.empty(len(at), dtype=np.int64)
    offset[by_region] = seen + at[by_region] - start[ordered]

    new_start = np.zeros(top + 1, dtype=np.int64)
    for group in levels[1:]:
        new_start[group] = new_start[host[group]] + \
            offset[trees + partner[group]]
    cut_start = new_start[cut_owner] + offset[trees + top:]
    shift = np.repeat(cut_start - cuts, np.diff(np.append(cuts, n)))
    moved = np.empty(n, dtype=np.int64)
    moved[np.arange(n) + shift] = sequence
    return moved, offset[:trees]


def _set_child(left: np.ndarray, right: np.ndarray, parents: np.ndarray,
               is_left: np.ndarray, children: np.ndarray) -> None:
    """Point ``parents``' left/right slots at ``children`` (vectorised)."""
    ok = parents != -1
    lmask = ok & is_left
    rmask = ok & ~is_left
    left[parents[lmask]] = children[lmask]
    right[parents[rmask]] = children[rmask]


# --------------------------------------------------------------------------- #
# Step 7: dummy removal
# --------------------------------------------------------------------------- #

def remove_dummies(ctx, forest: PathForest, *,
                   label: str = "compress") -> PathForest:
    """Splice every dummy vertex out of its path tree.

    A dummy has at most one child (always a right child, because a dummy
    emits only a ``d^r(`` bracket), so removal is path compression along
    dummy chains: the first non-dummy descendant takes the dummy's place.
    """
    machine = resolve_context(ctx)
    forest = forest.copy()
    num_real = forest.num_real
    if forest.num_dummies == 0:
        return forest

    is_dummy = np.arange(forest.num_nodes) >= num_real
    dummy_roots = np.flatnonzero((forest.parent == -1) & is_dummy)
    if len(dummy_roots):  # pragma: no cover - structural invariant
        raise AssertionError("a dummy vertex became a path-tree root")

    # replacement of a dummy: follow right-child links through dummies
    # (pointer-jumping compaction — O(log n) rounds, no per-node work)
    rep = machine.array(forest.right.copy(), name=f"{label}.rep")
    max_rounds = max(1, int(np.ceil(np.log2(max(forest.num_nodes, 2)))) + 1)
    dummies = np.flatnonzero(is_dummy)
    for _ in range(max_rounds):
        cur = rep.data[dummies]
        needs_jump = (cur != -1) & (cur >= num_real)
        if not needs_jump.any():
            break
        active = dummies[needs_jump]
        with machine.step(active=len(active), label=f"{label}:jump"):
            rep.scatter(active, rep.gather(rep.local(active)))

    # every real parent of a dummy child replaces that child by the dummy's
    # replacement (possibly -1)
    parent = forest.parent
    left = forest.left
    right = forest.right
    for side_name, child_arr in (("left", left), ("right", right)):
        holders = np.flatnonzero((child_arr != -1) & (child_arr >= num_real)
                                 & (np.arange(forest.num_nodes) < num_real))
        if len(holders) == 0:
            continue
        with machine.step(active=len(holders), label=f"{label}:splice-{side_name}"):
            new_child = rep.data[child_arr[holders]]
            child_arr[holders] = new_child
            ok = new_child != -1
            parent[new_child[ok]] = holders[ok]

    # detach all dummies
    with machine.step(active=forest.num_dummies, label=f"{label}:detach"):
        parent[num_real:] = -1
        left[num_real:] = -1
        right[num_real:] = -1
    return forest
