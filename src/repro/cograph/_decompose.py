"""The graph decomposer behind :func:`repro.cograph.decompose`.

Imported on first use, so importing the package does not compile it.  It
reads a :class:`~repro.cograph.graph.CSRGraph` in three phases.

1. **Twin peeling.**  A cograph on two or more vertices has twins: equal
   neighbourhoods apart from each other (false twins, under a union) or
   equal closed neighbourhoods (true twins, under a join).  Each round
   hashes every live vertex's neighbourhood as a sum of random 64-bit
   weights, merges every class of equal hashes into its smallest vertex
   under a new node, and subtracts the merged vertices' weights from their
   neighbours' hashes: a sort of the live hashes and a few array passes
   over them and the merged vertices' edges.  A cotree of height ``h``
   peels in ``h`` rounds, ``O(n h log n)`` in all.  For a cograph the
   live set shrinks as it peels and ``h <= 2 sqrt(m) + 1``, so a
   threshold graph (``h = n``) costs about ``O(m log n)``.  On a
   non-cograph the twin-free rest stays live and is sorted again in every
   round, so a long path beside a deep cograph pays the full
   ``n h log n``.
2. **Splitting the twin-free rest.**  Two or more live vertices without
   twins mean a non-cograph.  The quotient they induce is split top-down
   into components and co-components; a connected, co-connected part goes
   to :func:`~repro.cograph.md.prime_partition` (modular decomposition)
   or yields the induced P4 that
   :class:`~repro.cograph.recognition.NotACographError` carries.
3. **Certificate.**  The tree is numbered canonically (a cotree in
   preorder with children by smallest vertex, as ``canonical_key`` orders
   them; a tree with prime nodes in postorder) and checked against the
   graph: every edge's lowest common ancestor is a join (or a prime whose
   quotient joins the two child slots), and the tree has ``m`` edges.  A
   hash collision fails the check, and the decomposition reruns with
   fresh weights.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .._dfs import chase_pointers
from .cotree import JOIN, LEAF, PRIME, UNION
from .flat import FlatCotree, _parent_csr, _preorder_with_sibling_keys
from .graph import CSRGraph, co_components, components
from .recognition import NotACographError

#: fresh-weight reruns before a certificate failure is reported as a bug.
_ATTEMPTS = 4


class _Collision(Exception):
    """A neighbourhood-hash collision merged two vertices that are not
    twins; the certificate or the P4 check caught it."""


def run(g: CSRGraph, modular: bool) -> FlatCotree:
    """The tree of non-empty ``g`` (see
    :func:`~repro.cograph.recognition.decompose`), rerun with fresh
    weights after a collision."""
    for _ in range(_ATTEMPTS):
        try:
            return _Decomposition(g, modular).run()
        except _Collision:
            continue
    raise RuntimeError("the decomposition failed its certificate on every "
                       "attempt")


class _Decomposition:
    """One attempt: nodes ``0 .. n-1`` are the leaves (node ``v`` carries
    vertex ``v``); internal nodes are appended as the phases create them."""

    def __init__(self, g: CSRGraph, modular: bool) -> None:
        self.g, self.modular, n = g, modular, g.n
        self.kind = np.full(2 * n, LEAF, dtype=np.int8)
        self.parent = np.full(2 * n, -1, dtype=np.int64)
        #: smallest vertex under every node: the sibling order
        self.minv = np.arange(2 * n, dtype=np.int64)
        #: child slot under a prime parent
        self.slot = np.full(2 * n, -1, dtype=np.int64)
        #: number of leaves under every node
        self.below = np.ones(2 * n, dtype=np.int64)
        #: prime node -> (quotient edges as slot pairs, spider flag)
        self.quotient: Dict[int, Tuple[List[Tuple[int, int]], int]] = {}
        self.count = n
        #: per vertex: the node standing for it, and how many vertices the
        #: node holds (meaningful for live vertices)
        self.cur = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)

    def run(self) -> FlatCotree:
        live = self.peel()
        root = self.cur[live[0]] if len(live) == 1 else self.split(live)
        return self.finish(int(root))

    # ------------------------------------------------------------------ #
    # phase 1: twin peeling
    # ------------------------------------------------------------------ #

    def peel(self) -> np.ndarray:
        """Merge twin classes until none is left; the live vertices, in
        ascending order."""
        off, nbr = self.g.offset, self.g.nbr
        deg = np.diff(off)
        weight = np.random.default_rng().integers(
            1, 1 << 63, self.g.n, dtype=np.uint64)
        sums = np.zeros(len(nbr) + 1, dtype=np.uint64)
        np.cumsum(weight[nbr], out=sums[1:])
        h_open = sums[off[1:]] - sums[off[:-1]]
        live = np.arange(self.g.n, dtype=np.int64)
        while len(live) > 1:
            # open and closed neighbourhood hashes side by side: entry i < a
            # is live[i]'s open hash (false twins), entry a + i its closed
            # one (true twins); the two never coincide for distinct sets
            a = len(live)
            h = h_open[live]
            h = np.concatenate([h, h + weight[live]])
            order = np.argsort(h, kind="stable")
            h = h[order]
            dup = np.flatnonzero(h[1:] == h[:-1])
            if len(dup) == 0:
                break
            # entry dup[k] + 1 joins the class led by its run's first entry
            start = np.ones(len(dup), dtype=bool)
            np.not_equal(dup[1:], dup[:-1] + 1, out=start[1:])
            cls = np.cumsum(start) - 1
            heads, tails = order[dup[start]], order[dup + 1]
            lead, gone = heads % a, tails % a
            if np.bincount(np.concatenate([lead, gone])).max() > 1:
                raise _Collision      # a vertex in two classes
            head, tail = live[lead], live[gone]
            np.add.at(self.size, head[cls], self.size[tail])
            nodes = np.arange(self.count, self.count + len(head))
            self.count += len(head)
            self.kind[nodes] = UNION + (heads >= a)
            self.minv[nodes], self.below[nodes] = head, self.size[head]
            self.parent[self.cur[tail]] = nodes[cls]
            self.parent[self.cur[head]] = nodes
            self.cur[head] = nodes
            lens = deg[tail]
            at = np.repeat(off[tail] - np.cumsum(lens) + lens, lens) \
                + np.arange(int(lens.sum()), dtype=np.int64)
            np.subtract.at(h_open, nbr[at], np.repeat(weight[tail], lens))
            keep = np.ones(a, dtype=bool)
            keep[gone] = False
            live = live[keep]
        return live

    # ------------------------------------------------------------------ #
    # phase 2: the twin-free rest
    # ------------------------------------------------------------------ #

    def split(self, live: np.ndarray) -> int:
        """Split the quotient the live vertices induce top-down; the root
        node.  Parts are ascending lists of local ids (``live`` positions,
        so local order is vertex order)."""
        g = self.g
        local = np.full(g.n, -1, dtype=np.int64)
        local[live] = np.arange(len(live), dtype=np.int64)
        rows = np.repeat(local, np.diff(g.offset))
        cols = local[g.nbr]
        keep = (rows >= 0) & (cols >= 0)
        bounds = np.searchsorted(rows[keep], np.arange(len(live) + 1))
        flat, b = cols[keep].tolist(), bounds.tolist()
        adj = [set(flat[b[i]:b[i + 1]]) for i in range(len(live))]
        ids, cur = live.tolist(), self.cur[live].tolist()
        sizes = self.size[live].tolist()
        root = -1
        work: List[Tuple[List[int], int, int]] = [
            (list(range(len(live))), -1, -1)]
        while work:
            part, up, slot = work.pop()
            if len(part) == 1:
                node = cur[part[0]]
            else:
                node, kids = self.split_part(adj, part, ids, sizes)
                work += [(kid, node, s) for kid, s in kids]
            if up < 0:
                root = node
            self.parent[node], self.slot[node] = up, slot
        return root

    def split_part(self, adj: List[Set[int]], part: List[int],
                   ids: List[int], sizes: List[int]
                   ) -> Tuple[int, List[Tuple[List[int], int]]]:
        """One node for ``part``: a union over its components, a join over
        its co-components, or a prime node over its maximal modules."""
        below = sum(sizes[v] for v in part)
        kind, parts = UNION, components(adj, part)
        if len(parts) == 1:
            kind, parts = JOIN, co_components(adj, part)
        if len(parts) > 1:
            parts = [(sorted(p), -1) for p in parts]
        else:
            inside = set(part)
            sub = {v: adj[v] & inside for v in part}
            if not self.modular:
                self.refuse(sub, ids, below)
            from .md import prime_partition
            plain = {v for v in part if sizes[v] == 1}
            parts, edges, spider = prime_partition(sub, plain)
            parts, kind = [(p, s) for s, p in enumerate(parts)], PRIME
            self.quotient[self.count] = (edges, spider)
        node, self.count = self.count, self.count + 1
        self.kind[node], self.minv[node] = kind, ids[part[0]]
        self.below[node] = below
        return node, parts

    def refuse(self, sub: Dict[int, Set[int]], ids: List[int],
               count: int) -> None:
        """Raise :class:`NotACographError` with an induced P4 of the prime
        part ``sub``, checked against the input graph."""
        p4 = _induced_p4(sub)
        cert = tuple(ids[v] for v in p4) if p4 is not None else None
        if cert is not None and not _is_induced_p4(self.g, cert):
            raise _Collision
        raise NotACographError(
            f"graph is not a cograph: the induced subgraph on {count} "
            "vertices is connected and co-connected", certificate=cert)

    # ------------------------------------------------------------------ #
    # phase 3: canonical numbering and the certificate
    # ------------------------------------------------------------------ #

    def finish(self, root: int) -> FlatCotree:
        """Splice same-kind union/join chains (a module substituted under a
        node of its own kind), number the nodes canonically and certify."""
        total = self.count
        kind, parent = self.kind[:total], self.parent[:total]
        inner = np.flatnonzero((parent >= 0) & (kind != LEAF)
                               & (kind != PRIME))
        same = np.zeros(total, dtype=bool)
        same[inner] = kind[parent[inner]] == kind[inner]
        top = chase_pointers(np.where(same, parent,
                                      np.arange(total, dtype=np.int64)))
        keep = np.flatnonzero(~same)
        up = parent[keep]
        up = np.where(up >= 0, top[np.maximum(up, 0)], -1)
        under_prime = (up >= 0) & (kind[np.maximum(up, 0)] == PRIME)
        key = np.where(under_prime, self.slot[keep], self.minv[keep])
        remap = np.full(total, -1, dtype=np.int64)
        remap[keep] = np.arange(len(keep), dtype=np.int64)
        up = np.where(up >= 0, remap[np.maximum(up, 0)], -1)
        if self.quotient:     # postorder: reverse of the mirrored preorder
            new = len(keep) - 1 - _preorder_with_sibling_keys(
                up, int(remap[root]), -key)
        else:
            new = _preorder_with_sibling_keys(up, int(remap[root]), key)
        parents = np.full(len(keep), -1, dtype=np.int64)
        parents[new] = np.where(up >= 0, new[np.maximum(up, 0)], -1)
        kinds = np.empty(len(keep), dtype=np.int8)
        kinds[new] = kind[keep]
        vertex = np.full(len(keep), -1, dtype=np.int64)
        vertex[new] = np.where(kind[keep] == LEAF, keep, -1)
        below = np.empty(len(keep), dtype=np.int64)
        below[new] = self.below[keep]
        payload = {}
        if self.quotient:
            primes = sorted(self.quotient, key=lambda u: new[remap[u]])
            width = np.zeros(len(keep) + 1, dtype=np.int64)
            spider = np.zeros(len(keep), dtype=np.int8)
            pairs: List[Tuple[int, int]] = []
            for u in primes:
                edges, flag = self.quotient[u]
                width[new[remap[u]] + 1] = len(edges)
                spider[new[remap[u]]] = flag
                pairs += edges
            q = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
            payload = dict(q_offset=np.cumsum(width), q_edge_u=q[:, 0].copy(),
                           q_edge_v=q[:, 1].copy(), spider=spider)
        tree = FlatCotree(kinds, *_parent_csr(parents), parents, vertex,
                          int(new[remap[root]]), **payload)
        _certify(tree, self.g, below)
        return tree


def _certify(tree: FlatCotree, g: CSRGraph, leaves: np.ndarray) -> None:
    """Raise :class:`_Collision` unless ``tree`` represents ``g``: every
    edge's LCA is a join (or a prime whose quotient joins the two child
    slots below it), and the tree's edge count (from ``leaves``, the leaf
    count under every node) is ``g``'s.  The LCAs are found for all edges
    at once by binary lifting."""
    kind, parent, depth = tree.kind, tree.parent, tree.depth
    leaf_of = np.empty(g.n, dtype=np.int64)
    leaf_of[tree.leaf_vertex[tree.leaves]] = tree.leaves
    edges = g.edge_array()
    a, b = leaf_of[edges[:, 0]], leaf_of[edges[:, 1]]
    lift = depth[a] - depth[b]
    a, b = np.where(lift >= 0, a, b), np.where(lift >= 0, b, a)
    lift = np.abs(lift)
    jumps = [np.where(parent >= 0, parent, tree.root)]
    while (1 << len(jumps)) <= int(depth.max()):
        jumps.append(jumps[-1][jumps[-1]])
    for k in range(int(lift.max()).bit_length() if len(lift) else 0):
        a = np.where(lift >> k & 1, jumps[k][a], a)
    for jump in reversed(jumps):         # a, b: the LCA's two children
        ja, jb = jump[a], jump[b]
        move = ja != jb
        a, b = np.where(move, ja, a), np.where(move, jb, b)
    lca = parent[a]
    ok = kind[lca] == JOIN
    inner = tree.internal_nodes
    joins = inner[kind[inner] == JOIN]
    sq = np.bincount(parent[tree.child_index], minlength=tree.num_nodes,
                     weights=leaves[tree.child_index] ** 2)
    count = int(((leaves[joins] ** 2 - sq[joins].astype(np.int64)) // 2)
                .sum())
    if tree.has_primes:
        deg = tree.degrees()
        slot = np.empty(tree.num_nodes, dtype=np.int64)
        slot[tree.child_index] = np.arange(len(tree.child_index)) \
            - np.repeat(tree.child_offset[:-1], deg)
        wide = int(deg.max()) + 1
        host = np.repeat(np.arange(tree.num_nodes), np.diff(tree.q_offset))
        known = np.sort((host * wide + tree.q_edge_u) * wide + tree.q_edge_v)
        lo, hi = np.minimum(slot[a], slot[b]), np.maximum(slot[a], slot[b])
        want = (lca * wide + lo) * wide + hi
        at = np.minimum(np.searchsorted(known, want), max(len(known) - 1, 0))
        ok |= (kind[lca] == PRIME) & (known[at] == want if len(known)
                                      else False)
        first = tree.child_offset[host]
        count += int((leaves[tree.child_index[first + tree.q_edge_u]]
                      * leaves[tree.child_index[first + tree.q_edge_v]])
                     .sum())
    if not ok.all() or count != len(edges):
        raise _Collision


def _induced_p4(adj: Dict[int, Set[int]]) -> Optional[Tuple[int, ...]]:
    """An induced P4 of a connected, co-connected graph (neighbour sets).

    For a pivot ``v`` with neighbours ``near`` and non-neighbours ``far``,
    ``v`` lies on an induced P4 iff an edge ``b - c`` inside ``far`` sees
    ``near`` differently (``v - a - b - c``) or a non-edge ``a, a2`` inside
    ``near`` sees ``far`` differently (``b - a - v - a2``).  Pivots are
    tried by ascending degree; each try is linear in the part.
    """
    every = set(adj)
    for v in sorted(adj, key=lambda u: len(adj[u])):
        near = adj[v]
        far = every - near - {v}
        seen = {b: adj[b] & near for b in far}
        for b in far:
            for c in adj[b] & far:
                extra = seen[b] - seen[c]
                if extra:
                    return v, min(extra), b, c
        seen = {a: adj[a] & far for a in near}
        for a in near:
            for a2 in near - adj[a] - {a}:
                extra = seen[a] - seen[a2]
                if extra:
                    return min(extra), a, v, a2
    return None


def _is_induced_p4(g: CSRGraph, path: Tuple[int, ...]) -> bool:
    """Is ``path`` an induced path of ``g`` (edges exactly between
    consecutive vertices)?"""
    return all(g.has_edge(path[i], path[j]) == (j == i + 1)
               for i in range(4) for j in range(i + 1, 4))
