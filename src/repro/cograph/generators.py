"""Cograph / cotree generators used by the tests, examples and benchmarks.

The families below cover the shapes the paper's analysis cares about:

* *random* cotrees (average-case inputs for the scaling benchmarks),
* *balanced* cotrees (logarithmic height — friendly to the naive
  parallelisation, so they isolate the bracket machinery's overhead),
* *caterpillar* cotrees (linear height — the worst case that makes the naive
  parallelisation Θ(n log n) time and motivates the whole paper),
* *joins of independent sets* and *threshold graphs* (Hamiltonicity
  crossovers: the path-cover size of a join is ``max(p(v) − L(w), 1)``, so
  these families let benchmarks sweep across the ``p(v) = L(w)`` boundary),
* *unions of cliques* (maximally disconnected covers).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .cotree import JOIN, LEAF, UNION, Cotree
from .flat import FlatCotree, _parent_csr
from .operations import join_cotrees, union_cotrees

__all__ = [
    "single_vertex",
    "independent_set",
    "clique",
    "complete_bipartite",
    "union_of_cliques",
    "join_of_independent_sets",
    "balanced_cotree",
    "caterpillar_cotree",
    "threshold_cograph",
    "random_cotree",
    "random_binary_cotree_spec",
    "random_cograph_edges",
    "random_p4_sparse",
]


def single_vertex(vertex: int = 0) -> Cotree:
    """The one-vertex cograph."""
    return Cotree.single_vertex(vertex)


def independent_set(n: int) -> Cotree:
    """``n`` isolated vertices (a single 0-node for ``n >= 2``)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return single_vertex(0)
    return Cotree.from_nested(tuple(["union"] + list(range(n))))


def clique(n: int) -> Cotree:
    """The complete graph ``K_n`` (a single 1-node for ``n >= 2``)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return single_vertex(0)
    return Cotree.from_nested(tuple(["join"] + list(range(n))))


def complete_bipartite(a: int, b: int) -> Cotree:
    """The complete bipartite graph ``K_{a,b}`` = join of two independent sets."""
    return join_cotrees(independent_set(a), independent_set(b), relabel=True)


def union_of_cliques(sizes: Sequence[int]) -> Cotree:
    """Disjoint union of cliques of the given sizes.

    Its minimum path cover has exactly ``len(sizes)`` paths (one Hamiltonian
    path per clique), which makes it a convenient ground-truth family.
    """
    if not sizes:
        raise ValueError("need at least one clique")
    return union_cotrees(*[clique(s) for s in sizes], relabel=True)


def join_of_independent_sets(sizes: Sequence[int]) -> Cotree:
    """Join of independent sets of the given sizes (a complete multipartite
    graph).

    The minimum path cover of the join of independent sets of sizes
    ``s_1 >= s_2 >= ...`` has ``max(1, s_max - (total - s_max))`` paths, which
    the tests use as an independent analytic ground truth.
    """
    if not sizes:
        raise ValueError("need at least one part")
    return join_cotrees(*[independent_set(s) for s in sizes], relabel=True)


def balanced_cotree(depth: int, branching: int = 2, root_kind: int = JOIN) -> Cotree:
    """A perfectly balanced cotree of the given depth with alternating labels.

    The result has ``branching ** depth`` vertices and height ``depth`` — the
    friendliest possible shape for a level-by-level parallelisation.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if branching < 2:
        raise ValueError("branching must be >= 2")

    counter = [0]

    def build(d: int, kind: int):
        if d == 0:
            v = counter[0]
            counter[0] += 1
            return v
        child_kind = UNION if kind == JOIN else JOIN
        op = "join" if kind == JOIN else "union"
        return tuple([op] + [build(d - 1, child_kind) for _ in range(branching)])

    return Cotree.from_nested(build(depth, root_kind))


def caterpillar_cotree(n: int, root_kind: int = JOIN,
                       alternate: bool = True) -> Cotree:
    """A maximally deep ("caterpillar") cotree over ``n`` vertices.

    Built as ``T_1 = leaf``, ``T_k = op_k(T_{k-1}, leaf)``.  Its binarized
    cotree has height ``n - 1``, which is the adversarial case for the naive
    bottom-up parallelisation discussed after Lemma 2.3: that scheme needs
    ``O(height x log n)`` time on this family while the paper's bracket-based
    algorithm stays at ``O(log n)``.

    With ``alternate=True`` the labels alternate up the spine (a canonical
    cotree — this is the cotree of a *threshold graph*); otherwise every spine
    node carries ``root_kind`` (useful for stressing the binarizer, which
    then merges the spine into one wide node when canonicalised).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return single_vertex(0)
    spec = 0
    kind = root_kind if not alternate else (
        root_kind if (n - 1) % 2 == 1 else (UNION if root_kind == JOIN else JOIN))
    # Build bottom-up so that the *root* ends with root_kind when alternating.
    current_kind = kind
    for v in range(1, n):
        op = "join" if current_kind == JOIN else "union"
        spec = (op, spec, v)
        if alternate:
            current_kind = UNION if current_kind == JOIN else JOIN
    tree = Cotree.from_nested(spec)
    return tree.canonicalize()


def threshold_cograph(creation_sequence: Sequence[int]) -> Cotree:
    """The threshold graph of a 0/1 creation sequence, as a cotree.

    Reading the sequence left to right, a ``1`` adds a *dominating* vertex
    (joined to everything so far) and a ``0`` adds an *isolated* vertex.
    Threshold graphs are exactly the cographs whose cotree is a caterpillar,
    and they exercise the deepest `Tbl(G)` shapes.

    The canonical cotree is written directly, in preorder: a run of equal
    bits (after the first vertex) is one node, the last run's the root,
    each run's node the first child of the next run's and the parent of
    the run's vertices; vertex 0 hangs under the first run's node.
    """
    seq = list(creation_sequence)
    if not seq:
        raise ValueError("creation sequence must be non-empty")
    n = len(seq)
    if n == 1:
        return single_vertex(0)
    bits = np.array([bool(bit) for bit in seq[1:]])
    starts = np.ones(n - 1, dtype=bool)
    starts[1:] = bits[1:] != bits[:-1]
    run = np.cumsum(starts) - 1             # the run of vertices 1 .. n-1
    k = int(run[-1]) + 1
    kind = np.concatenate([np.where(bits[starts][::-1], JOIN, UNION),
                           np.full(n, LEAF)])
    parent = np.concatenate([np.arange(-1, k - 1), [k - 1], k - 1 - run])
    leaf_vertex = np.concatenate([np.full(k, -1), np.arange(n)])
    return Cotree._of(FlatCotree(kind, *_parent_csr(parent), parent,
                                 leaf_vertex, 0))


def random_binary_cotree_spec(n: int, rng: np.random.Generator,
                              join_prob: float = 0.5):
    """A random nested spec of a binary tree over ``n`` leaves with random
    0/1 labels (non-canonical in general)."""
    vertices = list(range(n))

    def build(vs: List[int]):
        if len(vs) == 1:
            return vs[0]
        split = int(rng.integers(1, len(vs)))
        op = "join" if rng.random() < join_prob else "union"
        return (op, build(vs[:split]), build(vs[split:]))

    return build(vertices)


def random_cotree(n: int, seed: Optional[int] = None,
                  join_prob: float = 0.5) -> Cotree:
    """A random *canonical* cotree over ``n`` vertices.

    A random binary tree with independently random labels is generated and
    canonicalised (same-label parent/child pairs merged), which yields a wide
    variety of arities and heights.  ``join_prob`` biases the graph density:
    1.0 gives a clique, 0.0 an independent set.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    if n == 1:
        return single_vertex(0)
    spec = random_binary_cotree_spec(n, rng, join_prob)
    return Cotree.from_nested(spec).canonicalize()


def random_cograph_edges(n: int, seed: Optional[int] = None,
                         join_prob: float = 0.5):
    """Convenience: a random cograph as ``(cotree, edge list)``.

    The edge list is materialised from the cotree, so it is only suitable for
    moderate ``n``.
    """
    tree = random_cotree(n, seed=seed, join_prob=join_prob)
    adj = tree.adjacency_sets()
    edges = [(u, v) for u, nbrs in adj.items() for v in nbrs if u < v]
    return tree, sorted(edges)


def random_p4_sparse(n: int, seed: Optional[int] = None,
                     spider_prob: float = 0.5):
    """A random connected-or-not **P4-sparse** graph on ``n`` vertices.

    Built by the structure theorem (Jamison & Olariu): a P4-sparse graph is
    a single vertex, a disjoint union or join of two P4-sparse graphs, or a
    spider ``(S, K, R)`` whose head ``R`` is P4-sparse.  At each recursive
    step a spider is emitted with probability ``spider_prob`` (when enough
    vertices remain), so the resulting modular decomposition trees mix
    union/join nodes with thin and thick spider primes.  Returns a
    :class:`~repro.cograph.graph.Graph`; most draws are *not* cographs.
    """
    from .graph import Graph
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    edges: List[tuple] = []

    def build(vs: List[int]) -> None:
        m = len(vs)
        if m == 1:
            return
        if m >= 4 and rng.random() < spider_prob:
            # spider (S, K, R): |S| = |K| = k >= 2, R may be empty
            k = int(rng.integers(2, m // 2 + 1))
            thin = bool(rng.random() < 0.5) or k < 3
            order = [vs[i] for i in rng.permutation(m)]
            feet, body = order[:k], order[k:2 * k]
            head = order[2 * k:]
            for i in range(k):                      # body clique
                for j in range(i + 1, k):
                    edges.append((body[i], body[j]))
            for i in range(k):                      # feet attachment
                if thin:
                    edges.append((feet[i], body[i]))
                else:
                    edges.extend((feet[i], body[j])
                                 for j in range(k) if j != i)
            for b in body:                          # head sees the body
                edges.extend((b, r) for r in head)
            if head:
                build(head)
            return
        split = int(rng.integers(1, m))
        lo, hi = vs[:split], vs[split:]
        if rng.random() < 0.5:                      # join of the two halves
            edges.extend((u, v) for u in lo for v in hi)
        build(lo)
        build(hi)

    build(list(range(n)))
    return Graph(n, edges)
