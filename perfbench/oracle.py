"""The answer oracle: expected answers by an independent route, and checks.

Expected values come from the library's *sequential* reference evaluator
(``run_cotree_dp_sequential``, one plain postorder loop) over the generated
tree, or from ``method="sequential"`` for non-cograph graphs, never from
the vectorized engines the workloads time.  Witnesses are checked
structurally:

* on a cograph, ``u ~ v`` iff the lowest common ancestor of their leaves is
  a JOIN node (the cotree adjacency rule); LCAs are answered by a NumPy
  binary-lifting table built here from the generated parent array;
* a vertex set is a clique (independent set) iff the LCAs of its
  consecutive members in DFS order are all JOIN (all UNION) nodes, because
  those LCAs are exactly the branching nodes of the subtree the set spans;
* on an explicit graph (the P4-sparse inputs) every pair is looked up in
  the edge set.

:func:`check_answer` returns ``None`` for a correct answer and a short
reason otherwise.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.cograph import FlatCotree
from repro.cograph.cotree import JOIN, LEAF
from repro.core.dp import (
    COUNT_INDEPENDENT_SETS_DP,
    MAX_CLIQUE_DP,
    MAX_INDEPENDENT_SET_DP,
    PATH_COVER_SIZE_DP,
    max_weight_clique_dp,
    run_cotree_dp_sequential,
)

from gen import Tree, node_depths

__all__ = ["flat_of", "expected_for_tree", "expected_for_graph",
           "CotreeChecker", "GraphChecker", "check_answer", "is_cograph"]

#: the DP spec and root field whose sequential value answers each task.
_TASK_DP = {
    "path_cover": (PATH_COVER_SIZE_DP, "p"),
    "path_cover_size": (PATH_COVER_SIZE_DP, "p"),
    "hamiltonian_path": (PATH_COVER_SIZE_DP, "p"),
    "max_clique": (MAX_CLIQUE_DP, "omega"),
    "max_independent_set": (MAX_INDEPENDENT_SET_DP, "alpha"),
    # cographs are perfect: chi = omega and theta = alpha, so colourings
    # and clique covers are checked against the clique / independent-set
    # values, a second route to the same numbers
    "chromatic_number": (MAX_CLIQUE_DP, "omega"),
    "clique_cover": (MAX_INDEPENDENT_SET_DP, "alpha"),
    "count_independent_sets": (COUNT_INDEPENDENT_SETS_DP, "count"),
}


def flat_of(tree: Tree) -> FlatCotree:
    """The library's CSR form of a generated tree."""
    offset, index = tree.csr()
    return FlatCotree(tree.kind, offset, index, tree.parent,
                      tree.leaf_vertex, tree.root)


def expected_for_tree(tree: Tree, tasks: Sequence[str],
                      weights: Optional[Sequence[int]] = None
                      ) -> Dict[str, Any]:
    """Expected root value per task, by the sequential evaluator."""
    flat = flat_of(tree)
    out: Dict[str, Any] = {}
    runs: Dict[str, Any] = {}
    for task in tasks:
        if task == "max_weight_clique":
            run = run_cotree_dp_sequential(max_weight_clique_dp(weights), flat)
            out[task] = int(run.root("omega"))
            continue
        dp, field = _TASK_DP[task]
        if dp.name not in runs:
            runs[dp.name] = run_cotree_dp_sequential(dp, flat)
        out[task] = int(runs[dp.name].root(field))
    return out


def expected_for_graph(edges: np.ndarray, tasks: Sequence[str]
                       ) -> Dict[str, Any]:
    """Expected answers on an explicit (possibly non-cograph) graph:
    ``method="sequential"`` for the extremal sets, and the
    complement-connectivity definition for recognition."""
    from repro.api import solve
    n = int(edges.max()) + 1
    out: Dict[str, Any] = {}
    for task in tasks:
        if task == "recognition":
            out[task] = is_cograph(n, edges)
        else:
            answer = solve(edges, task, method="sequential").answer
            out[task] = int(answer["size"])
    return out


def is_cograph(n: int, edges: np.ndarray) -> bool:
    """A graph is a cograph iff every induced subgraph on two or more
    vertices is disconnected or has a disconnected complement."""
    adj = np.zeros((n, n), dtype=bool)
    adj[edges[:, 0], edges[:, 1]] = True
    adj[edges[:, 1], edges[:, 0]] = True
    pending: List[np.ndarray] = [np.arange(n)]
    while pending:
        vs = pending.pop()
        if len(vs) < 2:
            continue
        sub = adj[np.ix_(vs, vs)]
        parts = _components(sub)
        if len(parts) == 1:
            co = ~sub
            np.fill_diagonal(co, False)
            parts = _components(co)
            if len(parts) == 1:
                return False
        pending.extend(vs[p] for p in parts)
    return True


def _components(adj: np.ndarray) -> List[np.ndarray]:
    n = len(adj)
    label = np.full(n, -1)
    parts = []
    for start in range(n):
        if label[start] >= 0:
            continue
        label[start] = len(parts)
        frontier = np.array([start])
        while len(frontier):
            reached = np.flatnonzero(adj[frontier].any(axis=0) & (label < 0))
            label[reached] = len(parts)
            frontier = reached
        parts.append(np.flatnonzero(label == len(parts)))
    return parts


# --------------------------------------------------------------------------- #
# adjacency checkers
# --------------------------------------------------------------------------- #

class CotreeChecker:
    """Vectorized adjacency on a generated cotree (LCA by binary lifting)."""

    def __init__(self, tree: Tree) -> None:
        self.n = tree.num_vertices
        self.kind = tree.kind
        self.depth = node_depths(tree.parent)
        levels = max(1, int(self.depth.max()).bit_length())
        up = np.where(tree.parent >= 0, tree.parent, tree.root)
        self._up = [up]
        for _ in range(levels - 1):
            self._up.append(self._up[-1][self._up[-1]])
        self.leaf_of = np.empty(self.n, dtype=np.int64)
        leaves = np.flatnonzero(tree.kind == LEAF)
        self.leaf_of[tree.leaf_vertex[leaves]] = leaves
        self.rank = self._dfs_rank(tree)

    @staticmethod
    def _dfs_rank(tree: Tree) -> np.ndarray:
        """Position of every vertex in one DFS order of the leaves."""
        offset, index = tree.csr()
        offset, index = offset.tolist(), index.tolist()
        kind, vertex = tree.kind.tolist(), tree.leaf_vertex.tolist()
        rank = np.empty(tree.num_vertices, dtype=np.int64)
        pos, stack = 0, [tree.root]
        while stack:
            node = stack.pop()
            if kind[node] == LEAF:
                rank[vertex[node]] = pos
                pos += 1
            else:
                stack.extend(index[offset[node]:offset[node + 1]])
        return rank

    def _lca(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        da, db = self.depth[a], self.depth[b]
        swap = da < db
        a, b = np.where(swap, b, a), np.where(swap, a, b)
        diff = np.abs(da - db)
        for k, up in enumerate(self._up):
            a = np.where((diff >> k) & 1 == 1, up[a], a)
        for up in reversed(self._up):
            ua, ub = up[a], up[b]
            move = ua != ub
            a, b = np.where(move, ua, a), np.where(move, ub, b)
        return np.where(a == b, a, self._up[0][a])

    def adjacent(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        lca = self._lca(self.leaf_of[u], self.leaf_of[v])
        return (self.kind[lca] == JOIN) & (u != v)

    def groups_uniform(self, vertices: np.ndarray, groups: np.ndarray,
                       adjacent: bool) -> bool:
        """Is every group a clique (``adjacent``) / independent set?"""
        order = np.lexsort((self.rank[vertices], groups))
        v, g = vertices[order], groups[order]
        same = g[1:] == g[:-1]
        a, b = v[:-1][same], v[1:][same]
        if len(a) == 0:
            return True
        return bool(np.all(self.adjacent(a, b) == adjacent))


class GraphChecker:
    """Adjacency on an explicit edge list (small graphs)."""

    def __init__(self, n: int, edges: np.ndarray) -> None:
        self.n = n
        self._adj = np.zeros((n, n), dtype=bool)
        self._adj[edges[:, 0], edges[:, 1]] = True
        self._adj[edges[:, 1], edges[:, 0]] = True

    def adjacent(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self._adj[u, v]

    def groups_uniform(self, vertices: np.ndarray, groups: np.ndarray,
                       adjacent: bool) -> bool:
        for g in np.unique(groups):
            members = vertices[groups == g]
            block = self._adj[np.ix_(members, members)]
            off = ~np.eye(len(members), dtype=bool)
            if not np.all(block[off] == adjacent):
                return False
        return True


# --------------------------------------------------------------------------- #
# the checks
# --------------------------------------------------------------------------- #

def _ints(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64).reshape(-1)


def _vertex_set(checker, vertices, size: int, adjacent: bool
                ) -> Optional[str]:
    vs = _ints(vertices)
    if len(vs) != size or len(np.unique(vs)) != size:
        return f"witness has {len(vs)} vertices, expected {size}"
    if size and (vs.min() < 0 or vs.max() >= checker.n):
        return "witness names a vertex out of range"
    if not checker.groups_uniform(vs, np.zeros(size, np.int64), adjacent):
        return "witness is not a " + ("clique" if adjacent
                                      else "independent set")
    return None


def _partition(checker, blocks: List[List[int]], adjacent: bool
               ) -> Optional[str]:
    lengths = [len(b) for b in blocks]
    vs = _ints([v for b in blocks for v in b])
    if not np.array_equal(np.sort(vs), np.arange(checker.n)):
        return "blocks are not a partition of the vertex set"
    groups = np.repeat(np.arange(len(blocks)), lengths)
    if not checker.groups_uniform(vs, groups, adjacent):
        return "a block is not a " + ("clique" if adjacent
                                      else "independent set")
    return None


def _paths(checker, paths: List[List[int]], expected: int) -> Optional[str]:
    if len(paths) != expected:
        return f"cover has {len(paths)} paths, expected {expected}"
    if any(len(p) == 0 for p in paths):
        return "cover has an empty path"
    vs = _ints([v for p in paths for v in p])
    if not np.array_equal(np.sort(vs), np.arange(checker.n)):
        return "paths are not a partition of the vertex set"
    ends = np.cumsum([len(p) for p in paths])
    inner = np.ones(len(vs) - 1, dtype=bool)
    inner[ends[:-1] - 1] = False
    a, b = vs[:-1][inner], vs[1:][inner]
    if len(a) and not np.all(checker.adjacent(a, b)):
        return "consecutive path vertices are not adjacent"
    return None


def check_answer(task: str, answer: Any, expected: Any, checker,
                 weights: Optional[Sequence[int]] = None) -> Optional[str]:
    """``None`` when ``answer`` (a decoded JSON answer) is correct."""
    try:
        if task == "path_cover":
            return _paths(checker, answer["paths"], expected)
        if task == "path_cover_size":
            return None if answer == expected else \
                f"size {answer}, expected {expected}"
        if task == "hamiltonian_path":
            if expected != 1:
                return None if answer is None else \
                    "Hamiltonian path on a graph that has none"
            return "missing Hamiltonian path" if answer is None else \
                _paths(checker, [answer], 1)
        if task in ("max_clique", "max_independent_set"):
            if answer["size"] != expected:
                return f"size {answer['size']}, expected {expected}"
            return _vertex_set(checker, answer["vertices"], expected,
                               task == "max_clique")
        if task == "max_weight_clique":
            vs = _ints(answer["vertices"])
            total = int(np.asarray(weights, dtype=np.int64)[vs].sum())
            if answer["weight"] != expected or total != expected:
                return (f"weight {answer['weight']} (witness {total}), "
                        f"expected {expected}")
            return _vertex_set(checker, vs, len(vs), True)
        if task == "chromatic_number":
            chi, coloring = answer["chromatic_number"], _ints(
                answer["coloring"])
            if chi != expected:
                return f"chi {chi}, expected {expected}"
            if len(coloring) != checker.n or (
                    len(coloring) and (coloring.min() < 0
                                       or coloring.max() >= chi)):
                return "colouring has the wrong length or colour range"
            blocks: List[List[int]] = [[] for _ in range(chi)]
            for v, c in enumerate(coloring.tolist()):
                blocks[c].append(v)
            return _partition(checker, blocks, adjacent=False)
        if task == "clique_cover":
            if answer["num_cliques"] != expected or \
                    len(answer["cliques"]) != expected:
                return f"theta {answer['num_cliques']}, expected {expected}"
            return _partition(checker, answer["cliques"], adjacent=True)
        if task == "count_independent_sets":
            return None if answer["count"] == expected else \
                "wrong independent-set count"
        if task == "recognition":
            return None if answer is expected else \
                f"recognition {answer}, expected {expected}"
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return f"malformed answer ({type(exc).__name__}: {exc})"
    return f"no check for task {task!r}"
