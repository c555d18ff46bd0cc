"""Hamiltonicity and ``path_cover_size`` from one Lemma 2.4 DP run.

Both Hamiltonicity decisions read the ``p``/``L`` values of a single
``PATH_COVER_SIZE_DP`` run (path iff ``p(root) = 1``; cycle iff ``n >= 3``,
the root is a join and every root child has ``p + L <= L(root)``).  These
tests check the decisions against brute force and the leftist-binary
``p(v) <= L(w)`` form, and every witness against the adjacency oracle, on a
seeded pool of small cotrees that mixes wire buffers and non-canonical
trees with plain canonical ones.
"""

import numpy as np
import pytest

from repro import solve, solve_many
from repro.baselines import (
    brute_force_has_hamiltonian_cycle,
    brute_force_has_hamiltonian_path,
)
from repro.cograph import (
    CographAdjacencyOracle,
    Cotree,
    FlatCotree,
    Graph,
    binarize_cotree,
    make_leftist,
    minimum_path_cover_size,
    path_cover_sizes_per_node,
    random_cotree,
)
from repro.cograph.cotree import JOIN
from repro.core import has_hamiltonian_cycle, has_hamiltonian_path
from repro.io.wire import from_bytes, to_bytes


def _nest_root_children(tree: Cotree) -> Cotree:
    """The same cograph with the root's first two children grouped under a
    new node of the root's own kind (a join under a join root, or a union
    under a union root): a non-canonical tree."""
    root = tree.root
    kind = list(tree.kind) + [int(tree.kind[root])]
    children = [list(c) for c in tree.children] + [tree.children[root][:2]]
    children[root] = [len(kind) - 1] + tree.children[root][2:]
    leaf_vertex = list(tree.leaf_vertex) + [-1]
    return Cotree(kind, children, leaf_vertex, root)


def _pool():
    """``(label, input, reference cotree)`` triples with n <= 10."""
    pool = []
    rng = np.random.default_rng(2024)
    for i in range(48):
        n = 1 + i % 10
        tree = random_cotree(n, seed=int(rng.integers(1 << 30)),
                             join_prob=(0.5, 0.7, 0.85)[i % 3])
        pool.append((f"canonical-{i}", tree, tree))
        if i % 4 == 0:
            pool.append((f"wire-{i}", to_bytes(FlatCotree.from_cotree(tree)),
                         tree))
        if tree.kind[tree.root] != 0 and len(tree.children[tree.root]) >= 3:
            nested = _nest_root_children(tree)
            pool.append((f"nested-{i}", nested, tree))
            pool.append((f"nested-wire-{i}",
                         to_bytes(FlatCotree.from_cotree(nested)), tree))
        if i % 3 == 0 and n > 1:
            pool.append((f"binary-{i}", binarize_cotree(tree), tree))
    return pool


POOL = _pool()


def test_pool_covers_the_shapes_the_rule_must_survive():
    labels = [label for label, _, _ in POOL]
    nested_joins = [label for label, _, ref in POOL
                    if label.startswith("nested-")
                    and ref.kind[ref.root] == JOIN]
    assert any(label.startswith("wire-") for label in labels)
    assert any(label.startswith("nested-wire-") for label in labels)
    assert nested_joins, "no join child under a join root in the pool"
    # wire inputs really arrive as flat arrays
    assert isinstance(from_bytes(next(buf for label, buf, _ in POOL
                                      if label.startswith("wire-"))),
                      FlatCotree)


def _check_walk(oracle, walk, n, *, closed):
    assert sorted(walk) == list(range(n))
    assert oracle.path_is_valid(walk)
    if closed:
        assert oracle.adjacent(walk[0], walk[-1])


@pytest.mark.parametrize("backend", ("fast", "pram"))
@pytest.mark.parametrize("task", ("hamiltonian_path", "hamiltonian_cycle"))
def test_decisions_match_brute_force_and_witnesses_validate(task, backend):
    brute = {"hamiltonian_path": brute_force_has_hamiltonian_path,
             "hamiltonian_cycle": brute_force_has_hamiltonian_cycle}[task]
    positives = 0
    for label, problem, ref in POOL:
        solution = solve(problem, task, backend=backend)
        graph = Graph.from_cotree(ref)
        assert (solution.answer is not None) == brute(graph), label
        assert solution.num_paths == minimum_path_cover_size(ref), label
        if solution.answer is not None:
            positives += 1
            _check_walk(CographAdjacencyOracle(ref), solution.answer,
                        ref.num_vertices, closed=task == "hamiltonian_cycle")
    assert positives >= 10          # the positive branch is exercised


def test_sequential_witnesses_validate():
    for label, problem, ref in POOL:
        oracle = CographAdjacencyOracle(ref)
        for task, closed in (("hamiltonian_path", False),
                             ("hamiltonian_cycle", True)):
            answer = solve(problem, task, method="sequential").answer
            if answer is not None:
                _check_walk(oracle, answer, ref.num_vertices, closed=closed)


def test_rule_matches_the_leftist_binary_form():
    """On the leftist binarized tree (left child ``v``, right ``w``) the
    cycle rule is the classic ``p(v) <= L(w)`` at a join root."""
    for label, problem, ref in POOL:
        binary = make_leftist(binarize_cotree(ref))
        p = path_cover_sizes_per_node(binary)
        root = binary.root
        expected_cycle = bool(
            ref.num_vertices >= 3 and binary.kind[root] == JOIN
            and p[binary.left[root]]
            <= binary.subtree_leaf_counts()[binary.right[root]])
        cycle = solve(problem, "hamiltonian_cycle", backend="fast").answer
        assert (cycle is not None) == expected_cycle, label
        assert has_hamiltonian_cycle(ref) == expected_cycle, label
        assert has_hamiltonian_path(ref) == (int(p[root]) == 1), label


def test_unary_root_is_refused_not_answered_wrong():
    # a join with one child over a triangle: the graph has a cycle, but the
    # root's children cannot show it, so the cycle task refuses the tree
    flat = FlatCotree([JOIN, JOIN, 0, 0, 0], [0, 1, 4, 4, 4, 4],
                      [1, 2, 3, 4], [-1, 0, 1, 1, 1], [-1, -1, 0, 1, 2], 0)
    assert solve(flat, "path_cover_size").answer == 1
    with pytest.raises(ValueError, match="canonicalize"):
        solve(flat, "hamiltonian_cycle", backend="fast")


def test_path_cover_size_matches_the_reference_recurrence():
    for label, problem, ref in POOL:
        want = minimum_path_cover_size(ref)
        for options in ({}, {"backend": "pram"}, {"method": "sequential"},
                        {"validate": True}):
            assert solve(problem, "path_cover_size", **options).answer \
                == want, (label, options)


def test_default_path_cover_size_runs_no_machine():
    solution = solve(random_cotree(30, seed=3), "path_cover_size")
    assert solution.backend == "fast"
    assert solution.machine is None and solution.report is None
    assert solution.cover is None


def test_path_cover_size_solo_and_forest_agree():
    trees = [ref for _, _, ref in POOL]
    solo = [solve(tree, "path_cover_size") for tree in trees]
    routed = solve_many(trees, "path_cover_size", batch_small=16)
    assert {s.provenance["route"] for s in routed} == {"forest"}
    assert [s.answer for s in routed] == [s.answer for s in solo]
    assert {s.backend for s in routed} == {s.backend for s in solo} == {"fast"}
