"""Input adapters: every supported instance form reaches the same answer.

The headline property (ISSUE 2): every generator family round-trips through
the edge-list / adjacency / text / JSON adapters to an identical cover —
identical paths where the cotree survives verbatim (text, JSON), identical
size plus a validated cover where recognition rebuilds the canonical cotree
(edge list, adjacency).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings

from repro.api import Problem, as_problem, solve
from repro.cograph import (
    BinaryCotree,
    CographAdjacencyOracle,
    Cotree,
    Graph,
    NotACographError,
    binarize_cotree,
    clique,
    minimum_path_cover_size,
    random_cotree,
)
from repro.core import LowerBoundInstance
from repro.io import cotree_to_json, cotree_to_text, graph_to_json, save_json

from conftest import nested_cotree_specs


def _all_forms(tree: Cotree, tmp_path):
    """(form, exact) pairs: exact forms must reproduce the very same cover."""
    graph = Graph.from_cotree(tree)
    json_path = tmp_path / "instance.json"
    save_json(tree, str(json_path))
    forms = [
        (tree, True),
        (cotree_to_text(tree), True),
        (str(json_path), True),
        (cotree_to_json(tree), True),
        (binarize_cotree(tree), False),
        (graph, False),
        (graph_to_json(graph), False),
        ({u: sorted(graph.neighbours(u)) for u in graph.vertices()}, False),
    ]
    if graph.num_edges() > 0:
        forms.append((list(graph.edges()), False))
        forms.append((np.array(list(graph.edges()), dtype=np.int64), False))
    return forms


def test_every_family_round_trips_through_every_adapter(small_named_cotrees,
                                                        tmp_path):
    for name, tree in small_named_cotrees.items():
        graph = Graph.from_cotree(tree)
        # edge lists cannot express isolated vertices; skip those forms there
        has_isolated = any(graph.degree(u) == 0 for u in graph.vertices())
        reference = solve(tree, backend="fast")
        oracle = CographAdjacencyOracle(tree)
        for form, exact in _all_forms(tree, tmp_path):
            if has_isolated and isinstance(form, (list, np.ndarray)):
                continue
            sol = solve(form, backend="fast")
            assert sol.num_paths == reference.num_paths, (name, type(form))
            if exact:
                assert sol.cover.paths == reference.cover.paths, name
            else:
                sol.cover.validate(oracle,
                                   expected_num_vertices=tree.num_vertices,
                                   expected_num_paths=reference.num_paths)


@settings(max_examples=40, deadline=None)
@given(spec=nested_cotree_specs(max_leaves=8))
def test_adapter_round_trip_property(spec):
    tree = (Cotree.single_vertex(spec) if isinstance(spec, int)
            else Cotree.from_nested(spec).canonicalize())
    expected = minimum_path_cover_size(tree)
    graph = Graph.from_cotree(tree)
    oracle = CographAdjacencyOracle(tree)

    exact = solve(cotree_to_text(tree), backend="fast")
    assert exact.cover.paths == solve(tree, backend="fast").cover.paths

    rebuilt = solve({u: sorted(graph.neighbours(u))
                     for u in graph.vertices()}, backend="fast")
    assert rebuilt.num_paths == expected
    rebuilt.cover.validate(oracle, expected_num_vertices=tree.num_vertices,
                           expected_num_paths=expected)


# --------------------------------------------------------------------------- #
# individual adapter behaviours
# --------------------------------------------------------------------------- #

def test_problem_passthrough_and_formats():
    prob = as_problem(clique(3))
    assert as_problem(prob) is prob
    assert prob.source_format == "cotree"
    assert as_problem(binarize_cotree(clique(3))).source_format == \
        "binary_cotree"
    assert as_problem("(0 + 1)").source_format == "text"
    assert as_problem("7").tree.num_vertices == 1
    assert as_problem([(0, 1)]).source_format == "edge_list"
    assert as_problem({0: [1], 1: [0]}).source_format == "adjacency"
    assert as_problem([1, 0], task="lower_bound").source_format == "bits"


def test_string_adapter_rejects_garbage():
    with pytest.raises(ValueError, match="neither cotree text"):
        as_problem("definitely/not/a/file.json")
    with pytest.raises(ValueError, match="empty string"):
        as_problem("   ")


def test_sequence_adapter_disambiguation():
    with pytest.raises(ValueError, match="ambiguous"):
        as_problem([])
    # flat ints are ONLY bits, and only for the lower_bound task: a graph
    # task can never silently solve the reduction gadget
    with pytest.raises(ValueError, match="lower_bound"):
        as_problem([0, 1])
    with pytest.raises(ValueError, match="only 0/1"):
        as_problem([2, 3, 4], task="lower_bound")
    with pytest.raises(ValueError, match="edge list"):
        as_problem([(0, 1), 5])          # mixed pairs and scalars
    assert as_problem(np.array([1, 0, 1]),
                      task="lower_bound").instance is not None
    with pytest.raises(ValueError, match="lower_bound"):
        as_problem(np.array([1, 0, 1]))  # 1-d array, graph task context
    with pytest.raises(ValueError, match="not a problem"):
        as_problem(np.zeros((2, 3), dtype=np.int64))


def test_edge_list_deduplicates_and_sizes():
    prob = as_problem([(0, 1), (1, 0), (1, 2)])
    assert prob.graph.n == 3 and prob.graph.num_edges() == 2


def test_adjacency_accepts_string_keys():
    prob = as_problem({"0": [1], "1": [0, 2], "2": [1]})
    assert prob.graph.num_edges() == 2


def test_adjacency_accepts_one_sided_listings():
    # vertices appearing only as neighbours still count (star K1,2)
    prob = as_problem({0: [1, 2]})
    assert prob.graph.n == 3 and prob.graph.num_edges() == 2
    assert solve(prob, backend="fast").num_paths == 1


def test_dict_adapter_rejects_result_payloads():
    with pytest.raises(ValueError, match="not a problem"):
        as_problem({"type": "path_cover", "paths": [[0]]})


def test_json_path_rejects_result_payloads(tmp_path):
    path = tmp_path / "cover.json"
    save_json(solve(clique(3)).cover, str(path))
    with pytest.raises(ValueError, match="not a problem"):
        as_problem(str(path))


def test_json_graph_file(tmp_path):
    graph = Graph.from_cotree(clique(4))
    path = tmp_path / "graph.json"
    save_json(graph, str(path))
    prob = as_problem(str(path))
    assert prob.source_format == "json" and prob.source == str(path)
    assert solve(prob).num_paths == 1


def test_unsupported_type_names_the_options():
    with pytest.raises(TypeError, match="adjacency dict"):
        as_problem(3.14)


def test_lower_bound_instance_passthrough():
    from repro.core import or_instance_cotree
    inst = or_instance_cotree([1, 0])
    prob = as_problem(inst)
    assert isinstance(prob.instance, LowerBoundInstance)
    assert solve(prob, "lower_bound").answer["or"] == 1


def test_non_cograph_is_lazy():
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    prob = as_problem(p4)                      # no error yet
    assert solve(prob, "recognition").answer is False
    with pytest.raises(NotACographError):      # only when a task needs it
        solve(prob, "path_cover")


def test_provenance_reports_the_source():
    sol = solve("(0 * (1 + 2))")
    assert sol.provenance["source_format"] == "text"
    assert sol.provenance["num_vertices"] == 3


def test_a_checked_problem_pickles_one_tree_form():
    # a pool worker gets the checked flat tree, never it and the object
    # cotree it was flattened from
    prob = as_problem(cotree_to_text(random_cotree(100, seed=1)))
    flat = prob.pipeline_tree()
    assert len(pickle.dumps(prob)) < len(pickle.dumps(flat)) + 512
    clone = pickle.loads(pickle.dumps(prob))
    assert clone.num_vertices == 100
    assert clone.provenance() == prob.provenance()
    assert clone.pipeline_tree() is clone.tree        # arrives checked
    assert solve(clone, backend="fast").answer.paths == \
        solve(prob, backend="fast").answer.paths


def test_a_checked_graph_problem_pickles_the_graph_and_the_flat_tree():
    graph = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])     # C4, a cograph
    prob = as_problem(graph)
    flat = prob.pipeline_tree()
    assert len(pickle.dumps(prob)) < \
        len(pickle.dumps(graph)) + len(pickle.dumps(flat)) + 512
    clone = pickle.loads(pickle.dumps(prob))
    assert solve(clone, "recognition").answer is True
    assert solve(clone, backend="fast").num_paths == 1


# --------------------------------------------------------------------------- #
# regression tests (ISSUE 3 satellite bugfixes)
# --------------------------------------------------------------------------- #

def test_empty_numpy_edge_array_gets_the_friendly_error():
    # used to crash with a raw ``max() arg is an empty sequence``
    with pytest.raises(ValueError, match="empty sequence is ambiguous"):
        as_problem(np.empty((0, 2), dtype=np.int64))


def test_empty_array_and_empty_list_raise_the_same_message():
    with pytest.raises(ValueError) as from_array:
        as_problem(np.empty((0, 2), dtype=np.int64))
    with pytest.raises(ValueError) as from_list:
        as_problem([])
    assert str(from_array.value) == str(from_list.value)


@pytest.mark.parametrize("edges", [
    [(-1, 0)],
    [(0, 1), (2, -3)],
    np.array([[-1, 0], [0, 1]], dtype=np.int64),
])
def test_negative_vertex_ids_are_rejected(edges):
    # used to silently build a bogus Graph via n = max(...) + 1
    with pytest.raises(ValueError, match="negative vertex id"):
        as_problem(edges)


def test_digit_named_json_file_is_loaded(tmp_path, monkeypatch):
    # used to be shadowed by the single-vertex cotree reading of "123"
    save_json(clique(5), str(tmp_path / "123"))
    monkeypatch.chdir(tmp_path)
    prob = as_problem("123")
    assert prob.source_format == "json"
    assert prob.num_vertices == 5


def test_digit_string_without_a_file_is_still_a_single_vertex(tmp_path,
                                                              monkeypatch):
    monkeypatch.chdir(tmp_path)  # guaranteed no file named "123"
    prob = as_problem("123")
    assert prob.source_format == "text"
    assert prob.num_vertices == 1


# --------------------------------------------------------------------------- #
# vectorized edge-list / adjacency adapters (no per-edge Python loop)
# --------------------------------------------------------------------------- #

class TestVectorizedGraphAdapters:
    """Parity regressions for the NumPy fast paths of the graph adapters."""

    @staticmethod
    def _random_edges(rng, n, p):
        rows, cols = np.triu_indices(n, k=1)
        keep = rng.random(len(rows)) < p
        return np.stack([rows[keep], cols[keep]], axis=1).astype(np.int64)

    @pytest.mark.parametrize("seed", range(6))
    def test_edge_array_matches_per_edge_construction(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 24))
        edges = self._random_edges(rng, n, 0.4)
        if len(edges) == 0:
            edges = np.array([[0, 1]], dtype=np.int64)
        reference = Graph(n, [(int(u), int(v)) for u, v in edges])
        fast = Graph.from_edge_array(n, edges)
        assert fast.n == reference.n
        assert fast.adj == reference.adj

    @pytest.mark.parametrize("seed", range(4))
    def test_ndarray_and_tuple_list_inputs_agree(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(3, 20))
        edges = self._random_edges(rng, n, 0.5)
        if len(edges) == 0:
            edges = np.array([[0, 1], [1, 2]], dtype=np.int64)
        from_array = as_problem(edges)
        from_tuples = as_problem([(int(u), int(v)) for u, v in edges])
        assert from_array.graph.adj == from_tuples.graph.adj
        # covers agree end to end whichever spelling arrived (cographs only)
        from repro.cograph import is_cograph
        if is_cograph(from_array.graph):
            a = solve(from_array, task="path_cover")
            b = solve(from_tuples, task="path_cover")
            assert a.cover.canonical().paths == b.cover.canonical().paths

    @pytest.mark.parametrize("seed", range(4))
    def test_adjacency_dict_matches_per_edge_construction(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(2, 18))
        edges = self._random_edges(rng, n, 0.5)
        adj = {u: [] for u in range(n)}
        for u, v in edges:
            adj[int(u)].append(int(v))
        reference = Graph(n, [(int(u), int(v)) for u, v in edges])
        assert Graph.from_adjacency(adj).adj == reference.adj

    def test_from_edge_array_validates(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edge_array(3, np.array([[0, 5]]))
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edge_array(3, np.array([[1, 1]]))

    def test_from_edge_array_deduplicates(self):
        g = Graph.from_edge_array(3, np.array([[0, 1], [1, 0], [0, 1]]))
        assert g.num_edges() == 1
