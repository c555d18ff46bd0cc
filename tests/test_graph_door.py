"""The graph door: edge lists, adjacency dicts and graph JSON to trees.

* The one decomposer (:func:`repro.cograph.decompose`) against the
  recursive union/join recogniser it replaced, kept here as the oracle
  for n <= 64: bit-identical ``FlatCotree`` arrays, ``canonical_key``
  bytes and answers on cographs of every shape, and an induced-P4
  certificate on every non-cograph.
* Modular decomposition trees of non-cographs, pinned array by array.
* Hostile edge lists keep their refusal messages; a graph naming more
  vertices than its body has bytes is a 400 that spares the breaker.
* No graph request builds a set-based :class:`~repro.cograph.Graph`.
"""

import asyncio
import itertools
import json

import numpy as np
import pytest

from repro.api import as_problem, solve
from repro.api.registry import TASKS
from repro.cograph import (
    CSRGraph,
    Cotree,
    Graph,
    NotACographError,
    as_flat_cotree,
    canonical_key,
    caterpillar_cotree,
    clique,
    decompose,
    graph_from_md_tree,
    independent_set,
    md_tree,
    random_cotree,
    random_p4_sparse,
    threshold_cograph,
)
from repro.cograph import _decompose
from repro.server.app import ServerApp
from repro.server.settings import Settings

# --------------------------------------------------------------------------- #
# the oracle: the recursive recogniser the decomposer replaced
# --------------------------------------------------------------------------- #


def oracle_cotree(graph: Graph):
    """The canonical flat cotree by recursive union/join splits of
    induced subgraphs, or ``None`` for a non-cograph (n <= 64)."""
    assert graph.n <= 64

    def split(vertices):
        if len(vertices) == 1:
            return vertices[0]
        sub, back = graph.induced_subgraph(vertices)
        for op, parts in (("union", sub.connected_components()),
                          ("join", sub.complement_components())):
            if len(parts) > 1:
                kids = [split(sorted(back[v] for v in p)) for p in parts]
                if any(kid is None for kid in kids):
                    return None
                return (op, *sorted(kids, key=_min_vertex))
        return None

    spec = split(list(range(graph.n)))
    if spec is None:
        return None
    tree = Cotree.single_vertex(spec) if isinstance(spec, int) \
        else Cotree.from_nested(spec)
    return as_flat_cotree(tree.canonicalize())


def _min_vertex(spec) -> int:
    while not isinstance(spec, int):
        spec = spec[1]
    return spec


def is_induced_p4(graph: Graph, path) -> bool:
    return len(set(path)) == 4 and all(
        graph.has_edge(path[i], path[j]) == (j == i + 1)
        for i in range(4) for j in range(i + 1, 4))


def brute_force_has_p4(graph: Graph) -> bool:
    return any(is_induced_p4(graph, p)
               for p in itertools.permutations(range(graph.n), 4))


def _cograph(tree) -> Graph:
    return Graph.from_cotree(tree)


def _one_p4(n: int, seed: int) -> Graph:
    base = Graph.from_cotree(random_cotree(n - 4, seed=seed))
    return Graph(n, list(base.edges())
                 + [(n - 4, n - 3), (n - 3, n - 2), (n - 2, n - 1)])


def _random_graph(n: int, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.4])


FAMILIES = {
    **{f"random_{s}": _cograph(random_cotree(8 + 7 * s, seed=s,
                                             join_prob=0.2 + 0.1 * s))
       for s in range(7)},
    "threshold": _cograph(threshold_cograph([i % 2 for i in range(40)])),
    "threshold_runs": _cograph(threshold_cograph(
        [(i // 3) % 2 for i in range(37)])),
    "caterpillar": _cograph(caterpillar_cotree(33)),
    "complete": _cograph(clique(20)),
    "edgeless": Graph(17),
    "single": Graph(1),
    "star": Graph(25, [(0, v) for v in range(1, 25)]),
    **{f"p4_sparse_{s}": random_p4_sparse(10 + 5 * s, seed=s)
       for s in range(6)},
    "one_p4": _one_p4(30, seed=3),
    "c5": Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    "p5": Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    "bull": Graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4)]),
    **{f"prime_{s}": _random_graph(9, seed=s) for s in range(4)},
}


#: every registered task a graph input can ask without weights
TREE_TASKS = sorted(name for name, spec in TASKS.items()
                    if spec.input_kind == "cotree" and not spec.uses_weights)


def _arrays(tree):
    return [np.asarray(getattr(tree, name)).tobytes() for name in (
        "kind", "child_offset", "child_index", "parent", "leaf_vertex",
        "q_offset", "q_edge_u", "q_edge_v", "spider")] + [tree.root]


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_decomposer_matches_the_recursive_oracle(name):
    graph = FAMILIES[name]
    expected = oracle_cotree(graph)
    if expected is None:
        with pytest.raises(NotACographError) as info:
            decompose(graph)
        assert is_induced_p4(graph, info.value.certificate)
        assert graph_from_md_tree(md_tree(graph)) == graph
        return
    got = decompose(graph)
    assert _arrays(got) == _arrays(expected)
    assert canonical_key(got) == canonical_key(expected)
    assert _arrays(md_tree(graph)) == _arrays(expected)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_every_door_gives_the_same_tree_and_answers(name):
    graph = FAMILIES[name]
    edges = [list(e) for e in graph.edges()]
    doors = [graph, {"type": "graph", "n": graph.n, "edges": edges},
             {u: sorted(graph.adj[u]) for u in range(graph.n)}]
    if edges and max(map(max, edges)) == graph.n - 1:
        doors.append(edges)
    expected = oracle_cotree(graph)
    for door in doors:
        problem = as_problem(door)
        if expected is None:
            assert solve(problem, "recognition").answer is False
            continue
        assert _arrays(problem.pipeline_tree()) == _arrays(expected)
        for task in TREE_TASKS:
            assert solve(door, task).to_json_dict()["answer"] == \
                solve(expected, task).to_json_dict()["answer"], task


def test_recognition_agrees_with_brute_force_on_all_graphs_up_to_5():
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            graph = Graph(n, [p for k, p in enumerate(pairs)
                              if mask >> k & 1])
            try:
                decompose(graph)
                cograph = True
            except NotACographError as exc:
                cograph = False
                assert is_induced_p4(graph, exc.certificate)
            assert cograph == (not brute_force_has_p4(graph))
            assert cograph == (oracle_cotree(graph) is not None)


#: md_tree of non-cographs, array by array: (n, edges, kind, child_index,
#: leaf_vertex, q_edge_u, q_edge_v, spider); nodes in postorder, children
#: by smallest vertex (spiders in [feet, body, head] slot order).
MD_GOLDEN = {
    "p4": (4, [(0, 1), (1, 2), (2, 3)],
           [0, 0, 0, 0, 3], [0, 1, 2, 3], [0, 3, 1, 2, -1], [2, 0, 1],
           [3, 2, 3], [0, 0, 0, 0, 1]),
    "c5": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
           [0, 0, 0, 0, 0, 3], [0, 1, 2, 3, 4], [0, 1, 2, 3, 4, -1],
           [0, 0, 1, 2, 3], [1, 4, 2, 3, 4], [0, 0, 0, 0, 0, 0]),
    "bull": (5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4)],
             [0, 0, 0, 0, 0, 3], [0, 1, 2, 3, 4], [3, 4, 0, 1, 2, -1],
             [2, 0, 1, 2, 3], [3, 2, 3, 4, 4], [0, 0, 0, 0, 0, 1]),
    # feet {0, 1} are twins: a module, so the spider test declines and
    # the Gallai fallback builds a generic prime
    "spider_twin_feet": (6, [(0, 2), (1, 2), (2, 3), (3, 4), (4, 5)],
                         [0, 0, 1, 0, 0, 0, 0, 3], [0, 1, 2, 3, 4, 5, 6],
                         [0, 1, -1, 2, 3, 4, 5, -1], [0, 1, 2, 3],
                         [1, 2, 3, 4], [0, 0, 0, 0, 0, 0, 0, 0]),
    "p4_in_p4": (7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
                     (0, 4), (1, 4), (2, 4), (3, 4)],
                 [0, 0, 0, 0, 3, 0, 0, 0, 3], [0, 1, 2, 3, 4, 5, 6, 7],
                 [0, 3, 1, 2, -1, 4, 5, 6, -1], [2, 0, 1, 0, 1, 2],
                 [3, 2, 3, 1, 2, 3], [0, 0, 0, 0, 1, 0, 0, 0, 0]),
    "p4_sparse_12": (
        12, sorted(random_p4_sparse(12, seed=3).edges()),
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 3],
        [4, 5, 6, 7, 8, 9, 10, 11, 0, 1, 2, 3, 12],
        [6, 8, 10, 1, 0, 2, 3, 7, 4, 11, 5, 9, -1, -1],
        [4, 4, 4, 5, 5, 6, 0, 1, 2, 3, 2, 0, 1, 2, 3],
        [5, 6, 7, 6, 7, 7, 4, 5, 6, 7, 3, 2, 3, 4, 4],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1]),
}


@pytest.mark.parametrize("name", sorted(MD_GOLDEN))
def test_md_trees_are_pinned(name):
    n, edges, kind, index, vertex, qu, qv, spider = MD_GOLDEN[name]
    for graph in (Graph(n, edges), CSRGraph.from_edges(n, edges)):
        tree = md_tree(graph).validate()
        assert tree.kind.tolist() == kind
        assert tree.child_index.tolist() == index
        assert tree.leaf_vertex.tolist() == vertex
        assert tree.q_edge_u.tolist() == qu and tree.q_edge_v.tolist() == qv
        assert tree.spider.tolist() == spider
        assert tree.root == len(kind) - 1


def test_a_hash_collision_is_caught_and_rerun(monkeypatch):
    """Constant weights make every neighbourhood hash a degree: vertices
    of equal degree merge wrongly, the certificate refuses the tree, and
    the next attempt (fresh weights) gives the right one."""
    real = np.random.default_rng
    calls = []

    class Flat:
        def integers(self, low, high, size, dtype):
            return np.ones(size, dtype=dtype)

    def rigged(*args):
        calls.append(1)
        return Flat() if len(calls) == 1 else real(*args)

    monkeypatch.setattr(_decompose.np.random, "default_rng", rigged)
    graph = FAMILIES["random_4"]
    assert _arrays(decompose(graph)) == _arrays(oracle_cotree(graph))
    assert len(calls) == 2


def test_deep_threshold_graph_decomposes():
    tree = threshold_cograph([i % 2 for i in range(600)])
    got = decompose(Graph.from_cotree(tree))
    assert canonical_key(got) == canonical_key(tree)
    assert int(got.depth.max()) == 599


def test_empty_graph_is_refused():
    with pytest.raises(ValueError, match="empty graph"):
        decompose(CSRGraph.from_edges(0, []))


# --------------------------------------------------------------------------- #
# the CSR graph
# --------------------------------------------------------------------------- #

def test_csr_graph_matches_the_set_graph():
    graph = FAMILIES["random_5"]
    csr = graph.to_csr()
    assert csr.adj == graph.adj and csr.num_edges() == graph.num_edges()
    assert sorted(csr.edges()) == sorted(graph.edges())
    assert csr.to_graph() == graph
    assert all(csr.has_edge(u, v) == graph.has_edge(u, v)
               for u in range(graph.n) for v in range(graph.n))


def test_csr_graph_deduplicates_and_validates():
    csr = CSRGraph.from_edges(3, [[0, 1], [1, 0], [0, 1], [2, 1]])
    assert csr.offset.tolist() == [0, 1, 3, 4]
    assert csr.nbr.tolist() == [1, 0, 2, 1]
    with pytest.raises(ValueError, match=r"edge \(0,5\) out of range"):
        CSRGraph.from_edges(3, [[0, 5]])
    with pytest.raises(ValueError, match="self-loops"):
        CSRGraph.from_edges(3, [[1, 1]])
    with pytest.raises(ValueError, match="vertex count"):
        CSRGraph.from_edges(-1, [])


# --------------------------------------------------------------------------- #
# hostile edge lists keep their messages
# --------------------------------------------------------------------------- #

_SHAPE = ("sequence input must be either an edge list (pairs, e.g. "
          "[(0, 1), (1, 2)]) or, for task='lower_bound', a flat 0/1 bit "
          "vector (e.g. [1, 0, 1])")
_WIDE = ("edge list contains a vertex id that does not fit in 64 bits; "
         "vertices must be numbered 0, 1, 2, ...")

HOSTILE = {
    "bool_in_pair": ([[True, 1], [1, 2]], _SHAPE),
    "all_bools": ([[True, False]], _SHAPE),
    "float": ([[0, 1.5], [1, 2]], _SHAPE),
    "integral_float": ([[0, 1.0]], _SHAPE),
    "ragged": ([[0, 1], [2]], _SHAPE),
    "triple": ([[0, 1, 2]], _SHAPE),
    "pair_and_scalar": ([(0, 1), 5], _SHAPE),
    "string_ids": ([["0", "1"]], _SHAPE),
    "none": ([[None, 1]], _SHAPE),
    "nested": ([[[0, 1]]], _SHAPE),
    "bit_and_bool": ([1, True], _SHAPE),
    "self_loop": ([[0, 1], [2, 2]], "self-loops are not allowed"),
    "negative": ([[0, 1], [-1, 2]],
                 "edge list contains negative vertex id(s) (e.g. (-1, 2)); "
                 "vertices must be numbered 0, 1, 2, ..."),
    "id_2_63": ([[0, 2 ** 63]], _WIDE),
    "id_2_64": ([[0, 2 ** 64]], _WIDE),
    "negative_wide": ([[-2 ** 70, 1]], _WIDE),
}


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_edge_lists_keep_their_message(name):
    body, message = HOSTILE[name]
    with pytest.raises(ValueError) as info:
        as_problem(body)
    assert str(info.value) == message


@pytest.mark.parametrize("body, fragment", [
    ({"type": "graph", "n": 3, "edges": [[0, 1], [2]]}, "integer pairs"),
    ({"type": "graph", "n": 3, "edges": [[0, 1.5]]}, "integer pairs"),
    ({"type": "graph", "n": 3, "edges": [[0, 1, 2]]}, "integer pairs"),
    ({"type": "graph", "n": "3", "edges": []}, "integer vertex count"),
    ({"type": "graph", "n": True, "edges": []}, "integer vertex count"),
    ({"type": "graph", "n": 3, "edges": [[0, 3]]}, "out of range"),
    ({"type": "graph", "n": 3, "edges": [[1, 1]]}, "self-loops"),
])
def test_hostile_graph_json_is_refused(body, fragment):
    with pytest.raises(ValueError, match=fragment):
        as_problem(body)


def test_vertex_count_is_bounded_by_the_caller():
    with pytest.raises(ValueError, match="edge list names 1000000001 "
                                         "vertices"):
        as_problem([[0, 10 ** 9]], max_vertices=17)
    with pytest.raises(ValueError, match=r"'n' = 1000000000"):
        as_problem({"type": "graph", "n": 10 ** 9, "edges": []},
                   max_vertices=46)
    with pytest.raises(ValueError, match="adjacency names"):
        as_problem({0: [10 ** 9]}, max_vertices=15)
    assert as_problem([[0, 16]], max_vertices=17).graph.n == 17


# --------------------------------------------------------------------------- #
# the server
# --------------------------------------------------------------------------- #

def _dispatch(bodies, **settings):
    app = ServerApp(Settings(**{"port": 0, "jobs": 1, "log_level": "ERROR",
                                **settings}))

    async def send_all():
        try:
            out = [await app.dispatch("POST", path, json.dumps(b).encode())
                   for path, b in bodies]
            return out, app.breaker.snapshot()
        finally:
            app.close()

    return asyncio.run(send_all())


def test_sparse_ids_are_400s_that_spare_the_breaker():
    bodies = [("/v1/solve", {"problem": [[0, 10 ** 9]]}),
              ("/v1/solve", {"problem": {"type": "graph", "n": 10 ** 9,
                                         "edges": []}}),
              ("/v1/solve_batch", {"problems": [[[0, 10 ** 6]]]})]
    responses, breaker = _dispatch(bodies, breaker_threshold=2)
    assert [r.status for r in responses] == [400, 400, 400]
    details = [r.json()["error"]["details"][0]["error"] for r in responses]
    assert "edge list names 1000000001 vertices" in details[0]
    assert "'n' = 1000000000" in details[1]
    assert "edge list names 1000001 vertices" in details[2]
    assert breaker["state"] == "closed"
    assert breaker["consecutive_failures"] == 0


@pytest.fixture
def graph_inits(monkeypatch):
    """The number of ``Graph.__init__`` calls made after it is requested."""
    calls = []
    real = Graph.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counting)
    return calls


PIN_COGRAPH = [list(e) for e in FAMILIES["random_3"].edges()]
PIN_P4_SPARSE = [list(e) for e in FAMILIES["p4_sparse_2"].edges()]


def test_graph_requests_build_no_set_graph(graph_inits):
    bodies = []
    for edges in (PIN_COGRAPH, PIN_P4_SPARSE):
        n = max(map(max, edges)) + 1
        adjacency = {str(u): [v for a, v in edges if a == u] for u in range(n)}
        for problem in (edges, {"type": "graph", "n": n, "edges": edges},
                        adjacency):
            for task in ("max_clique", "recognition"):
                bodies.append(("/v1/solve", {"problem": problem,
                                             "task": task}))
            solve(problem, "max_independent_set", backend="fast")
    bodies.append(("/v1/solve", {"problem": PIN_COGRAPH,
                                 "options": {"backend": "fast"}}))
    bodies.append(("/v1/solve_batch", {"problems": [PIN_COGRAPH],
                                       "task": "path_cover_size"}))
    responses, _ = _dispatch(bodies, cache_size=0)
    assert [r.status for r in responses] == [200] * len(bodies)
    assert graph_inits == []


@pytest.mark.parametrize("task", ["chromatic_number", "clique_cover",
                                  "max_independent_set"])
def test_witness_checks_on_graphs_read_neighbour_sets_once(monkeypatch,
                                                            task):
    # a star's 300 leaves share a colour and form the independent set:
    # ~45k pair checks, each a set lookup, not a CSR binary search
    adj_builds, searches = [], []
    real_adj = CSRGraph.adj.fget
    monkeypatch.setattr(CSRGraph, "adj", property(
        lambda g: adj_builds.append(1) or real_adj(g)))
    monkeypatch.setattr(CSRGraph, "has_edge",
                        lambda g, u, v: searches.append(1))
    solve([[0, v] for v in range(1, 301)], task, validate=True)
    assert adj_builds == [1] and searches == []


# --------------------------------------------------------------------------- #
# Cotree equality at any height
# --------------------------------------------------------------------------- #

def test_deep_cotrees_compare_and_hash():
    a, b = caterpillar_cotree(5000), caterpillar_cotree(5000)
    assert a == b and hash(a) == hash(b)
    assert a != caterpillar_cotree(4999)
    assert Cotree.from_nested(a.to_nested()) == a
    swapped = Cotree.from_nested(("join", ("union", 1, 2), 0))
    assert swapped != Cotree.from_nested(("join", 0, ("union", 1, 2)))
    assert independent_set(3) == independent_set(3)
