"""Modular decomposition trees and the MD-capable DP tasks (PR 8).

Four layers of evidence:

* **structure** — ``md_tree`` round-trips every labelled graph on up to 5
  vertices through ``graph_from_md_tree``, keeps cograph inputs
  *bit-identical* to the recognition path, and produces the expected prime
  shapes (P4 -> thin spider, C5 -> generic prime, bull -> spider + head);
* **exhaustive parity** — every MD-capable task (unweighted and weighted
  extremal sets) matches the subset-DP brute force on *all* graphs with
  ``n <= 5``, with feasible, value-matching witnesses;
* **randomized scale** — P4-sparse graphs up to ``n = 200`` agree across
  the fast, PRAM and sequential evaluators bit-for-bit;
* **guard rails** — cograph-only specs refuse primed trees, big generic
  primes refuse to run, primed trees refuse to forest-pack / canonicalize
  / convert to plain cotrees, and the cograph cache keys stay unchanged.
"""

import itertools

import numpy as np
import pytest

from repro.api import MD_GRAPH_CLASSES, SolutionCache, SolveOptions, solve
from repro.api.registry import TASKS
from repro.baselines import (
    brute_force_max_clique,
    brute_force_max_independent_set,
    brute_force_max_weight_clique,
    brute_force_max_weight_independent_set,
)
from repro.cograph import (
    CotreeError,
    Graph,
    NotACographError,
    PRIME,
    as_flat_cotree,
    canonical_key,
    cotree_from_graph,
    graph_from_md_tree,
    md_tree,
    pack,
    random_cotree,
    random_p4_sparse,
)
from repro.cograph.md import SPIDER_NONE, SPIDER_THICK, SPIDER_THIN
from repro.core import Pipeline
from repro.core.dp import (
    CHROMATIC_NUMBER_DP,
    MAX_CLIQUE_DP,
    MAX_GENERIC_PRIME,
    MAX_INDEPENDENT_SET_DP,
    max_weight_clique_dp,
    max_weight_independent_set_dp,
    run_cotree_dp,
    run_cotree_dp_sequential,
)


def all_graphs(n):
    """Every labelled graph on ``n`` vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


def graph_weights(n, salt=0):
    """A deterministic, collision-prone weight vector (ties exercised)."""
    return [(v * 7 + salt) % 5 for v in range(n)]


def check_set(graph, vertices, *, adjacent, label):
    vs = sorted(int(v) for v in vertices)
    assert len(set(vs)) == len(vs), label
    for u, v in itertools.combinations(vs, 2):
        assert graph.has_edge(u, v) == adjacent, (
            f"{label}: pair ({u}, {v}) breaks feasibility")


P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
C5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
BULL = Graph(5, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 4)])


# --------------------------------------------------------------------------- #
# structure
# --------------------------------------------------------------------------- #

class TestMDTreeStructure:

    def test_round_trip_all_graphs_up_to_5(self):
        for n in range(1, 6):
            for g in all_graphs(n):
                md = md_tree(g)
                back = graph_from_md_tree(md)
                assert back.n == g.n
                assert back.adj == g.adj

    def test_cograph_inputs_bit_identical_to_recognition_path(self):
        for seed in range(20):
            tree = random_cotree(30, seed=seed)
            g = Graph.from_adjacency(tree.adjacency_sets())
            md = md_tree(g)
            direct = as_flat_cotree(cotree_from_graph(g))
            assert not md.has_primes
            assert md == direct
            assert canonical_key(md) == canonical_key(direct)

    def test_p4_is_a_thin_spider(self):
        md = md_tree(P4)
        primes = md.prime_nodes
        assert len(primes) == 1
        node = int(primes[0])
        assert md.kind[node] == PRIME
        assert md.spider[node] == SPIDER_THIN
        eu, ev = md.quotient_of(node)
        # thin spider on 4 children, no head: s1-k1, s2-k2, k1-k2
        assert sorted(zip(eu.tolist(), ev.tolist())) == [(0, 2), (1, 3),
                                                         (2, 3)]

    def test_c5_is_a_generic_prime(self):
        md = md_tree(C5)
        primes = md.prime_nodes
        assert len(primes) == 1
        node = int(primes[0])
        assert md.spider[node] == SPIDER_NONE
        eu, _ = md.quotient_of(node)
        assert len(eu) == 5          # C5 quotient is C5 itself

    def test_bull_is_a_spider_with_head(self):
        md = md_tree(BULL)
        primes = md.prime_nodes
        assert len(primes) == 1
        node = int(primes[0])
        assert md.spider[node] in (SPIDER_THIN, SPIDER_THICK)
        lo, hi = md.child_offset[node], md.child_offset[node + 1]
        assert hi - lo == 5          # 2 feet + 2 body + 1 head

    def test_thick_spider_detected(self):
        # thick spider k=3, no head: feet 0..2, body 3..5, s_i ~ K \ {k_i}
        edges = [(3, 4), (3, 5), (4, 5),
                 (0, 4), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4)]
        md = md_tree(Graph(6, edges))
        node = int(md.prime_nodes[0])
        assert md.spider[node] == SPIDER_THICK

    def test_p4_sparse_trees_are_all_spiders(self):
        for seed in range(10):
            g = random_p4_sparse(80, seed=seed)
            md = md_tree(g)
            assert np.all(md.spider[md.prime_nodes] != SPIDER_NONE)
            assert graph_from_md_tree(md).adj == g.adj

    def test_recognition_certificate_still_reported(self):
        solution = solve(P4, "recognition")
        assert solution.answer is False
        assert len(solution.provenance["certificate"]) == 4


# --------------------------------------------------------------------------- #
# exhaustive parity, all graphs n <= 5
# --------------------------------------------------------------------------- #

class TestExhaustiveParity:

    def test_all_graphs_all_md_tasks_match_brute_force(self):
        for n in range(1, 6):
            weights = graph_weights(n)
            warr = np.asarray(weights, dtype=np.int64)
            for g in all_graphs(n):
                md = md_tree(g)
                expect = {
                    "mis": brute_force_max_independent_set(g),
                    "mc": brute_force_max_clique(g),
                    "mwis": brute_force_max_weight_independent_set(
                        g, weights),
                    "mwc": brute_force_max_weight_clique(g, weights),
                }
                specs = {
                    "mis": (MAX_INDEPENDENT_SET_DP, False),
                    "mc": (MAX_CLIQUE_DP, True),
                    "mwis": (max_weight_independent_set_dp(warr), False),
                    "mwc": (max_weight_clique_dp(warr), True),
                }
                for key, (dp, adjacent) in specs.items():
                    run = run_cotree_dp(dp, md)
                    value = run.root(dp.fields[0])
                    assert value == expect[key], (key, n, sorted(
                        (u, v) for u in range(n) for v in g.adj[u] if u < v))
                    seq = run_cotree_dp_sequential(dp, md)
                    assert seq.root(dp.fields[0]) == value
                    chosen = run.witness()
                    check_set(g, chosen, adjacent=adjacent,
                              label=f"{key} n={n}")
                    if key in ("mis", "mc"):
                        assert len(chosen) == value
                    else:
                        total = int(warr[np.asarray(chosen)].sum()) \
                            if len(chosen) else 0
                        assert total == value

    def test_front_door_exhaustive_n4(self):
        weights = graph_weights(4, salt=1)
        for g in all_graphs(4):
            opts = SolveOptions(validate=True)
            a = solve(g, "max_independent_set", options=opts).answer
            assert a["size"] == brute_force_max_independent_set(g)
            b = solve(g, "max_clique", options=opts).answer
            assert b["size"] == brute_force_max_clique(g)
            w = solve(g, "max_weight_clique",
                      options=SolveOptions(validate=True,
                                           weights=weights)).answer
            assert w["weight"] == brute_force_max_weight_clique(g, weights)
            w = solve(g, "max_weight_independent_set",
                      options=SolveOptions(validate=True,
                                           weights=weights)).answer
            assert w["weight"] == brute_force_max_weight_independent_set(
                g, weights)


# --------------------------------------------------------------------------- #
# randomized P4-sparse, tri-backend bit-parity
# --------------------------------------------------------------------------- #

class TestP4SparseRandomized:

    @pytest.mark.parametrize("task,weighted", [
        ("max_independent_set", False),
        ("max_clique", False),
        ("max_weight_independent_set", True),
        ("max_weight_clique", True),
    ])
    def test_tri_backend_bit_parity_to_n200(self, task, weighted):
        rng = np.random.default_rng(hash(task) % (2 ** 32))
        for trial in range(8):
            n = int(rng.integers(5, 201))
            g = random_p4_sparse(n, seed=trial * 31 + 7)
            weights = [int(x) for x in rng.integers(0, 50, size=n)] \
                if weighted else None
            answers = []
            for conf in (dict(backend="fast"), dict(backend="pram"),
                         dict(method="sequential")):
                opts = SolveOptions(validate=True, weights=weights, **conf)
                answers.append(solve(g, task, options=opts).answer)
            assert answers[0] == answers[1] == answers[2]

    def test_small_p4_sparse_matches_brute_force(self):
        for seed in range(40):
            g = random_p4_sparse(int(np.random.default_rng(seed)
                                     .integers(4, 13)), seed=seed)
            assert solve(g, "max_independent_set").answer["size"] == \
                brute_force_max_independent_set(g)
            assert solve(g, "max_clique").answer["size"] == \
                brute_force_max_clique(g)


# --------------------------------------------------------------------------- #
# guard rails
# --------------------------------------------------------------------------- #

class TestGuardRails:

    def test_cograph_only_dp_refuses_primed_trees(self):
        md = md_tree(P4)
        with pytest.raises(ValueError, match="cographs only"):
            run_cotree_dp(CHROMATIC_NUMBER_DP, md)
        with pytest.raises(ValueError, match="cographs only"):
            run_cotree_dp_sequential(CHROMATIC_NUMBER_DP, md)

    def test_cograph_only_task_raises_not_a_cograph(self):
        with pytest.raises(NotACographError):
            solve(P4, "chromatic_number")
        with pytest.raises(NotACographError):
            solve(P4, "path_cover")

    @pytest.mark.parametrize("graph", [
        P4,                                     # prime root
        Graph(5, [(0, 1), (1, 2), (2, 3)]),     # prime under a union root
    ], ids=["root", "internal"])
    @pytest.mark.parametrize("task, options", [
        ("path_cover", {}),
        ("path_cover", {"backend": "fast"}),
        ("path_cover", {"method": "sequential"}),
        ("path_cover_size", {}),
        ("hamiltonian_path", {"backend": "fast"}),
    ])
    def test_path_cover_tasks_refuse_primed_trees(self, graph, task,
                                                  options):
        # the Lemma 2.4 recurrence has no prime operator: a prime node
        # must not be combined as a join (P4 used to get four paths)
        md = md_tree(graph)
        with pytest.raises(CotreeError, match="prime nodes"):
            solve(md, task, **options)
        with pytest.raises(CotreeError, match="cographs only"):
            Pipeline.default().run(md, "fast")

    def test_generic_prime_arity_cap(self):
        n = MAX_GENERIC_PRIME + 2
        cycle = Graph(n, [(i, (i + 1) % n) for i in range(n)])
        md = md_tree(cycle)
        assert md.has_primes
        with pytest.raises(ValueError, match=str(MAX_GENERIC_PRIME)):
            run_cotree_dp(MAX_INDEPENDENT_SET_DP, md)

    def test_primed_trees_refuse_forest_packing(self):
        md = md_tree(P4)
        with pytest.raises(ValueError, match="forest-packed"):
            pack([md])

    def test_primed_trees_have_no_plain_cotree_form(self):
        md = md_tree(P4)
        with pytest.raises(CotreeError):
            md.to_cotree()

    def test_weights_rejected_without_weighted_task(self):
        with pytest.raises(ValueError, match="takes no vertex weights"):
            solve(P4, "max_clique", weights=[1, 2, 3, 4])

    def test_weights_required_by_weighted_task(self):
        with pytest.raises(ValueError, match="needs per-vertex weights"):
            solve(P4, "max_weight_clique")

    def test_weights_length_checked(self):
        with pytest.raises(ValueError, match="does not match"):
            solve(P4, "max_weight_clique", weights=[1, 2, 3])

    def test_negative_weights_rejected_at_options(self):
        with pytest.raises(ValueError, match="non-negative"):
            SolveOptions(weights=[1, -2])


# --------------------------------------------------------------------------- #
# plumbing: registry surface and the cache
# --------------------------------------------------------------------------- #

class TestPlumbing:

    def test_registry_reports_graph_classes(self):
        for name in ("max_clique", "max_independent_set",
                     "max_weight_clique", "max_weight_independent_set"):
            assert TASKS[name].graph_classes == MD_GRAPH_CLASSES
            assert TASKS[name].accepts_prime_modules
        assert TASKS["chromatic_number"].graph_classes == ("cograph",)
        assert not TASKS["chromatic_number"].accepts_prime_modules
        assert TASKS["max_weight_clique"].uses_weights
        assert not TASKS["max_clique"].uses_weights

    def test_cache_hits_on_md_inputs(self):
        cache = SolutionCache()
        g = random_p4_sparse(50, seed=11)
        first = solve(g, "max_independent_set", cache=cache)
        assert first.provenance["cache"] == "miss"
        again = solve(g, "max_independent_set", cache=cache)
        assert again.provenance["cache"] == "hit"
        assert again.answer == first.answer

    def test_cache_distinguishes_weight_vectors(self):
        cache = SolutionCache()
        g = random_p4_sparse(30, seed=5)
        a = solve(g, "max_weight_independent_set", cache=cache,
                  weights=[1] * 30)
        b = solve(g, "max_weight_independent_set", cache=cache,
                  weights=[3] * 30)
        assert b.provenance["cache"] == "miss"
        assert b.answer["weight"] == 3 * a.answer["weight"]

    def test_cache_still_bypasses_non_md_tasks_on_non_cographs(self):
        cache = SolutionCache()
        assert cache.key_for(
            __import__("repro.api", fromlist=["as_problem"])
            .as_problem(P4), "recognition", SolveOptions()) is None

    def test_cograph_canonical_keys_unchanged_by_md_support(self):
        # a cograph keys identically whether it arrives as a graph (through
        # recognition) or through md_tree — no "prime" suffix on either
        tree = random_cotree(25, seed=3)
        g = Graph.from_adjacency(tree.adjacency_sets())
        key_direct = canonical_key(as_flat_cotree(cotree_from_graph(g)))
        key_md = canonical_key(md_tree(g))
        assert key_direct == key_md
        assert all(part != "prime" for part in key_direct
                   if isinstance(part, str))

    def test_md_keys_carry_the_quotient(self):
        key = canonical_key(md_tree(P4))
        assert "prime" in [p for p in key if isinstance(p, str)]
        # P4 and its complement share the skeleton but not the quotient:
        # both are P4s, so instead compare against C5 (different quotient)
        assert key != canonical_key(md_tree(C5))
