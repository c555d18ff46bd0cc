"""End-to-end tests of the parallel solver (Theorem 5.3) and the public API."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro import solve
from repro.analysis import log2ceil
from repro.baselines import brute_force_path_cover_size, sequential_path_cover
from repro.cograph import (
    CographAdjacencyOracle,
    Cotree,
    Graph,
    balanced_cotree,
    binarize_cotree,
    caterpillar_cotree,
    clique,
    complete_bipartite,
    independent_set,
    join_of_independent_sets,
    minimum_path_cover_size,
    random_cotree,
    threshold_cograph,
    union_of_cliques,
)
from repro.core import minimum_path_cover_parallel
from repro.pram import PRAM, AccessMode, optimal_processor_count
from conftest import nested_cotree_specs


def assert_optimal(tree, result):
    expected = minimum_path_cover_size(tree)
    assert result.num_paths == expected
    assert result.p_root == expected
    result.cover.validate(CographAdjacencyOracle(tree),
                          expected_num_vertices=tree.num_vertices,
                          expected_num_paths=expected)


class TestEndToEnd:
    def test_named_families(self, small_named_cotrees):
        for name, tree in small_named_cotrees.items():
            result = minimum_path_cover_parallel(tree)
            assert_optimal(tree, result)

    @pytest.mark.parametrize("n,seed,jp", [
        (2, 0, 0.5), (5, 1, 0.3), (9, 2, 0.7), (16, 3, 0.5), (31, 4, 0.2),
        (31, 5, 0.8), (64, 6, 0.5), (100, 7, 0.35), (100, 8, 0.65),
        (200, 9, 0.5),
    ])
    def test_random_cotrees(self, n, seed, jp):
        tree = random_cotree(n, seed=seed, join_prob=jp)
        assert_optimal(tree, minimum_path_cover_parallel(tree))

    def test_single_vertex(self):
        result = minimum_path_cover_parallel(Cotree.single_vertex(0))
        assert result.num_paths == 1
        assert result.cover.paths == [[0]]

    def test_accepts_binary_cotree_input(self):
        tree = random_cotree(30, seed=10)
        result = minimum_path_cover_parallel(binarize_cotree(tree))
        assert result.num_paths == minimum_path_cover_size(tree)

    def test_matches_sequential_baseline(self):
        for seed in range(6):
            tree = random_cotree(50, seed=seed, join_prob=0.45)
            par = minimum_path_cover_parallel(tree)
            seq = sequential_path_cover(tree)
            assert par.num_paths == seq.num_paths

    def test_matches_brute_force_small(self):
        for seed in range(15):
            tree = random_cotree(2 + seed % 7, seed=seed)
            g = Graph.from_cotree(tree)
            assert minimum_path_cover_parallel(tree).num_paths == \
                brute_force_path_cover_size(g)

    @settings(max_examples=50, deadline=None)
    @given(nested_cotree_specs(max_leaves=9))
    def test_hypothesis_specs(self, spec):
        tree = (Cotree.single_vertex(spec) if isinstance(spec, int)
                else Cotree.from_nested(spec).canonicalize())
        assert_optimal(tree, minimum_path_cover_parallel(tree))

    def test_validate_flag(self):
        tree = random_cotree(30, seed=11)
        minimum_path_cover_parallel(tree, validate=True)

    def test_deterministic(self):
        tree = random_cotree(60, seed=12, join_prob=0.4)
        a = minimum_path_cover_parallel(tree)
        b = minimum_path_cover_parallel(tree)
        assert a.cover.paths == b.cover.paths

    def test_deep_caterpillar(self):
        tree = caterpillar_cotree(300)
        assert_optimal(tree, minimum_path_cover_parallel(tree))

    def test_hamiltonian_families(self):
        for tree in (clique(9), complete_bipartite(5, 5), balanced_cotree(4),
                     join_of_independent_sets([4, 3, 3])):
            result = minimum_path_cover_parallel(tree)
            assert result.num_paths == 1
            assert result.cover.is_hamiltonian_path(tree.num_vertices)

    def test_star_cover(self):
        result = minimum_path_cover_parallel(complete_bipartite(1, 6))
        assert result.num_paths == 5

    def test_threshold_graph(self):
        tree = threshold_cograph([1, 0, 0, 1, 0, 1, 1, 0, 0, 0, 1])
        assert_optimal(tree, minimum_path_cover_parallel(tree))


class TestMachineBehaviour:
    def test_runs_on_erew_with_conflict_checking(self):
        tree = random_cotree(80, seed=13, join_prob=0.5)
        machine = PRAM(optimal_processor_count(80), AccessMode.EREW,
                       check_conflicts=True)
        result = minimum_path_cover_parallel(tree, machine=machine)
        assert result.report.mode == "EREW"
        assert result.num_paths == minimum_path_cover_size(tree)

    def test_default_machine_is_papers_configuration(self):
        tree = random_cotree(64, seed=14)
        result = minimum_path_cover_parallel(tree)
        assert result.machine.num_processors == optimal_processor_count(64)
        assert result.machine.mode is AccessMode.EREW

    def test_rounds_grow_logarithmically(self):
        rounds = []
        sizes = [64, 256, 1024]
        for n in sizes:
            tree = random_cotree(n, seed=n, join_prob=0.5)
            result = minimum_path_cover_parallel(tree)
            rounds.append(result.report.rounds)
        # ratio of rounds should be far below the ratio of sizes
        assert rounds[-1] <= rounds[0] * (log2ceil(sizes[-1]) / log2ceil(sizes[0])) * 3
        assert rounds[-1] < 40 * log2ceil(sizes[-1]) * 4

    def test_work_grows_roughly_linearly(self):
        w = {}
        for n in (256, 1024):
            tree = random_cotree(n, seed=n, join_prob=0.5)
            w[n] = minimum_path_cover_parallel(tree).report.work
        assert w[1024] < 8 * w[256]

    def test_report_has_step_breakdown_when_recording(self):
        tree = random_cotree(40, seed=15)
        result = minimum_path_cover_parallel(tree, record_steps=True)
        labels = set(result.report.by_label)
        assert any(label.startswith("step4") for label in labels)
        assert any(label.startswith("step8") for label in labels)

    def test_num_processors_override(self):
        tree = random_cotree(40, seed=16)
        result = minimum_path_cover_parallel(tree, num_processors=1)
        assert result.machine.num_processors == 1
        assert result.machine.time >= result.machine.rounds

    def test_work_efficient_toggle(self):
        tree = random_cotree(128, seed=17, join_prob=0.5)
        fast = minimum_path_cover_parallel(tree, work_efficient=True)
        slow = minimum_path_cover_parallel(tree, work_efficient=False)
        assert fast.num_paths == slow.num_paths
        assert fast.report.work < slow.report.work


class TestSolverFacade:
    def test_solver_reuse(self):
        for seed in range(3):
            tree = random_cotree(25, seed=seed)
            result = solve(tree, validate=True)
            assert result.num_paths == minimum_path_cover_size(tree)

    def test_top_level_helper(self):
        tree = random_cotree(30, seed=18)
        a = solve(tree, method="parallel").cover
        b = solve(tree, method="sequential").cover
        assert a.num_paths == b.num_paths == minimum_path_cover_size(tree)

    def test_top_level_helper_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            solve(clique(3), method="magic")
