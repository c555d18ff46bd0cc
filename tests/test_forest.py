"""Forest batching: FlatForest pack/unpack, the packed DP and pipeline
sweeps, solve_forest, and the batch_small stream routing."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import (
    FOREST_TASKS,
    SolutionCache,
    SolveOptions,
    solve,
    solve_forest,
    solve_many,
    solve_stream,
)
from repro.cograph import (
    BinaryForest,
    CographAdjacencyOracle,
    CotreeError,
    FlatCotree,
    FlatForest,
    as_flat_cotree,
    clique,
    independent_set,
    pack,
    random_cotree,
    single_vertex,
    unpack,
)
from repro.core.pipeline import Pipeline
from repro.core.solver import minimum_path_cover_parallel
from repro.__main__ import main


def _random_trees(count, max_n, seed, min_n=1):
    rng = np.random.default_rng(seed)
    return [random_cotree(int(rng.integers(min_n, max_n + 1)),
                          seed=int(rng.integers(0, 10 ** 9)))
            for _ in range(count)]


def _empty_flat() -> FlatCotree:
    return FlatCotree(kind=np.zeros(0, dtype=np.int64),
                      child_offset=np.zeros(1, dtype=np.int64),
                      child_index=np.zeros(0, dtype=np.int64),
                      parent=np.zeros(0, dtype=np.int64),
                      leaf_vertex=np.zeros(0, dtype=np.int64),
                      root=-1)


# --------------------------------------------------------------------------- #
# pack / unpack
# --------------------------------------------------------------------------- #

class TestPackUnpack:
    def test_round_trips_mixed_random_batches(self):
        for seed in range(5):
            trees = _random_trees(30, 40, seed=seed)
            flats = [as_flat_cotree(t) for t in trees]
            forest = pack(flats)
            assert isinstance(forest, FlatForest)
            assert forest.num_instances == len(flats)
            back = unpack(forest)
            assert len(back) == len(flats)
            for orig, restored in zip(flats, back):
                assert restored == orig

    def test_round_trips_empty_and_single_vertex_instances(self):
        flats = [_empty_flat(), as_flat_cotree(single_vertex()),
                 _empty_flat(), as_flat_cotree(clique(4))]
        forest = pack(flats)
        assert forest.roots[0] == -1 and forest.roots[2] == -1
        assert forest.roots[1] >= 0
        back = unpack(forest)
        assert back[0].num_nodes == 0 and back[0].root == -1
        assert back[1] == flats[1]
        assert back[2].num_nodes == 0
        assert back[3] == flats[3]

    def test_packed_offsets_and_instance_ids(self):
        flats = [as_flat_cotree(t) for t in
                 (clique(3), independent_set(2), single_vertex())]
        forest = pack(flats)
        sizes = [f.num_nodes for f in flats]
        assert list(np.diff(forest.node_base)) == sizes
        assert list(np.diff(forest.vertex_base)) == [3, 2, 1]
        assert list(forest.instance_id) == sum(
            ([i] * s for i, s in enumerate(sizes)), [])
        # global vertex ids are blockwise-shifted local ids
        assert forest.num_vertices == 6
        assert forest.instance_of_vertex(0) == 0
        assert forest.instance_of_vertex(4) == 1
        assert forest.instance_of_vertex(5) == 2

    def test_rejects_sparse_vertex_ids(self):
        # vertex ids must be 0..n-1 per instance for blockwise shifting
        sparse = as_flat_cotree(clique(3))
        sparse = FlatCotree(kind=sparse.kind,
                            child_offset=sparse.child_offset,
                            child_index=sparse.child_index,
                            parent=sparse.parent,
                            leaf_vertex=sparse.leaf_vertex * 2,
                            root=sparse.root)
        with pytest.raises(ValueError, match="vertex ids must be 0"):
            pack([sparse])

    def test_single_instance_forest_matches_solo_everything(self):
        tree = as_flat_cotree(random_cotree(25, seed=9))
        forest = pack([tree])
        assert unpack(forest)[0] == tree
        solo = minimum_path_cover_parallel(tree, backend="fast")
        run = Pipeline.default().run(forest, "fast")
        assert run.cover.paths == solo.cover.paths


# --------------------------------------------------------------------------- #
# the packed sweeps are bit-identical to solo solves
# --------------------------------------------------------------------------- #

class TestForestParity:
    @pytest.mark.parametrize("task", FOREST_TASKS)
    @pytest.mark.parametrize("solo_backend", ["fast", "pram"])
    def test_forest_answers_match_solo_both_backends(self, task,
                                                     solo_backend):
        trees = _random_trees(25, 30, seed=hash(task) % 1000)
        swept = solve_forest(trees, task, backend="fast")
        for i, (tree, solution) in enumerate(zip(trees, swept)):
            assert solution.provenance["route"] == "forest"
            assert solution.provenance["batch_index"] == i
            solo = solve(tree, task, backend=solo_backend)
            if task == "path_cover":
                assert solution.cover.paths == solo.cover.paths
                assert solution.num_paths == solo.num_paths
            else:
                assert solution.answer == solo.answer

    def test_cover_paths_are_valid_per_instance(self):
        trees = _random_trees(20, 25, seed=77)
        for tree, solution in zip(trees,
                                  solve_forest(trees, "path_cover",
                                               backend="fast")):
            oracle = CographAdjacencyOracle(tree)
            covered = sorted(v for p in solution.cover.paths for v in p)
            assert covered == list(range(tree.num_vertices))
            for path in solution.cover.paths:
                for u, v in zip(path, path[1:]):
                    assert oracle.adjacent(u, v)

    def test_binarize_rejects_forest_with_empty_instances(self):
        forest = pack([as_flat_cotree(clique(2)), _empty_flat()])
        with pytest.raises(CotreeError, match="empty"):
            Pipeline.default().run(forest, "fast")

    def test_binary_forest_carries_roots_through_copy(self):
        from repro.core.binarize import binarize_parallel
        forest = pack([as_flat_cotree(clique(3)),
                       as_flat_cotree(independent_set(2))])
        binary = binarize_parallel("fast", forest)
        assert isinstance(binary, BinaryForest)
        assert len(binary.roots) == 2
        assert np.array_equal(binary.copy().roots, binary.roots)


# --------------------------------------------------------------------------- #
# solve_forest dispatch
# --------------------------------------------------------------------------- #

class TestSolveForest:
    def test_unsupported_task_falls_back_serially(self):
        solutions = solve_forest([clique(3), clique(2)], "hamiltonian_path",
                                 backend="fast")
        assert [s.provenance["route"] for s in solutions] == ["serial"] * 2
        assert solutions[0].ok

    def test_unsupported_options_fall_back_serially(self):
        for opts in (SolveOptions(validate=True),
                     SolveOptions(method="sequential"),
                     SolveOptions(backend="pram", record_steps=True)):
            solutions = solve_forest([clique(3)], "path_cover", options=opts)
            assert solutions[0].provenance["route"] == "serial"
            assert solutions[0].num_paths == 1

    def test_non_cograph_graph_falls_back_serially(self):
        p4 = [(0, 1), (1, 2), (2, 3)]
        solutions = solve_forest([p4, clique(2)], "recognition")
        assert solutions[0].answer is False
        assert solutions[0].provenance["route"] == "serial"

    def test_mixed_forms_share_one_sweep(self):
        solutions = solve_forest(["(0 * (1 + 2))", clique(3),
                                  {0: [1], 1: [0]}], "max_clique",
                                 backend="fast")
        assert [s.provenance["route"] for s in solutions] == ["forest"] * 3
        assert [s.answer["size"] for s in solutions] == [2, 3, 2]

    def test_cache_hits_skip_the_sweep(self):
        cache = SolutionCache()
        trees = _random_trees(12, 20, seed=5)
        opts = SolveOptions(backend="fast", cache=cache)
        first = solve_forest(trees, "path_cover", options=opts)
        assert all(s.provenance["cache"] == "miss" for s in first)
        again = solve_forest(trees, "path_cover", options=opts)
        assert all(s.provenance["cache"] == "hit" for s in again)
        # hits never inherit the stored route
        assert all("route" not in s.provenance for s in again)
        for a, b in zip(first, again):
            assert a.cover.paths == b.cover.paths

    def test_count_independent_sets_is_exact_int(self):
        solutions = solve_forest([independent_set(70)],
                                 "count_independent_sets", backend="fast")
        assert solutions[0].answer["count"] == 2 ** 70


# --------------------------------------------------------------------------- #
# batch_small routing in solve_stream / solve_many
# --------------------------------------------------------------------------- #

class TestBatchSmallRouting:
    def test_stream_routes_by_threshold_and_keeps_order(self):
        trees = _random_trees(40, 60, seed=13)
        opts = SolveOptions(backend="fast", batch_small=30)
        solutions = list(solve_stream(trees, "path_cover", options=opts))
        assert [s.provenance["batch_index"] for s in solutions] == \
            list(range(len(trees)))
        for tree, solution in zip(trees, solutions):
            expected = "forest" if tree.num_vertices <= 30 else "serial"
            assert solution.provenance["route"] == expected
            assert solution.cover.paths == \
                solve(tree, backend="fast").cover.paths

    def test_solve_many_pool_route_with_batch_small(self):
        trees = _random_trees(16, 60, seed=21)
        opts = SolveOptions(backend="fast", batch_small=30)
        solutions = solve_many(trees, "path_cover", jobs=2, options=opts)
        for tree, solution in zip(trees, solutions):
            expected = "forest" if tree.num_vertices <= 30 else "pool"
            assert solution.provenance["route"] == expected

    def test_stream_without_batch_small_stamps_serial_route(self):
        solutions = list(solve_stream([clique(3)], "path_cover",
                                      backend="fast"))
        assert solutions[0].provenance["route"] == "serial"

    def test_stream_cache_hits_bypass_both_routes(self):
        cache = SolutionCache()
        trees = _random_trees(20, 60, seed=3)
        opts = SolveOptions(backend="fast", batch_small=30, cache=cache)
        list(solve_stream(trees, "path_cover", options=opts))
        again = list(solve_stream(trees, "path_cover", options=opts))
        assert all(s.provenance["cache"] == "hit" for s in again)

    def test_threshold_diversion_never_changes_answers(self):
        trees = _random_trees(30, 50, seed=31)
        plain = solve_many(trees, "max_clique", backend="fast")
        routed = solve_many(trees, "max_clique",
                            options=SolveOptions(backend="fast",
                                                 batch_small=50))
        assert [s.answer for s in plain] == [s.answer for s in routed]

    def test_unsupported_task_ignores_threshold(self):
        solutions = list(solve_stream([clique(3)], "hamiltonian_cycle",
                                      options=SolveOptions(batch_small=10)))
        assert solutions[0].provenance["route"] == "serial"
        assert solutions[0].ok


# --------------------------------------------------------------------------- #
# SolveOptions.batch_small plumbing
# --------------------------------------------------------------------------- #

class TestBatchSmallOption:
    def test_excluded_from_to_dict_like_cache(self):
        opts = SolveOptions(batch_small=64, cache=SolutionCache())
        assert "batch_small" not in opts.to_dict()
        assert "cache" not in opts.to_dict()
        assert SolveOptions.from_dict(opts.to_dict()) == SolveOptions()

    def test_does_not_perturb_cache_keys(self):
        cache = SolutionCache()
        tree = clique(4)
        plain = SolveOptions(backend="fast", cache=cache)
        routed = SolveOptions(backend="fast", cache=cache, batch_small=10)
        solve(tree, options=plain)
        hit = solve(tree, options=routed)
        assert hit.provenance["cache"] == "hit"

    def test_validation(self):
        assert SolveOptions(batch_small="8").batch_small == 8
        with pytest.raises(ValueError, match="batch_small"):
            SolveOptions(batch_small=0)
        with pytest.raises(ValueError, match="batch_small"):
            SolveOptions(batch_small=-3)

    def test_path_cover_size_stays_fast_with_batch_small(self):
        solution = solve(clique(5), "path_cover_size",
                         options=SolveOptions(batch_small=16))
        assert solution.backend == "fast"
        assert solution.answer == 1

    def test_welcome_on_non_pipeline_tasks(self):
        solution = solve(clique(3), "recognition",
                         options=SolveOptions(batch_small=16))
        assert solution.answer is True


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #

def _feed_stdin(monkeypatch, lines):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))


class TestCLI:
    def test_stream_batch_small_routes_and_orders(self, monkeypatch, capsys):
        lines = ["(0 * (1 + 2))", "(0 + 1)", "(0 * 1)"]
        _feed_stdin(monkeypatch, lines)
        assert main(["solve", "--stream", "--batch-small", "10",
                     "--json"]) == 0
        captured = capsys.readouterr()
        solutions = [json.loads(line) for line in captured.out.splitlines()]
        assert [s["provenance"]["batch_index"] for s in solutions] == [0, 1, 2]
        assert all(s["provenance"]["route"] == "forest" for s in solutions)
        assert [s["num_paths"] for s in solutions] == [1, 2, 1]
        assert "solved 3 instance(s)" in captured.err

    def test_batch_small_rejected_without_stream(self, capsys):
        assert main(["solve", "(0 * 1)", "--batch-small", "5"]) == 2
        assert "--batch-small" in capsys.readouterr().err
