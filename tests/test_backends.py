"""Backend layer tests: context resolution, primitive parity, end-to-end
cover parity across PRAM / fast / sequential, the named-stage pipeline, and
the batch front door (``solve_many``)."""

import numpy as np
import pytest

from repro.api import solve_many
from repro.backends import (
    BACKEND_NAMES,
    FAST_BACKEND,
    ExecutionContext,
    FastBackend,
    PRAMBackend,
    make_backend,
    resolve_context,
)
from repro.baselines import sequential_path_cover
from repro.cograph import (
    CographAdjacencyOracle,
    balanced_cotree,
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
from repro.core import (
    STAGE_ORDER,
    Pipeline,
    PipelineError,
    minimum_path_cover_parallel,
)
from repro.pram import PRAM, AccessMode
from repro.primitives import (
    match_brackets,
    prefix_max,
    prefix_sum,
    total_sum,
    work_efficient_list_ranking,
    wyllie_list_ranking,
)

#: every generator family, as (name, factory) — the parity sweep covers all
FAMILIES = [
    ("random-sparse", lambda n, s: random_cotree(n, seed=s, join_prob=0.25)),
    ("random-dense", lambda n, s: random_cotree(n, seed=s, join_prob=0.75)),
    ("random-balancedp", lambda n, s: random_cotree(n, seed=s, join_prob=0.5)),
    ("caterpillar", lambda n, s: caterpillar_cotree(n)),
    ("clique", lambda n, s: clique(n)),
    ("independent", lambda n, s: independent_set(n)),
    ("union-of-cliques", lambda n, s: union_of_cliques(
        [2 + (s + i) % 5 for i in range(max(1, n // 4))])),
    ("multipartite", lambda n, s: join_of_independent_sets(
        [1 + (s + i) % 4 for i in range(max(2, n // 3))])),
    ("bipartite", lambda n, s: complete_bipartite(max(1, n // 2),
                                                  max(1, n - n // 2))),
    ("threshold", lambda n, s: threshold_cograph(
        [(s + i) % 2 for i in range(n)])),
    ("balanced", lambda n, s: balanced_cotree(max(2, n.bit_length() - 1))),
]


class TestContextResolution:
    def test_none_resolves_to_shared_fast_backend(self):
        assert resolve_context(None) is FAST_BACKEND
        assert isinstance(FAST_BACKEND, FastBackend)

    def test_machine_resolves_to_pram_backend(self):
        m = PRAM(4)
        ctx = resolve_context(m)
        assert isinstance(ctx, PRAMBackend)
        assert ctx.machine is m

    def test_context_passes_through(self):
        ctx = FastBackend()
        assert resolve_context(ctx) is ctx

    def test_names(self):
        assert isinstance(resolve_context("fast"), FastBackend)
        assert isinstance(resolve_context("pram"), PRAMBackend)
        with pytest.raises(ValueError):
            make_backend("quantum")
        with pytest.raises(TypeError):
            resolve_context(3.14)
        with pytest.raises(TypeError):
            make_backend("fast", num_processors=4)

    def test_backend_flags(self):
        assert PRAMBackend().simulates and PRAMBackend().name == "pram"
        assert not FastBackend().simulates and FastBackend().name == "fast"
        assert FastBackend().machine is None
        assert FastBackend().report() is None
        assert isinstance(PRAMBackend(), ExecutionContext)
        assert BACKEND_NAMES == ("pram", "fast")

    def test_pram_backend_for_input_size(self):
        ctx = PRAMBackend.for_input_size(1024)
        assert ctx.machine.mode is AccessMode.EREW
        assert ctx.machine.num_processors == 103  # ceil(1024 / 10)

    def test_fast_array_surface(self):
        ctx = FastBackend()
        arr = ctx.array(np.arange(5), name="t")
        idx = np.array([0, 2, 4])
        assert np.array_equal(arr.gather(idx), [0, 2, 4])
        assert np.array_equal(arr.local(idx), [0, 2, 4])
        arr.scatter(idx, np.array([9, 9, 9]))
        assert np.array_equal(arr.copy_out(), [9, 1, 9, 3, 9])
        arr.fill(0)
        assert arr.data.sum() == 0 and len(arr) == 5
        assert ctx.array(3, name="z").data.tolist() == [0, 0, 0]
        ctx.charge("cited", time=1, work=1)  # no-op
        with ctx.step(active=5, label="noop"):
            pass


class TestPrimitiveParity:
    """Fast-path primitives must agree bit for bit with the simulated ones."""

    @pytest.mark.parametrize("seed", range(5))
    def test_scans(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(-50, 50, size=rng.integers(1, 400))
        for inclusive in (True, False):
            assert np.array_equal(prefix_sum(None, x, inclusive=inclusive),
                                  prefix_sum(PRAM(), x, inclusive=inclusive))
            assert np.array_equal(prefix_max(None, x, inclusive=inclusive),
                                  prefix_max(PRAM(), x, inclusive=inclusive))
        assert total_sum(None, x) == total_sum(PRAM(), x)

    @pytest.mark.parametrize("seed", range(5))
    def test_list_ranking(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 300))
        order = rng.permutation(n)
        succ = np.full(n, -1, dtype=np.int64)
        succ[order[:-1]] = order[1:]
        w = rng.integers(1, 5, size=n)
        expect = wyllie_list_ranking(PRAM(), succ, w)
        assert np.array_equal(wyllie_list_ranking(None, succ, w), expect)
        assert np.array_equal(work_efficient_list_ranking(None, succ, w),
                              expect)
        assert np.array_equal(
            work_efficient_list_ranking(PRAM(), succ, w), expect)

    @pytest.mark.parametrize("seed", range(5))
    def test_bracket_matching(self, seed):
        rng = np.random.default_rng(seed)
        is_open = rng.random(int(rng.integers(2, 500))) < 0.5
        assert np.array_equal(match_brackets(None, is_open),
                              match_brackets(PRAM(), is_open))


class TestEndToEndParity:
    """The acceptance sweep: FastBackend == PRAMBackend == sequential on
    every generator family, validated against the adjacency oracle."""

    @pytest.mark.parametrize("family,make", FAMILIES,
                             ids=[f[0] for f in FAMILIES])
    @pytest.mark.parametrize("n,seed", [(9, 0), (24, 1), (57, 2)])
    def test_cover_sizes_agree_across_backends(self, family, make, n, seed):
        tree = make(n, seed)
        fast = minimum_path_cover_parallel(tree, backend="fast")
        pram = minimum_path_cover_parallel(tree, backend="pram")
        seq = sequential_path_cover(tree)
        expected = minimum_path_cover_size(tree)
        assert fast.num_paths == pram.num_paths == seq.num_paths == expected
        assert fast.p_root == pram.p_root == expected
        oracle = CographAdjacencyOracle(tree)
        for result in (fast, pram):
            result.cover.validate(oracle,
                                  expected_num_vertices=tree.num_vertices,
                                  expected_num_paths=expected)

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_sweep_identical_covers(self, seed):
        """Both backends run the same pipeline, so even the covers (not just
        their sizes) must be identical."""
        tree = random_cotree(40 + 7 * seed, seed=seed,
                             join_prob=0.2 + 0.08 * seed)
        fast = minimum_path_cover_parallel(tree, backend="fast")
        pram = minimum_path_cover_parallel(tree, backend="pram")
        assert fast.cover.paths == pram.cover.paths

    def test_fast_backend_result_shape(self):
        tree = random_cotree(30, seed=5)
        result = minimum_path_cover_parallel(tree, backend="fast")
        assert result.backend == "fast"
        assert result.report is None and result.machine is None
        assert set(result.stage_seconds) == set(STAGE_ORDER)

    def test_pram_backend_result_shape(self):
        tree = random_cotree(30, seed=5)
        result = minimum_path_cover_parallel(tree)
        assert result.backend == "pram"
        assert result.report is not None and result.report.rounds > 0
        assert set(result.stage_seconds) == set(STAGE_ORDER)

    def test_machine_and_backend_are_exclusive(self):
        tree = random_cotree(10, seed=0)
        with pytest.raises(ValueError):
            minimum_path_cover_parallel(tree, machine=PRAM(), backend="fast")
        with pytest.raises(ValueError):
            minimum_path_cover_parallel(tree, backend="warp")

    def test_machine_knobs_rejected_on_fast_backend(self):
        tree = random_cotree(10, seed=0)
        for kwargs in ({"num_processors": 4}, {"record_steps": True},
                       {"mode": "CRCW-common"}):
            with pytest.raises(ValueError, match="backend='pram'"):
                minimum_path_cover_parallel(tree, backend="fast", **kwargs)

    def test_explicit_context_instance(self):
        tree = random_cotree(20, seed=9)
        ctx = PRAMBackend(PRAM(8, record_steps=True))
        result = minimum_path_cover_parallel(tree, backend=ctx)
        assert result.machine is ctx.machine
        assert result.report.by_label

    def test_single_vertex_on_both_backends(self):
        tree = clique(1)
        for backend in BACKEND_NAMES:
            result = minimum_path_cover_parallel(tree, backend=backend)
            assert result.cover.paths == [[0]]


class TestPipeline:
    def test_default_runs_all_stages(self):
        tree = random_cotree(35, seed=3)
        run = Pipeline.default().run(tree)
        assert run.cover.num_paths == minimum_path_cover_size(tree)
        assert [t.name for t in run.timings] == list(STAGE_ORDER)
        assert run.total_seconds >= 0
        assert all(s >= 0 for s in run.stage_seconds.values())

    def test_until_produces_prefix_artifacts(self):
        tree = random_cotree(35, seed=4)
        run = Pipeline.until("reduce").run(tree, "pram")
        assert run.state.reduced is not None
        assert run.state.brackets is None and run.cover is None
        assert run.state.reduced.minimum_path_count() == \
            minimum_path_cover_size(tree)

    def test_without_stage_ablation(self):
        # the A2 ablation: skipping legalisation must still produce a cover
        # of the right *size* (its path adjacencies may be invalid)
        tree = random_cotree(40, seed=6, join_prob=0.7)
        run = Pipeline.default().without("legalize").run(tree)
        assert run.cover is not None
        assert run.state.exchanges == 0

    def test_binary_input_skips_binarize(self):
        from repro.cograph import binarize_cotree
        tree = random_cotree(25, seed=7)
        run = Pipeline.default().run(binarize_cotree(tree))
        assert run.cover.num_paths == minimum_path_cover_size(tree)

    def test_invalid_selections_rejected(self):
        with pytest.raises(PipelineError):
            Pipeline(["leftist", "binarize"])          # reordered
        with pytest.raises(PipelineError):
            Pipeline(["binarize", "binarize"])         # duplicated
        with pytest.raises(PipelineError):
            Pipeline(["warp"])                         # unknown
        with pytest.raises(PipelineError):
            Pipeline.until("warp")
        with pytest.raises(PipelineError):
            Pipeline.default().without("warp")

    def test_missing_prerequisite_reported(self):
        tree = random_cotree(10, seed=8)
        with pytest.raises(PipelineError, match="leftist"):
            Pipeline(["reduce"]).run(tree)


class TestSolveBatch:
    def _trees(self, k=6):
        return [random_cotree(20 + 5 * s, seed=s, join_prob=0.3 + 0.1 * s)
                for s in range(k)]

    def test_serial_round_trip(self):
        trees = self._trees()
        results = solve_many(trees, backend="fast", validate=True)
        assert [r.provenance["batch_index"] for r in results] == \
            list(range(len(trees)))
        for tree, r in zip(trees, results):
            assert r.num_paths == r.provenance["p_root"] == \
                minimum_path_cover_size(tree)
            assert r.backend == "fast"

    def test_parallel_jobs_match_serial(self):
        trees = self._trees()
        serial = solve_many(trees, backend="fast", jobs=1)
        parallel = solve_many(trees, backend="fast", jobs=2)
        assert [r.cover.paths for r in serial] == \
            [r.cover.paths for r in parallel]

    def test_pram_backend_batch(self):
        trees = self._trees(3)
        results = solve_many(trees, backend="pram")
        for tree, r in zip(trees, results):
            assert r.num_paths == minimum_path_cover_size(tree)
            assert r.backend == "pram"
            # and bit-identical to the fast backend's covers
            assert r.cover.paths == \
                minimum_path_cover_parallel(tree, backend="fast").cover.paths

    def test_rejects_non_name_backend(self):
        with pytest.raises(ValueError):
            solve_many(self._trees(2), backend=FastBackend())

    def test_empty_and_single(self):
        assert solve_many([]) == []
        [r] = solve_many([clique(4)], jobs=4)
        assert r.num_paths == 1

    def test_jobs_zero_means_cpu_count(self):
        trees = self._trees(2)
        results = solve_many(trees, backend="fast", jobs=0)
        assert [r.num_paths for r in results] == \
            [minimum_path_cover_size(t) for t in trees]
