"""The streaming scale-out layer: WorkerPool, stream_out, solve_stream and
the canonical-form solution cache."""

from __future__ import annotations

import itertools

import pytest

from repro.api import (
    SolutionCache,
    SolveOptions,
    canonical_cotree_key,
    solve,
    solve_many,
    solve_stream,
)
from repro.cograph import (
    Cotree,
    clique,
    minimum_path_cover_size,
    random_cotree,
)
from repro.core import Resolved, WorkerPool, stream_out
from repro.core.batch import resolve_jobs
from repro.io import cotree_from_text


def _square(x):
    """Module-level worker (must pickle under multiprocessing)."""
    return x * x


# --------------------------------------------------------------------------- #
# WorkerPool
# --------------------------------------------------------------------------- #

class TestWorkerPool:
    def test_jobs_resolution(self):
        assert WorkerPool(1).serial
        assert WorkerPool(None).serial
        assert WorkerPool(0).jobs >= 1
        assert WorkerPool(3).jobs == 3
        with pytest.raises(ValueError):
            WorkerPool(-2)

    def test_serial_pool_never_spawns(self):
        with WorkerPool(1) as pool:
            assert pool.executor is None
            assert list(stream_out(_square, [1, 2, 3], pool=pool)) == \
                [1, 4, 9]

    def test_executor_is_lazy_and_reused(self):
        with WorkerPool(2) as pool:
            assert pool._executor is None  # nothing spawned yet
            first = pool.executor
            assert first is not None
            assert pool.executor is first  # reused across calls

    def test_close_is_idempotent_and_final(self):
        pool = WorkerPool(2)
        pool.close()
        pool.close()
        assert pool.closed
        with pytest.raises(RuntimeError):
            _ = pool.executor

    def test_warm_up_chains_and_serves(self):
        with WorkerPool(2).warm_up() as pool:
            assert list(stream_out(_square, range(8), pool=pool)) == \
                [i * i for i in range(8)]

    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(5) == 5
        with pytest.raises(ValueError):
            resolve_jobs(-1)


# --------------------------------------------------------------------------- #
# stream_out: ordering, laziness, backpressure
# --------------------------------------------------------------------------- #

class TestStreamOut:
    def test_serial_is_fully_lazy(self):
        drawn = []

        def infinite():
            for i in itertools.count():
                drawn.append(i)
                yield i

        out = list(itertools.islice(stream_out(_square, infinite()), 5))
        assert out == [0, 1, 4, 9, 16]
        assert len(drawn) == 5  # nothing beyond what was consumed

    @pytest.mark.parametrize("chunksize", [1, 2, 7])
    def test_pooled_preserves_order(self, chunksize):
        out = list(stream_out(_square, range(100), jobs=2,
                              window=10, chunksize=chunksize))
        assert out == [i * i for i in range(100)]

    def test_pooled_backpressure_bounded(self):
        window = 8
        state = {"drawn": 0, "done": 0, "peak": 0}

        def counting():
            for i in range(200):
                state["drawn"] += 1
                state["peak"] = max(state["peak"],
                                    state["drawn"] - state["done"])
                yield i

        for result in stream_out(_square, counting(), jobs=2,
                                 window=window, chunksize=2):
            state["done"] += 1
        assert state["done"] == 200
        assert state["peak"] <= window

    def test_resolved_payloads_bypass_the_worker(self):
        payloads = [1, Resolved("a"), 2, Resolved("b"), 3]
        assert list(stream_out(_square, payloads, jobs=2,
                               window=2)) == [1, "a", 4, "b", 9]
        assert list(stream_out(_square, payloads)) == [1, "a", 4, "b", 9]

    def test_empty_stream(self):
        assert list(stream_out(_square, [], jobs=2)) == []

    def test_runs_on_a_persistent_pool(self):
        with WorkerPool(2) as pool:
            a = list(stream_out(_square, range(10), pool=pool))
            b = list(stream_out(_square, range(10), pool=pool))
        assert a == b == [i * i for i in range(10)]


# --------------------------------------------------------------------------- #
# solve_many: the eager wrapper (chunksize / ordering under jobs > 1)
# --------------------------------------------------------------------------- #

def _sizes(solutions):
    return [(s.provenance["batch_index"], s.answer) for s in solutions]


class TestFanOut:
    TREES = [random_cotree(8 + s, seed=s) for s in range(23)]

    @pytest.mark.parametrize("chunksize", [None, 1, 5, 100])
    def test_chunksize_never_changes_results(self, chunksize):
        expected = [(i, minimum_path_cover_size(t))
                    for i, t in enumerate(self.TREES)]
        assert _sizes(solve_many(self.TREES, "path_cover_size", jobs=2,
                                 chunksize=chunksize)) == expected

    def test_serial_matches_parallel(self):
        serial = solve_many(self.TREES[:17], "path_cover_size", jobs=1)
        parallel = solve_many(self.TREES[:17], "path_cover_size", jobs=3)
        assert _sizes(serial) == _sizes(parallel)

    def test_single_payload_stays_in_process(self):
        [solution] = solve_many([clique(6)], "path_cover_size", jobs=8)
        assert solution.answer == 1
        assert solution.provenance["route"] == "serial"


# --------------------------------------------------------------------------- #
# solve_many on a pool
# --------------------------------------------------------------------------- #

class TestSolveBatchPool:
    def test_pool_reuse_matches_per_call(self):
        trees = [random_cotree(25, seed=s) for s in range(6)]
        per_call = solve_many(trees, backend="fast", jobs=2)
        with WorkerPool(2) as pool:
            pooled_a = solve_many(trees, backend="fast", pool=pool)
            pooled_b = solve_many(trees, backend="fast", pool=pool)  # warm
        for results in (pooled_a, pooled_b):
            assert [r.cover.paths for r in results] == \
                [r.cover.paths for r in per_call]
            assert [r.provenance["batch_index"] for r in results] == \
                list(range(6))


# --------------------------------------------------------------------------- #
# solve_stream
# --------------------------------------------------------------------------- #

class TestSolveStream:
    def test_streams_in_order_and_matches_solve_many(self):
        trees = [random_cotree(20, seed=s) for s in range(10)]
        streamed = list(solve_stream(trees, jobs=2, window=4))
        eager = solve_many(trees, jobs=2)
        assert [s.num_paths for s in streamed] == \
            [s.num_paths for s in eager] == \
            [int(minimum_path_cover_size(t)) for t in trees]
        assert [s.provenance["batch_index"] for s in streamed] == \
            list(range(10))

    def test_consumes_lazily_in_process(self):
        drawn = []

        def instances():
            for i in itertools.count():
                drawn.append(i)
                yield clique(3)

        stream = solve_stream(instances(), "path_cover_size")
        first = [next(stream) for _ in range(4)]
        assert [s.answer for s in first] == [1] * 4
        assert len(drawn) == 4

    def test_bounded_in_flight_with_pool(self):
        window = 6
        state = {"drawn": 0, "done": 0, "peak": 0}

        def instances():
            for i in range(60):
                state["drawn"] += 1
                state["peak"] = max(state["peak"],
                                    state["drawn"] - state["done"])
                yield random_cotree(10, seed=i)

        for _ in solve_stream(instances(), "path_cover_size",
                              jobs=2, window=window, chunksize=2):
            state["done"] += 1
        assert state["done"] == 60
        assert state["peak"] <= window

    def test_unknown_task_fails_before_consuming(self):
        def poisoned():  # pragma: no cover - must never be drawn
            raise AssertionError("stream was consumed")
            yield

        with pytest.raises(ValueError, match="unknown task"):
            solve_stream(poisoned(), "not_a_task")

    def test_streamed_solutions_carry_no_machine(self):
        [s] = list(solve_stream([clique(3)], backend="pram", jobs=2))
        assert s.machine is None
        assert s.report is not None

    def test_accepts_adapter_forms(self):
        mixed = ["(0 + (1 * 2))", {0: [1], 1: [0]}, clique(4)]
        sols = list(solve_stream(mixed))
        assert [s.num_paths for s in sols] == [2, 1, 1]


# --------------------------------------------------------------------------- #
# the solution cache
# --------------------------------------------------------------------------- #

class TestSolutionCache:
    def test_canonical_key_ignores_child_order(self):
        a = cotree_from_text("(0 + (1 * 2))")
        b = cotree_from_text("((2 * 1) + 0)")
        assert canonical_cotree_key(a) == canonical_cotree_key(b)
        c = cotree_from_text("(1 + (0 * 2))")
        assert canonical_cotree_key(a) != canonical_cotree_key(c)

    def test_canonical_key_canonicalises(self):
        nested = Cotree.from_nested(("union", 0, ("union", 1, 2)))
        flat = Cotree.from_nested(("union", 0, 1, 2))
        assert canonical_cotree_key(nested) == canonical_cotree_key(flat)

    def test_hit_and_miss_provenance(self):
        cache = SolutionCache()
        first = solve("(0 + (1 * 2))", cache=cache)
        again = solve("((2 * 1) + 0)", cache=cache)
        assert first.cache_status == "miss"
        assert again.cache_status == "hit"
        assert again.num_paths == first.num_paths
        assert cache.stats() == {"hits": 1, "misses": 1, "size": 1,
                                 "maxsize": 1024}

    def test_different_options_never_share_entries(self):
        cache = SolutionCache()
        solve("(0 * 1)", cache=cache, backend="fast")
        second = solve("(0 * 1)", cache=cache, backend="pram")
        assert second.cache_status == "miss"
        assert len(cache) == 2

    def test_different_tasks_never_share_entries(self):
        cache = SolutionCache()
        solve("(0 * 1)", cache=cache)
        other = solve("(0 * 1)", "path_cover_size", cache=cache)
        assert other.cache_status == "miss"

    def test_lru_eviction(self):
        cache = SolutionCache(maxsize=2)
        solve("(0 * 1)", cache=cache)
        solve("(0 + 1)", cache=cache)
        solve("(0 * 1)", cache=cache)      # refresh the first entry
        solve("(0 * (1 * 2))", cache=cache)  # evicts "(0 + 1)"
        assert solve("(0 * 1)", cache=cache).cache_status == "hit"
        assert solve("(0 + 1)", cache=cache).cache_status == "miss"

    def test_rejects_bad_sizes_and_types(self):
        with pytest.raises(ValueError):
            SolutionCache(0)
        with pytest.raises(TypeError):
            SolveOptions(cache="not a cache")

    def test_cache_excluded_from_options_dict(self):
        opts = SolveOptions(cache=SolutionCache())
        assert "cache" not in opts.to_dict()
        assert SolveOptions.from_dict(opts.to_dict()) == \
            opts.with_(cache=None)

    def test_path_cover_size_stays_fast_with_cache(self):
        sol = solve("(0 + 1)", "path_cover_size", cache=SolutionCache())
        assert sol.backend == "fast"

    def test_recognition_of_non_cograph_bypasses_cache(self):
        cache = SolutionCache()
        p4 = [(0, 1), (1, 2), (2, 3)]
        sol = solve(p4, task="recognition", cache=cache)
        assert sol.answer is False
        assert sol.cache_status is None
        assert len(cache) == 0

    def test_lower_bound_instances_key_on_bits(self):
        cache = SolutionCache()
        first = solve([1, 0, 1], "lower_bound", cache=cache)
        again = solve([1, 0, 1], "lower_bound", cache=cache)
        assert (first.cache_status, again.cache_status) == ("miss", "hit")
        assert again.answer["or"] == 1

    def test_stream_hits_interleave_in_order(self):
        trees = [random_cotree(15, seed=s % 2) for s in range(8)]
        cache = SolutionCache()
        # prime the cache so every streamed instance is a hit
        solve_many(trees[:2], cache=cache)
        sols = list(solve_stream(trees, jobs=2, window=3, cache=cache))
        assert [s.provenance["batch_index"] for s in sols] == list(range(8))
        assert all(s.cache_status == "hit" for s in sols)
        assert [s.num_paths for s in sols] == \
            [int(minimum_path_cover_size(t)) for t in trees]

    def test_stream_misses_fill_the_cache(self):
        trees = [random_cotree(15, seed=s) for s in range(4)]
        cache = SolutionCache()
        list(solve_stream(trees, jobs=2, cache=cache))
        assert len(cache) == 4
        assert all(s.cache_status == "hit"
                   for s in solve_stream(trees, cache=cache))

    def test_hit_reports_current_calls_input(self):
        cache = SolutionCache()
        solve("(0 * 1)", cache=cache)
        hit = solve(clique(2), cache=cache)
        assert hit.cache_status == "hit"
        assert hit.provenance["source_format"] == "cotree"

    def test_hit_never_inherits_call_specific_provenance(self):
        # a miss stored via the stream carries batch_index; a later plain
        # solve() hit must not report it (code-review regression)
        cache = SolutionCache()
        tree = random_cotree(10, seed=3)
        list(solve_stream([tree], cache=cache))
        hit = solve(tree, cache=cache)
        assert hit.cache_status == "hit"
        assert "batch_index" not in hit.provenance

    def test_hit_never_inherits_stale_source(self, tmp_path):
        from repro.io import cotree_to_text, save_json
        cache = SolutionCache()
        tree = random_cotree(10, seed=4)
        path = tmp_path / "instance.json"
        save_json(tree, str(path))
        solve(str(path), cache=cache)                    # miss, source=path
        hit = solve(cotree_to_text(tree), cache=cache)   # hit, from text
        assert hit.cache_status == "hit"
        assert hit.provenance["source_format"] == "text"
        assert "source" not in hit.provenance

    def test_caller_mutations_never_pollute_the_cache(self):
        cache = SolutionCache()
        miss = solve("(0 * 1)", cache=cache)
        miss.provenance["user"] = "alice"
        hit = solve("(0 * 1)", cache=cache)
        assert "user" not in hit.provenance


# --------------------------------------------------------------------------- #
# error handling mid-stream (code-review regressions)
# --------------------------------------------------------------------------- #

class TestStreamErrors:
    def test_pooled_stream_yields_valid_prefix_before_raising(self):
        def items():
            yield 1
            yield 2
            raise RuntimeError("bad line")

        out = []
        with pytest.raises(RuntimeError, match="bad line"):
            for r in stream_out(_square, items(), jobs=2, window=8):
                out.append(r)
        assert out == [1, 4]  # in-flight work drained, in order

    def test_solve_stream_adapter_error_preserves_prefix(self):
        mixed = ["(0 * 1)", "(0 + 1)", "not a problem at all"]
        out = []
        with pytest.raises(ValueError):
            for s in solve_stream(iter(mixed), jobs=2, window=8):
                out.append(s)
        assert [s.num_paths for s in out] == [1, 2]

    def test_stored_entries_never_retain_the_cache_itself(self):
        import pickle
        cache = SolutionCache()
        solve("(0 * 1)", cache=cache)
        [entry] = cache._entries.values()
        assert entry.options.cache is None
        pickle.dumps(entry)  # must not drag the cache along
        hit = solve("(0 * 1)", cache=cache)
        assert hit.cache_status == "hit"


# --------------------------------------------------------------------------- #
# refusals travel in their slot
# --------------------------------------------------------------------------- #

P4_EDGES = [(0, 1), (1, 2), (2, 3)]
#: a cograph, a P4 the solve refuses, a cograph, a line no adapter reads
MIXED = ["(0 * 1)", P4_EDGES, "(0 + 1)", "not a problem at all"]


class TestRefusalsInSlot:
    @pytest.mark.parametrize("config, p4_route", [
        ({}, "serial"),
        ({"jobs": 2}, "pool"),
        ({"batch_small": 64}, "serial"),
        ({"cache": SolutionCache()}, "serial"),
    ], ids=["serial", "pool", "forest", "cache"])
    def test_emit_yields_each_refusal_in_its_slot(self, config, p4_route):
        out = list(solve_stream(iter(MIXED), "chromatic_number",
                                on_error="emit", **config))
        assert [s.provenance["batch_index"] for s in out] == [0, 1, 2, 3]
        assert [s.answer["chromatic_number"] for s in (out[0], out[2])] \
            == [2, 1]
        for s, route, fragment in ((out[1], p4_route, "not a cograph"),
                                   (out[3], "serial", "neither cotree")):
            assert s.backend == "error" and s.answer is None
            assert s.provenance["error_kind"] == "refused"
            assert s.provenance["attempts"] == 1
            assert s.provenance["route"] == route
            assert fragment in s.provenance["error"]

    def test_fail_raises_the_refused_items_own_exception_after_the_prefix(
            self):
        from repro.cograph import NotACographError
        for config in ({}, {"jobs": 2}, {"batch_small": 64}):
            out = []
            with pytest.raises(NotACographError):
                for s in solve_stream(iter(MIXED), "chromatic_number",
                                      window=8, **config):
                    out.append(s)
            assert [s.answer["chromatic_number"] for s in out] == [2]

    def test_refusals_never_touch_the_pool_counters(self):
        with WorkerPool(2) as pool:
            out = solve_many([P4_EDGES] * 3 + ["(0 * 1)"],
                             "chromatic_number", pool=pool, on_error="emit")
            health = pool.health()
        assert [s.backend for s in out] == ["error"] * 3 + ["fast"]
        assert (health["restarts"], health["retries"],
                health["quarantined"]) == (0, 0, 0)

    def test_refusals_are_never_cached(self):
        cache = SolutionCache()
        prime_path = [(i, i + 1) for i in range(19)]   # past the prime cap
        out = list(solve_stream(
            ["(0 * 1)", prime_path, prime_path, "(0 * 1)"], "max_clique",
            cache=cache, on_error="emit"))
        assert [s.backend for s in out] == ["fast", "error", "error", "fast"]
        assert [s.provenance.get("cache") for s in out] == \
            ["miss", None, None, "hit"]
        assert "capped at 16" in out[2].provenance["error"]
        assert len(cache) == 1

    def test_a_tree_the_packed_sweep_refuses_is_refused_alone(self):
        from repro.io import cotree_to_json
        sparse = cotree_to_json(Cotree.from_nested(("union", 0,
                                                    ("join", 2, 7))))
        out = list(solve_stream(["(0 * 1)", sparse, "(0 + 1)"],
                                "path_cover", backend="fast",
                                batch_small=64, on_error="emit"))
        # only the refused tree leaves the sweep
        assert [s.provenance["route"] for s in out] == \
            ["forest", "serial", "forest"]
        assert out[1].provenance["error_kind"] == "refused"
        assert "vertex id 7 is out of range" in out[1].provenance["error"]
        assert [out[0].num_paths, out[2].num_paths] == [1, 2]
        # the eager forest door still raises, as a solo solve does
        from repro.api import solve_forest
        with pytest.raises(ValueError, match="vertex id 7 is out of range"):
            solve_forest(["(0 * 1)", sparse], "path_cover", backend="fast")
