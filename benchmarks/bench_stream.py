"""E10 — streaming scale-out: persistent worker pools + ``solve_stream``.

Three claims, one harness:

1. **Bounded resident set.**  ``solve_stream`` consumes a lazily-generated
   stream of instances (full run: 100k) while keeping at most ``window``
   of them in flight — the peak number of instances drawn-but-not-yielded
   is measured directly and must never exceed the window, i.e. the input
   is never materialised.
2. **Persistent pools beat per-call pools.**  Sustained many-call traffic
   (many small batches) through one warm :class:`repro.core.WorkerPool`
   (``solve_many(pool=...)``) is faster than per-call
   ``solve_many(jobs=2)``, which forks a fresh ``ProcessPoolExecutor``
   every time.
3. **Repeat traffic hits the cache.**  A :class:`repro.api.SolutionCache`
   keyed on the canonical cotree form answers re-asked instances without
   running anything; the hit-rate and speedup on a skewed request mix are
   reported.
4. **Tiny instances batch as forests.**  Thousands of small instances go
   through one vectorized :func:`repro.api.solve_forest` sweep (and its
   ``SolveOptions(batch_small=...)`` stream routing) faster than through
   the pooled batch front door — the E13 claim, exercised here in the
   streaming harness (the authoritative numbers live in
   ``bench_profile.py``).

Run standalone for the smoke configuration used by CI::

    PYTHONPATH=src python benchmarks/bench_stream.py --smoke
"""

import sys
import time

from repro.api import (
    SolutionCache,
    SolveOptions,
    solve_forest,
    solve_many,
    solve_stream,
)
from repro.cograph import minimum_path_cover_size, random_cotree
from repro.core import WorkerPool

from _util import write_result_table

#: full-run stream length (the acceptance criterion's >= 100k instances)
STREAM_COUNT = 100_000
SMOKE_STREAM_COUNT = 2_000

#: sustained-traffic shape: many small batches
POOL_BATCHES, POOL_BATCH_SIZE, POOL_TREE_N = 40, 8, 64
SMOKE_POOL_BATCHES = 12

#: forest-batching shape: many tiny instances in one sweep
FOREST_COUNT, FOREST_N_MAX = 10_000, 64
SMOKE_FOREST_COUNT = 1_000

COLUMNS = ["scenario", "instances", "jobs", "seconds", "inst/s", "detail"]


def _row(scenario, instances, jobs, seconds, detail=""):
    return {"scenario": scenario, "instances": instances, "jobs": jobs,
            "seconds": round(seconds, 4),
            "inst/s": round(instances / max(seconds, 1e-9)),
            "detail": detail}


# --------------------------------------------------------------------------- #
# 1. bounded-window streaming over a generated instance stream
# --------------------------------------------------------------------------- #

def run_stream_scale(count: int, *, jobs=None, window=64, chunksize=32):
    """Stream ``count`` generated instances; measure peak in-flight."""
    state = {"drawn": 0, "done": 0, "peak": 0}

    def instances():
        for i in range(count):
            state["drawn"] += 1
            state["peak"] = max(state["peak"],
                                state["drawn"] - state["done"])
            # tiny instances cycled over 50 shapes: the throughput regime
            yield random_cotree(12, seed=i % 50)

    t0 = time.perf_counter()
    total_paths = 0
    for solution in solve_stream(instances(), "path_cover_size",
                                 jobs=jobs, window=window,
                                 chunksize=chunksize):
        state["done"] += 1
        total_paths += solution.answer
    seconds = time.perf_counter() - t0

    assert state["done"] == count
    bound = window if jobs not in (None, 1) else 1
    assert state["peak"] <= bound, \
        f"peak in-flight {state['peak']} exceeds the window bound {bound}"
    return _row("solve_stream (bounded window)", count, jobs or 1, seconds,
                f"peak in-flight {state['peak']} <= {bound}"), state["peak"]


# --------------------------------------------------------------------------- #
# 2. persistent WorkerPool vs a fresh pool per solve_many call
# --------------------------------------------------------------------------- #

def run_pool_reuse(batches: int, batch_size: int = POOL_BATCH_SIZE,
                   n: int = POOL_TREE_N, jobs: int = 2):
    """Many small batches: one warm pool vs per-call pool startup."""
    batch_trees = [[random_cotree(n, seed=b * batch_size + i)
                    for i in range(batch_size)] for b in range(batches)]
    expected = [[int(minimum_path_cover_size(t)) for t in trees]
                for trees in batch_trees]

    t0 = time.perf_counter()
    with WorkerPool(jobs).warm_up() as pool:
        warm_t0 = time.perf_counter()
        for trees, sizes in zip(batch_trees, expected):
            results = solve_many(trees, backend="fast", pool=pool)
            assert [r.num_paths for r in results] == sizes
        persistent = time.perf_counter() - warm_t0
    persistent_with_startup = time.perf_counter() - t0

    t0 = time.perf_counter()
    for trees, sizes in zip(batch_trees, expected):
        # a fresh pool every call
        results = solve_many(trees, backend="fast", jobs=jobs)
        assert [r.num_paths for r in results] == sizes
    per_call = time.perf_counter() - t0

    count = batches * batch_size
    speedup = per_call / max(persistent, 1e-9)
    rows = [
        _row("per-call solve_many (fresh pool each)", count, jobs,
             per_call, f"{batches} batches x {batch_size}"),
        _row("persistent WorkerPool (warm)", count, jobs, persistent,
             f"{speedup:.1f}x vs per-call; one-off startup "
             f"{persistent_with_startup - persistent:.3f}s"),
    ]
    return rows, speedup


# --------------------------------------------------------------------------- #
# 3. repeat traffic through the solution cache
# --------------------------------------------------------------------------- #

def run_cache_repeat_traffic(requests: int = 600, distinct: int = 20,
                             n: int = 400):
    """A skewed request mix: ``distinct`` instances asked ``requests``
    times in total — the "millions of users re-ask the same things"
    shape."""
    trees = [random_cotree(n, seed=s) for s in range(distinct)]
    mix = [trees[i % distinct] for i in range(requests)]

    t0 = time.perf_counter()
    cold = solve_many(mix, "path_cover_size", backend="fast")
    cold_t = time.perf_counter() - t0

    cache = SolutionCache(maxsize=distinct)
    t0 = time.perf_counter()
    cached = solve_many(mix, "path_cover_size", backend="fast", cache=cache)
    cached_t = time.perf_counter() - t0

    assert [s.answer for s in cached] == [s.answer for s in cold]
    assert cache.hits == requests - distinct
    speedup = cold_t / max(cached_t, 1e-9)
    return [
        _row("repeat traffic, no cache", requests, 1, cold_t,
             f"{distinct} distinct instances, n={n}"),
        _row("repeat traffic, SolutionCache", requests, 1, cached_t,
             f"{cache.hits}/{requests} hits; {speedup:.1f}x"),
    ], speedup


# --------------------------------------------------------------------------- #
# 4. forest batching: one vectorized sweep over thousands of tiny instances
# --------------------------------------------------------------------------- #

def run_forest_batching(count: int, n_max: int = FOREST_N_MAX,
                        jobs: int = 2):
    """Tiny-instance traffic: the pooled batch front door vs one
    :func:`solve_forest` sweep vs the ``batch_small`` stream routing."""
    trees = [random_cotree(2 + i % (n_max - 1), seed=i)
             for i in range(count)]

    t0 = time.perf_counter()
    pooled = solve_many(trees, "path_cover_size", backend="fast", jobs=jobs)
    pooled_t = time.perf_counter() - t0

    t0 = time.perf_counter()
    swept = solve_forest(trees, "path_cover_size", backend="fast")
    forest_t = time.perf_counter() - t0

    t0 = time.perf_counter()
    streamed = list(solve_stream(
        iter(trees), "path_cover_size",
        options=SolveOptions(backend="fast", batch_small=n_max)))
    stream_t = time.perf_counter() - t0

    answers = [s.answer for s in swept]
    assert answers == [s.answer for s in pooled]
    assert answers == [s.answer for s in streamed]
    assert all(s.provenance["route"] == "forest" for s in swept)
    speedup = pooled_t / max(forest_t, 1e-9)
    rows = [
        _row("pooled solve_many (tiny instances)", count, jobs, pooled_t,
             f"n <= {n_max}"),
        _row("solve_forest (one packed sweep)", count, 1, forest_t,
             f"{speedup:.1f}x vs pooled batch"),
        _row("solve_stream batch_small (forest-routed)", count, 1, stream_t,
             f"{pooled_t / max(stream_t, 1e-9):.1f}x vs pooled batch"),
    ]
    return rows, speedup


# --------------------------------------------------------------------------- #
# harness entry points
# --------------------------------------------------------------------------- #

def run_all(*, smoke: bool):
    rows = []
    stream_count = SMOKE_STREAM_COUNT if smoke else STREAM_COUNT
    # serial (fully lazy) and pooled (bounded window) streaming
    row, _ = run_stream_scale(stream_count, jobs=None)
    rows.append(row)
    row, _ = run_stream_scale(stream_count // 2 if smoke else stream_count,
                              jobs=2, window=64, chunksize=32)
    rows.append(row)
    pool_rows, pool_speedup = run_pool_reuse(
        SMOKE_POOL_BATCHES if smoke else POOL_BATCHES)
    rows.extend(pool_rows)
    cache_rows, _ = run_cache_repeat_traffic(
        requests=120 if smoke else 600, distinct=12 if smoke else 20)
    rows.extend(cache_rows)
    forest_rows, forest_speedup = run_forest_batching(
        SMOKE_FOREST_COUNT if smoke else FOREST_COUNT)
    rows.extend(forest_rows)
    return rows, pool_speedup, forest_speedup


def test_stream_throughput_table(benchmark):
    """The E10 table: bounded streaming, warm pools, cache hit-rates."""
    rows, pool_speedup, forest_speedup = run_all(smoke=True)
    write_result_table("E10", "streaming scale-out — persistent pools + "
                       "solve_stream", rows, COLUMNS)

    # the tentpole acceptance criterion: a persistent pool must beat
    # forking a fresh pool per call on repeated small batches
    assert pool_speedup > 1.0, \
        f"persistent pool {pool_speedup:.2f}x <= per-call solve_many"
    # and one forest sweep must beat the pooled batch on tiny instances
    assert forest_speedup > 1.0, \
        f"solve_forest {forest_speedup:.2f}x <= pooled solve_many"

    benchmark(lambda: list(
        solve_stream((random_cotree(12, seed=i) for i in range(100)),
                     "path_cover_size")))


def main(argv=None) -> int:
    """Standalone entry point (used by the CI smoke run)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    smoke = "--smoke" in argv
    rows, pool_speedup, forest_speedup = run_all(smoke=smoke)
    write_result_table("E10", "streaming scale-out — persistent pools + "
                       "solve_stream", rows, COLUMNS)
    print(f"persistent pool vs per-call solve_many: {pool_speedup:.2f}x")
    print(f"solve_forest vs pooled solve_many: {forest_speedup:.2f}x")
    if pool_speedup <= 1.0:
        print("FAIL: the persistent WorkerPool did not beat per-call pools")
        return 1
    if forest_speedup <= 1.0:
        print("FAIL: the forest sweep did not beat the pooled batch")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
