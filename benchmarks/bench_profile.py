"""E11 + E12 + E13 + E15 + E17 + E19 — wall-clock profiles of the hot paths.

Every future PR needs a trajectory to compare against: this harness runs

* **E11** — the eight-stage pipeline on fixed instances (``random_cotree``,
  seeds pinned) at n ∈ {1k, 10k, 100k} on both execution backends, with
  per-stage wall-clock,
* **E12** — the cotree-DP engine: the five DP tasks (``max_clique``,
  ``max_independent_set``, ``chromatic_number``, ``clique_cover``,
  ``count_independent_sets``) end to end through ``solve()`` on the same
  instances; ``max_clique`` at n = 100k must stay within 2x the pipeline
  total that the PR 4 ``lower_bound`` task used to pay at that size (the
  DP replaces a full cover run),
* **E13** — forest batching: thousands of small instances (n <= 100)
  solved by one :func:`repro.api.solve_forest` sweep vs the pooled batch
  front door (``solve_many(jobs=0)``, one worker per CPU); the full run
  must show >= 10x throughput on ``path_cover_size`` and ``max_clique``,
* **E15** — modular decomposition (PR 8): the four MD-capable tasks on
  cograph inputs (the prime-aware engine must stay within **1.1x** of the
  pre-MD E12 budgets — the cograph hot path paid nothing for the new
  capability) and on P4-sparse modular decomposition trees (the new
  capability itself, budgeted like every other task),

* **E17** — the binary wire format: zero-copy ``repro.io.wire.from_bytes``
  ingestion vs JSON parsing of the same instance at n ∈ {10k, 100k} must
  be **>= 10x** faster,
* **E19** — tree shape: ``path_cover`` and the six DP tasks (witness
  included) through ``solve(wire bytes)`` on random, balanced,
  caterpillar and star cotrees of the same n ∈ {10k, 100k}; at n = 10k
  every other shape's seven-task total must stay within **3x** of the
  random tree's (a within-run ratio, no baseline; the per-level DP cliff
  it guards against was ~100x, and the star — one union over n leaves, so
  n paths — guards the numbering against a cost quadratic in the number
  of roots).  Its graph-door rows adapt and decompose an edge-list body
  (``as_problem(edges).decomposition_tree()``, JSON decoding excluded) of
  a random cograph, a threshold graph (a caterpillar cotree: height n),
  a complete graph, an edgeless graph and a non-cograph with one P4, and
  recognise a long path beside a threshold graph (twin peeling keeps the
  twin-free path live through all n rounds: ``O(n h log n)``, ungated);
  the threshold graph must cost at most **3x** the random cograph per
  vertex plus edge,

and writes everything as machine-readable JSON
(``benchmarks/results/BENCH_PR10.json``) next to the human-readable
``benchmarks/results/E11.md`` / ``E12.md`` / ``E13.md`` / ``E15.md`` /
``E17.md`` / ``E19.md`` tables.  (E16, the healing-vs-fail-fast stream
loop comparison, was retired with the fail-fast loop in 2.0; the pre-2.0
baseline still carries its rows, which ``--check`` ignores.)

The JSON also stores a *calibration* measurement (a fixed NumPy workload),
so a later run on a different machine can scale the baseline before
comparing: ``--check BASELINE.json`` fails (exit 1) when any pipeline stage
or DP task is more than ``--factor`` (default 2.0) slower than the
calibrated baseline, when an E13 forest-vs-batch ratio collapses, or when
the E15 cograph rows exceed 1.1x the baseline's E12 budgets, or when
E17 or E19 break their within-run ratios — the CI ``perf-smoke`` job runs
exactly that against the checked-in baseline.

Usage::

    PYTHONPATH=src python benchmarks/bench_profile.py            # full run
    PYTHONPATH=src python benchmarks/bench_profile.py --smoke    # CI-sized
    PYTHONPATH=src python benchmarks/bench_profile.py --smoke \
        --check benchmarks/results/BENCH_PR10.json               # regression
"""

import argparse
import gc
import json
import os
import sys
import time

import numpy as np

from repro._version import __version__
from repro.api import SolveOptions, solve, solve_forest, solve_many
from repro.api import as_problem
from repro.cograph import (FlatCotree, Graph, NotACographError,
                           caterpillar_cotree, clique, independent_set,
                           md_tree, random_cotree,
                           random_p4_sparse, threshold_cograph)
from repro.cograph.cotree import JOIN, LEAF, UNION
from repro.core.pipeline import Pipeline
from repro.io.serialization import cotree_from_json, cotree_to_json
from repro.io.wire import from_bytes, to_bytes

from _util import RESULTS_DIR, format_markdown_table, write_result_table

#: (backend, n, repeats) grid of the full run; the pram simulator is
#: wall-clock-expensive, so it keeps fewer repeats.
FULL_GRID = [
    ("fast", 1_000, 5),
    ("fast", 10_000, 5),
    ("fast", 100_000, 3),
    ("pram", 1_000, 2),
    ("pram", 10_000, 1),
    ("pram", 100_000, 1),
]
#: the CI smoke configuration: one point, compared against the baseline.
SMOKE_GRID = [("fast", 10_000, 3)]

#: the E12 DP-engine tasks and their (backend, n, repeats) grid.
DP_TASKS = ("max_clique", "max_independent_set", "chromatic_number",
            "clique_cover", "count_independent_sets")
FULL_DP_GRID = [
    ("fast", 1_000, 5),
    ("fast", 10_000, 5),
    ("fast", 100_000, 3),
    ("pram", 1_000, 2),
    ("pram", 10_000, 1),
]
SMOKE_DP_GRID = [("fast", 10_000, 3)]

#: the E13 forest-batching grid: (task, instances, n_max, repeats).  Both
#: tasks run the same pinned instance mix; the baseline is the pooled batch
#: front door (``solve_many(jobs=0)``), the contender one single-core
#: ``solve_forest`` sweep.
E13_TASKS = ("path_cover_size", "max_clique")
FULL_E13_GRID = [(task, 10_000, 100, 3) for task in E13_TASKS]
SMOKE_E13_GRID = [(task, 2_000, 64, 2) for task in E13_TASKS]

#: the E15 modular-decomposition grid: (family, backend, n, repeats).  The
#: ``cograph`` family reuses the pinned E12 instances so the MD-routed tasks
#: are directly comparable to the pre-MD DP budgets; the ``p4_sparse``
#: family exercises genuinely prime trees (spiders + bounded generic
#: primes), where ``random_p4_sparse`` materialises Theta(n^2) edges — its
#: sizes stay modest and the ``md_tree`` build cost is reported separately.
MD_TASKS = ("max_clique", "max_independent_set",
            "max_weight_clique", "max_weight_independent_set")
FULL_MD_GRID = [
    ("cograph", "fast", 10_000, 5),
    ("cograph", "fast", 100_000, 3),
    ("p4_sparse", "fast", 500, 5),
    ("p4_sparse", "fast", 2_000, 3),
]
SMOKE_MD_GRID = [
    ("cograph", "fast", 10_000, 3),
    ("p4_sparse", "fast", 500, 3),
]
#: the E15 headline bound: on cograph inputs at the top fast grid point the
#: MD-capable route must cost at most 1.1x the plain E12 budget, plus a
#: small absolute slack.  The slack absorbs run-order noise: E15 measures
#: after E13's allocation-heavy 10k-instance sweep, which consistently
#: costs the later phase a few ms at the ~16ms scale of the top point —
#: a pure 1.1x margin (~1.6ms) flaps on that, while a real regression of
#: the cograph hot path (tens of percent) still fails decisively.
E15_FACTOR = 1.1
E15_ABS_SLACK = 0.005
E15_TOP_N = 100_000

#: the E17 wire-ingestion grid: (n, repeats) — wire load vs JSON parsing
#: of the same pinned instance.
FULL_E17_GRID = [(10_000, 5), (100_000, 3)]
SMOKE_E17_GRID = [(10_000, 3)]
#: the E17 headline bound: wire ingestion beats JSON parsing >= 10x.
E17_WIRE_RATIO = 10.0

#: the E19 shape grid: (n, repeats).  ``path_cover`` and every DP task,
#: witness included, through ``solve(wire bytes)`` on the fast backend, on
#: a random, a balanced, a caterpillar and a star cotree of the same ``n``.
E19_TASKS = ("path_cover", "path_cover_size", "max_clique",
             "max_independent_set", "chromatic_number", "clique_cover",
             "count_independent_sets")
E19_SHAPES = ("random", "balanced", "caterpillar", "star")
FULL_E19_GRID = [(10_000, 5), (100_000, 3)]
SMOKE_E19_GRID = [(10_000, 5)]
#: the E19 bound, checked at the smoke size: every other shape's tasks
#: together cost at most 3x the random tree's (the per-level DP cliff this
#: guards against was ~100x; a numbering quadratic in the roots made the
#: star's ``path_cover`` ~30x at n = 8e4).
E19_SHAPE_RATIO = 3.0
E19_GATE_N = 10_000
#: the E19 graph-door rows: shape, and the vertex count of the random,
#: threshold and one-P4 bodies (n = 400 gives a 40,000-edge, 447 KiB
#: threshold body); the complete graph and the edgeless graph are sized to
#: about the same byte count; ``path_threshold`` is a path of
#: ``E19_PATH_FACTOR * n`` vertices beside the threshold graph, recognised
#: (``pipeline_tree``) rather than decomposed, since the path's modular
#: decomposition is the Gallai fallback's.  Best of ``E19_GRAPH_REPEATS``.
E19_GRAPH_SHAPES = ("random", "threshold", "complete", "edgeless", "one_p4",
                    "path_threshold")
E19_GRAPH_N = 400
E19_PATH_FACTOR = 25
E19_GRAPH_REPEATS = 5

SEED = 7
DEFAULT_OUT = os.path.join(RESULTS_DIR, "BENCH_PR10.json")
COLUMNS = ["backend", "n", "input", "total_s"] + list(
    Pipeline.default().stages)
DP_COLUMNS = ["backend", "n"] + list(DP_TASKS)
E13_COLUMNS = ["task", "instances", "max_n", "batch_s", "forest_s", "ratio"]
MD_COLUMNS = ["family", "backend", "n", "md_build_s"] + list(MD_TASKS)
E17_COLUMNS = ["n", "json_parse_s", "wire_load_s", "wire_ratio"]
E19_COLUMNS = ["n", "shape"] + list(E19_TASKS) + ["total_s", "vs_random"]
E19_GRAPH_COLUMNS = ["shape", "n", "m", "body_kib", "seconds",
                     "us_per_item", "vs_random"]


def calibrate() -> float:
    """Seconds for a fixed NumPy workload — the machine-speed yardstick."""
    rng = np.random.default_rng(0)
    a = rng.integers(0, 1 << 30, size=1_000_000)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(5):
            order = np.argsort(a, kind="stable")
            np.cumsum(a[order])
        best = min(best, time.perf_counter() - t0)
    return best


def profile_once(tree, backend: str):
    run = Pipeline.default().run(tree, backend)
    return run.stage_seconds, run.total_seconds


def profile(backend: str, n: int, repeats: int, input_form: str = "flat"):
    """Best-of-``repeats`` per-stage seconds for one grid point."""
    tree = random_cotree(n, seed=SEED)
    if input_form == "flat":
        tree = FlatCotree.from_cotree(tree)
    stage_best = {}
    total_best = float("inf")
    for _ in range(repeats):
        stages, total = profile_once(tree, backend)
        for name, sec in stages.items():
            stage_best[name] = min(stage_best.get(name, float("inf")), sec)
        total_best = min(total_best, total)
    return {"backend": backend, "n": n, "input_form": input_form,
            "repeats": repeats,
            "stage_seconds": {k: round(v, 6) for k, v in stage_best.items()},
            "total_seconds": round(total_best, 6)}


def run_grid(grid):
    results = []
    for backend, n, repeats in grid:
        results.append(profile(backend, n, repeats))
        print(f"  {backend:4s} n={n:>7} total={results[-1]['total_seconds']:.4f}s",
              flush=True)
    # one Cotree-input point so the conversion overhead stays visible
    top_fast = max((g for g in grid if g[0] == "fast"), key=lambda g: g[1])
    results.append(profile("fast", top_fast[1], top_fast[2],
                           input_form="cotree"))
    print(f"  fast n={top_fast[1]:>7} (Cotree input) "
          f"total={results[-1]['total_seconds']:.4f}s", flush=True)
    return results


def profile_dp(backend: str, n: int, repeats: int):
    """Best-of-``repeats`` end-to-end seconds per DP task (E12)."""
    tree = FlatCotree.from_cotree(random_cotree(n, seed=SEED))
    task_seconds = {}
    for task in DP_TASKS:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            solve(tree, task, backend=backend)
            best = min(best, time.perf_counter() - t0)
        task_seconds[task] = round(best, 6)
    return {"backend": backend, "n": n, "repeats": repeats,
            "task_seconds": task_seconds}


def run_dp_grid(grid):
    results = []
    for backend, n, repeats in grid:
        results.append(profile_dp(backend, n, repeats))
        worst = max(results[-1]["task_seconds"].values())
        print(f"  dp {backend:4s} n={n:>7} slowest-task={worst:.4f}s",
              flush=True)
    return results


def _e13_instances(count: int, n_max: int):
    """``count`` pinned-seed small cographs with mixed sizes in [1, n_max]."""
    rng = np.random.default_rng(SEED)
    sizes = rng.integers(1, n_max + 1, size=count)
    return [FlatCotree.from_cotree(random_cotree(int(n), seed=SEED + i))
            for i, n in enumerate(sizes)]


def profile_forest(task: str, instances: int, n_max: int, repeats: int):
    """Best-of-``repeats`` seconds for one E13 point: the pooled batch front
    door vs one :func:`solve_forest` sweep, answers cross-checked.

    Both sides run the fast engine explicitly (``backend="fast"``, the route
    the deprecated ``solve_batch`` always took) so the comparison isolates
    per-instance dispatch overhead: both sides run the same engine for
    every task (default options would put the baseline's ``max_clique``
    on the PRAM simulator).  The GC is paused around each timed region (as
    ``timeit`` does) for both sides alike: the 10k held Solution objects
    otherwise make collector pauses the dominant noise term."""
    trees = _e13_instances(instances, n_max)
    opts = {"backend": "fast"}

    def timed_best(fn):
        best, result = float("inf"), None
        for _ in range(repeats):
            gc.collect()
            gc.disable()
            try:
                t0 = time.perf_counter()
                result = fn()
                best = min(best, time.perf_counter() - t0)
            finally:
                gc.enable()
        return best, result

    batch_best, batch = timed_best(
        lambda: solve_many(trees, task, jobs=0, **opts))
    batch_answers = [s.answer for s in batch]
    forest_best, swept = timed_best(
        lambda: solve_forest(trees, task, **opts))
    forest_answers = [s.answer for s in swept]
    if forest_answers != batch_answers:
        raise AssertionError(
            f"E13 {task}: forest answers diverge from the pooled batch")
    ratio = batch_best / max(forest_best, 1e-9)
    return {"task": task, "instances": instances, "max_n": n_max,
            "repeats": repeats, "batch_seconds": round(batch_best, 6),
            "forest_seconds": round(forest_best, 6),
            "ratio": round(ratio, 2)}


def run_e13_grid(grid):
    results = []
    for task, instances, n_max, repeats in grid:
        results.append(profile_forest(task, instances, n_max, repeats))
        r = results[-1]
        print(f"  e13 {task:<16s} {instances} x n<={n_max}: "
              f"batch={r['batch_seconds']:.3f}s "
              f"forest={r['forest_seconds']:.3f}s ratio={r['ratio']:.1f}x",
              flush=True)
    return results


def _md_instance(family: str, n: int):
    """The pinned E15 instance for one grid point: ``(tree, md_build_s)``.

    ``cograph`` reuses the exact E12 instance (so the timings compare); the
    returned build time is 0 there because no decomposition is needed.
    ``p4_sparse`` draws a pinned prime-rich graph and pays ``md_tree`` once
    up front — solve() then receives the primed :class:`FlatCotree`
    directly, so the per-task timings isolate the engine's prime path.
    """
    if family == "cograph":
        return FlatCotree.from_cotree(random_cotree(n, seed=SEED)), 0.0
    graph = random_p4_sparse(n, seed=SEED)
    t0 = time.perf_counter()
    flat = md_tree(graph)
    return flat, time.perf_counter() - t0


def profile_md(family: str, backend: str, n: int, repeats: int):
    """Best-of-``repeats`` end-to-end seconds per MD-capable task (E15)."""
    tree, md_build = _md_instance(family, n)
    rng = np.random.default_rng(SEED)
    weights = tuple(int(x) for x in rng.integers(1, 100, size=n))
    task_seconds = {}
    for task in MD_TASKS:
        opts = (SolveOptions(backend=backend, weights=weights)
                if "weight" in task else SolveOptions(backend=backend))
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            solve(tree, task, options=opts)
            best = min(best, time.perf_counter() - t0)
        task_seconds[task] = round(best, 6)
    return {"family": family, "backend": backend, "n": n, "repeats": repeats,
            "md_build_seconds": round(md_build, 6),
            "task_seconds": task_seconds}


def run_md_grid(grid):
    results = []
    for family, backend, n, repeats in grid:
        results.append(profile_md(family, backend, n, repeats))
        worst = max(results[-1]["task_seconds"].values())
        print(f"  md {family:<9s} {backend:4s} n={n:>7} "
              f"build={results[-1]['md_build_seconds']:.4f}s "
              f"slowest-task={worst:.4f}s", flush=True)
    return results


def profile_e17(n: int, repeats: int):
    """Best-of-``repeats`` seconds for one E17 point: ingestion to a
    pipeline-ready :class:`FlatCotree` from a JSON document
    (``json.loads`` + ``cotree_from_json`` + flatten, the pre-PR-10
    server/stream route) vs the zero-copy ``wire.from_bytes`` on the same
    instance.
    """
    nested = random_cotree(n, seed=SEED)
    tree = FlatCotree.from_cotree(nested)

    def timed_best(fn, reps=repeats):
        best = float("inf")
        for _ in range(reps):
            gc.collect()
            gc.disable()
            try:
                t0 = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - t0)
            finally:
                gc.enable()
        return best

    json_text = json.dumps(cotree_to_json(nested))
    wire_buf = to_bytes(tree)
    json_best = timed_best(
        lambda: FlatCotree.from_cotree(cotree_from_json(json.loads(json_text))),
        reps=max(repeats, 3))
    wire_best = timed_best(lambda: from_bytes(wire_buf),
                           reps=max(repeats, 3))
    return {"n": n, "repeats": repeats,
            "json_parse_seconds": round(json_best, 6),
            "wire_load_seconds": round(wire_best, 9),
            "wire_ratio": round(json_best / max(wire_best, 1e-9), 1)}


def run_e17_grid(grid):
    results = []
    for n, repeats in grid:
        results.append(profile_e17(n, repeats))
        r = results[-1]
        print(f"  e17 n={n:>7}: json={r['json_parse_seconds']:.4f}s "
              f"wire={r['wire_load_seconds']:.6f}s "
              f"({r['wire_ratio']:.0f}x faster than JSON)", flush=True)
    return results


def _balanced_flat(n: int) -> FlatCotree:
    """A complete binary cotree over ``n`` vertices, heap-numbered (node
    ``i`` has children ``2i+1, 2i+2``), labels alternating by depth."""
    total = 2 * n - 1
    internal = np.arange(n - 1)
    kind = np.full(total, LEAF, dtype=np.int8)
    kind[internal] = np.where(
        np.floor(np.log2(internal + 1)).astype(np.int64) % 2 == 0,
        JOIN, UNION)
    offset = np.append(2 * internal, np.full(n + 1, 2 * (n - 1)))
    parent = (np.arange(total) - 1) // 2
    parent[0] = -1
    leaf_vertex = np.arange(total) - (n - 1)
    leaf_vertex[internal] = -1
    return FlatCotree(kind, offset, np.arange(1, total), parent,
                      leaf_vertex, 0)


def _e19_tree(shape: str, n: int) -> FlatCotree:
    if shape == "random":
        return FlatCotree.from_cotree(random_cotree(n, seed=SEED))
    if shape == "balanced":
        return _balanced_flat(n)
    if shape == "star":
        return FlatCotree.from_cotree(independent_set(n))
    return FlatCotree.from_cotree(caterpillar_cotree(n))


def profile_e19(n: int, repeats: int):
    """Best-of-``repeats`` seconds per task and shape (E19)."""
    rows = []
    for shape in E19_SHAPES:
        wire = to_bytes(_e19_tree(shape, n))
        task_seconds = {}
        for task in E19_TASKS:
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                solve(wire, task, backend="fast")
                best = min(best, time.perf_counter() - t0)
            task_seconds[task] = round(best, 6)
        rows.append({"n": n, "shape": shape, "repeats": repeats,
                     "task_seconds": task_seconds,
                     "total_seconds": round(sum(task_seconds.values()), 6)})
    return rows


def run_e19_grid(grid):
    results = []
    for n, repeats in grid:
        rows = profile_e19(n, repeats)
        random_total = rows[0]["total_seconds"]
        for row in rows:
            row["vs_random"] = round(row["total_seconds"]
                                     / max(random_total, 1e-9), 2)
            print(f"  e19 n={n:>7} {row['shape']:<11s} "
                  f"total={row['total_seconds']:.4f}s "
                  f"({row['vs_random']:.2f}x random)", flush=True)
        results += rows
    return results


def _graph_door_body(shape: str, n: int):
    """The decoded JSON body of one E19 graph-door row."""
    def edges(tree, shift=0):
        return [[u + shift, v + shift]
                for u, v in Graph.from_cotree(tree).edges()]
    if shape == "random":
        return edges(random_cotree(n, seed=SEED))
    if shape == "threshold":
        return edges(threshold_cograph([i % 2 for i in range(n)]))
    if shape == "complete":
        return edges(clique(3 * n // 4))
    if shape == "edgeless":
        return {"type": "graph", "n": 100 * n, "edges": []}
    if shape == "one_p4":    # disjoint from a random cograph: the only P4
        return edges(random_cotree(n - 4, seed=SEED)) + [
            [n - 4, n - 3], [n - 3, n - 2], [n - 2, n - 1]]
    return _graph_door_body("threshold", n) + [
        [v, v + 1] for v in range(n, n + E19_PATH_FACTOR * n - 1)]


def profile_graph_door(n: int, repeats: int):
    """Best-of-``repeats`` seconds to adapt and decompose each graph-door
    body (E19), with the cost per vertex plus edge."""
    rows = []
    for shape in E19_GRAPH_SHAPES:
        body = _graph_door_body(shape, n)
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            problem = as_problem(body)
            if shape != "path_threshold":
                problem.decomposition_tree()
            else:
                try:
                    problem.pipeline_tree()
                except NotACographError:
                    pass
            best = min(best, time.perf_counter() - t0)
        graph = problem.graph
        items = graph.n + graph.num_edges()
        rows.append({"shape": shape, "n": graph.n, "m": graph.num_edges(),
                     "body_bytes": len(json.dumps(body)),
                     "seconds": round(best, 6),
                     "us_per_item": round(best / items * 1e6, 4)})
    for row in rows:
        row["vs_random"] = round(row["us_per_item"]
                                 / max(rows[0]["us_per_item"], 1e-9), 2)
        print(f"  e19 graph door {row['shape']:<10s} n={row['n']:>6} "
              f"m={row['m']:>6} {row['seconds'] * 1e3:8.2f} ms "
              f"({row['vs_random']:.2f}x random per item)", flush=True)
    return rows


def check_e19_bound(payload: dict) -> list:
    """E19 acceptance: at ``E19_GATE_N`` every other shape's task total
    must stay within ``E19_SHAPE_RATIO`` of the random tree's, and the
    threshold graph's door within ``E19_SHAPE_RATIO`` of the random
    cograph's per vertex plus edge — within-run ratios, so no baseline
    calibration applies."""
    return [f"E19 {row['shape']} at n={row['n']} costs "
            f"{row['vs_random']:.2f}x the random tree (bound "
            f"{E19_SHAPE_RATIO:.0f}x): {row['task_seconds']}"
            for row in payload.get("e19_results", [])
            if row["shape"] != "random" and row["n"] == E19_GATE_N
            and row["vs_random"] > E19_SHAPE_RATIO] + [
        f"E19 graph door: the threshold body costs {row['vs_random']:.2f}x "
        f"the random cograph per vertex plus edge (bound "
        f"{E19_SHAPE_RATIO:.0f}x): {row['seconds']:.4f}s"
        for row in payload.get("e19_graph_results", [])
        if row["shape"] == "threshold"
        and row["vs_random"] > E19_SHAPE_RATIO]


def check_e17_bound(payload: dict) -> list:
    """E17 acceptance: wire ingestion must beat JSON parsing by
    ``E17_WIRE_RATIO`` — a within-run ratio of same-machine timings, so no
    baseline calibration applies."""
    failures = []
    for row in payload.get("e17_results", []):
        if row["wire_ratio"] < E17_WIRE_RATIO:
            failures.append(
                f"E17 wire ingestion only {row['wire_ratio']:.1f}x faster "
                f"than JSON at n={row['n']} (need "
                f"{E17_WIRE_RATIO:.0f}x: wire "
                f"{row['wire_load_seconds']:.6f}s vs JSON "
                f"{row['json_parse_seconds']:.4f}s)")
    return failures


def check_e15_bound(payload: dict, baseline: dict) -> list:
    """E15 acceptance: the MD-routed unweighted tasks on *cograph* inputs at
    the top fast grid point (n = 100k) must stay within ``E15_FACTOR`` (1.1x)
    of the baseline's plain E12 DP budgets, calibration-scaled, plus
    ``E15_ABS_SLACK`` of absolute run-order slack — adding prime-node
    capability must not tax the cograph hot path.  Applied only at the top
    point: smaller points sit at the 2ms noise floor, where a 1.1x margin
    would flap; those are still covered by the generic ``--factor`` budget
    on ``md_results``.
    """
    base_dp = {(r["backend"], r["n"]): r
               for r in baseline.get("dp_results", [])}
    scale = payload["calibration_seconds"] / \
        max(baseline["calibration_seconds"], 1e-9)
    failures = []
    for row in payload.get("md_results", []):
        if row["family"] != "cograph" or row["n"] < E15_TOP_N:
            continue
        ref = base_dp.get((row["backend"], row["n"]))
        if ref is None:
            continue
        for task in ("max_clique", "max_independent_set"):
            ref_sec = ref["task_seconds"].get(task)
            if ref_sec is None:
                continue
            budget = E15_FACTOR * max(ref_sec * scale, 0.002) + E15_ABS_SLACK
            got = row["task_seconds"][task]
            if got > budget:
                failures.append(
                    f"E15 {task} {row['backend']} n={row['n']} (cograph): "
                    f"{got:.4f}s > {E15_FACTOR:.1f} x E12 budget "
                    f"{ref_sec:.4f}s + {E15_ABS_SLACK:.3f}s slack")
    return failures


def check_e13_bound(payload: dict, baseline: dict, factor: float) -> list:
    """E13 acceptance: the forest sweep must stay decisively faster than the
    pooled batch.  The ratio divides two timings taken on the same machine,
    so no calibration scaling applies; each current ratio must hold at least
    ``max(3, min(base_ratio / (2 * factor), 8))`` — an absolute 3x floor,
    tightened toward the baseline's own ratio but capped so a very fast
    baseline machine cannot make slow-but-healthy CI boxes fail."""
    base_rows = {r["task"]: r for r in baseline.get("e13_results", [])}
    failures = []
    for row in payload.get("e13_results", []):
        ref = base_rows.get(row["task"])
        if ref is None:
            continue
        need = max(3.0, min(ref["ratio"] / (2.0 * factor), 8.0))
        if row["ratio"] < need:
            failures.append(
                f"E13 {row['task']}: forest-vs-batch ratio "
                f"{row['ratio']:.1f}x < required {need:.1f}x "
                f"(baseline {ref['ratio']:.1f}x)")
    return failures


def check_e12_bound(payload: dict, baseline: dict, factor: float) -> list:
    """E12 acceptance: DP ``max_clique`` at the top fast grid point must be
    within ``factor`` x the (calibration-scaled) pipeline total there — the
    cost the PR 4 ``lower_bound`` task paid for the same number."""
    dp_rows = {(r["backend"], r["n"]): r for r in payload.get("dp_results", [])}
    ref_rows = {(r["backend"], r["n"], r["input_form"]): r
                for r in baseline.get("results", [])}
    failures = []
    for (backend, n), row in sorted(dp_rows.items()):
        if backend != "fast":
            continue
        ref = ref_rows.get((backend, n, "flat"))
        if ref is None:
            continue
        scale = payload["calibration_seconds"] / \
            max(baseline["calibration_seconds"], 1e-9)
        budget = factor * max(ref["total_seconds"] * scale, 0.002)
        got = row["task_seconds"]["max_clique"]
        if got > budget:
            failures.append(
                f"E12 max_clique fast n={n}: {got:.4f}s > "
                f"{factor:.1f} x pipeline total {ref['total_seconds']:.4f}s")
    return failures


def check_against(base: dict, current: dict, factor: float) -> int:
    """Compare ``current`` to the loaded baseline; return the exit code."""
    scale = current["calibration_seconds"] / \
        max(base["calibration_seconds"], 1e-9)
    base_by_key = {(r["backend"], r["n"], r["input_form"]): r
                   for r in base["results"]}
    floor = 0.002            # ignore sub-2ms noise on tiny stages
    failures = []
    compared = 0
    for row in current["results"]:
        ref = base_by_key.get((row["backend"], row["n"], row["input_form"]))
        if ref is None:
            continue
        for stage, sec in row["stage_seconds"].items():
            budget = max(ref["stage_seconds"].get(stage, 0.0) * scale, floor)
            compared += 1
            if sec > factor * budget:
                failures.append(
                    f"{row['backend']} n={row['n']} stage {stage!r}: "
                    f"{sec:.4f}s > {factor:.1f} x {budget:.4f}s")
    # E12: DP task budgets, when the baseline carries dp_results
    base_dp = {(r["backend"], r["n"]): r for r in base.get("dp_results", [])}
    for row in current.get("dp_results", []):
        ref = base_dp.get((row["backend"], row["n"]))
        if ref is None:
            continue
        for task, sec in row["task_seconds"].items():
            budget = max(ref["task_seconds"].get(task, 0.0) * scale, floor)
            compared += 1
            if sec > factor * budget:
                failures.append(
                    f"dp {row['backend']} n={row['n']} task {task!r}: "
                    f"{sec:.4f}s > {factor:.1f} x {budget:.4f}s")
    # E15: MD task budgets, when the baseline carries md_results
    base_md = {(r["family"], r["backend"], r["n"]): r
               for r in base.get("md_results", [])}
    for row in current.get("md_results", []):
        ref = base_md.get((row["family"], row["backend"], row["n"]))
        if ref is None:
            continue
        for task, sec in row["task_seconds"].items():
            budget = max(ref["task_seconds"].get(task, 0.0) * scale, floor)
            compared += 1
            if sec > factor * budget:
                failures.append(
                    f"md {row['family']} {row['backend']} n={row['n']} "
                    f"task {task!r}: {sec:.4f}s > "
                    f"{factor:.1f} x {budget:.4f}s")
    failures += check_e12_bound(current, base, factor)
    failures += check_e15_bound(current, base)
    failures += check_e17_bound(current)
    compared += len(current.get("e17_results", []))
    failures += check_e19_bound(current)
    compared += len(current.get("e19_results", [])) \
        + len(current.get("e19_graph_results", []))
    e13_failures = check_e13_bound(current, base, factor)
    compared += sum(1 for row in current.get("e13_results", [])
                    if row["task"] in {r["task"]
                                       for r in base.get("e13_results", [])})
    failures += e13_failures
    if not compared:
        print("perf-check: no comparable grid points in baseline", flush=True)
        return 1
    if failures:
        print(f"perf-check FAILED ({len(failures)} regression(s), "
              f"calibration scale {scale:.2f}):")
        for f in failures:
            print("  " + f)
        return 1
    print(f"perf-check OK: {compared} stage/task budgets within "
          f"{factor:.1f}x (calibration scale {scale:.2f})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (fast backend, n=10k only)")
    parser.add_argument("--out", default=None,
                        help=f"where to write the JSON profile (default "
                             f"{DEFAULT_OUT}; --check runs that would "
                             f"overwrite their own baseline divert to "
                             f"<baseline>.current.json)")
    parser.add_argument("--check", metavar="BASELINE",
                        help="compare against a stored BENCH_*.json; exit 1 "
                             "on any stage or DP task regressing past "
                             "--factor")
    parser.add_argument("--factor", type=float, default=2.0,
                        help="allowed slowdown per stage (default 2.0)")
    args = parser.parse_args(argv)

    # Load the baseline BEFORE any writing: a --check run must never compare
    # against a file this very invocation produced, nor clobber the
    # checked-in baseline it is about to be judged by.
    baseline = None
    if args.check:
        with open(args.check, encoding="utf8") as fh:
            baseline = json.load(fh)
    out = args.out or DEFAULT_OUT
    if args.check and os.path.abspath(out) == os.path.abspath(args.check):
        stem = os.path.splitext(os.path.basename(out))[0]
        out = os.path.join(os.path.dirname(os.path.abspath(out)),
                           f"{stem}.current.json")
        print(f"--out would overwrite the baseline under check; "
              f"writing to {out} instead")

    grid = SMOKE_GRID if args.smoke else FULL_GRID
    dp_grid = SMOKE_DP_GRID if args.smoke else FULL_DP_GRID
    e13_grid = SMOKE_E13_GRID if args.smoke else FULL_E13_GRID
    md_grid = SMOKE_MD_GRID if args.smoke else FULL_MD_GRID
    e17_grid = SMOKE_E17_GRID if args.smoke else FULL_E17_GRID
    e19_grid = SMOKE_E19_GRID if args.smoke else FULL_E19_GRID
    label = "smoke" if args.smoke else "full"
    print(f"[E11] per-stage profile ({label}):")
    t0 = time.perf_counter()
    payload = {
        "schema": 7,
        "experiment": "E11+E12+E13+E15+E17+E19",
        "version": __version__,
        "seed": SEED,
        "smoke": bool(args.smoke),
        "calibration_seconds": round(calibrate(), 6),
        "results": run_grid(grid),
    }
    print(f"[E12] cotree-DP tasks ({label}):")
    payload["dp_results"] = run_dp_grid(dp_grid)
    print(f"[E13] forest batching vs pooled batch ({label}):")
    payload["e13_results"] = run_e13_grid(e13_grid)
    print(f"[E15] MD-capable tasks on cograph + P4-sparse inputs ({label}):")
    payload["md_results"] = run_md_grid(md_grid)
    print(f"[E17] wire ingestion vs JSON parsing ({label}):")
    payload["e17_results"] = run_e17_grid(e17_grid)
    print(f"[E19] path_cover and DP tasks by tree shape ({label}):")
    payload["e19_results"] = run_e19_grid(e19_grid)
    payload["e19_graph_results"] = profile_graph_door(E19_GRAPH_N,
                                                      E19_GRAPH_REPEATS)
    payload["harness_seconds"] = round(time.perf_counter() - t0, 3)

    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")

    if not args.smoke:
        rows = []
        for r in payload["results"]:
            row = {"backend": r["backend"], "n": r["n"],
                   "input": r["input_form"],
                   "total_s": round(r["total_seconds"], 4)}
            for stage, sec in r["stage_seconds"].items():
                row[stage] = round(sec, 4)
            rows.append(row)
        write_result_table("E11", "per-stage pipeline profile (seconds, "
                           "best of repeats)", rows, COLUMNS)
        dp_rows = []
        for r in payload["dp_results"]:
            row = {"backend": r["backend"], "n": r["n"]}
            row.update({t: round(s, 4)
                        for t, s in r["task_seconds"].items()})
            dp_rows.append(row)
        write_result_table("E12", "cotree-DP tasks end to end via solve() "
                           "(seconds, best of repeats)", dp_rows, DP_COLUMNS)
        e13_rows = [{"task": r["task"], "instances": r["instances"],
                     "max_n": r["max_n"],
                     "batch_s": round(r["batch_seconds"], 4),
                     "forest_s": round(r["forest_seconds"], 4),
                     "ratio": f"{r['ratio']:.1f}x"}
                    for r in payload["e13_results"]]
        write_result_table("E13", "forest batching: one solve_forest sweep "
                           "vs the pooled batch front door "
                           "(solve_many, jobs=0)", e13_rows, E13_COLUMNS)
        md_rows = []
        for r in payload["md_results"]:
            row = {"family": r["family"], "backend": r["backend"],
                   "n": r["n"], "md_build_s": round(r["md_build_seconds"], 4)}
            row.update({t: round(s, 4)
                        for t, s in r["task_seconds"].items()})
            md_rows.append(row)
        write_result_table("E15", "MD-capable tasks end to end via solve() "
                           "on cograph and P4-sparse inputs (seconds, best "
                           "of repeats; md_build_s = one-off md_tree cost "
                           "for the P4-sparse family)", md_rows, MD_COLUMNS)
        e17_rows = [{"n": r["n"],
                     "json_parse_s": round(r["json_parse_seconds"], 4),
                     "wire_load_s": round(r["wire_load_seconds"], 6),
                     "wire_ratio": f"{r['wire_ratio']:.0f}x"}
                    for r in payload["e17_results"]]
        write_result_table("E17", "zero-copy wire ingestion vs JSON "
                           "parsing of the same pinned instance (seconds, "
                           "best of repeats)", e17_rows, E17_COLUMNS)
        e19_rows = []
        for r in payload["e19_results"]:
            row = {"n": r["n"], "shape": r["shape"],
                   "total_s": round(r["total_seconds"], 4),
                   "vs_random": f"{r['vs_random']:.2f}x"}
            row.update({t: round(sec, 4)
                        for t, sec in r["task_seconds"].items()})
            e19_rows.append(row)
        write_result_table("E19", "path_cover and the DP tasks by tree "
                           "shape: solve(wire bytes), fast backend, "
                           "witness included (seconds, best of repeats)",
                           e19_rows, E19_COLUMNS)
        graph_rows = [dict(r, body_kib=round(r["body_bytes"] / 1024, 1),
                           vs_random=f"{r['vs_random']:.2f}x")
                      for r in payload["e19_graph_results"]]
        with open(os.path.join(RESULTS_DIR, "E19.md"), "a",
                  encoding="utf8") as fh:
            fh.write("\n## graph door: as_problem(edge-list body)."
                     "decomposition_tree() by shape, pipeline_tree() for "
                     "path_threshold (seconds, best of "
                     f"{E19_GRAPH_REPEATS}; vs_random per vertex plus "
                     "edge)\n\n" + format_markdown_table(
                         graph_rows, E19_GRAPH_COLUMNS) + "\n")

    # E13 acceptance target: the full run must show >= 10x on every task
    # (the smoke run is gated relative to the stored baseline instead).
    rc = 0
    if not args.smoke:
        low = [r for r in payload["e13_results"] if r["ratio"] < 10.0]
        for r in low:
            print(f"E13 target FAILED: {r['task']} forest-vs-batch ratio "
                  f"{r['ratio']:.1f}x < 10x")
        if low:
            rc = 1
        else:
            print("E13 target OK: forest sweep >= 10x the pooled batch on "
                  "every task")

    if baseline is not None:
        return check_against(baseline, payload, args.factor) or rc
    # no external baseline: still enforce the E12 acceptance bound against
    # this very run's pipeline profile, and the E15 cograph-path bound
    # against this very run's E12 timings (MD routing vs the plain DP route
    # on the same machine, same instant)
    failures = check_e12_bound(payload, payload, args.factor)
    failures += check_e15_bound(payload, payload)
    # E17's and E19's gates are within-run ratios with no baseline at all
    failures += check_e17_bound(payload)
    failures += check_e19_bound(payload)
    if failures:
        print("E12/E15/E17/E19 bound FAILED:")
        for f in failures:
            print("  " + f)
        return 1
    print(f"E12 bound OK: max_clique within {args.factor:.1f}x of the "
          f"pipeline total at every fast point")
    print(f"E15 bound OK: MD-routed cograph tasks within {E15_FACTOR:.1f}x "
          f"of the E12 budgets at n={E15_TOP_N}")
    print(f"E17 bound OK: wire ingestion >= {E17_WIRE_RATIO:.0f}x JSON "
          f"parsing")
    print(f"E19 bound OK: caterpillar within {E19_SHAPE_RATIO:.0f}x of the "
          f"random tree at n={E19_GATE_N}, threshold graph door within "
          f"{E19_SHAPE_RATIO:.0f}x of the random cograph")
    return rc


if __name__ == "__main__":
    sys.exit(main())
