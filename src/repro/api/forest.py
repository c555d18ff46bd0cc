"""``solve_forest()`` — one vectorized sweep over many small instances.

Per-instance solving pays per-call overhead (context setup, a Python-level
pipeline walk, many small NumPy dispatches) that dwarfs the useful work when
instances are tiny.  :func:`solve_forest` amortises all of it: the batch is
packed into one :class:`~repro.cograph.FlatForest` (a single CSR holding
every instance side by side) and the whole forest is processed by **one**
run of the level-wise cotree-DP engine, or one run of the eight-stage
path-cover pipeline, whose vectorized sweeps now stride over thousands of
instances at once.  Root values and witnesses are then split back per
instance, bit-identical to what a solo :func:`~repro.api.solve` would have
produced.

Supported tasks (:data:`FOREST_TASKS`): ``path_cover`` plus the six
cotree-DP tasks.  Anything the sweep cannot take — an unsupported task,
non-default engine options, a non-cograph input, an instance whose vertex
ids are not ``0..n-1`` — silently falls back to a per-instance
:func:`~repro.api.solve` (``provenance["route"] == "serial"``); swept
solutions report ``"forest"``.  A configured
:class:`~repro.api.SolutionCache` is consulted per instance *before*
packing, so repeat instances skip the sweep entirely.

:func:`~repro.api.solve_many` and :func:`~repro.api.solve_stream` route
through here automatically when ``SolveOptions(batch_small=...)`` is set.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..cograph import (
    FlatCotree,
    NotACographError,
    PathCover,
    as_flat_cotree,
    pack,
)
from ..core.dp import (
    CHROMATIC_NUMBER_DP,
    CLIQUE_COVER_DP,
    COUNT_INDEPENDENT_SETS_DP,
    MAX_CLIQUE_DP,
    MAX_INDEPENDENT_SET_DP,
    PATH_COVER_SIZE_DP,
    run_cotree_dp,
)
from ..core.pipeline import Pipeline
from .adapters import Problem, as_problem
from .options import SolveOptions
from .solution import Solution
from .solve import _from_cache, _resolve_options, solve

__all__ = ["solve_forest", "FOREST_TASKS"]

#: cotree-DP spec per sweepable DP task.
_TASK_DP = {
    "path_cover_size": PATH_COVER_SIZE_DP,
    "max_clique": MAX_CLIQUE_DP,
    "max_independent_set": MAX_INDEPENDENT_SET_DP,
    "chromatic_number": CHROMATIC_NUMBER_DP,
    "clique_cover": CLIQUE_COVER_DP,
    "count_independent_sets": COUNT_INDEPENDENT_SETS_DP,
}

#: every task the forest sweep can take.
FOREST_TASKS = ("path_cover",) + tuple(_TASK_DP)


def _forest_supported(task: str, options: SolveOptions) -> bool:
    """Can this (task, options) pair run as one packed sweep at all?

    The sweep is the raw vectorized engine: it has no simulator, no
    accounting, no per-instance validation.  Any option that asks for one
    of those sends every instance down the serial fallback instead.
    """
    return (task in FOREST_TASKS and options.backend in (None, "fast")
            and not options.with_(backend=None).picks_engine)


def _eligible_flat(prob: Problem):
    """The instance's packable :class:`~repro.cograph.FlatCotree`, or
    ``None`` when it must go down the serial path (non-cograph input, or
    vertex ids that are not ``0..n-1`` — packing shifts ids blockwise, so
    sparse labellings cannot share a forest)."""
    try:
        tree = prob.pipeline_tree()
        flat = tree if type(tree) is FlatCotree else as_flat_cotree(tree)
    except NotACographError:
        return None
    if flat.has_primes:                     # MD trees don't pack (PR 8)
        return None
    v = flat.vertices                       # sorted, cached on the instance
    n = v.size
    if n < 1 or v[0] != 0 or v[-1] != n - 1:
        return None
    # sorted with matching endpoints: only a malformed cotree carrying
    # duplicate leaf ids can still differ from 0..n-1 — pack() re-validates
    # exactly and raises, naming the instance
    return flat


# --------------------------------------------------------------------------- #
# the sweeps
# --------------------------------------------------------------------------- #

def _sweep_dp(flats, task: str, options: SolveOptions) -> List[Solution]:
    """One DP-engine pass over the packed forest; one Solution per input."""
    dp = _TASK_DP[task]
    needs_witness = task not in ("path_cover_size", "count_independent_sets")
    t0 = time.perf_counter()
    forest = pack(flats)
    run = run_cotree_dp(dp, forest, "fast")
    root_vals = run.root_values()
    witness = run.witness() if needs_witness else None
    seconds = {"forest_sweep": time.perf_counter() - t0}
    vb = forest.vertex_base
    vb_list = vb.tolist()
    vals = list(root_vals) if isinstance(root_vals, list) \
        else root_vals.tolist()
    # extremal-set witnesses come back as one sorted global vertex array;
    # locate every instance's slice with a single searchsorted, rebase the
    # whole array in one pass, and split with plain-list slicing
    cuts = wit_list = None
    if task in ("max_clique", "max_independent_set"):
        cuts = np.searchsorted(witness, vb)
        rebased = witness - np.repeat(vb[:-1], np.diff(cuts))
        cuts = cuts.tolist()
        wit_list = rebased.tolist()
    elif needs_witness:
        wit_list = witness.tolist()         # one entry per global vertex

    def emit(answer: Any, num_paths: Optional[int] = None) -> Solution:
        return Solution(task=task, answer=answer, backend="fast",
                        options=options, num_paths=num_paths,
                        stage_seconds=dict(seconds),
                        provenance={"route": "forest"})

    k = len(flats)
    if task == "path_cover_size":
        return [emit(int(vals[i]), int(vals[i])) for i in range(k)]
    if task in ("max_clique", "max_independent_set"):
        return [emit({"size": int(vals[i]),
                      "vertices": wit_list[cuts[i]:cuts[i + 1]]})
                for i in range(k)]
    if task == "chromatic_number":
        return [emit({"chromatic_number": int(vals[i]),
                      "coloring": wit_list[vb_list[i]:vb_list[i + 1]]})
                for i in range(k)]
    if task == "clique_cover":
        out = []
        for i in range(k):
            theta = int(vals[i])
            classes = witness[vb_list[i]:vb_list[i + 1]]
            order = np.argsort(classes, kind="stable")
            bounds = np.searchsorted(classes[order], np.arange(theta + 1))
            out.append(emit({"num_cliques": theta,
                             "cliques": [order[lo:hi].tolist()
                                         for lo, hi in zip(bounds[:-1],
                                                           bounds[1:])]}))
        return out
    # count_independent_sets
    return [emit({"count": int(vals[i]), "includes_empty_set": True})
            for i in range(k)]


def _sweep_cover(flats, options: SolveOptions) -> List[Solution]:
    """One pipeline pass over the packed forest; one Solution per input."""
    t0 = time.perf_counter()
    forest = pack(flats)
    run = Pipeline.default().run(forest, "fast", collect_timings=False)
    state = run.state
    p_roots = state.reduced.p[np.asarray(state.binary.roots, dtype=np.int64)]
    vb = forest.vertex_base

    # split the global cover back per instance: extract's path-tree roots
    # come back in ascending global vertex order, so the paths of instance
    # i are contiguous and in the same relative order a solo run produces.
    paths_of: List[List[List[int]]] = [[] for _ in flats]
    for path in run.cover.paths:
        i = int(np.searchsorted(vb, path[0], side="right") - 1)
        base = int(vb[i])
        paths_of[i].append([v - base for v in path])
    seconds = {"forest_sweep": time.perf_counter() - t0}

    out = []
    for i in range(len(flats)):
        cover = PathCover(paths_of[i])
        p_root = int(p_roots[i])
        if cover.num_paths != p_root:  # pragma: no cover - invariant
            raise AssertionError(
                f"forest sweep split {cover.num_paths} paths for instance "
                f"{i}, p(root) says {p_root}")
        out.append(Solution(task="path_cover", answer=cover, backend="fast",
                            options=options, cover=cover, num_paths=p_root,
                            stage_seconds=dict(seconds),
                            provenance={"route": "forest", "p_root": p_root}))
    return out


# --------------------------------------------------------------------------- #
# the front door
# --------------------------------------------------------------------------- #

def _solve_forest_problems(probs: List[Problem], task: str,
                           options: SolveOptions) -> List[Solution]:
    """Solve already-adapted problems, forest-sweeping whatever qualifies.

    The workhorse behind :func:`solve_forest` and the ``batch_small``
    routing of the stream front door; does *not* stamp ``batch_index``.
    """
    cache = options.cache
    solo_opts = options.with_(batch_small=None)
    results: List[Optional[Solution]] = [None] * len(probs)

    sweep_idx: List[int] = []
    sweep_flats = []
    sweep_keys: List[Optional[Tuple]] = []
    supported = _forest_supported(task, options)
    for i, prob in enumerate(probs):
        flat = _eligible_flat(prob) if supported else None
        if flat is None:
            # per-instance fallback; solve() handles the cache itself
            solution = solve(prob, task, options=solo_opts)
            if solution.provenance.get("cache") != "hit":
                solution.provenance.setdefault("route", "serial")
            results[i] = solution
            continue
        key = cache.key_for(prob, task, options) if cache is not None else None
        if key is not None:
            hit = cache.get(key)
            if hit is not None:
                results[i] = _from_cache(hit, prob)
                continue
        sweep_idx.append(i)
        sweep_flats.append(flat)
        sweep_keys.append(key)

    if sweep_flats:
        if task == "path_cover":
            swept = _sweep_cover(sweep_flats, options)
        else:
            swept = _sweep_dp(sweep_flats, task, options)
        for i, solution, key in zip(sweep_idx, swept, sweep_keys):
            for name, value in probs[i].provenance().items():
                solution.provenance.setdefault(name, value)
            if key is not None:
                solution.provenance["cache"] = "miss"
                cache.put(key, solution)
            results[i] = solution
    return results


def solve_forest(problems, task: str = "path_cover", *,
                 options: Optional[SolveOptions] = None,
                 **option_fields: Any) -> List[Solution]:
    """Solve a batch of small instances in one vectorized forest sweep.

    Parameters
    ----------
    problems:
        an iterable of anything :func:`~repro.api.as_problem` accepts.
    task:
        a registered task name; tasks outside :data:`FOREST_TASKS` fall
        back to per-instance :func:`~repro.api.solve` calls.
    options / option_fields:
        as for :func:`~repro.api.solve`.  Only default-engine
        configurations (``method="parallel"``, backend ``None``/``"fast"``,
        no PRAM knobs, no ``validate``) can be swept; anything else runs
        serially per instance.

    Returns
    -------
    list of Solution
        in input order, each stamped with ``provenance["batch_index"]``
        and ``provenance["route"]`` (``"forest"`` or ``"serial"``; cache
        hits carry ``provenance["cache"] == "hit"`` instead).
    """
    opts = _resolve_options(options, option_fields)
    probs = [as_problem(raw, task=task) for raw in problems]
    solutions = _solve_forest_problems(probs, task, opts)
    for index, solution in enumerate(solutions):
        solution.provenance["batch_index"] = index
    return solutions
