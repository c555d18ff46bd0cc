"""``solve_forest()`` — one vectorized sweep over many small instances.

Per-instance solving pays per-call overhead (context setup, a Python-level
pipeline walk, many small NumPy dispatches) that dwarfs the useful work when
instances are tiny.  :func:`solve_forest` amortises all of it: the batch is
packed into one :class:`~repro.cograph.FlatForest` (a single CSR holding
every instance side by side) and the whole forest is processed by **one**
run of the cotree-DP engine (:func:`~repro.core.run_cotree_dp`, level by
level or by heavy-path contraction, whichever the forest's height calls
for), or one run of the eight-stage path-cover pipeline, whose vectorized
sweeps now stride over thousands of instances at once.  Root values and
witnesses are then split back per instance, bit-identical to what a solo
:func:`~repro.api.solve` would have produced.

This module knows no DP task by name.  It reads each task's spec, root
field, witness shape and ``answer`` builder from the task table in
:mod:`repro.api.tasks`, the same row the solo route uses, so the two
routes build every answer with one function.

Supported tasks (:data:`FOREST_TASKS`): ``path_cover`` plus the table's
unweighted cotree-DP tasks.  Anything the sweep cannot take — an
unsupported task, non-default engine options, a non-cograph input, an
instance whose vertex ids are not ``0..n-1`` — silently falls back to a
per-instance :func:`~repro.api.solve` (``provenance["route"] ==
"serial"``); swept solutions report ``"forest"``.  A configured
:class:`~repro.api.SolutionCache` is consulted per instance *before*
packing, so repeat instances skip the sweep entirely.

:func:`~repro.api.solve_many` and :func:`~repro.api.solve_stream` route
through here automatically when ``SolveOptions(batch_small=...)`` is set.
"""

from __future__ import annotations

import time
from typing import Any, List, Optional, Tuple

import numpy as np

from ..cograph import (
    FlatCotree,
    NotACographError,
    PathCover,
    as_flat_cotree,
    pack,
)
from ..core.dp import run_cotree_dp
from ..core.pipeline import Pipeline
from .adapters import Problem, as_problem
from .options import SolveOptions
from .solution import Solution
from .solve import _from_cache, _resolve_options, solve
from .tasks import _DP_TASKS

__all__ = ["solve_forest", "FOREST_TASKS"]

#: every task the forest sweep can take: the path cover and every
#: unweighted cotree-DP task.
FOREST_TASKS = ("path_cover",) + tuple(
    name for name, entry in _DP_TASKS.items() if not entry.weighted)


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
    entry = _DP_TASKS[task]
    t0 = time.perf_counter()
    forest = pack(flats)
    run = run_cotree_dp(entry.spec, forest, "fast")
    values = run.root_values(entry.field).tolist()
    witness = run.witness() if entry.witness is not None else None
    seconds = {"forest_sweep": time.perf_counter() - t0}
    # rebase the whole witness in one pass and split it with plain-list
    # slicing: a sorted vertex set is located per instance by one
    # searchsorted, per-vertex labels split at the vertex bases
    vb = forest.vertex_base
    cuts = wit_list = None
    if entry.witness == "set":
        cuts = np.searchsorted(witness, vb)
        wit_list = (witness - np.repeat(vb[:-1], np.diff(cuts))).tolist()
        cuts = cuts.tolist()
    elif entry.witness == "labels":
        cuts = vb.tolist()
        wit_list = witness.tolist()

    out = []
    for i, value in enumerate(values):
        answer, num_paths = entry.answer(
            int(value),
            None if wit_list is None else wit_list[cuts[i]:cuts[i + 1]])
        out.append(Solution(task=task, answer=answer, backend="fast",
                            options=options, num_paths=num_paths,
                            stage_seconds=dict(seconds),
                            provenance={"route": "forest"}))
    return out


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
