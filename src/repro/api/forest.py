"""``solve_forest()`` — one vectorized sweep over many small instances.

Per-instance solving pays per-call overhead (context setup, a Python-level
pipeline walk, many small NumPy dispatches) that dwarfs the useful work when
instances are tiny.  :func:`solve_forest` amortises all of it: the batch is
packed into one :class:`~repro.cograph.FlatForest` (a single CSR holding
every instance side by side, one root per instance) and handed to the
task's body in :mod:`repro.api.tasks` — the same body a solo
:func:`~repro.api.solve` runs on its own one-root tree.  The body runs the
cotree-DP engine or the eight-stage path-cover pipeline once over the whole
forest and returns one :class:`~repro.api.Solution` per root, the split back
per instance being the only step that knows there is more than one.

This module names no task and imports no engine: :data:`FOREST_TASKS` is
derived from the task bodies.

Supported tasks (:data:`FOREST_TASKS`): ``path_cover`` plus the unweighted
cotree-DP tasks.  Anything the sweep cannot take — an unsupported task,
non-default engine options, a non-cograph input — silently falls back to
a per-instance :func:`~repro.api.solve` (``provenance["route"] ==
"serial"``); swept solutions report ``"forest"``.  A tree the packed
validation refuses is solved on its own and the rest are swept, so
:func:`solve_forest` raises as a solo solve does and a stream refuses
that instance alone.  A configured
:class:`~repro.api.SolutionCache` is consulted per instance *before*
packing, so repeat instances skip the sweep entirely.

:func:`~repro.api.solve_many` and :func:`~repro.api.solve_stream` route
through here automatically when ``SolveOptions(batch_small=...)`` is set.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..cograph import NotACographError, as_flat_cotree, pack
from .adapters import Problem, as_problem
from .options import SolveOptions
from .registry import get_task
from .solution import Solution
from .solve import _from_cache, _resolve_options, solve
from .tasks import _ROOT_ARRAY_BODIES

__all__ = ["solve_forest", "FOREST_TASKS"]

#: every task whose body answers a root array, bar the weighted ones (one
#: weight vector cannot serve a batch of instances).
FOREST_TASKS = tuple(task for task in _ROOT_ARRAY_BODIES
                     if not get_task(task).uses_weights)


def _forest_supported(task: str, options: SolveOptions) -> bool:
    """Can this (task, options) pair run as one packed sweep at all?

    The sweep runs the fast engine.  The pipeline solves a packed forest
    on the simulator too, but a swept instance would then carry the whole
    sweep's PRAM cost report instead of its own, so any option that picks
    an engine sends every instance down the serial fallback instead.
    """
    return (task in FOREST_TASKS and options.backend in (None, "fast")
            and not options.with_(backend=None).picks_engine)


def _eligible_flat(prob: Problem):
    """The instance's packable :class:`~repro.cograph.FlatCotree`, or
    ``None`` when it must go down the serial path (a non-cograph or empty
    input).  Not validated here: ``pack()`` checks the whole batch in one
    vectorized pass, where one validation per instance would cost more
    than the sweep."""
    try:
        flat = prob.pipeline_tree() if prob.graph is not None else \
            as_flat_cotree(prob.tree)
    except NotACographError:
        return None
    if flat.has_primes or flat.num_vertices < 1:   # MD trees don't pack
        return None
    return flat


# --------------------------------------------------------------------------- #
# the front door
# --------------------------------------------------------------------------- #

def _solve_forest_problems(probs: List[Problem], task: str,
                           options: SolveOptions) -> List[Any]:
    """Solve already-adapted problems, forest-sweeping whatever qualifies.

    The workhorse behind :func:`solve_forest` and the ``batch_small``
    routing of the stream front door; does *not* stamp ``batch_index``.
    A refused instance's slot holds the ``ValueError`` that refused it,
    so its neighbours are still answered.
    """
    cache = options.cache
    solo_opts = options.with_(batch_small=None)

    def solo(prob: Problem, key=None):
        """The per-instance fallback.  solve() handles the cache itself,
        unless ``key`` says this instance was looked up already."""
        try:
            solution = solve(prob, task, options=solo_opts if key is None
                             else solo_opts.with_(cache=None))
        except ValueError as exc:
            return exc
        if key is not None:
            solution.provenance["cache"] = "miss"
            cache.put(key, solution)
        if solution.provenance.get("cache") != "hit":
            solution.provenance.setdefault("route", "serial")
        return solution

    results: List[Any] = [None] * len(probs)
    sweep_idx: List[int] = []
    sweep_flats = []
    sweep_keys: List[Optional[Tuple]] = []
    supported = _forest_supported(task, options)
    for i, prob in enumerate(probs):
        flat = _eligible_flat(prob) if supported else None
        try:
            key = cache.key_for(prob, task, options) \
                if flat is not None and cache is not None else None
        except ValueError:
            flat = None      # a refused tree: its solo solve says why
        if flat is None:
            results[i] = solo(prob)
            continue
        if key is not None:
            hit = cache.get(key)
            if hit is not None:
                results[i] = _from_cache(hit, prob)
                continue
        sweep_idx.append(i)
        sweep_flats.append(flat)
        sweep_keys.append(key)

    if sweep_flats:
        swept = _sweep(task, sweep_flats, options)
        for i, solution, key in zip(sweep_idx, swept, sweep_keys):
            if solution is None:
                results[i] = solo(probs[i], key)
                continue
            solution.provenance["route"] = "forest"
            for name, value in probs[i].provenance().items():
                solution.provenance.setdefault(name, value)
            if key is not None:
                solution.provenance["cache"] = "miss"
                cache.put(key, solution)
            results[i] = solution
    return results


def _sweep(task: str, flats: list, options: SolveOptions) -> list:
    """The task body's solutions for ``flats`` packed into one forest.
    When the packed validation refuses a tree, the trees that refuse on
    their own get ``None`` (their solo solves say why) and the rest are
    swept again; a refusal no single tree explains gives every slot
    ``None``."""
    try:
        return _ROOT_ARRAY_BODIES[task](pack(flats), options)
    except ValueError:
        refused = [not _validates(flat) for flat in flats]
        kept = [flat for flat, bad in zip(flats, refused) if not bad]
        if len(kept) == len(flats):
            return [None] * len(flats)
        rest = iter(_sweep(task, kept, options) if kept else ())
        return [None if bad else next(rest) for bad in refused]


def _validates(flat) -> bool:
    try:
        flat.validate()
    except ValueError:
        return False
    return True


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
        if isinstance(solution, Exception):
            raise solution
        solution.provenance["batch_index"] = index
    return solutions
