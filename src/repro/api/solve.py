"""``solve()``, ``solve_many()`` and ``solve_stream()`` — the front door.

Every question the library answers goes through here: the input is adapted
by :func:`~repro.api.adapters.as_problem`, the configuration is one
validated :class:`~repro.api.SolveOptions`, the task is looked up in the
registry, and the result is always a :class:`~repro.api.Solution`.

Three shapes of traffic:

* :func:`solve` — one instance, in-process;
* :func:`solve_many` — an eager batch (a list in, a list out);
* :func:`solve_stream` — an *iterable* in, a generator out: instances are
  adapted lazily, at most ``window`` are in flight (backpressure), and
  solutions stream back in input order.  A million-instance stream never
  holds a million problems resident.

All three honour ``SolveOptions(cache=...)`` (identical instances answered
from an LRU cache) and the batch/stream pair accept a persistent
:class:`~repro.core.WorkerPool` so sustained traffic reuses warm workers
instead of forking a pool per call.

>>> from repro.api import solve
>>> solve("(0 * (1 + 2))").num_paths
1
>>> solve([(0, 1), (1, 2), (0, 2)], task="hamiltonian_cycle").ok
True
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from ..cograph import CotreeError
from ..core.batch import Resolved, WorkerPool, resolve_jobs, stream_out
from ..core.retry import ErrorOutcome, RetryPolicy, WorkerCrashError
from .adapters import Problem, as_problem
from .options import SolveOptions
from .registry import get_task
from .solution import Solution

__all__ = ["solve", "solve_many", "solve_stream"]


def _resolve_options(options: Optional[SolveOptions],
                     option_fields: dict) -> SolveOptions:
    if options is not None:
        if option_fields:
            raise ValueError(
                f"pass either options=SolveOptions(...) or option keyword "
                f"arguments ({sorted(option_fields)}), not both")
        if not isinstance(options, SolveOptions):
            raise TypeError(f"options must be a SolveOptions, "
                            f"got {type(options).__name__}")
        return options
    return SolveOptions(**option_fields)


def _reject_unused_weights(spec, options: SolveOptions) -> None:
    """Weights passed to a task that ignores them are an error, never a
    silent no-op (same contract as every other option)."""
    if options.weights is not None and not spec.uses_weights:
        from .registry import TASKS
        weighted = sorted(n for n, s in TASKS.items() if s.uses_weights)
        raise ValueError(
            f"task {spec.name!r} takes no vertex weights; "
            f"SolveOptions(weights=...) only applies to the weighted "
            f"tasks {weighted}")


def _reject_pipeline_options(task: str, options: SolveOptions) -> None:
    """Tasks that never run the solver pipeline reject non-default options
    instead of silently ignoring them.  (The ``cache`` is excluded from
    ``to_dict`` and is handled by the front door itself, so it is welcome
    on every task.)"""
    defaults = SolveOptions().to_dict()
    offending = [f"{name}={value!r}"
                 for name, value in options.to_dict().items()
                 if value != defaults[name]]
    if offending:
        raise ValueError(
            f"task {task!r} does not run the solver pipeline; option(s) "
            f"{', '.join(offending)} would have no effect — drop them")


#: provenance keys that describe one *call*, not the instance — never
#: inherited from the stored entry by a cache hit.
_CALL_PROVENANCE = ("batch_index", "source", "source_format", "cache",
                    "route")

#: the call provenance that describes the input; a verbatim repeat of the
#: stored call arrived the same way, so its hit keeps these.
_INPUT_PROVENANCE = ("source", "source_format")

#: instances buffered per forest sweep by the ``batch_small`` stream
#: routing — large enough to amortise the packed pass, small enough to
#: keep the stream flowing.
_FOREST_FLUSH = 1024


def _from_cache(hit: Solution, prob: Optional[Problem] = None) -> Solution:
    """A copy of a cached solution, re-attributed to *this* call's input;
    ``prob=None`` marks a verbatim repeat of the stored call, which keeps
    the stored input provenance."""
    provenance = {k: v for k, v in hit.provenance.items()
                  if k not in _CALL_PROVENANCE
                  or (prob is None and k in _INPUT_PROVENANCE)}
    if prob is not None:
        provenance.update(prob.provenance())
    provenance["cache"] = "hit"
    return replace(hit, provenance=provenance)


def solve(problem: Any, task: str = "path_cover", *,
          options: Optional[SolveOptions] = None,
          **option_fields: Any) -> Solution:
    """Solve one instance.

    Parameters
    ----------
    problem:
        anything :func:`~repro.api.as_problem` accepts: a cotree, a graph,
        an edge list, an adjacency dict, cotree text, a JSON file path, or
        a 0/1 bit vector (for ``task="lower_bound"``).
    task:
        a registered task name — see :func:`~repro.api.task_names`.
    options:
        a :class:`~repro.api.SolveOptions`; alternatively pass its fields
        directly as keyword arguments (``solve(tree, backend="fast")``).
        With ``cache=SolutionCache(...)`` set, a previously-solved
        identical instance is answered from the cache
        (``provenance["cache"]`` reports ``"hit"``/``"miss"``).

    Returns
    -------
    Solution
    """
    opts = _resolve_options(options, option_fields)
    spec = get_task(task)
    _reject_unused_weights(spec, opts)
    prob = as_problem(problem, task=task)
    if not spec.runs_pipeline:
        _reject_pipeline_options(task, opts)
    cache = opts.cache
    try:
        key = cache.key_for(prob, task, opts) if cache is not None else None
        if key is not None:
            hit = cache.get(key)
            if hit is not None:
                return _from_cache(hit, prob)
        solution = spec.fn(prob, opts)
    except CotreeError as exc:      # a refused tree: say which task
        raise CotreeError(f"{task}: {exc}") from None
    for name, value in prob.provenance().items():
        solution.provenance.setdefault(name, value)
    if key is not None:
        solution.provenance["cache"] = "miss"
        cache.put(key, solution)
    return solution


def _solve_one_payload(payload):
    """Worker body (module level so it pickles under multiprocessing).

    A refused instance answers the ``ValueError`` that refused it, in its
    slot: a client's mistake is not a worker failure to heal.
    """
    index, problem, task, options = payload
    try:
        solution = solve(problem, task, options=options).without_machine()
    except ValueError as exc:
        return exc
    solution.provenance["batch_index"] = index
    return solution


def _error_solution(task: str, options: SolveOptions,
                    outcome: ErrorOutcome, index: int,
                    route: str) -> Solution:
    """The degraded :class:`Solution` one failed stream item yields.

    ``answer`` is ``None`` and ``backend`` is ``"error"``; the structured
    failure (kind, message, attempt count) and the ``route`` the item ran
    on travel in ``provenance`` so JSONL consumers can tell a failed item
    from a real answer without a side channel.  Never cached.
    """
    return Solution(
        task=task, answer=None, backend="error", options=options,
        provenance={"batch_index": index, "route": route,
                    **outcome.to_dict()})


def solve_stream(problems: Iterable[Any], task: str = "path_cover", *,
                 options: Optional[SolveOptions] = None,
                 jobs: Optional[int] = None,
                 window: Optional[int] = None,
                 chunksize: int = 1,
                 pool: Optional[WorkerPool] = None,
                 retry: Optional[RetryPolicy] = None,
                 on_error: str = "fail",
                 **option_fields: Any) -> Iterator[Solution]:
    """Stream solutions for a lazily-consumed iterable of instances.

    The streaming front door: ``problems`` may be any iterable — a
    generator reading requests off a socket, a JSONL file, ten million
    synthetic instances — and is *never* materialised.  At most ``window``
    instances are in flight at a time (drawn from the iterable but not yet
    yielded back), and solutions come back **in input order** as they
    complete, each stamped with ``provenance["batch_index"]``.

    Parameters
    ----------
    problems:
        an iterable of anything :func:`~repro.api.as_problem` accepts.
    task:
        a registered task name.
    options / option_fields:
        as for :func:`solve`.  With a ``cache`` set, hits are answered in
        the calling process and never reach a worker; misses are inserted
        as they complete.  With ``batch_small=N`` set, instances of at
        most ``N`` vertices are diverted from the worker pool into
        single-core vectorized forest sweeps
        (:func:`~repro.api.solve_forest`) of up to 1024 instances each —
        far cheaper than a worker round-trip for tiny instances
        (``provenance["route"]`` reports which way each instance went).
    jobs:
        worker processes (``None``/``1`` in-process and fully lazy, ``0``
        one per CPU).  Ignored when ``pool`` is given.
    window:
        backpressure bound (default ``4 * jobs * chunksize``).
    chunksize:
        instances handed to a worker per task (amortises pickling for
        small instances).
    pool:
        a persistent :class:`~repro.core.WorkerPool`; workers stay warm
        for the next call instead of forking per stream.
    retry:
        the :class:`~repro.core.RetryPolicy` for worker-crash recovery
        (``None`` — the default — heals with ``RetryPolicy()``;
        ``RetryPolicy(max_retries=0)`` quarantines a crashed item at once).
        A SIGKILLed worker mid-stream loses zero results: lost in-flight
        items are re-run on a rebuilt pool and still yield in order.
    on_error:
        what a *refused* item (a ``ValueError`` or ``TypeError`` adapting
        it, a ``ValueError`` solving it) or a *quarantined* one (retries
        exhausted, deadline expired, or corrupted worker result) yields:
        ``"fail"`` (default) raises its own exception, or
        :class:`~repro.core.WorkerCrashError`, after the in-order prefix;
        ``"emit"`` degrades to a structured error :class:`Solution`
        (``backend="error"``, ``answer=None``, ``error_kind`` and the
        ``route`` in ``provenance``) in the item's ordered slot, and the
        stream keeps flowing.  Refusals are never retried or cached.

    Yields
    ------
    Solution
        in input order.  Like :func:`solve_many`, streamed solutions never
        carry a live PRAM ``machine``.
    """
    if on_error not in ("fail", "emit"):
        raise ValueError(
            f"on_error must be 'fail' or 'emit', got {on_error!r}")
    opts = _resolve_options(options, option_fields)
    spec = get_task(task)  # fail fast on unknown tasks, before adapting
    _reject_unused_weights(spec, opts)
    cache = opts.cache
    threshold = opts.batch_small
    worker_opts = opts.with_(cache=None, batch_small=None) \
        if (cache is not None or threshold is not None) else opts
    if not spec.runs_pipeline:
        _reject_pipeline_options(task, worker_opts)
    keys: Dict[int, Tuple] = {}

    forest_ok = False
    if threshold is not None:
        # imported here: repro.api.forest itself imports solve() from this
        # module for its serial fallback
        from .forest import _forest_supported, _solve_forest_problems
        forest_ok = _forest_supported(task, opts)

    def refusal(index: int, exc: Exception, route: str) -> Solution:
        """A refused item's error record; under ``"fail"``, its raise."""
        if on_error != "emit":
            raise exc
        return _error_solution(task, worker_opts,
                               ErrorOutcome(str(exc), kind="refused"),
                               index, route)

    def flush_forest(buffered):
        """Sweep the buffered small instances; Resolved, in buffer order."""
        solutions = _solve_forest_problems([p for _, p in buffered],
                                           task, opts)
        for (index, _), solution in zip(buffered, solutions):
            if isinstance(solution, Exception):
                yield Resolved(refusal(index, solution, "serial"))
                continue
            solution.provenance["batch_index"] = index
            yield Resolved(solution.without_machine())

    def payloads():
        buffer = []
        for index, raw in enumerate(problems):
            try:
                prob = as_problem(raw, task=task)
                small = forest_ok and prob.num_vertices <= threshold
                key = cache.key_for(prob, task, worker_opts) \
                    if cache is not None and not small else None
            except (ValueError, TypeError) as exc:
                prob, small = exc, False
            if small:
                buffer.append((index, prob))
                if len(buffer) >= _FOREST_FLUSH:
                    yield from flush_forest(buffer)
                    buffer = []
                continue
            # solutions come back in payload order, so the pending small
            # instances must be swept before any later payload goes out
            if buffer:
                yield from flush_forest(buffer)
                buffer = []
            if isinstance(prob, Exception):
                yield Resolved(refusal(index, prob, "serial"))
                continue
            if key is not None:
                hit = cache.get(key)
                if hit is not None:
                    hit = _from_cache(hit, prob)
                    hit.provenance["batch_index"] = index
                    yield Resolved(hit.without_machine())
                    continue
                keys[index] = key
            yield (index, prob, task, worker_opts)
        if buffer:
            yield from flush_forest(buffer)

    pool_route = "pool" if (pool.jobs if pool is not None
                            else resolve_jobs(jobs)) > 1 else "serial"

    def results():
        # yields arrive strictly in input order (cache hits and forest
        # sweeps included), so the running position *is* the batch index —
        # which is how degraded items with no usable result stay
        # attributable to their input line
        for position, item in enumerate(stream_out(
                _solve_one_payload, payloads(), jobs=jobs, window=window,
                chunksize=chunksize, pool=pool, retry=retry)):
            if not isinstance(item, Solution):
                keys.pop(position, None)  # never cache a failure
                if isinstance(item, Exception):
                    yield refusal(position, item, pool_route)
                    continue
                if not isinstance(item, ErrorOutcome):
                    # a fault-corrupted (or otherwise mangled) worker
                    # result: never trust it, never retry it
                    item = ErrorOutcome(
                        error=f"worker returned {type(item).__name__} "
                              f"instead of a Solution", kind="corrupt")
                if on_error != "emit":
                    raise WorkerCrashError(item)
                yield _error_solution(task, worker_opts, item, position,
                                      pool_route)
                continue
            solution = item
            if cache is not None:
                key = keys.pop(solution.provenance["batch_index"], None)
                if key is not None:
                    solution.provenance["cache"] = "miss"
                    cache.put(key, solution)
            if "route" not in solution.provenance and \
                    solution.provenance.get("cache") != "hit":
                solution.provenance["route"] = pool_route
            yield solution

    return results()


def solve_many(problems: Iterable[Any], task: str = "path_cover", *,
               options: Optional[SolveOptions] = None,
               jobs: Optional[int] = None,
               chunksize: Optional[int] = None,
               pool: Optional[WorkerPool] = None,
               retry: Optional[RetryPolicy] = None,
               on_error: str = "fail",
               **option_fields: Any) -> List[Solution]:
    """Solve a batch of instances, optionally across worker processes.

    The eager wrapper over :func:`solve_stream` (one fan-out code path):
    the batch is materialised, the window is the whole batch, and one
    :class:`~repro.api.Solution` per input comes back in input order, each
    stamped with ``provenance["batch_index"]``.  ``jobs=None``/``1`` runs
    in-process, ``0`` means one worker per CPU; pass a persistent
    :class:`~repro.core.WorkerPool` to reuse warm workers across calls.
    Live PRAM machines never cross process boundaries; batch solutions
    always have ``machine=None``.  ``retry`` / ``on_error`` behave as in
    :func:`solve_stream` (worker crashes heal by default; refused and
    quarantined items raise unless ``on_error="emit"``).
    """
    problems = list(problems)
    n_jobs = pool.jobs if pool is not None else resolve_jobs(jobs)
    if pool is None:
        # never fork more workers than there are instances
        jobs = min(n_jobs, len(problems)) if problems else None
    if chunksize is None:
        chunksize = max(1, len(problems) // (max(1, n_jobs) * 4))
    return list(solve_stream(problems, task, options=options, jobs=jobs,
                             window=max(1, len(problems)),
                             chunksize=chunksize, pool=pool,
                             retry=retry, on_error=on_error,
                             **option_fields))
