"""Layer tracing for the per-layer run, installed from the benchmark's side.

:func:`install` wraps the public entry point of every layer the workloads
cross, replacing the attribute where its callers look it up (the module
that imported it, or the class).  Each wrapper records a span; a span's
*self* time is its duration minus the spans that ran nested inside it on
the same thread, so the self times of all layers plus the untraced rest
add up to the wall time of a request.

The server solves in forked pool workers.  The wrappers are installed
before the pool forks, so the workers inherit them: a worker's outermost
``solve`` span ships the worker's layer self-times back inside
``Solution.provenance`` and the parent merges them when the future
completes.  The pool round trip minus the worker-side ``solve`` is the
offload overhead (pickling both ways plus queueing).

Untraced runs never import this module, so they patch nothing.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List

__all__ = ["Tracer", "install", "STAGES"]

#: the eight pipeline stages, reported from ``Solution.stage_seconds``.
STAGES = ("binarize", "leftist", "reduce", "brackets", "pseudo",
          "legalize", "compress", "extract")

_PROVENANCE_KEY = "perfbench_spans"


class Tracer:
    """Self-time accumulators per layer, with one span stack per thread."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.self_s: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------ #

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, seconds: float) -> None:
        with self._lock:
            self.self_s[name] += seconds

    def reset(self) -> None:
        with self._lock:
            self.self_s.clear()

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            return dict(self.self_s)

    def call(self, name: str, fn, args, kwargs, after=None):
        """Run ``fn`` as one span named ``name``.

        ``after(result, span)`` may report extra child time (the pipeline
        stages a call timed itself) by adding to ``span[0]``.
        """
        stack = self._stack()
        outermost_in_worker = not stack and os.getpid() != self.pid
        if outermost_in_worker:
            self.reset()            # drop what the fork copied
        span = [0.0]                # time covered by child spans
        stack.append(span)
        started = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
        if after is not None:
            after(result, span)
        self.add(name, elapsed - span[0])
        if outermost_in_worker and hasattr(result, "provenance"):
            result.provenance[_PROVENANCE_KEY] = {
                "wall": elapsed, "layers": self.snapshot()}
        return result

    def span(self, name: str, fn, *args, **kwargs):
        """Time one call made by the benchmark itself."""
        return self.call(name, fn, args, kwargs)

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #

    def _patch(self, owner, attr: str, name: str, after=None) -> None:
        original = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if original is None:
            return                  # the layer moved: report it as zero
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, after)

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._undo.append(lambda: setattr(owner, attr, original))

    def uninstall(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    def _stage_children(self, result, span) -> None:
        """Pipeline stage times measured inside the solver are child
        spans of ``minimum_path_cover_parallel``."""
        stages = getattr(result, "stage_seconds", None) or {}
        for stage in STAGES:
            if stage in stages:
                self.add(f"core.pipeline.{stage}", stages[stage])
                span[0] += stages[stage]

    def _trace_executor(self, pool_cls) -> None:
        """Time every pool round trip: submit until the result is back."""
        prop = pool_cls.__dict__.get("executor")
        if not isinstance(prop, property):
            return
        tracer = self

        def executor(pool):
            real = prop.fget(pool)
            if real is not None and "submit" not in real.__dict__:
                submit = real.submit

                def traced_submit(fn, *args, **kwargs):
                    started = time.perf_counter()
                    future = submit(fn, *args, **kwargs)
                    future.add_done_callback(
                        lambda f: tracer._returned(f, started))
                    return future
                real.submit = traced_submit
            return real

        pool_cls.executor = property(executor)
        self._undo.append(lambda: setattr(pool_cls, "executor", prop))

    def _returned(self, future, started: float) -> None:
        round_trip = time.perf_counter() - started
        if future.cancelled() or future.exception() is not None:
            return
        worker = None
        result = future.result()
        provenance = getattr(result, "provenance", None)
        if isinstance(provenance, dict):
            worker = provenance.pop(_PROVENANCE_KEY, None)
        if worker is None:
            self.add("core.batch.offload_overhead", round_trip)
            return
        for name, seconds in worker["layers"].items():
            self.add(name, seconds)
        self.add("core.batch.offload_overhead", round_trip - worker["wall"])


class _JsonProxy:
    """Stands in for the ``json`` module inside the server app, timing
    the request-body decode and the response encode."""

    def __init__(self, tracer: Tracer, real) -> None:
        self._tracer, self._real = tracer, real

    def loads(self, *args, **kwargs):
        return self._tracer.call("json.decode", self._real.loads, args,
                                 kwargs)

    def dumps(self, *args, **kwargs):
        return self._tracer.call("json.encode", self._real.dumps, args,
                                 kwargs)

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def install() -> Tracer:
    """Wrap every layer's entry point; call before the pool forks."""
    import repro.api
    import repro.api.forest
    import repro.api.tasks
    import repro.server.app
    import repro.server.schemas
    from repro.api.adapters import Problem
    from repro.api.cache import SolutionCache
    from repro.api.solution import Solution
    from repro.core.batch import WorkerPool
    from repro.core.dp import CotreeDPRun

    tracer = Tracer()
    solve_module = sys.modules["repro.api.solve"]
    app, schemas = repro.server.app, repro.server.schemas
    forest, tasks = repro.api.forest, repro.api.tasks

    for name in ("parse_solve_request", "parse_batch_request",
                 "parse_wire_solve_request", "parse_wire_batch_request"):
        tracer._patch(app, name, "server.schemas.parse")
    for module in (schemas, solve_module, forest):
        tracer._patch(module, "as_problem", "api.adapters.as_problem")
    tracer._patch(Problem, "cotree", "api.adapters.cotree")
    tracer._patch(SolutionCache, "key_for", "api.cache.lookup")
    tracer._patch(SolutionCache, "get", "api.cache.lookup")
    tracer._patch(SolutionCache, "put", "api.cache.put")
    for module in (repro.api, solve_module, app, forest):
        tracer._patch(module, "solve", "api.solve.solve")
    tracer._patch(app, "solve_many", "api.solve.solve_many")
    tracer._patch(forest, "_solve_forest_problems", "api.forest.sweep")
    for module in (tasks, forest):
        tracer._patch(module, "run_cotree_dp", "core.dp.sweep")
    tracer._patch(CotreeDPRun, "witness", "core.dp.witness")
    tracer._patch(tasks, "minimum_path_cover_parallel",
                  "core.solver.path_cover", after=tracer._stage_children)
    tracer._patch(tasks, "minimum_path_cover_size",
                  "cograph.path_cover.analytic")
    tracer._patch(Solution, "to_json_dict", "api.solution.serialize")
    tracer._trace_executor(WorkerPool)
    real_json = app.json
    app.json = _JsonProxy(tracer, real_json)
    tracer._undo.append(lambda: setattr(app, "json", real_json))
    return tracer
