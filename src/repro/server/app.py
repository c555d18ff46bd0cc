"""The service application: router, handlers and HTTP/1.1 plumbing.

:class:`ServerApp` is the heart of ``repro.server``: it owns the shared
solver infrastructure (one warm :class:`~repro.core.WorkerPool`, one
thread-safe :class:`~repro.api.SolutionCache`, one
:class:`~repro.server.metrics.Metrics` registry) and dispatches the four
endpoints:

* ``POST /v1/solve`` — one problem, body mirroring a ``solve --stream``
  JSONL record (problem + task + options);
* ``POST /v1/solve_batch`` — a list of records, routed through
  :func:`~repro.api.solve_many`'s ``batch_small`` forest dispatch;
* ``GET /healthz`` — liveness + version + backends + registered tasks;
* ``GET /metrics`` — text exposition of counters/gauges/latency.

Both solve endpoints also accept ``Content-Type:
application/octet-stream`` bodies carrying the zero-copy binary wire
format (:mod:`repro.io.wire`): one buffer for ``/v1/solve``,
length-prefixed frames for ``/v1/solve_batch``, with ``task``/``options``
in the query string.

Robustness is structural, not bolted on:

* **Admission control** — at most ``queue_limit`` requests are admitted
  (queued + executing); a request past that is answered ``429`` with
  ``Retry-After`` immediately, so overload sheds load instead of growing
  an unbounded backlog.
* **The event loop never solves anything** — CPU-bound work is offloaded
  to the worker pool (process pool for ``jobs > 1``, a thread for the
  in-process degenerate case), bounded by an execution semaphore sized to
  the pool.
* **Per-request timeouts** — a solve that exceeds ``request_timeout``
  (including its time in the queue) is answered ``504``.
* **Graceful drain** — :meth:`begin_drain` refuses new work with ``503``
  while in-flight requests run to completion; :meth:`drain` waits for the
  last one.
* **Self-healing workers** — a solve whose worker process dies
  (``BrokenProcessPool``) or OOMs rebuilds the pool and re-runs, up to
  ``Settings.retries`` times with exponential backoff, before answering
  a structured 500; pool restart/retry counters surface in ``/healthz``
  and ``/metrics``.
* **Circuit breaker** — ``Settings.breaker_threshold`` consecutive solve
  failures open the breaker: ``/v1/*`` answers ``503`` + ``Retry-After``
  without touching the pool until a half-open probe succeeds.

The HTTP layer is a deliberately small stdlib-only HTTP/1.1 subset
(request line + headers + ``Content-Length`` bodies, keep-alive): the
package stays importable and deployable with zero new dependencies.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..api import SolutionCache, SolveOptions, solve, solve_many, task_names
from ..api.registry import TASKS
from ..api.solution import Solution
from ..api.solve import _from_cache
from ..core import faults as _faults
from ..core.batch import WorkerPool
from ..core.retry import CircuitBreaker, RetryPolicy
from .._version import __version__
from .logging_config import get_logger, new_request_id, request_id_var
from .metrics import Metrics
from .schemas import (
    SchemaError,
    SolveRequest,
    parse_batch_request,
    parse_solve_request,
    parse_wire_batch_request,
    parse_wire_solve_request,
)
from .settings import Settings

__all__ = ["ServerApp", "HTTPError", "Response"]

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 408: "Request Timeout",
            413: "Payload Too Large", 429: "Too Many Requests",
            500: "Internal Server Error", 501: "Not Implemented",
            503: "Service Unavailable", 504: "Gateway Timeout"}


class HTTPError(Exception):
    """An error response: status + message + optional field errors."""

    def __init__(self, status: int, message: str, *,
                 errors: Optional[List[Dict[str, str]]] = None,
                 headers: Optional[Dict[str, str]] = None) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.errors = errors
        self.headers = headers or {}


@dataclass
class Response:
    """One finished HTTP response (also the in-process test interface)."""

    status: int
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Any:
        """The body decoded as JSON (tests and clients)."""
        return json.loads(self.body.decode("utf8"))


def _run_solve(payload: Tuple) -> Solution:
    problem, task, options = payload
    return solve(problem, task, options=options).without_machine()


def _solve_payload(payload: Tuple) -> Solution:
    """Worker body for one solve (module level so it pickles).

    Consults the process's armed :class:`~repro.core.faults.FaultPlan`
    like the streaming engine's worker entrypoint does, so chaos tests
    can kill/delay the single-solve offload path too.
    """
    plan = _faults.active_plan()
    if plan is not None:
        return plan.apply(_run_solve, payload)
    return _run_solve(payload)


class ServerApp:
    """The application behind every endpoint (transport-independent).

    The HTTP plumbing lives in :meth:`handle_connection`; everything else
    — routing, validation, admission, offload, caching, metrics — goes
    through :meth:`dispatch`, which tests can call directly without a
    socket.
    """

    def __init__(self, settings: Settings, *,
                 pool: Optional[WorkerPool] = None,
                 cache: Optional[SolutionCache] = None) -> None:
        self.settings = settings
        self.log = get_logger()
        self.metrics = Metrics()
        self.pool = pool if pool is not None else WorkerPool(settings.jobs)
        if cache is not None:
            self.cache: Optional[SolutionCache] = cache
        else:
            self.cache = (SolutionCache(settings.cache_size)
                          if settings.cache_size > 0 else None)
        self._admitted = 0            # queued + executing
        self._in_flight = 0           # executing
        self._draining = False
        # crash-recovery policy for offloaded solves and batch streams
        self.retry_policy = RetryPolicy(
            max_retries=settings.retries,
            base_delay=settings.retry_backoff,
            max_delay=max(2.0, settings.retry_backoff))
        self.breaker: Optional[CircuitBreaker] = (
            CircuitBreaker(threshold=settings.breaker_threshold,
                           cooldown=settings.breaker_cooldown)
            if settings.breaker_threshold > 0 else None)
        self._exec_sem: Optional[asyncio.Semaphore] = None
        self._idle: Optional[asyncio.Event] = None
        self._connections: set = set()
        # a dedicated thread executor for in-process solves and batch
        # workers: sharing the loop's default executor with an embedding
        # application could starve either side
        self._threads = ThreadPoolExecutor(
            max_workers=max(2, self.pool.jobs),
            thread_name_prefix="repro-server")

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def admitted(self) -> int:
        return self._admitted

    def _ensure_async_state(self) -> None:
        """Create loop-bound primitives lazily, inside the running loop."""
        if self._exec_sem is None:
            self._exec_sem = asyncio.Semaphore(self.pool.jobs)
            self._idle = asyncio.Event()
            self._idle.set()

    def begin_drain(self) -> None:
        """Stop admitting work (new requests get 503); idempotent."""
        self._draining = True
        if self._idle is not None and self._admitted == 0:
            self._idle.set()

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until every admitted request finished.

        Returns ``True`` when the server drained, ``False`` on timeout
        (in-flight work is then abandoned to the process teardown).
        """
        self._ensure_async_state()
        if self._admitted == 0:
            return True
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    def close(self) -> None:
        """Release owned resources (pool + thread executor); idempotent."""
        if not self.pool.closed:
            self.pool.close()
        self._threads.shutdown(wait=False)

    # ------------------------------------------------------------------ #
    # admission + offload
    # ------------------------------------------------------------------ #

    def _admit(self) -> None:
        if self._draining:
            raise HTTPError(503, "server is draining; not accepting work")
        if self._admitted >= self.settings.queue_limit:
            raise HTTPError(
                429, f"admission queue full "
                     f"(queue_limit={self.settings.queue_limit})",
                headers={"Retry-After": "1"})
        self._admitted += 1
        self._idle.clear()
        self._update_gauges()

    def _release(self) -> None:
        self._admitted -= 1
        if self._admitted == 0:
            self._idle.set()
        self._update_gauges()

    def _update_gauges(self) -> None:
        self.metrics.set_gauges(
            in_flight=self._in_flight,
            queue_depth=max(0, self._admitted - self._in_flight))

    async def _offload(self, fn, *args, use_pool: bool) -> Any:
        """Run CPU-bound work off the event loop, bounded by the
        execution semaphore (never more than ``pool.jobs`` at once).

        ``use_pool=True`` sends a picklable module-level callable to the
        worker processes (a thread for the in-process degenerate case);
        ``use_pool=False`` runs on a thread regardless — the batch worker
        is a bound method that fans into the pool *itself*.

        Pool-bound work self-heals: a worker process dying mid-solve
        (``BrokenProcessPool``) or raising ``MemoryError`` rebuilds the
        executor and re-runs the call, up to ``Settings.retries`` times
        with backoff, before degrading to a structured 500.
        """
        async with self._exec_sem:
            self._in_flight += 1
            self._update_gauges()
            try:
                loop = asyncio.get_running_loop()
                if not use_pool or self.pool.serial:
                    return await loop.run_in_executor(
                        self._threads, fn, *args)
                attempt = 0
                while True:
                    executor = self.pool.executor
                    try:
                        return await loop.run_in_executor(
                            executor, fn, *args)
                    except (BrokenExecutor, MemoryError) as exc:
                        kind = "crash" if isinstance(exc, BrokenExecutor) \
                            else "memory"
                        if kind == "crash":
                            self.pool.rebuild(broken=executor)
                        attempt += 1
                        self.log.warning(
                            "worker failure", extra={
                                "event": "worker_failure", "kind": kind,
                                "attempt": attempt,
                                "pool_restarts": self.pool.restarts})
                        if attempt > self.settings.retries:
                            raise HTTPError(
                                500, f"worker {kind} persisted through "
                                     f"{attempt} attempt(s); pool rebuilt "
                                     f"(restarts={self.pool.restarts})"
                            ) from None
                        self.pool.note_retry()
                        await asyncio.sleep(
                            self.retry_policy.delay_for(attempt))
            finally:
                self._in_flight -= 1
                self._update_gauges()

    async def _admitted_call(self, fn, *args, use_pool: bool = True) -> Any:
        """Admission + semaphore + timeout around one offloaded call."""
        self._ensure_async_state()
        self._admit()
        try:
            return await asyncio.wait_for(
                self._offload(fn, *args, use_pool=use_pool),
                self.settings.request_timeout)
        except asyncio.TimeoutError:
            raise HTTPError(
                504, f"request exceeded "
                     f"request_timeout={self.settings.request_timeout}s"
            ) from None
        finally:
            self._release()

    # ------------------------------------------------------------------ #
    # handlers
    # ------------------------------------------------------------------ #

    def _healthz_body(self) -> Dict[str, Any]:
        # one entry per registered task: the per-task capability surface
        # (input kind, exactly-solved graph classes, weight support) comes
        # straight from the registry, so out-of-tree tasks report too
        tasks = {name: {"input_kind": TASKS[name].input_kind,
                        "graph_classes": list(TASKS[name].graph_classes),
                        "uses_weights": TASKS[name].uses_weights,
                        "summary": TASKS[name].summary}
                 for name in task_names()}
        from ..backends import BACKEND_NAMES
        return {
            "status": "draining" if self._draining else "ok",
            "version": __version__,
            "backends": {"available": list(BACKEND_NAMES)},
            "tasks": tasks,
            "jobs": self.pool.jobs,
            "queue": {"limit": self.settings.queue_limit,
                      "admitted": self._admitted,
                      "in_flight": self._in_flight},
            "pool": self.pool.health(),
            "breaker": (self.breaker.snapshot()
                        if self.breaker is not None else None),
            "cache": self.cache.stats() if self.cache is not None else None,
            "uptime_seconds": round(
                time.time() - self.metrics.started_at, 3),
        }

    async def _handle_solve(self, req: SolveRequest) -> Solution:
        worker_opts = req.options
        key = None
        if self.cache is not None:
            key = self.cache.key_for(req.problem, req.task, worker_opts)
            if key is not None:
                hit = self.cache.get(key)
                if hit is not None:
                    return _from_cache(hit, req.problem)
        solution = await self._admitted_call(
            _solve_payload, (req.problem, req.task, worker_opts))
        for name, value in req.problem.provenance().items():
            solution.provenance.setdefault(name, value)
        solution.provenance.setdefault(
            "route", "serial" if self.pool.serial else "pool")
        if key is not None:
            solution.provenance["cache"] = "miss"
            self.cache.put(key, solution)
        return solution

    def _batch_worker(self, requests: List[SolveRequest]) -> List[Dict]:
        """Solve one validated batch (runs on a worker thread).

        Records are grouped by (task, options) and each group goes through
        :func:`~repro.api.solve_many` with the server's shared cache and
        the ``batch_small`` forest routing, so tiny instances are swept
        vectorized and big ones fan out over the warm pool.  Results come
        back in request order.  Worker crashes heal under the server's
        retry policy; a record whose retries are exhausted comes back as
        a structured error solution (``backend="error"``) in its slot
        instead of failing the whole batch.
        """
        threshold = self.settings.batch_small or None
        groups: Dict[Tuple, List[int]] = {}
        for i, req in enumerate(requests):
            group_key = (req.task,
                         tuple(sorted(req.options.to_dict().items())))
            groups.setdefault(group_key, []).append(i)
        out: List[Optional[Dict]] = [None] * len(requests)
        for indices in groups.values():
            first = requests[indices[0]]
            options = first.options.with_(cache=self.cache,
                                          batch_small=threshold)
            pool = None if self.pool.serial else self.pool
            solutions = solve_many([requests[i].problem for i in indices],
                                   first.task, options=options, pool=pool,
                                   retry=self.retry_policy,
                                   on_error="emit")
            for i, solution in zip(indices, solutions):
                solution.provenance["batch_index"] = i
                out[i] = solution.to_json_dict()
        return out

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #

    async def dispatch(self, method: str, target: str,
                       body: bytes = b"",
                       headers: Optional[Dict[str, str]] = None) -> Response:
        """Route one request; always returns a :class:`Response`.

        This is the whole app without the socket: tests drive it
        in-process, :meth:`handle_connection` drives it from the wire.
        A ``Content-Type: application/octet-stream`` header switches the
        solve endpoints to the binary wire-format body.
        """
        path, _, query = target.partition("?")
        binary_body = (headers or {}).get(
            "content-type", "").startswith("application/octet-stream")
        started = time.perf_counter()
        task_label = {"/healthz": "healthz", "/metrics": "metrics",
                      "/v1/solve_batch": "solve_batch"}.get(path, "-")
        solving = path in ("/v1/solve", "/v1/solve_batch")
        breaker_open = False
        try:
            if solving and self.breaker is not None \
                    and not self.breaker.allow():
                breaker_open = True
                retry_after = max(1, math.ceil(self.breaker.retry_after()))
                self.metrics.record_breaker_rejection()
                raise HTTPError(
                    503, f"circuit breaker is open after repeated solve "
                         f"failures; retry in {retry_after}s",
                    headers={"Retry-After": str(retry_after)})
            if path == "/healthz":
                if method != "GET":
                    raise HTTPError(405, "use GET")
                response = _json_response(200, self._healthz_body())
            elif path == "/metrics":
                if method != "GET":
                    raise HTTPError(405, "use GET")
                stats = self.cache.stats() if self.cache is not None \
                    else None
                breaker_state = (self.breaker.snapshot()
                                 if self.breaker is not None else None)
                response = Response(
                    200, {"Content-Type":
                          "text/plain; version=0.0.4; charset=utf-8"},
                    self.metrics.render(
                        stats, pool_health=self.pool.health(),
                        breaker=breaker_state).encode("utf8"))
            elif path == "/v1/solve":
                if method != "POST":
                    raise HTTPError(405, "use POST")
                if self._draining:   # even cache hits refuse during drain
                    raise HTTPError(503, "server is draining; "
                                         "not accepting work")
                req = (parse_wire_solve_request(body, query) if binary_body
                       else parse_solve_request(_parse_json_body(body)))
                task_label = req.task
                solution = await self._handle_solve(req)
                solution.provenance.setdefault(
                    "request_id", request_id_var.get())
                response = _json_response(200, solution.to_json_dict())
            elif path == "/v1/solve_batch":
                if method != "POST":
                    raise HTTPError(405, "use POST")
                if binary_body:
                    requests = parse_wire_batch_request(
                        body, query, max_batch=self.settings.max_batch)
                else:
                    requests = parse_batch_request(
                        _parse_json_body(body),
                        max_batch=self.settings.max_batch)
                solutions = await self._admitted_call(
                    self._batch_worker, requests, use_pool=False)
                response = _json_response(
                    200, {"count": len(solutions), "solutions": solutions})
            else:
                raise HTTPError(404, f"no route for {path!r}")
        except SchemaError as exc:
            response = _error_response(HTTPError(
                400, "request failed validation", errors=exc.errors))
        except HTTPError as exc:
            response = _error_response(exc)
        except Exception as exc:
            self.log.exception("unhandled error", extra={"path": path})
            # never a bodyless 500: the client gets a structured JSON
            # error carrying the request id it can quote back at us
            response = _error_response(HTTPError(
                500, f"internal server error "
                     f"({type(exc).__name__}); see server logs"))
        duration = time.perf_counter() - started
        if solving and self.breaker is not None and not breaker_open:
            # drain/admission 503s and client errors are not solver
            # failures; 5xx outcomes of real solve attempts are
            if response.status >= 500 and response.status != 503:
                self.breaker.record_failure()
            elif 200 <= response.status < 300:
                self.breaker.record_success()
        if path.startswith("/v1/") or path in ("/healthz", "/metrics"):
            self.metrics.observe_request(task_label, response.status,
                                         duration)
        self.log.info(
            "request", extra={
                "event": "request", "method": method, "path": path,
                "status": response.status, "task": task_label,
                "duration_ms": round(duration * 1000, 3)})
        return response

    # ------------------------------------------------------------------ #
    # the wire
    # ------------------------------------------------------------------ #

    async def handle_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        """One client connection: parse, dispatch, respond, keep alive."""
        self._connections.add(writer)
        try:
            while True:
                try:
                    parsed = await _read_request(
                        reader, max_body=self.settings.max_body_bytes)
                except _ProtocolError as exc:
                    response = _error_response(
                        HTTPError(exc.status, exc.message))
                    _write_response(writer, response, close=True)
                    await writer.drain()
                    break
                if parsed is None:      # clean EOF between requests
                    break
                method, target, headers, body = parsed
                rid = new_request_id()
                token = request_id_var.set(rid)
                try:
                    response = await self.dispatch(method, target, body,
                                                   headers)
                finally:
                    request_id_var.reset(token)
                response.headers.setdefault("X-Request-Id", rid)
                close = (self._draining
                         or headers.get("connection", "").lower() == "close")
                _write_response(writer, response, close=close)
                await writer.drain()
                if close:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass                        # client went away mid-request
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError,
                    asyncio.CancelledError):  # pragma: no cover
                # loop teardown may cancel us mid-close; the transport is
                # closed either way, so ending quietly is correct here
                pass

    def close_connections(self) -> None:
        """Force-close lingering keep-alive connections (post-drain)."""
        for writer in list(self._connections):
            writer.close()
        self._connections.clear()


# --------------------------------------------------------------------------- #
# HTTP helpers
# --------------------------------------------------------------------------- #

class _ProtocolError(Exception):
    """A malformed request that gets one error response, then a close."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _parse_json_body(body: bytes) -> Any:
    if not body:
        raise HTTPError(400, "request body is required (a JSON document)")
    try:
        return json.loads(body.decode("utf8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise HTTPError(400, f"request body is not valid JSON: {exc}") \
            from None
    except RecursionError:
        raise HTTPError(400, "request body is not valid JSON: JSON nesting "
                             "too deep") from None


def _json_response(status: int, data: Any) -> Response:
    return Response(status, {"Content-Type": "application/json"},
                    (json.dumps(data) + "\n").encode("utf8"))


def _error_response(exc: HTTPError) -> Response:
    payload: Dict[str, Any] = {"error": {"status": exc.status,
                                         "message": exc.message,
                                         "request_id":
                                             request_id_var.get()}}
    if exc.errors:
        payload["error"]["details"] = exc.errors
    response = _json_response(exc.status, payload)
    response.headers.update(exc.headers)
    return response


async def _read_request(reader: asyncio.StreamReader, *, max_body: int,
                        ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Parse one HTTP/1.1 request; ``None`` on clean EOF."""
    try:
        line = await reader.readline()
    except (ValueError, asyncio.LimitOverrunError):
        raise _ProtocolError(400, "request line too long") from None
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
        raise _ProtocolError(400, "malformed request line")
    method, target, _version = parts
    headers: Dict[str, str] = {}
    while True:
        try:
            raw = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):
            raise _ProtocolError(400, "header line too long") from None
        if raw in (b"\r\n", b"\n"):
            break
        if not raw:
            raise _ProtocolError(400, "truncated headers")
        if len(headers) >= 100:
            raise _ProtocolError(400, "too many headers")
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise _ProtocolError(400, f"malformed header {name.strip()!r}")
        headers[name.strip().lower()] = value.strip()
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise _ProtocolError(501, "chunked bodies are not supported; "
                                  "send Content-Length")
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
        if length < 0:
            raise ValueError
    except ValueError:
        raise _ProtocolError(400, f"bad Content-Length {length_text!r}") \
            from None
    if length > max_body:
        raise _ProtocolError(413, f"body of {length} bytes exceeds "
                                  f"max_body_bytes={max_body}")
    body = await reader.readexactly(length) if length else b""
    return method.upper(), target, headers, body


def _write_response(writer: asyncio.StreamWriter, response: Response, *,
                    close: bool) -> None:
    reason = _REASONS.get(response.status, "Unknown")
    head = [f"HTTP/1.1 {response.status} {reason}"]
    headers = dict(response.headers)
    headers.setdefault("Content-Type", "application/json")
    headers["Content-Length"] = str(len(response.body))
    headers["Connection"] = "close" if close else "keep-alive"
    head.extend(f"{name}: {value}" for name, value in headers.items())
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                 + response.body)
