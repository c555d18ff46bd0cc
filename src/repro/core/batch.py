"""Streaming fan-out: one engine behind every multi-instance call.

The PRAM simulator answers "what does this cost on the paper's machine?";
the fast backend answers "what is the cover?" as quickly as NumPy allows.
This module adds the third axis — throughput across *instances*.

:func:`stream_out` is the streaming engine.  It consumes an *iterable* of
payloads lazily, keeps at most ``window`` payloads in flight
(backpressure: a million-instance stream never materialises a
million-payload list), and yields results in input order as they
complete.  Work is fanned out over processes (CPython's GIL rules out
thread-level parallelism for this workload, so the fan-out uses
``multiprocessing`` via :class:`concurrent.futures`).

Sustained many-call traffic should hand it a :class:`WorkerPool`:
a persistent, reusable ``ProcessPoolExecutor`` whose workers stay warm
across calls, instead of paying pool startup on every batch.

The engine is **self-healing**: a worker process dying (OOM kill,
segfault, SIGKILL) no longer tears the stream down.  The broken executor
is rebuilt, lost in-flight chunks are resubmitted under a
:class:`~repro.core.retry.RetryPolicy` (capped exponential backoff with
jitter), and items that repeatedly kill workers are quarantined as
structured :class:`~repro.core.retry.ErrorOutcome` records *in their
ordered slot*.  ``RetryPolicy(max_retries=0)`` quarantines a crashed item
at once instead of retrying it.

Results come back in input order as lightweight picklable records — no
machines or reports cross process boundaries.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from typing import Dict, Iterable, Iterator, List, Optional

from . import faults as _faults
from .retry import ErrorOutcome, RetryPolicy, WorkerCrashError

__all__ = ["ErrorOutcome", "Resolved", "RetryPolicy", "WorkerCrashError",
           "WorkerPool", "stream_out", "resolve_jobs"]

#: Executor-breakage family: ``BrokenProcessPool`` (a worker died) is a
#: subclass of :class:`concurrent.futures.BrokenExecutor`.
_BROKEN = BrokenExecutor

_CRASH_MSG = "worker process died unexpectedly (BrokenProcessPool)"

#: Failure kinds the settle step retries.  ``deadline`` is deliberately
#: absent: an item past its deadline has no time left by definition.
_RETRYABLE = ("crash", "memory")


def _reset_worker_signals() -> None:
    """Executor initializer: detach forked workers from parent signal plumbing.

    Under the ``fork`` start method a worker inherits the parent's
    Python-level signal handlers *and* its ``signal.set_wakeup_fd`` self-pipe
    (asyncio installs one).  That combination is poisonous for healing: when
    a worker is SIGKILLed, ``ProcessPoolExecutor``'s broken-pool cleanup
    SIGTERMs the surviving siblings, whose inherited handler merely writes
    the signal number into the *parent's* wakeup pipe — so the parent's
    event loop sees a SIGTERM it was never sent and shuts the server down,
    while the sibling ignores the signal and lingers, still holding
    inherited fds (including the listening socket).  Restoring default
    dispositions here keeps signals aimed at a worker inside that worker.
    """
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # non-main thread or platform quirk
        pass
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(sig, signal.SIG_DFL)
        except (ValueError, OSError):
            pass


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``jobs`` knob to a worker count.

    ``None``/``1`` mean in-process (1), ``0`` means one worker per CPU,
    anything else is taken literally (and must be positive).
    """
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0 (0 = one per CPU), got {jobs}")
    return jobs


class WorkerPool:
    """A persistent, self-healing process pool, reused across fan-out calls.

    Every per-call ``ProcessPoolExecutor`` pays interpreter startup and
    module imports in each worker; sustained traffic amortises that once by
    creating one :class:`WorkerPool` and passing it to
    :func:`repro.api.solve_many` or :func:`repro.api.solve_stream`::

        with WorkerPool(jobs=4) as pool:
            for batch in request_batches:
                results = solve_many(batch, pool=pool)

    ``jobs=0`` (the default) means one worker per CPU; ``jobs=1`` degrades
    to in-process execution (no processes are ever spawned), which makes
    the pool a no-op you can still pass around uniformly.

    The underlying executor is created lazily on first use and its workers
    survive until :meth:`close` (or the ``with`` block) — that is the whole
    point.  When a worker dies the executor is *broken* beyond repair
    (``concurrent.futures`` semantics); :meth:`rebuild` swaps in a fresh
    one and bumps :attr:`restarts`, so the pool object itself stays valid
    across crashes.  Pools are *not* picklable and must not be shared
    between processes; share them between calls instead.
    """

    def __init__(self, jobs: Optional[int] = 0) -> None:
        self.jobs = resolve_jobs(jobs)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._closed = False
        self._lock = threading.RLock()
        #: executor rebuilds after worker crashes (lifetime total).
        self.restarts = 0
        #: item re-executions after a crash or retryable in-worker failure.
        self.retries = 0
        #: items degraded to :class:`ErrorOutcome` after exhausting retries.
        self.quarantined = 0

    # ------------------------------------------------------------------ #

    @property
    def serial(self) -> bool:
        """True when the pool runs everything in-process (``jobs <= 1``)."""
        return self.jobs <= 1

    @property
    def executor(self) -> Optional[ProcessPoolExecutor]:
        """The lazily-created executor (``None`` for a serial pool)."""
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        if self.serial:
            return None
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    initializer=_reset_worker_signals)
            return self._executor

    def rebuild(self, broken: Optional[ProcessPoolExecutor] = None
                ) -> Optional[ProcessPoolExecutor]:
        """Replace a crashed executor with a fresh one and count the heal.

        Pass the executor you observed breaking as ``broken`` to make the
        call idempotent under concurrency: if another thread already
        healed the pool (the current executor is not ``broken``), nothing
        is replaced.  Returns the executor now in service (``None`` for a
        serial pool).
        """
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        if self.serial:
            return None
        with self._lock:
            current = self._executor
            if broken is not None and current is not None \
                    and current is not broken:
                return current
            if current is not None:
                # the workers are already dead; don't wait on them
                current.shutdown(wait=False)
            self.restarts += 1
            if os.environ.get(_faults.FAULTS_ENV):
                # ``once`` fault plans only arm worker generation 0: stamp
                # the generation so freshly forked workers know theirs
                os.environ[_faults.GENERATION_ENV] = str(self.restarts)
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_reset_worker_signals)
            return self._executor

    def note_retry(self, n: int = 1) -> None:
        """Count ``n`` item re-executions (crash resubmit or in-worker)."""
        with self._lock:
            self.retries += n

    def note_quarantine(self, n: int = 1) -> None:
        """Count ``n`` items degraded to structured errors."""
        with self._lock:
            self.quarantined += n

    def health(self) -> Dict[str, int]:
        """Resilience counters for ``/healthz``, ``/metrics`` and logs."""
        with self._lock:
            return {"jobs": self.jobs, "restarts": self.restarts,
                    "retries": self.retries,
                    "quarantined": self.quarantined}

    def warm_up(self) -> "WorkerPool":
        """Spin the worker processes up *now* instead of on first submit.

        Useful right before latency-sensitive traffic; returns ``self`` so
        it chains (``pool = WorkerPool(4).warm_up()``).
        """
        executor = self.executor
        if executor is not None:
            futures = [executor.submit(_noop) for _ in range(self.jobs)]
            for f in futures:
                f.result()
        return self

    def close(self) -> None:
        """Shut the workers down.  Idempotent; the pool is unusable after."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._closed = True

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else \
            ("warm" if self._executor is not None else "cold")
        return f"WorkerPool(jobs={self.jobs}, {state})"


class Resolved:
    """A payload whose result is already known.

    :func:`stream_out` yields ``Resolved.value`` in order without invoking
    the worker (or crossing a process boundary).  This is how cache hits
    interleave with in-flight misses in :func:`repro.api.solve_stream`
    while keeping one fan-out code path.
    """

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value


def _noop() -> None:
    """Worker warm-up body (module level so it pickles)."""


class _ItemFailure:
    """In-worker marker for one payload's retryable/degradable failure.

    Crosses the process boundary in the chunk's result slot so the parent
    can retry or quarantine *that item* without losing its neighbours.
    """

    __slots__ = ("kind", "error")

    def __init__(self, kind: str, error: str) -> None:
        self.kind = kind
        self.error = error

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"_ItemFailure({self.kind!r}, {self.error!r})"


def _apply_chunk(worker, chunk: List) -> List:
    """Run ``worker`` over one chunk of payloads (module level: pickles).

    Consults the process's armed :class:`~repro.core.faults.FaultPlan`
    (chaos testing) and degrades per-item ``MemoryError`` — the one
    in-worker failure the healing loop treats as retryable — to an
    :class:`_ItemFailure` marker instead of failing the whole chunk.
    Every other worker exception still propagates unchanged.
    """
    plan = _faults.active_plan()
    out: List = []
    for p in chunk:
        try:
            out.append(worker(p) if plan is None else plan.apply(worker, p))
        except MemoryError as exc:
            out.append(_ItemFailure("memory", f"MemoryError: {exc}"))
    return out


class _Done:
    """A completed pseudo-future wrapping already-available results."""

    __slots__ = ("_results",)

    def __init__(self, results: List) -> None:
        self._results = results

    def result(self, timeout: Optional[float] = None) -> List:
        return self._results


class _Entry:
    """One in-flight chunk: its future plus what is needed to re-run it."""

    __slots__ = ("future", "payloads", "attempts", "started")

    def __init__(self, future, payloads: List, attempts: List[int],
                 started: float) -> None:
        self.future = future
        self.payloads = payloads
        self.attempts = attempts     # per-item retry count, parallel list
        self.started = started       # first submission (deadline anchor)


def stream_out(worker, payloads: Iterable, *, jobs: Optional[int] = None,
               window: Optional[int] = None, chunksize: int = 1,
               pool: Optional[WorkerPool] = None,
               retry: Optional[RetryPolicy] = None) -> Iterator:
    """Stream ``worker`` over ``payloads`` lazily, in input order.

    The streaming engine behind :func:`repro.api.solve_many` and
    :func:`repro.api.solve_stream`.

    Parameters
    ----------
    worker:
        a module-level callable (it crosses process boundaries).  Payloads
        wrapped in :class:`Resolved` bypass it entirely.
    payloads:
        any iterable — consumed lazily, never materialised in full.
    jobs:
        worker processes (``None``/``1`` in-process, ``0`` one per CPU).
        Ignored when ``pool`` is given.
    window:
        backpressure bound: at most this many payloads are drawn from the
        iterable but not yet yielded back (default ``4 * jobs * chunksize``,
        at least one chunk).  In-process runs are fully lazy (window 1).
    chunksize:
        payloads handed to a worker process per task (amortises pickling
        for small instances; default 1).
    pool:
        a persistent :class:`WorkerPool` to run on (workers stay warm for
        the next call); otherwise an ephemeral pool is created and torn
        down with the stream.
    retry:
        the :class:`RetryPolicy` governing worker-crash recovery, item
        retries, and deadlines.  ``None`` (default) heals with
        ``RetryPolicy()``; ``RetryPolicy(max_retries=0)`` still heals the
        pool but quarantines a crashed item at once.

    Yields
    ------
    results in payload order, as they complete.  Items whose retries are
    exhausted (or whose deadline expired) yield a structured
    :class:`ErrorOutcome` in their slot instead of a result.
    """
    if pool is not None:
        n_jobs = pool.jobs
    else:
        n_jobs = resolve_jobs(jobs)

    if n_jobs <= 1:
        # in-process: fully lazy, one payload in flight at a time.  No
        # processes → no crashes to heal; faults target workers only.
        for p in payloads:
            yield p.value if isinstance(p, Resolved) else worker(p)
        return

    policy = retry if retry is not None else RetryPolicy()
    chunksize = max(1, int(chunksize))
    if window is None:
        window = 4 * n_jobs * chunksize
    window = max(int(window), chunksize)

    owned = pool is None
    if owned:
        pool = WorkerPool(n_jobs)
    try:
        yield from _pump(worker, iter(payloads), pool, window=window,
                         chunksize=chunksize, policy=policy)
    finally:
        if owned:
            pool.close()


def _submit(pool: WorkerPool, worker, payloads: List, attempts: List[int],
            started: Optional[float] = None) -> _Entry:
    """Submit one chunk, healing the pool if the executor is already dead."""
    for _ in range(3):
        executor = pool.executor
        try:
            future = executor.submit(_apply_chunk, worker, list(payloads))
        except _BROKEN:
            pool.rebuild(broken=executor)
            continue
        return _Entry(future, list(payloads), list(attempts),
                      started if started is not None else time.monotonic())
    raise RuntimeError(
        "worker pool kept breaking during submission (3 rebuilds)")


def _wait(entry: _Entry, policy: RetryPolicy) -> List:
    """Block for one entry's chunk results, enforcing the item deadline.

    A chunk past the deadline degrades to per-item ``deadline`` failures
    (its eventual worker result, if any, is discarded).  Worker crashes
    propagate as ``BrokenExecutor`` for the caller to heal.
    """
    remaining = policy.remaining(entry.started)
    if remaining is None:
        return entry.future.result()
    try:
        return entry.future.result(timeout=remaining)
    except _FuturesTimeout:
        entry.future.cancel()  # a still-queued chunk simply never runs
        return [_ItemFailure(
            "deadline", f"item exceeded deadline={policy.deadline}s")
            for _ in entry.payloads]


def _heal(pool: WorkerPool, pending: deque, worker,
          policy: RetryPolicy, crashes: int) -> None:
    """Rebuild a broken pool and reconstruct the in-flight window.

    Chunks that completed before the crash keep their results.  Lost
    chunks that were plausibly *running* when the worker died — the first
    ``pool.jobs`` of them, since at most that many run at once — are the
    suspects: their items are marked as crash failures so :func:`_settle`
    re-runs them one at a time with unambiguous blame.  Lost chunks that
    were still queued never executed, so they are resubmitted as-is
    (resubmission is not a retry: attempts are untouched).
    """
    pool.rebuild()
    policy.sleep(crashes)  # consecutive crashes back off exponentially
    suspects = pool.jobs
    replaced: deque = deque()
    for entry in pending:
        future = entry.future
        if isinstance(future, _Done):
            replaced.append(entry)
            continue
        if future.done():
            exc = future.exception()
            if exc is None or not isinstance(exc, _BROKEN):
                # a real result (or a real in-worker error) — deliver it
                replaced.append(entry)
                continue
        if suspects > 0:
            suspects -= 1
            marked = [_ItemFailure("crash", _CRASH_MSG)
                      for _ in entry.payloads]
            replaced.append(_Entry(_Done(marked), entry.payloads,
                                   entry.attempts, entry.started))
        else:
            replaced.append(_submit(pool, worker, entry.payloads,
                                    entry.attempts, started=entry.started))
    pending.clear()
    pending.extend(replaced)


def _settle(entry: _Entry, results: List, pool: WorkerPool, worker,
            policy: RetryPolicy) -> List:
    """Resolve a delivered chunk's failures: retry, then quarantine.

    Retryable failures (``crash``, ``memory``) re-run one item per
    submission, awaited serially — so when a retry breaks the pool again,
    the culprit item is unambiguous and innocents in the same chunk are
    never co-blamed.  Whatever still fails after ``policy.max_retries``
    attempts (and every non-retryable failure, e.g. ``deadline``) degrades
    to an :class:`ErrorOutcome` in the item's ordered slot.
    """
    out = list(results)
    attempts = list(entry.attempts)
    payloads = entry.payloads
    while True:
        todo = [i for i, r in enumerate(out)
                if isinstance(r, _ItemFailure) and r.kind in _RETRYABLE
                and attempts[i] < policy.max_retries]
        if not todo:
            break
        for i in todo:
            attempts[i] += 1
            pool.note_retry()
            policy.sleep(attempts[i])
            sub = _submit(pool, worker, [payloads[i]], [attempts[i]],
                          started=entry.started)
            try:
                out[i] = _wait(sub, policy)[0]
            except _BROKEN:
                pool.rebuild()
                out[i] = _ItemFailure("crash", _CRASH_MSG)
    for i, r in enumerate(out):
        if isinstance(r, _ItemFailure):
            pool.note_quarantine()
            out[i] = ErrorOutcome(error=r.error, kind=r.kind,
                                  attempts=attempts[i] + 1,
                                  payload=payloads[i])
    return out


def _pump(worker, it: Iterator, pool: WorkerPool, *, window: int,
          chunksize: int, policy: RetryPolicy) -> Iterator:
    """The self-healing streaming loop: fill the window, settle the oldest.

    In-flight work is tracked as resubmittable :class:`_Entry` records: a
    ``BrokenProcessPool`` at the head triggers :func:`_heal` instead of
    tearing the stream down, and delivered chunks pass through
    :func:`_settle` so retry/quarantine outcomes land in order.
    """
    pending: deque = deque()   # _Entry records, in submission order
    buf: List = []             # unsubmitted payloads (a partial chunk)
    buffered = 0               # drawn from ``it`` but not yet yielded
    exhausted = False
    crashes = 0                # consecutive heals without progress
    # an exception raised while *drawing* a payload must not discard the
    # in-flight work that precedes it: the valid prefix is drained in
    # order first, then the error propagates
    draw_error: Optional[Exception] = None

    def flush() -> None:
        if buf:
            pending.append(_submit(pool, worker, buf, [0] * len(buf)))
            buf.clear()

    while True:
        while not exhausted and buffered < window:
            try:
                p = next(it)
            except StopIteration:
                exhausted = True
                break
            except Exception as exc:
                draw_error = exc
                exhausted = True
                break
            buffered += 1
            if isinstance(p, Resolved):
                # keep ordering: everything buffered so far goes first
                flush()
                pending.append(_Entry(_Done([p.value]), [None], [0],
                                      time.monotonic()))
            else:
                buf.append(p)
                if len(buf) >= chunksize:
                    flush()
        if exhausted:
            flush()
        if not pending:
            if exhausted:
                if draw_error is not None:
                    raise draw_error
                return
            continue  # pragma: no cover - fill loop always queues work
        entry = pending[0]
        try:
            results = _wait(entry, policy)
        except _BROKEN:
            crashes += 1
            _heal(pool, pending, worker, policy, crashes)
            continue
        pending.popleft()
        crashes = 0
        for result in _settle(entry, results, pool, worker, policy):
            buffered -= 1
            yield result
