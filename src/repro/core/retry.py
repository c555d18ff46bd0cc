"""Resilience primitives: retry policies, structured failure records and a
circuit breaker.

The streaming engine (:mod:`repro.core.batch`) and the HTTP service
(:mod:`repro.server`) both treat worker death, slow items and poison
inputs as routine events.  The vocabulary for that lives here:

* :class:`RetryPolicy` — how often and how fast to retry a lost or failed
  item: capped exponential backoff with jitter, plus an optional per-item
  wall-clock deadline.
* :class:`ErrorOutcome` — the structured record an item degrades to when
  its retries are exhausted (quarantine), its deadline expires or its
  input is refused.  It flows through
  :func:`repro.core.batch.stream_out` *in the item's ordered slot*, so a
  crashed worker never disturbs stream order.
* :class:`WorkerCrashError` — raised by the strict (``on_error="fail"``)
  paths when an :class:`ErrorOutcome` surfaces.
* :class:`CircuitBreaker` — the classic closed / open / half-open state
  machine the server consults before dispatching solve traffic.

Everything here is dependency-free (stdlib only) and import-cycle-free:
``batch`` and ``faults`` import *from* this module, never the reverse.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

__all__ = ["CircuitBreaker", "ErrorOutcome", "RetryPolicy",
           "WorkerCrashError"]


@dataclass(frozen=True)
class RetryPolicy:
    """How the streaming engine retries lost or failed items.

    Attributes
    ----------
    max_retries:
        retries per *item* beyond its first execution.  ``0`` means a
        crashed item is quarantined immediately (the pool itself is still
        rebuilt and unaffected items still re-run — resubmitting work that
        never started is not a retry).
    base_delay / max_delay / jitter:
        capped exponential backoff: retry ``k`` sleeps
        ``min(base_delay * 2**(k-1), max_delay)``, stretched by up to
        ``jitter`` (a fraction) of itself so a thundering herd of healed
        streams does not resubmit in lockstep.
    deadline:
        optional per-item wall-clock budget in seconds, measured from the
        item's first submission.  An item that exceeds it degrades to an
        :class:`ErrorOutcome` of kind ``"deadline"`` (never retried — its
        time is up by definition).
    """

    max_retries: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.1
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_delay < 0:
            raise ValueError(
                f"base_delay must be >= 0, got {self.base_delay}")
        if self.max_delay < self.base_delay:
            raise ValueError("max_delay must be >= base_delay")
        if not 0 <= self.jitter <= 1:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be > 0, got {self.deadline}")

    def delay_for(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based); 0.0 for attempt 0."""
        if attempt <= 0 or self.base_delay <= 0:
            return 0.0
        delay = min(self.base_delay * (2.0 ** (attempt - 1)), self.max_delay)
        if self.jitter:
            delay *= 1.0 + random.random() * self.jitter
        return delay

    def sleep(self, attempt: int) -> None:
        """Block for :meth:`delay_for` seconds (no-op when it is 0)."""
        delay = self.delay_for(attempt)
        if delay > 0:
            time.sleep(delay)

    def remaining(self, started: float) -> Optional[float]:
        """Seconds left of ``deadline`` for an item first submitted at
        monotonic time ``started`` (``None`` when no deadline is set)."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - (time.monotonic() - started))


class ErrorOutcome:
    """A structured failure delivered in an item's ordered stream slot.

    ``kind`` is the failure taxonomy entry (see DESIGN.md):

    * ``"crash"`` — the item's worker process died (SIGKILL, segfault)
      and its retries are exhausted;
    * ``"memory"`` — the item raised :class:`MemoryError` in-worker on
      every attempt;
    * ``"deadline"`` — the item exceeded :attr:`RetryPolicy.deadline`;
    * ``"corrupt"`` — the worker returned a value of the wrong shape
      (detected by the caller, e.g. :func:`repro.api.solve_stream`);
    * ``"refused"`` — the input itself was refused (a ``ValueError``
      adapting or solving it); never retried, and no fault of the pool
      (built by :func:`repro.api.solve_stream`, not the engine).

    ``attempts`` counts total executions (first run included); ``payload``
    is the original payload when available, so callers can recover e.g.
    the batch index.
    """

    __slots__ = ("error", "kind", "attempts", "payload")

    def __init__(self, error: str, kind: str, attempts: int = 1,
                 payload: Any = None) -> None:
        self.error = error
        self.kind = kind
        self.attempts = attempts
        self.payload = payload

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (payload elided — it may not serialise)."""
        return {"error": self.error, "error_kind": self.kind,
                "attempts": self.attempts}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ErrorOutcome(kind={self.kind!r}, attempts={self.attempts}, "
                f"error={self.error!r})")


class WorkerCrashError(RuntimeError):
    """An :class:`ErrorOutcome` surfaced on a strict (``fail``) path."""

    def __init__(self, outcome: ErrorOutcome) -> None:
        super().__init__(
            f"worker item failed ({outcome.kind}) after "
            f"{outcome.attempts} attempt(s): {outcome.error}")
        self.outcome = outcome


class CircuitBreaker:
    """Consecutive-failure circuit breaker (closed → open → half-open).

    ``record_failure`` after ``threshold`` consecutive failures opens the
    breaker; while open, :meth:`allow` rejects everything until
    ``cooldown`` seconds have passed, then admits exactly one half-open
    probe at a time.  A probe success closes the breaker, a failure
    re-opens it (and restarts the cooldown).  Thread-safe; the clock is
    injectable for deterministic tests.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, threshold: int = 5, cooldown: float = 5.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if cooldown <= 0:
            raise ValueError(f"cooldown must be > 0, got {cooldown}")
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False
        self.opened_total = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._effective_state()

    def _effective_state(self) -> str:
        # lock held.  An open breaker past its cooldown *is* half-open —
        # reads must agree with what allow() would do next.
        if (self._state == self.OPEN
                and self._clock() - self._opened_at >= self.cooldown):
            return self.HALF_OPEN
        return self._state

    def allow(self) -> bool:
        """May a request proceed right now?  (Claims the half-open probe.)"""
        with self._lock:
            state = self._effective_state()
            if state == self.CLOSED:
                return True
            if state == self.HALF_OPEN:
                self._state = self.HALF_OPEN
                if not self._probing:
                    self._probing = True
                    return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._state = self.CLOSED
            self._failures = 0
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            tripped = (self._state == self.HALF_OPEN
                       or self._failures >= self.threshold)
            if tripped:
                if self._state != self.OPEN:
                    self.opened_total += 1
                self._state = self.OPEN
                self._opened_at = self._clock()
                self._probing = False

    def retry_after(self) -> float:
        """Seconds until the next half-open probe (0.0 when not open)."""
        with self._lock:
            if self._state != self.OPEN:
                return 0.0
            return max(0.0, self.cooldown
                       - (self._clock() - self._opened_at))

    def snapshot(self) -> Dict[str, Any]:
        """State for /healthz and /metrics."""
        with self._lock:
            return {"state": self._effective_state(),
                    "consecutive_failures": self._failures,
                    "threshold": self.threshold,
                    "cooldown_seconds": self.cooldown,
                    "opened_total": self.opened_total}
