"""Environment-driven service configuration.

One frozen :class:`Settings` value describes a complete server deployment,
exactly like :class:`~repro.api.SolveOptions` describes a complete solver
configuration: every field is validated at construction time, and the whole
thing is immutable so a running server can never be half-reconfigured.

Configuration comes from three layers, later ones winning::

    defaults  <  REPRO_* environment variables  <  CLI flags

``Settings.from_env()`` reads the environment (the production path — a
container sets ``REPRO_PORT=8080`` and nothing else changes), and
``python -m repro serve --port 9000`` layers explicit flags on top via
:meth:`Settings.with_`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Mapping, Optional

__all__ = ["Settings", "ENV_PREFIX"]

#: every recognised environment variable starts with this.
ENV_PREFIX = "REPRO_"

#: accepted ``log_format`` values.
LOG_FORMATS = ("kv", "json")

_LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


@dataclass(frozen=True)
class Settings:
    """One immutable, validated server configuration.

    Attributes
    ----------
    host / port:
        listen address.  ``port=0`` asks the OS for a free port (tests and
        benchmarks use this; the chosen port is logged and exposed on the
        runner).
    jobs:
        solver worker processes behind the shared warm
        :class:`~repro.core.WorkerPool`.  ``0`` means one per CPU; ``1``
        degrades to in-process execution offloaded to a thread (the event
        loop is never blocked either way).
    queue_limit:
        admission bound: the maximum number of requests admitted but not
        yet answered (queued + executing).  A request arriving past it is
        refused with ``429 Too Many Requests`` + ``Retry-After`` instead
        of growing an unbounded backlog — overload degrades, never OOMs.
    cache_size:
        entries of the shared :class:`~repro.api.SolutionCache` (``0``
        disables caching).
    batch_small:
        the server's one "small enough to stay in-process" threshold.  A
        fast-backend ``/v1/solve`` instance of at most this many vertices
        that arrives while nothing else is admitted solves on the server's
        thread executor instead of taking the process-pool round trip, and
        ``/v1/solve_batch`` records that small are swept vectorized instead
        of fanned out.  ``0`` sends every instance to the pool.
    max_batch:
        maximum records accepted by one ``/v1/solve_batch`` body.
    request_timeout:
        seconds a single solve (or one batch) may run before the request
        is answered ``504 Gateway Timeout``.
    shutdown_timeout:
        seconds the graceful shutdown waits for in-flight requests to
        drain before giving up.
    max_body_bytes:
        request bodies above this are refused with ``413``.
    retries:
        how many times one request's solve is re-run after its worker
        process dies (``BrokenProcessPool``) or raises ``MemoryError``;
        the pool is rebuilt between attempts.  ``0`` fails fast with a
        structured 500.
    retry_backoff:
        base of the capped exponential backoff (seconds) between those
        attempts — and between stream resubmissions in batch routes.
    breaker_threshold:
        consecutive solve failures (5xx) that open the circuit breaker;
        while open, ``/v1/*`` answers ``503`` + ``Retry-After`` without
        touching the pool.  ``0`` disables the breaker.
    breaker_cooldown:
        seconds an open breaker waits before letting one half-open probe
        through (success closes it, failure re-opens it).
    log_level / log_format:
        structured-logging knobs (``kv`` = ``key=value`` lines, ``json``
        = one JSON object per line).
    """

    host: str = "127.0.0.1"
    port: int = 8080
    jobs: int = 0
    queue_limit: int = 64
    cache_size: int = 1024
    batch_small: int = 512
    max_batch: int = 4096
    request_timeout: float = 30.0
    shutdown_timeout: float = 10.0
    max_body_bytes: int = 1 << 20
    retries: int = 2
    retry_backoff: float = 0.05
    breaker_threshold: int = 5
    breaker_cooldown: float = 5.0
    log_level: str = "INFO"
    log_format: str = "kv"

    def __post_init__(self) -> None:
        _check_int(self, "port", minimum=0, maximum=65535)
        _check_int(self, "jobs", minimum=0)
        _check_int(self, "queue_limit", minimum=1)
        _check_int(self, "cache_size", minimum=0)
        _check_int(self, "batch_small", minimum=0)
        _check_int(self, "max_batch", minimum=1)
        _check_int(self, "max_body_bytes", minimum=1)
        _check_int(self, "retries", minimum=0)
        _check_int(self, "breaker_threshold", minimum=0)
        _check_float(self, "request_timeout", minimum_exclusive=0.0)
        _check_float(self, "shutdown_timeout", minimum=0.0)
        _check_float(self, "retry_backoff", minimum=0.0)
        _check_float(self, "breaker_cooldown", minimum_exclusive=0.0)
        level = str(self.log_level).upper()
        if level not in _LOG_LEVELS:
            raise ValueError(f"log_level must be one of {_LOG_LEVELS}, "
                             f"got {self.log_level!r}")
        object.__setattr__(self, "log_level", level)
        if self.log_format not in LOG_FORMATS:
            raise ValueError(f"log_format must be one of {LOG_FORMATS}, "
                             f"got {self.log_format!r}")

    # ------------------------------------------------------------------ #

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None,
                 **overrides: Any) -> "Settings":
        """Build settings from ``REPRO_*`` environment variables.

        Every field is read from ``REPRO_<FIELD_UPPERCASED>`` (e.g.
        ``REPRO_PORT``, ``REPRO_QUEUE_LIMIT``, ``REPRO_LOG_FORMAT``) when
        present; keyword ``overrides`` (the CLI flags) win over both the
        environment and the defaults.  ``overrides`` set to ``None`` are
        ignored, so flag plumbing can forward unset argparse values
        verbatim.  A malformed variable raises :class:`ValueError` naming
        the variable, not a stack trace from deep inside a cast.
        """
        environ = os.environ if environ is None else environ
        values: Dict[str, Any] = {}
        for f in fields(cls):
            var = ENV_PREFIX + f.name.upper()
            raw = environ.get(var)
            if raw is None:
                continue
            if f.type in ("int", int):
                try:
                    values[f.name] = int(raw)
                except ValueError:
                    raise ValueError(
                        f"{var} must be an integer, got {raw!r}") from None
            elif f.type in ("float", float):
                try:
                    values[f.name] = float(raw)
                except ValueError:
                    raise ValueError(
                        f"{var} must be a number, got {raw!r}") from None
            else:
                values[f.name] = raw
        for name, value in overrides.items():
            if value is not None:
                values[name] = value
        unknown = set(values) - {f.name for f in fields(cls)}
        if unknown:  # pragma: no cover - overrides come from our own CLI
            raise ValueError(f"unknown Settings field(s): {sorted(unknown)}")
        return cls(**values)

    def with_(self, **changes: Any) -> "Settings":
        """A copy with the given fields replaced (re-validated)."""
        return replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """A plain JSON-serialisable dict (for logs and ``/healthz``)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _check_int(obj: Settings, name: str, *, minimum: int,
               maximum: Optional[int] = None) -> None:
    value = getattr(obj, name)
    try:
        value = int(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an integer, "
                         f"got {getattr(obj, name)!r}") from None
    if value < minimum or (maximum is not None and value > maximum):
        bound = f">= {minimum}" if maximum is None else \
            f"in [{minimum}, {maximum}]"
        raise ValueError(f"{name} must be {bound}, got {value}")
    object.__setattr__(obj, name, value)


def _check_float(obj: Settings, name: str, *, minimum: float = None,
                 minimum_exclusive: float = None) -> None:
    value = getattr(obj, name)
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, "
                         f"got {getattr(obj, name)!r}") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    if minimum_exclusive is not None and value <= minimum_exclusive:
        raise ValueError(f"{name} must be > {minimum_exclusive}, "
                         f"got {value}")
    object.__setattr__(obj, name, value)
