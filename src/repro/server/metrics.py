"""Service metrics: counters, gauges and latency histograms.

Everything the ``/metrics`` endpoint exposes lives here, collected behind
one lock so the event loop, the batch worker threads and the scrape all
see a consistent snapshot.  The exposition is Prometheus-flavoured text —
``name{label="value"} number`` lines with ``# HELP`` / ``# TYPE``
preambles — which both a human with ``curl`` and a real scraper can read.

Latency is tracked per task as a fixed-bucket histogram (sub-millisecond
to minutes, log-spaced); quantiles (p50/p95/p99) are estimated from the
bucket counts at scrape time, so recording an observation is O(buckets)
with no sample retention.
"""

from __future__ import annotations

import bisect
import threading
import time
from typing import Dict, List, Optional, Tuple

from .._version import __version__

__all__ = ["Metrics", "LatencyHistogram"]

#: histogram bucket upper bounds, in seconds (log-spaced, 0.5ms .. 120s).
DEFAULT_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                   0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0)

#: the quantiles exposed per task.
QUANTILES = (0.5, 0.95, 0.99)


class LatencyHistogram:
    """Fixed-bucket latency histogram with quantile estimation.

    Not locked by itself — :class:`Metrics` serialises access.
    """

    __slots__ = ("buckets", "counts", "total", "sum")

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # +inf overflow bucket
        self.total = 0
        self.sum = 0.0

    def observe(self, seconds: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, seconds)] += 1
        self.total += 1
        self.sum += seconds

    def quantile(self, q: float) -> Optional[float]:
        """The upper bound of the bucket holding the q-quantile (``None``
        with no observations; the last finite bound for the overflow
        bucket)."""
        if self.total == 0:
            return None
        rank = q * self.total
        cumulative = 0
        for i, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= rank:
                return self.buckets[min(i, len(self.buckets) - 1)]
        return self.buckets[-1]  # pragma: no cover - loop always reaches


class Metrics:
    """The server's one metrics registry (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.started_at = time.time()
        self.requests_total: Dict[Tuple[str, str], int] = {}
        self.latency: Dict[str, LatencyHistogram] = {}
        self.rejected_total = 0       # 429s (also counted in requests_total)
        self.timeouts_total = 0       # 504s (also counted in requests_total)
        self.internal_errors_total = 0   # 500s (structured or unexpected)
        self.breaker_rejections_total = 0  # 503s from an open breaker
        # gauges, maintained by the app layer
        self.in_flight = 0
        self.queue_depth = 0

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def observe_request(self, task: str, status: int,
                        seconds: float) -> None:
        """Count one finished request and record its latency."""
        with self._lock:
            key = (task, str(int(status)))
            self.requests_total[key] = self.requests_total.get(key, 0) + 1
            if status == 429:
                self.rejected_total += 1
            elif status == 504:
                self.timeouts_total += 1
            elif status == 500:
                self.internal_errors_total += 1
            hist = self.latency.get(task)
            if hist is None:
                hist = self.latency[task] = LatencyHistogram()
            hist.observe(seconds)

    def set_gauges(self, *, in_flight: int, queue_depth: int) -> None:
        with self._lock:
            self.in_flight = in_flight
            self.queue_depth = queue_depth

    def record_breaker_rejection(self) -> None:
        """Count one request turned away by an open circuit breaker."""
        with self._lock:
            self.breaker_rejections_total += 1

    # ------------------------------------------------------------------ #
    # exposition
    # ------------------------------------------------------------------ #

    def render(self, cache_stats: Optional[Dict[str, int]] = None,
               pool_health: Optional[Dict[str, int]] = None,
               breaker: Optional[Dict[str, object]] = None) -> str:
        """The ``/metrics`` text exposition.

        ``pool_health`` is :meth:`repro.core.WorkerPool.health` and
        ``breaker`` is :meth:`repro.core.CircuitBreaker.snapshot`; both
        are optional so the registry stays usable standalone.
        """
        with self._lock:
            lines: List[str] = []

            def header(name: str, kind: str, help_text: str) -> None:
                lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {kind}")

            header("repro_info", "gauge", "Build information.")
            lines.append(f'repro_info{{version="{__version__}"}} 1')
            header("repro_uptime_seconds", "gauge",
                   "Seconds since the server started.")
            lines.append(f"repro_uptime_seconds "
                         f"{time.time() - self.started_at:.3f}")

            header("repro_requests_total", "counter",
                   "Finished requests by task and HTTP status.")
            for (task, status), count in sorted(self.requests_total.items()):
                lines.append(f'repro_requests_total{{task="{task}",'
                             f'status="{status}"}} {count}')
            header("repro_rejected_total", "counter",
                   "Requests refused by admission control (429).")
            lines.append(f"repro_rejected_total {self.rejected_total}")
            header("repro_timeouts_total", "counter",
                   "Requests that hit the per-request timeout (504).")
            lines.append(f"repro_timeouts_total {self.timeouts_total}")
            header("repro_internal_errors_total", "counter",
                   "Requests answered 500 (worker crash after retries, "
                   "corrupt result, or an unexpected exception).")
            lines.append(f"repro_internal_errors_total "
                         f"{self.internal_errors_total}")
            header("repro_breaker_rejections_total", "counter",
                   "Requests refused by an open circuit breaker (503).")
            lines.append(f"repro_breaker_rejections_total "
                         f"{self.breaker_rejections_total}")

            header("repro_in_flight", "gauge",
                   "Requests currently executing.")
            lines.append(f"repro_in_flight {self.in_flight}")
            header("repro_queue_depth", "gauge",
                   "Requests admitted but not yet executing.")
            lines.append(f"repro_queue_depth {self.queue_depth}")

            if cache_stats is not None:
                hits = cache_stats.get("hits", 0)
                misses = cache_stats.get("misses", 0)
                lookups = hits + misses
                header("repro_cache_hits_total", "counter",
                       "Solution-cache hits.")
                lines.append(f"repro_cache_hits_total {hits}")
                header("repro_cache_misses_total", "counter",
                       "Solution-cache misses.")
                lines.append(f"repro_cache_misses_total {misses}")
                header("repro_cache_hit_rate", "gauge",
                       "hits / (hits + misses) since start.")
                rate = (hits / lookups) if lookups else 0.0
                lines.append(f"repro_cache_hit_rate {rate:.6f}")
                header("repro_cache_size", "gauge",
                       "Entries currently cached.")
                lines.append(f"repro_cache_size "
                             f"{cache_stats.get('size', 0)}")

            if pool_health is not None:
                header("repro_pool_restarts_total", "counter",
                       "Worker-pool executor rebuilds after crashes.")
                lines.append(f"repro_pool_restarts_total "
                             f"{pool_health.get('restarts', 0)}")
                header("repro_pool_retries_total", "counter",
                       "Item re-executions after worker failures.")
                lines.append(f"repro_pool_retries_total "
                             f"{pool_health.get('retries', 0)}")
                header("repro_pool_quarantined_total", "counter",
                       "Items degraded to structured errors after "
                       "exhausting retries.")
                lines.append(f"repro_pool_quarantined_total "
                             f"{pool_health.get('quarantined', 0)}")
                header("repro_pool_workers", "gauge",
                       "Configured solver worker processes.")
                lines.append(f"repro_pool_workers "
                             f"{pool_health.get('jobs', 0)}")

            if breaker is not None:
                # one-hot state gauge, the idiomatic Prometheus encoding
                header("repro_breaker_state", "gauge",
                       "Circuit-breaker state (one-hot).")
                current = breaker.get("state")
                for state in ("closed", "open", "half_open"):
                    flag = 1 if state == current else 0
                    lines.append(
                        f'repro_breaker_state{{state="{state}"}} {flag}')
                header("repro_breaker_opened_total", "counter",
                       "Times the circuit breaker has opened.")
                lines.append(f"repro_breaker_opened_total "
                             f"{breaker.get('opened_total', 0)}")
                header("repro_breaker_consecutive_failures", "gauge",
                       "Consecutive solve failures seen by the breaker.")
                lines.append(f"repro_breaker_consecutive_failures "
                             f"{breaker.get('consecutive_failures', 0)}")

            header("repro_request_seconds", "summary",
                   "Request latency quantiles by task (histogram "
                   "estimate).")
            for task in sorted(self.latency):
                hist = self.latency[task]
                for q in QUANTILES:
                    value = hist.quantile(q)
                    if value is not None:
                        lines.append(
                            f'repro_request_seconds{{task="{task}",'
                            f'quantile="{q}"}} {value:.6g}')
                lines.append(f'repro_request_seconds_count{{task="{task}"}} '
                             f'{hist.total}')
                lines.append(f'repro_request_seconds_sum{{task="{task}"}} '
                             f'{hist.sum:.6f}')
            return "\n".join(lines) + "\n"
