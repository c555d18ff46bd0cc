"""The host-speed reference loop.

Every timing the benchmark reports is rescaled to a nominal host speed:

    reported = wall * NOMINAL_REF_S / mean(reference times of the run)

so a run on a contended or throttled machine (steal time, a competing
process) reads about the same as a quiet one.

The reference must measure the machine, never the program.  It runs in a
helper interpreter that imports nothing from ``repro``, between requests
while the program is idle, and its loop allocates no Python objects: the
interpreter part iterates over a prebuilt tuple of small cached integers
and the NumPy part works in place on one buffer allocated up front.  The
working set (about 70 KiB) stays inside the core's own caches; a loop that
streamed a larger buffer would read slower after a request that evicted it
than after one that did not, so the program would change the reference.

The mean drops the slowest tenth of the samples: a sample the scheduler
interrupted once reads twice as long, and a handful of those would
otherwise swing a run's scale by a few percent, while contention that
lasts through more than a tenth of the run still moves the mean.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import List

import numpy as np

__all__ = ["NOMINAL_REF_S", "Reference", "ReferenceLoop", "scale",
           "trimmed_mean"]

#: reference time of one unit of work on the machine the baseline was
#: calibrated on (2 vCPU x86-64 VM, Python 3.11, NumPy 2.4, quiet host).
NOMINAL_REF_S = 0.00229

#: small ints in [0, 255] are interned by CPython, so iterating over them
#: and combining them below never allocates.
_SMALL_INTS = tuple((i * 37) & 0xFF for i in range(4096))
_ROUNDS = 16


class ReferenceLoop:
    """One fixed unit of host work, timed on demand."""

    def __init__(self) -> None:
        self._small = np.zeros(4096, dtype=np.int64)        # 32 KiB
        self.run()              # fault the buffer in before any sample

    def run(self) -> float:
        """Seconds one unit of reference work took."""
        small, ints = self._small, _SMALL_INTS
        started = time.perf_counter()
        acc = 0
        for _ in range(_ROUNDS):
            for x in ints:
                acc = ((acc ^ x) + 1) & 0xFF
        for _ in range(160):
            np.add(small, 3, out=small)
            np.bitwise_and(small, 0xFFFF, out=small)
        return time.perf_counter() - started


class Reference:
    """The reference loop, run on request in a helper process.

    The helper is a fresh interpreter that never imports the program, so
    neither the program's heap nor the cache and allocator state a request
    leaves behind in the benchmark process can change its speed.  Call
    :meth:`run` between requests, while the program is idle: it blocks
    until the helper has timed one unit of work.  :meth:`close` stops the
    helper and waits for it.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})

    def run(self) -> None:
        """Time one unit of reference work in the helper and record it."""
        self._proc.stdin.write(b"\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the reference helper exited")
        self.samples.append(float(line))

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def scale(samples: List[float]) -> float:
    """The factor that turns wall times measured alongside ``samples``
    into nominal ones."""
    return NOMINAL_REF_S / trimmed_mean(samples)


def trimmed_mean(samples: List[float]) -> float:
    """Mean of the fastest nine tenths of ``samples`` (a mean, not a
    median, so contention over part of a run still shows)."""
    if not samples:
        raise RuntimeError("the reference loop has not run yet")
    kept = sorted(samples)[:max(1, len(samples) - len(samples) // 10)]
    return sum(kept) / len(kept)


def _serve() -> None:
    """Helper side: one timed unit of work per request line."""
    loop = ReferenceLoop()
    for _ in sys.stdin.buffer:
        sys.stdout.write(f"{loop.run()!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    _serve()
