"""Run context read from ``/proc``: steal time, CPU time, peak RSS.

These numbers explain spread between runs; they move no end-to-end
metric.  Everything degrades to zero where ``/proc`` lacks a field.
"""

from __future__ import annotations

import os
from typing import Dict, List

__all__ = ["steal_seconds", "cpu_seconds", "children", "reset_peak_rss",
           "peak_rss_mb"]

_TICK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def steal_seconds() -> float:
    """Machine-wide steal time so far (all CPUs), from ``/proc/stat``."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / _TICK
    except (OSError, IndexError, ValueError):
        return 0.0


def children(pid: int) -> List[int]:
    """Live child processes of ``pid`` (the server's pool workers)."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the command name may hold spaces: fields resume after its ')'
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            out.append(int(entry))
    return out


def cpu_seconds(pids: List[int]) -> float:
    """User + system CPU time of the given processes."""
    total = 0.0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            total += (int(fields[11]) + int(fields[12])) / _TICK
        except (OSError, IndexError, ValueError):
            continue
    return total


def reset_peak_rss(pids: List[int]) -> None:
    """Restart the peak-RSS high-water mark of each process at its
    current RSS (``/proc/<pid>/clear_refs``)."""
    for pid in pids:
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as fh:
                fh.write("5")
        except OSError:
            continue


def peak_rss_mb(pids: List[int]) -> float:
    """Sum of the processes' peak RSS (``VmHWM``) in MiB."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
                        break
        except (OSError, ValueError):
            continue
    return total / 1024


def snapshot(pids: List[int]) -> Dict[str, float]:
    return {"steal": steal_seconds(), "cpu": cpu_seconds(pids)}
