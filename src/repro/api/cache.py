"""An LRU cache of :class:`~repro.api.Solution` values.

Repeat traffic often re-asks *identical* instances.  :class:`SolutionCache`
keys a solved instance, together with the task name and the full option
set (two configurations never share an answer), on one of two forms:

* **the canonical cotree form** (canonicalised, children sorted) — what a
  library caller's :func:`~repro.api.solve`, :func:`~repro.api.solve_many`
  and :func:`~repro.api.solve_forest` key on, so the same cotree arriving
  as text, as JSON or with its children listed in a different order hits
  the same entry;
* **the spelling** — a digest of the exact text, JSON value or wire bytes
  the instance arrived in, carried by ``Problem.digest``.  The server
  (`repro.server`) sets it on every batch record and keys single solves
  on a digest of the whole request, looked up before the body is parsed.
  Only a verbatim repeat hits such a key; computing it never flattens,
  validates or canonicalises a tree.

Wire a cache through :class:`~repro.api.SolveOptions`::

    cache = SolutionCache(maxsize=4096)
    solve(problem, cache=cache)          # miss: solves, stores
    solve(same_problem, cache=cache)     # hit: no pipeline runs

Hits and misses are reported in ``Solution.provenance["cache"]``.  The
cache lives in the *calling* process: the batch/stream fan-out checks it
before submitting work and stores results as they come back, so worker
processes never carry a copy.

Stored and returned solutions each have their own ``provenance`` dict,
but ``answer``/``cover`` are shared objects — treat them as immutable.

The cache is **thread-safe**: one lock serialises the LRU bookkeeping, so
the server can share a single cache between the event loop and its batch
worker threads.  It still must not cross *process* boundaries — the
stream fan-out keeps it parent-side for that reason.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import replace
from typing import Dict, Optional, Tuple

from ..cograph import BinaryCotree, Cotree, FlatCotree, NotACographError
from ..cograph.flat import canonical_key

__all__ = ["SolutionCache", "canonical_cotree_key"]


def canonical_cotree_key(tree) -> Tuple:
    """A hashable canonical form of a cotree.

    Two cotrees get the same key iff they represent the same labelled
    cograph: the tree is canonicalised (unary nodes spliced, same-label
    children merged — properties (4) and (5)) and every node's children are
    ordered by the minimum vertex id of their subtree, so child order —
    which is meaningless for union/join — never splits the key.  Vertex ids
    *do* matter (covers name vertices).

    The computation is the iterative, array-based kernel of
    :func:`repro.cograph.flat.canonical_key`: no recursion (arbitrarily
    deep cotrees are safe — a depth-5000 caterpillar is a regression test)
    and ``O(n log n)`` array work instead of per-node Python tuples.
    """
    if not isinstance(tree, (Cotree, BinaryCotree, FlatCotree)):
        raise TypeError(f"expected a cotree, got {type(tree).__name__}")
    return canonical_key(tree)


class SolutionCache:
    """A bounded least-recently-used mapping of solved instances.

    Parameters
    ----------
    maxsize:
        entries kept; inserting past it evicts the least recently used
        (``get`` refreshes recency).  Must be positive.

    Attributes
    ----------
    hits, misses:
        lookup counters (``get`` found / did not find the key).
    """

    def __init__(self, maxsize: int = 1024) -> None:
        if int(maxsize) < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()
        # one lock around get/put/LRU bookkeeping: concurrent readers and
        # writers (the server's event loop + worker threads) never see a
        # half-updated recency order or torn counters
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # keying
    # ------------------------------------------------------------------ #

    def key_for(self, problem, task: str, options) -> Optional[Tuple]:
        """The cache key of one adapted problem, or ``None`` if uncacheable.

        A problem carrying a spelling ``digest`` keys on it and nothing
        else is computed.  Otherwise bit-vector (lower-bound) instances
        key on their bits and everything else keys on
        :func:`canonical_cotree_key` of the instance's cotree.
        A graph input that is not a cograph has no cotree — for an
        MD-capable task those key on the canonical form of the modular
        decomposition tree (prime quotients included, see
        :func:`repro.cograph.flat.canonical_key`); for every other task
        they return ``None`` and bypass the cache (the ``recognition``
        task still answers ``False`` for them).
        """
        if problem.digest is not None:
            problem_key: Tuple = ("spelling", problem.digest)
        elif problem.instance is not None:
            problem_key = (
                "bits", tuple(int(b) for b in problem.instance.bits))
        else:
            try:
                problem_key = canonical_cotree_key(problem.pipeline_tree())
            except NotACographError:
                from .registry import TASKS
                spec = TASKS.get(task)
                if spec is None or not spec.accepts_prime_modules:
                    return None
                problem_key = canonical_cotree_key(
                    problem.decomposition_tree())
        options_key = tuple(sorted(options.to_dict().items()))
        return (task, problem_key, options_key)

    # ------------------------------------------------------------------ #
    # the mapping
    # ------------------------------------------------------------------ #

    def get(self, key: Tuple, *, count_miss: bool = True):
        """The cached solution for ``key`` (refreshed as most recent), or
        ``None``.  Counts the lookup as a hit or a miss; with
        ``count_miss=False`` a miss is left for :meth:`put` to count, for
        a caller that looks up before it knows the request is valid."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                if count_miss:
                    self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: Tuple, solution, *, miss: bool = False) -> None:
        """Store ``solution`` under ``key``, evicting the LRU entry when
        full; ``miss=True`` also counts the miss a ``get(key,
        count_miss=False)`` left uncounted.  The stored copy is
        machine-free and cache-free (so it pickles without dragging this
        cache along) and has its own ``provenance`` dict, so later
        mutations of the caller's solution never reach future hits."""
        entry = replace(
            solution, machine=None,
            options=solution.options.with_(cache=None),
            provenance=dict(solution.provenance))
        with self._lock:
            if miss:
                self.misses += 1
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry (counters keep running)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> Dict[str, int]:
        """``{"hits", "misses", "size", "maxsize"}`` as a plain dict."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "size": len(self._entries), "maxsize": self.maxsize}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Tuple) -> bool:
        with self._lock:
            return key in self._entries

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SolutionCache(size={len(self._entries)}, "
                f"maxsize={self.maxsize}, hits={self.hits}, "
                f"misses={self.misses})")
