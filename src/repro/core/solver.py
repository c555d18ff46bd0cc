"""The end-to-end time- and work-optimal path-cover solver (Theorem 5.3).

:func:`minimum_path_cover_parallel` runs the eight stages of Section 5 — now
organised as a named-stage :class:`~repro.core.pipeline.Pipeline` — on a
pluggable execution backend and returns the cover together with whatever
accounting the backend produced:

* ``backend="pram"`` (the default) simulates the paper's machine: the result
  carries the PRAM cost report (synchronous rounds, Brent-scheduled time for
  ``n / log n`` processors, total work) and the machine itself;
* ``backend="fast"`` runs the same pipeline as raw vectorized NumPy — same
  cover, no cost model, one to two orders of magnitude faster wall-clock
  (``benchmarks/bench_backends.py`` quantifies the gap).

Per-stage wall-clock timings are collected on every run and exposed as
``result.stage_seconds``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

import numpy as np

from ..backends import ExecutionContext, PRAMBackend, resolve_context
from ..cograph import (
    BinaryCotree,
    CographAdjacencyOracle,
    Cotree,
    FlatCotree,
    PathCover,
    as_flat_cotree,
)
from ..cograph.cotree import LEAF
from ..pram import PRAM, AccessMode, CostReport, optimal_processor_count
from .pipeline import Pipeline

__all__ = ["ParallelPathCoverResult", "minimum_path_cover_parallel"]


@dataclass
class ParallelPathCoverResult:
    """Everything the parallel solver produces.

    Attributes
    ----------
    cover:
        the minimum path cover.
    num_paths:
        ``len(cover.paths)`` — equals ``p(root)``.
    p_root:
        the analytic count from the Lemma 2.4 recurrence (computed by the
        same run; always equals ``num_paths``).
    report:
        the PRAM cost report of the whole pipeline (``None`` under the fast
        backend, which does not account).
    machine:
        the machine itself, for re-scaling to other processor counts
        (``None`` under the fast backend).
    exchanges:
        number of illegal-insert / legal-dummy exchanges Step 6 performed.
    backend:
        name of the execution backend the run used (``"pram"`` / ``"fast"``).
    stage_seconds:
        wall-clock seconds per executed pipeline stage, in order.
    """

    cover: PathCover
    num_paths: int
    p_root: int
    report: Optional[CostReport]
    machine: Optional[PRAM]
    exchanges: int
    backend: str = "pram"
    stage_seconds: Dict[str, float] = field(default_factory=dict)


def _build_context(n: int, machine: Optional[PRAM],
                   backend: Union[None, str, ExecutionContext],
                   num_processors: Optional[int],
                   mode: Union[AccessMode, str],
                   record_steps: bool) -> ExecutionContext:
    """Resolve the solver's backend knobs into one execution context."""
    if machine is not None:
        if backend not in (None, "pram"):
            raise ValueError("pass either machine=... or backend=..., "
                             "not both")
        return PRAMBackend(machine)
    if backend in (None, "pram"):
        p = num_processors if num_processors is not None \
            else optimal_processor_count(max(n, 2))
        return PRAMBackend(PRAM(p, mode, record_steps=record_steps))
    # the machine-configuration knobs only make sense when this call builds
    # the machine; reject them rather than silently ignoring them
    machine_knobs = []
    if num_processors is not None:
        machine_knobs.append("num_processors")
    if record_steps:
        machine_knobs.append("record_steps")
    if AccessMode(mode) is not AccessMode.EREW:
        machine_knobs.append("mode")
    if machine_knobs:
        raise ValueError(
            f"machine knob(s) {', '.join(machine_knobs)} only apply when a "
            f"PRAM machine is created (backend='pram'); they have no effect "
            f"with backend={backend!r}")
    return resolve_context(backend)


def minimum_path_cover_parallel(
    tree: Union[Cotree, FlatCotree, BinaryCotree],
    *,
    machine: Optional[PRAM] = None,
    backend: Union[None, str, ExecutionContext] = None,
    num_processors: Optional[int] = None,
    mode: Union[AccessMode, str] = AccessMode.EREW,
    work_efficient: bool = True,
    validate: bool = False,
    record_steps: bool = False,
) -> ParallelPathCoverResult:
    """Find and report a minimum path cover of a cograph, in parallel.

    Parameters
    ----------
    tree:
        the cograph's cotree (general — :class:`Cotree` or
        :class:`FlatCotree` — or already binarized).  General cotrees must
        be canonical (every internal node with >= 2 children).  Leaves may
        carry any distinct vertex ids.
    machine:
        an existing :class:`~repro.pram.PRAM` to account on.  When omitted
        (and ``backend`` selects the PRAM path), a fresh EREW machine with
        ``ceil(n / log2 n)`` processors (the paper's Theorem 5.3
        configuration) is created; pass ``num_processors`` and/or ``mode``
        to override.
    backend:
        ``"pram"`` (default — simulate, account, conflict-check), ``"fast"``
        (raw vectorized NumPy, no accounting), or an
        :class:`~repro.backends.ExecutionContext` instance.
    work_efficient:
        use the work-efficient variants of the primitives (list ranking by
        contraction rather than Wyllie pointer jumping).
    validate:
        when True the produced cover is checked against the LCA adjacency
        oracle and against the analytic path count before returning
        (raises on failure).

    Returns
    -------
    ParallelPathCoverResult
    """
    n = tree.num_vertices
    ctx = _build_context(n, machine, backend, num_processors, mode,
                         record_steps)
    ids = tree.leaf_vertex[tree.leaves]
    vertex_of = None
    if n and (int(ids.min()) < 0 or int(ids.max()) >= n):
        # the stages index their arrays by vertex id: solve on the ids'
        # ranks, answer in the ids
        vertex_of = np.sort(ids)
        flat = as_flat_cotree(tree)
        tree = FlatCotree(flat.kind, flat.child_offset, flat.child_index,
                          flat.parent,
                          np.where(flat.kind == LEAF, np.searchsorted(
                              vertex_of, flat.leaf_vertex), -1), flat.root)
    run = Pipeline.default().run(tree, ctx, work_efficient=work_efficient)
    state = run.state
    cover = state.cover
    p_root = state.reduced.minimum_path_count()
    if validate:
        oracle = CographAdjacencyOracle(state.leftist.tree)
        cover.validate(oracle, expected_num_vertices=n,
                       expected_num_paths=p_root)
    if vertex_of is not None:
        cover = PathCover([vertex_of[path].tolist() for path in cover.paths])
    return ParallelPathCoverResult(
        cover=cover, num_paths=cover.num_paths, p_root=p_root,
        report=ctx.report(), machine=ctx.machine, exchanges=state.exchanges,
        backend=ctx.name, stage_seconds=run.stage_seconds)
