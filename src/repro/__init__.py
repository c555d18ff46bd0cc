"""repro — a full reproduction of Nakano, Olariu and Zomaya's time- and
work-optimal parallel minimum path cover algorithm for cographs (IPPS 1999 /
TCS 290 (2003) 1541-1556).

The package is organised as described in DESIGN.md:

* :mod:`repro.api` — **the one front door**: :func:`~repro.api.solve` /
  :func:`~repro.api.solve_many` over a task registry, typed
  :class:`~repro.api.SolveOptions`, multi-format input adapters
  (:func:`~repro.api.as_problem`) and the unified
  :class:`~repro.api.Solution` result;
* :mod:`repro.cograph` — cotrees, cographs, generators, recognition,
  validation (the substrate the paper assumes);
* :mod:`repro.pram` — the PRAM cost-model simulator (EREW/CREW/CRCW
  accounting and access checking);
* :mod:`repro.backends` — pluggable execution backends: the simulated
  :class:`~repro.backends.PRAMBackend` (reproduction fidelity) and the
  vectorized :class:`~repro.backends.FastBackend` (raw NumPy throughput);
* :mod:`repro.primitives` — the Lemma 5.1 / 5.2 toolbox (prefix sums, list
  ranking, Euler tours, tree numbering, bracket matching, tree contraction);
* :mod:`repro.core` — the paper's algorithm (Sections 2-5), the lower-bound
  reduction and the Hamiltonicity corollaries;
* :mod:`repro.baselines` — the sequential reference, brute force, greedy, and
  cost-model emulations of the prior parallel algorithms;
* :mod:`repro.analysis` / :mod:`repro.io` — the benchmark harness utilities.

Quickstart
----------
>>> from repro import solve, solve_many, SolveOptions, random_cotree
>>> tree = random_cotree(200, seed=1)
>>> pram = solve(tree)                            # simulated (PRAM-costed)
>>> fast = solve(tree, backend="fast")            # raw NumPy throughput
>>> pram.num_paths == fast.num_paths == solve(tree, task="path_cover_size").answer
True
>>> solve("(0 * (1 + 2))", task="hamiltonian_path").ok   # text form input
True
>>> batch = solve_many([random_cotree(50, seed=s) for s in range(4)],
...                    backend="fast")
>>> [b.num_paths for b in batch] == [solve(random_cotree(50, seed=s),
...                                        backend="fast").num_paths
...                                  for s in range(4)]
True

The pre-1.1 entry points were removed in 2.0 — MIGRATION.md maps each onto
:func:`solve` / :func:`solve_many`.
"""

from __future__ import annotations

from ._version import __version__
from .cograph import (
    BinaryCotree,
    CographAdjacencyOracle,
    Cotree,
    CotreeError,
    Graph,
    NotACographError,
    PathCover,
    PathCoverError,
    balanced_cotree,
    binarize_cotree,
    caterpillar_cotree,
    clique,
    complete_bipartite,
    complement_cotree,
    cotree_from_graph,
    independent_set,
    is_cograph,
    join_cotrees,
    join_of_independent_sets,
    make_leftist,
    minimum_path_cover_size,
    random_cotree,
    single_vertex,
    threshold_cograph,
    union_cotrees,
    union_of_cliques,
)
from .backends import (
    BACKEND_NAMES,
    ExecutionContext,
    FastBackend,
    PRAMBackend,
    make_backend,
    resolve_context,
)
from .core import ParallelPathCoverResult, Pipeline, PipelineRun, WorkerPool
from .pram import PRAM, AccessMode, CostReport
from .api import (
    METHOD_NAMES,
    Problem,
    Solution,
    SolutionCache,
    SolveOptions,
    as_problem,
    register_task,
    solve,
    solve_forest,
    solve_many,
    solve_stream,
    task_names,
)

__all__ = [
    "__version__",
    # the front door
    "solve", "solve_many", "solve_stream", "solve_forest", "SolveOptions",
    "Solution", "SolutionCache", "WorkerPool",
    "Problem", "as_problem", "register_task", "task_names", "METHOD_NAMES",
    # substrate
    "Cotree", "BinaryCotree", "Graph", "PathCover", "CographAdjacencyOracle",
    "CotreeError", "PathCoverError", "NotACographError",
    "binarize_cotree", "make_leftist", "minimum_path_cover_size",
    "cotree_from_graph", "is_cograph",
    "single_vertex", "independent_set", "clique", "complete_bipartite",
    "union_of_cliques", "join_of_independent_sets", "balanced_cotree",
    "caterpillar_cotree", "threshold_cograph", "random_cotree",
    "union_cotrees", "join_cotrees", "complement_cotree",
    # machine + backends
    "PRAM", "AccessMode", "CostReport",
    "ExecutionContext", "PRAMBackend", "FastBackend",
    "make_backend", "resolve_context", "BACKEND_NAMES",
    # engine types (repro.core.minimum_path_cover_parallel results, stages)
    "ParallelPathCoverResult", "Pipeline", "PipelineRun",
]

