"""The built-in tasks of the :func:`repro.api.solve` front door.

Thirteen tasks ship with the library; each is a plain function registered
with :func:`~repro.api.registry.register_task`, so they double as examples
for out-of-tree tasks:

=============================  ============================================
``path_cover``                 the minimum path cover itself (the paper's
                               main theorem)
``path_cover_size``            just ``p(root)`` — the Lemma 2.4 cotree DP,
                               fast unless the options pick an engine
``hamiltonian_path``           a Hamiltonian path witness, or ``None``
``hamiltonian_cycle``          a Hamiltonian cycle witness, or ``None``
``recognition``                is the input graph a cograph at all?
``lower_bound``                the Fig. 2 OR reduction, solved end-to-end
``max_clique``                 omega(G) with a vertex witness
``max_independent_set``        alpha(G) with a vertex witness
``max_weight_clique``          heaviest clique under vertex weights
``max_weight_independent_set`` heaviest independent set under weights
``chromatic_number``           chi(G) with a proper colouring witness
``clique_cover``               theta(G) with a clique-partition witness
``count_independent_sets``     exact #IS (arbitrary precision)
=============================  ============================================

The last seven (and ``path_cover_size``, the Hamiltonicity decisions and
the path count behind ``lower_bound``) all run on the declarative
cotree-DP engine
(:mod:`repro.core.dp`): one :class:`~repro.core.CotreeDP` spec per task,
executed level-wise over :class:`~repro.cograph.FlatCotree` CSR arrays on
whichever backend the options select.  The extremal-set tasks
(``max_clique``, ``max_independent_set`` and both weighted variants) are
**MD-capable**: their DP specs carry prime combiners, so they consume the
modular decomposition tree of *any* graph whose prime quotients are
spiders (P4-sparse graphs) or small (arity <= 16) — not just cographs.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Tuple

import numpy as np

from ..baselines import sequential_path_cover
from ..cograph import (
    CographAdjacencyOracle,
    FlatCotree,
    NotACographError,
    graph_from_md_tree,
    minimum_path_cover_size,
)
from ..core import (
    expected_path_count,
    minimum_path_cover_parallel,
    or_from_path_count,
)
from ..core.dp import (
    CHROMATIC_NUMBER_DP,
    CLIQUE_COVER_DP,
    COUNT_INDEPENDENT_SETS_DP,
    MAX_CLIQUE_DP,
    MAX_INDEPENDENT_SET_DP,
    PATH_COVER_SIZE_DP,
    CotreeDP,
    CotreeDPRun,
    max_weight_clique_dp,
    max_weight_independent_set_dp,
    run_cotree_dp,
    run_cotree_dp_sequential,
)
from ..core.hamiltonian import cycle_witness, path_witness
from ..core.solver import _build_context
from .adapters import Problem
from .options import SolveOptions
from .registry import MD_GRAPH_CLASSES, register_task
from .solution import Solution

__all__ = []  # tasks are reached through the registry, not by name


def _cover_solver(options: SolveOptions):
    """``FlatCotree -> PathCover`` bound to the options' engine choice."""
    if options.method == "sequential":
        return lambda flat: sequential_path_cover(flat.to_cotree())
    kwargs = options.solver_kwargs()
    return lambda tree: minimum_path_cover_parallel(tree, **kwargs).cover


# --------------------------------------------------------------------------- #
# path cover
# --------------------------------------------------------------------------- #

@register_task("path_cover",
               summary="minimum path cover of the cograph (Theorem 5.3)")
def _task_path_cover(problem: Problem, options: SolveOptions) -> Solution:
    if options.method == "sequential":
        tree = problem.cotree()
        cover = sequential_path_cover(tree)
        if options.validate:
            cover.validate(CographAdjacencyOracle(tree),
                           expected_num_vertices=tree.num_vertices,
                           expected_num_paths=int(
                               minimum_path_cover_size(tree)))
        return Solution(task="path_cover", answer=cover, backend="sequential",
                        options=options, cover=cover,
                        num_paths=cover.num_paths)
    # the parallel pipeline consumes FlatCotree inputs natively — no
    # object-per-node conversion on the hot path
    result = minimum_path_cover_parallel(problem.pipeline_tree(),
                                         **options.solver_kwargs())
    return Solution(task="path_cover", answer=result.cover,
                    backend=result.backend,
                    options=options, cover=result.cover,
                    num_paths=result.num_paths, report=result.report,
                    stage_seconds=result.stage_seconds,
                    machine=result.machine,
                    provenance={"p_root": result.p_root,
                                "exchanges": result.exchanges})


@register_task("path_cover_size",
               summary="p(root) only (Lemma 2.4 cotree DP; the fast "
                       "engine unless the options pick one)")
def _task_path_cover_size(problem: Problem,
                          options: SolveOptions) -> Solution:
    run, seconds = _run_dp(problem, options, PATH_COVER_SIZE_DP,
                           fast_default=True)
    size = run.root("p")
    if options.validate:
        _check_sequential(problem, PATH_COVER_SIZE_DP, "p", size)
    solution = _dp_solution("path_cover_size", run, size, options, seconds)
    solution.num_paths = size
    return solution


# --------------------------------------------------------------------------- #
# Hamiltonicity
# --------------------------------------------------------------------------- #

def _hamiltonicity_task(problem: Problem, options: SolveOptions, task: str,
                        witness_of) -> Solution:
    """Decide from the ``path_cover_size`` run; build the witness with the
    configured cover engine."""
    run, seconds = _run_dp(problem, options, PATH_COVER_SIZE_DP,
                           fast_default=True)
    t0 = time.perf_counter()
    witness = witness_of(run, _cover_solver(options))
    seconds["witness"] = time.perf_counter() - t0
    size = run.root("p")
    return Solution(task=task, answer=witness,
                    backend=options.resolved_backend, options=options,
                    num_paths=size, stage_seconds=seconds,
                    provenance={"min_path_cover": size})


@register_task("hamiltonian_path",
               summary="a Hamiltonian path witness, or None")
def _task_hamiltonian_path(problem: Problem,
                           options: SolveOptions) -> Solution:
    return _hamiltonicity_task(problem, options, "hamiltonian_path",
                               path_witness)


@register_task("hamiltonian_cycle",
               summary="a Hamiltonian cycle witness, or None")
def _task_hamiltonian_cycle(problem: Problem,
                            options: SolveOptions) -> Solution:
    return _hamiltonicity_task(problem, options, "hamiltonian_cycle",
                               cycle_witness)


# --------------------------------------------------------------------------- #
# recognition
# --------------------------------------------------------------------------- #

@register_task("recognition", runs_pipeline=False, graph_classes=("any",),
               summary="is the input a cograph? (False carries the "
                       "induced-P4 certificate)")
def _task_recognition(problem: Problem, options: SolveOptions) -> Solution:
    provenance = {}
    if problem.graph is None:
        # the input already was a cotree, which *is* a cograph certificate
        answer = True
        provenance["input_was_cotree"] = True
    else:
        try:
            problem.cotree()  # converts and caches for later tasks
            answer = True
        except NotACographError as exc:
            answer = False
            if exc.certificate is not None:
                provenance["certificate"] = [int(v) for v in exc.certificate]
    return Solution(task="recognition", answer=answer, backend="sequential",
                    options=options, provenance=provenance)


# --------------------------------------------------------------------------- #
# the cotree-DP tasks
# --------------------------------------------------------------------------- #

def _run_dp(problem: Problem, options: SolveOptions, dp: CotreeDP, *,
            md: bool = False, fast_default: bool = False
            ) -> Tuple[CotreeDPRun, Dict[str, float]]:
    """Execute one :class:`~repro.core.CotreeDP` under the options' engine.

    ``method="sequential"`` runs the generic postorder evaluator;
    ``method="parallel"`` runs the level-wise engine on the configured
    backend (the paper's PRAM machine by default, so the DP inherits the
    EREW accounting).  The ``work_efficient`` knob has no effect here —
    the engine has a single variant — and is deliberately tolerated so
    option sets can sweep across tasks.

    ``md=True`` (the MD-capable tasks: their DP specs carry a prime
    combiner) feeds the engine :meth:`~repro.api.Problem.decomposition_tree`
    instead of the plain cotree, so non-cograph graphs are solved through
    their modular decomposition.  Cograph inputs take the exact same path
    either way — bit-identical answers.

    ``fast_default=True`` runs on the fast engine, with no machine, when
    the options pick no engine (``path_cover_size``, as the forest sweep
    runs it).
    """
    backend = "fast" if fast_default and not options.picks_engine \
        else options.backend
    tree = problem.decomposition_tree() if md else problem.pipeline_tree()
    t0 = time.perf_counter()
    if options.method == "sequential":
        run = run_cotree_dp_sequential(dp, tree)
    else:
        ctx = _build_context(tree.num_vertices, None, backend,
                             options.num_processors, options.mode,
                             options.record_steps)
        run = run_cotree_dp(dp, tree, ctx)
    return run, {"dp": time.perf_counter() - t0}


def _dp_solution(task: str, run: CotreeDPRun, answer: Any,
                 options: SolveOptions,
                 stage_seconds: Dict[str, float]) -> Solution:
    ctx = run.ctx
    return Solution(task=task, answer=answer, backend=run.backend,
                    options=options,
                    report=ctx.report() if ctx is not None else None,
                    machine=ctx.machine if ctx is not None else None,
                    stage_seconds=stage_seconds)


def _check_sequential(problem: Problem, dp: CotreeDP, field: str,
                      value: Any) -> None:
    """Cross-check a root value against the sequential evaluator."""
    reference = run_cotree_dp_sequential(dp, problem.pipeline_tree()).root(
        field)
    if value != reference:
        raise ValueError(f"{field} {value} disagrees with the sequential "
                         f"evaluator ({reference})")


def _witness(run: CotreeDPRun, stage_seconds: Dict[str, float]):
    t0 = time.perf_counter()
    witness = run.witness()
    stage_seconds["witness"] = time.perf_counter() - t0
    return witness


class _GraphOracle:
    """Adjacency oracle over an explicit :class:`~repro.cograph.Graph`,
    with the same ``adjacent`` surface as
    :class:`~repro.cograph.CographAdjacencyOracle` — used to validate
    witnesses on non-cograph (modular decomposition) inputs."""

    def __init__(self, graph) -> None:
        self._graph = graph

    def adjacent(self, u: int, v: int) -> bool:
        return self._graph.has_edge(u, v)


def _oracle(problem: Problem):
    """The adjacency oracle witnesses are validated against: the LCA
    oracle on cograph inputs, the explicit graph on MD inputs."""
    if problem.graph is not None:
        return _GraphOracle(problem.graph)
    tree = problem.pipeline_tree()
    if isinstance(tree, FlatCotree) and tree.has_primes:
        return _GraphOracle(graph_from_md_tree(tree))
    return CographAdjacencyOracle(problem.cotree())


def _check_vertex_set(problem: Problem, vertices, size: int, *,
                      adjacent: bool, what: str,
                      oracle: CographAdjacencyOracle = None) -> None:
    """Validate an extremal-set witness against the adjacency oracle
    (quadratic in the witness size — meant for ``validate=True`` runs)."""
    if len(vertices) != size:
        raise ValueError(f"{what} witness has {len(vertices)} vertices, "
                         f"claimed {size}")
    if oracle is None:
        oracle = _oracle(problem)
    vs = [int(v) for v in vertices]
    for i, u in enumerate(vs):
        for v in vs[i + 1:]:
            if bool(oracle.adjacent(u, v)) != adjacent:
                raise ValueError(
                    f"{what} witness is wrong: vertices {u} and {v} are "
                    f"{'not ' if adjacent else ''}adjacent")


@register_task("max_clique", graph_classes=MD_GRAPH_CLASSES,
               summary="omega(G) and a maximum-clique vertex witness "
                       "(cotree DP; MD-capable)")
def _task_max_clique(problem: Problem, options: SolveOptions) -> Solution:
    run, seconds = _run_dp(problem, options, MAX_CLIQUE_DP, md=True)
    size = run.root("omega")
    vertices = [int(v) for v in _witness(run, seconds)]
    if options.validate:
        _check_vertex_set(problem, vertices, size, adjacent=True,
                          what="max_clique")
    return _dp_solution("max_clique", run,
                        {"size": size, "vertices": vertices},
                        options, seconds)


@register_task("max_independent_set", graph_classes=MD_GRAPH_CLASSES,
               summary="alpha(G) and a maximum-independent-set vertex "
                       "witness (cotree DP; MD-capable)")
def _task_max_independent_set(problem: Problem,
                              options: SolveOptions) -> Solution:
    run, seconds = _run_dp(problem, options, MAX_INDEPENDENT_SET_DP, md=True)
    size = run.root("alpha")
    vertices = [int(v) for v in _witness(run, seconds)]
    if options.validate:
        _check_vertex_set(problem, vertices, size, adjacent=False,
                          what="max_independent_set")
    return _dp_solution("max_independent_set", run,
                        {"size": size, "vertices": vertices},
                        options, seconds)


def _task_weights(problem: Problem, options: SolveOptions,
                  task: str) -> np.ndarray:
    """The validated per-vertex weight vector of a weighted task."""
    if options.weights is None:
        raise ValueError(
            f"task {task!r} needs per-vertex weights; pass "
            f"SolveOptions(weights=[w0, w1, ...]) (or the weights= "
            f"keyword) with one non-negative integer per vertex")
    n = problem.num_vertices
    if len(options.weights) != n:
        raise ValueError(
            f"weights length {len(options.weights)} does not match the "
            f"instance's {n} vertices")
    return np.asarray(options.weights, dtype=np.int64)


def _check_weighted_set(problem: Problem, vertices, weights: np.ndarray,
                        claimed: int, *, adjacent: bool, what: str) -> None:
    """Weighted-witness validation: the set is extremal-feasible *and* its
    weight sum matches the DP's root value."""
    _check_vertex_set(problem, vertices, len(vertices), adjacent=adjacent,
                      what=what)
    total = int(weights[np.asarray(vertices, dtype=np.int64)].sum()) \
        if len(vertices) else 0
    if total != claimed:
        raise ValueError(f"{what} witness weighs {total}, "
                         f"claimed {claimed}")


@register_task("max_weight_independent_set", graph_classes=MD_GRAPH_CLASSES,
               uses_weights=True,
               summary="a maximum-weight independent set under per-vertex "
                       "weights (cotree DP; MD-capable)")
def _task_max_weight_independent_set(problem: Problem,
                                     options: SolveOptions) -> Solution:
    weights = _task_weights(problem, options, "max_weight_independent_set")
    run, seconds = _run_dp(problem, options,
                           max_weight_independent_set_dp(weights), md=True)
    weight = run.root("alpha")
    vertices = [int(v) for v in _witness(run, seconds)]
    if options.validate:
        _check_weighted_set(problem, vertices, weights, weight,
                            adjacent=False,
                            what="max_weight_independent_set")
    return _dp_solution("max_weight_independent_set", run,
                        {"weight": weight, "vertices": vertices},
                        options, seconds)


@register_task("max_weight_clique", graph_classes=MD_GRAPH_CLASSES,
               uses_weights=True,
               summary="a maximum-weight clique under per-vertex weights "
                       "(cotree DP; MD-capable)")
def _task_max_weight_clique(problem: Problem,
                            options: SolveOptions) -> Solution:
    weights = _task_weights(problem, options, "max_weight_clique")
    run, seconds = _run_dp(problem, options,
                           max_weight_clique_dp(weights), md=True)
    weight = run.root("omega")
    vertices = [int(v) for v in _witness(run, seconds)]
    if options.validate:
        _check_weighted_set(problem, vertices, weights, weight,
                            adjacent=True, what="max_weight_clique")
    return _dp_solution("max_weight_clique", run,
                        {"weight": weight, "vertices": vertices},
                        options, seconds)


@register_task("chromatic_number",
               summary="chi(G) and a proper colouring witness (cotree DP; "
                       "chi = omega — cographs are perfect)")
def _task_chromatic_number(problem: Problem,
                           options: SolveOptions) -> Solution:
    run, seconds = _run_dp(problem, options, CHROMATIC_NUMBER_DP)
    chi = run.root("chi")
    coloring = [int(c) for c in _witness(run, seconds)]
    if options.validate:
        if sorted(set(coloring)) != list(range(chi)):
            raise ValueError(f"colouring uses {len(set(coloring))} colours, "
                             f"claimed chi = {chi}")
        oracle = _oracle(problem)
        by_color: Dict[int, list] = {}
        for v, c in enumerate(coloring):
            by_color.setdefault(c, []).append(v)
        for members in by_color.values():
            for i, u in enumerate(members):
                for v in members[i + 1:]:
                    if oracle.adjacent(u, v):
                        raise ValueError(
                            f"colouring is not proper: adjacent vertices "
                            f"{u} and {v} share a colour")
    return _dp_solution("chromatic_number", run,
                        {"chromatic_number": chi, "coloring": coloring},
                        options, seconds)


@register_task("clique_cover",
               summary="theta(G) and a partition into cliques (cotree DP; "
                       "theta = alpha — cographs are perfect)")
def _task_clique_cover(problem: Problem, options: SolveOptions) -> Solution:
    run, seconds = _run_dp(problem, options, CLIQUE_COVER_DP)
    theta = run.root("theta")
    classes = _witness(run, seconds)
    order = np.argsort(classes, kind="stable")
    bounds = np.searchsorted(classes[order], np.arange(theta + 1))
    cliques = [[int(v) for v in order[lo:hi]]
               for lo, hi in zip(bounds[:-1], bounds[1:])]
    if options.validate:
        covered = sorted(v for clique in cliques for v in clique)
        if covered != list(range(len(classes))):
            raise ValueError("clique cover is not a partition of the "
                             "vertex set")
        oracle = _oracle(problem)      # built once, shared by every clique
        for clique in cliques:
            _check_vertex_set(problem, clique, len(clique), adjacent=True,
                              what="clique_cover", oracle=oracle)
    return _dp_solution("clique_cover", run,
                        {"num_cliques": theta, "cliques": cliques},
                        options, seconds)


@register_task("count_independent_sets",
               summary="the exact number of independent sets, empty set "
                       "included (cotree DP, arbitrary precision)")
def _task_count_independent_sets(problem: Problem,
                                 options: SolveOptions) -> Solution:
    run, seconds = _run_dp(problem, options, COUNT_INDEPENDENT_SETS_DP)
    count = int(run.root("count"))
    if options.validate:
        _check_sequential(problem, COUNT_INDEPENDENT_SETS_DP, "count", count)
    return _dp_solution("count_independent_sets", run,
                        {"count": count, "includes_empty_set": True},
                        options, seconds)


# --------------------------------------------------------------------------- #
# the lower-bound reduction
# --------------------------------------------------------------------------- #

@register_task("lower_bound", input_kind="bits", graph_classes=(),
               summary="solve the Fig. 2 OR-reduction instance and decode "
                       "OR from the path count (Theorem 2.2)")
def _task_lower_bound(problem: Problem, options: SolveOptions) -> Solution:
    if problem.instance is None:
        raise ValueError(
            "the 'lower_bound' task runs the Fig. 2 OR reduction, so its "
            "input must be a 0/1 bit vector (e.g. solve([1, 0, 1], "
            "task='lower_bound')), not a general cograph")
    instance = problem.instance
    run, seconds = _run_dp(problem, options, PATH_COVER_SIZE_DP)
    num_paths = run.root("p")
    bits = [int(b) for b in instance.bits]
    expected = expected_path_count(bits)
    if options.validate and num_paths != expected:
        raise ValueError(f"path count {num_paths} disagrees with the "
                         f"paper's formula n - k + 2 = {expected}")
    solution = _dp_solution("lower_bound", run, {
        "or": or_from_path_count(num_paths, instance.n),
        "bits": bits,
        "num_paths": num_paths,
        "expected_num_paths": expected,
    }, options, seconds)
    solution.num_paths = num_paths
    return solution
