"""The built-in tasks of the :func:`repro.api.solve` front door.

Thirteen tasks ship with the library, all registered with
:func:`~repro.api.registry.register_task`.  Five are plain functions that
double as examples for out-of-tree tasks; the eight cotree-DP tasks are
rows of one private table (see below):

=============================  ============================================
``path_cover``                 the minimum path cover itself (the paper's
                               main theorem)
``path_cover_size``            just ``p(root)`` — the Lemma 2.4 cotree DP
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

The last seven and ``path_cover_size`` are the rows of one private
table, ``_DP_TASKS`` (``_DPTask`` lists a row's fields).  ``path_cover``
and every row have one *body* each (``_cover_body``, ``_dp_body``): it
takes a tree with a root array and returns one Solution per root.  A solo
solve passes the instance's own tree (one root, no copy); the forest sweep
(:mod:`repro.api.forest`) passes a packed forest to the same body
(``_ROOT_ARRAY_BODIES``), and only the split back per instance
(``_covers_per_root``, ``_per_root``) knows there is more than one root.
The DP tasks, the Hamiltonicity decisions and the path count behind
``lower_bound`` run :func:`~repro.core.run_cotree_dp` over
:class:`~repro.cograph.FlatCotree` CSR arrays, level by level or, on deep
trees, by heavy-path contraction.  One function, :func:`engine`, picks
every task's engine: the options' choice when they make one, else the
PRAM simulator for ``path_cover`` and the fast engine for the rest.  The
extremal-set tasks (``max_clique``, ``max_independent_set`` and both
weighted variants) are **MD-capable**: their DP specs carry prime
combiners, so they consume the modular decomposition tree of *any* graph
whose prime quotients are spiders (P4-sparse graphs) or small
(arity <= 16) — not just cographs.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..baselines import sequential_path_cover
from ..cograph import (
    CographAdjacencyOracle,
    FlatCotree,
    FlatForest,
    NotACographError,
    PathCover,
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
from .registry import MD_GRAPH_CLASSES, get_task, register_task
from .solution import Solution

__all__ = ["engine", "runs_fast_engine"]  # tasks: via the registry


def engine(task: str, options: SolveOptions) -> str:
    """The engine ``task`` runs on under ``options``: the options' own
    choice when they pick one (:attr:`SolveOptions.picks_engine`), else
    the PRAM simulator for ``path_cover``, the paper's algorithm, and the
    fast engine for every extension of it."""
    if options.picks_engine:
        return options.resolved_backend
    return "pram" if task == "path_cover" else "fast"


# --------------------------------------------------------------------------- #
# path cover
# --------------------------------------------------------------------------- #

def _cover_body(tree, options: SolveOptions,
                task: str = "path_cover") -> List[Solution]:
    """The minimum path cover of every root of ``tree``, one Solution each,
    on ``task``'s engine.

    A solo solve passes the instance's own tree (one root); the forest
    sweep passes a packed :class:`~repro.cograph.FlatForest`, which runs
    on the fast engine unless the options pick one, and
    :func:`_covers_per_root` splits the one cover back per instance.
    """
    backend = "fast" if isinstance(tree, FlatForest) \
        and not options.picks_engine else engine(task, options)
    if backend == "sequential":
        cover = sequential_path_cover(tree)
        if options.validate:
            cover.validate(CographAdjacencyOracle(tree),
                           expected_num_vertices=tree.num_vertices,
                           expected_num_paths=int(
                               minimum_path_cover_size(tree)))
        return [Solution(task="path_cover", answer=cover,
                         backend="sequential", options=options, cover=cover,
                         num_paths=cover.num_paths)]
    # the parallel pipeline consumes FlatCotree inputs natively — no
    # object-per-node conversion on the hot path
    kwargs = options.solver_kwargs()
    kwargs["backend"] = backend
    result = minimum_path_cover_parallel(tree, **kwargs)
    return [Solution(task="path_cover", answer=cover, backend=result.backend,
                     options=options, cover=cover, num_paths=cover.num_paths,
                     report=result.report,
                     stage_seconds=dict(result.stage_seconds),
                     machine=result.machine, provenance=provenance)
            for cover, provenance in _covers_per_root(tree, result)]


def _covers_per_root(tree, result) -> List[Tuple[PathCover, Dict]]:
    """``(cover, provenance)`` per root: the whole result for one tree.
    A packed forest's paths go to their instances in extract's order (a
    solo run's), rebased to local ids; no instance reports the forest's
    exchange count."""
    if not isinstance(tree, FlatForest):
        return [(result.cover, {"p_root": result.p_root,
                                "exchanges": result.exchanges})]
    vb = tree.vertex_base
    paths = result.cover.paths
    owner = np.searchsorted(vb, [path[0] for path in paths], side="right") - 1
    per_root: List[List[List[int]]] = [[] for _ in range(len(vb) - 1)]
    for i, base, path in zip(owner.tolist(), vb[owner].tolist(), paths):
        per_root[i].append([v - base for v in path])
    return [(PathCover(own), {"p_root": len(own)}) for own in per_root]


@register_task("path_cover",
               summary="minimum path cover of the cograph (Theorem 5.3)")
def _task_path_cover(problem: Problem, options: SolveOptions) -> Solution:
    [solution] = _cover_body(problem.pipeline_tree(), options)
    return solution


# --------------------------------------------------------------------------- #
# Hamiltonicity
# --------------------------------------------------------------------------- #

def _hamiltonicity_task(problem: Problem, options: SolveOptions, task: str,
                        witness_of) -> Solution:
    """Decide from the ``path_cover_size`` DP; build the witness with the
    ``path_cover`` body.  Both run on ``task``'s engine."""
    run, seconds = _run_dp(problem.pipeline_tree(), options,
                           PATH_COVER_SIZE_DP, task)
    t0 = time.perf_counter()
    witness = witness_of(
        run, lambda tree: _cover_body(tree, options, task)[0].cover)
    seconds["witness"] = time.perf_counter() - t0
    size = run.root("p")
    return Solution(task=task, answer=witness,
                    backend=engine(task, options), options=options,
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
        # once the validator accepts it
        problem.pipeline_tree()
        answer = True
        provenance["input_was_cotree"] = True
    else:
        try:
            problem.pipeline_tree()  # decomposes and caches the tree
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

def _run_dp(tree, options: SolveOptions, dp: CotreeDP,
            task: str) -> Tuple[CotreeDPRun, Dict[str, float]]:
    """Execute one :class:`~repro.core.CotreeDP` on ``tree`` on ``task``'s
    :func:`engine`.

    ``"sequential"`` runs the generic postorder evaluator; a parallel
    engine runs :func:`~repro.core.run_cotree_dp` on it (the PRAM machine
    inherits the EREW accounting).  The ``work_efficient`` knob has no
    effect here — the engine has a single variant — and is deliberately
    tolerated so option sets can sweep across tasks.
    """
    t0 = time.perf_counter()
    backend = engine(task, options)
    if backend == "sequential":
        run = run_cotree_dp_sequential(dp, tree)
    else:
        ctx = _build_context(tree.num_vertices, None, backend,
                             options.num_processors, options.mode,
                             options.record_steps)
        run = run_cotree_dp(dp, tree, ctx)
    return run, {"dp": time.perf_counter() - t0}


def _dp_solution(task: str, run: CotreeDPRun, options: SolveOptions,
                 stage_seconds: Dict[str, float], answer: Any,
                 num_paths: Optional[int] = None) -> Solution:
    ctx = run.ctx
    return Solution(task=task, answer=answer, backend=run.backend,
                    options=options, num_paths=num_paths,
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


class _GraphOracle:
    """Adjacency oracle over an explicit graph's neighbour sets (built once:
    a witness check asks once per vertex pair), with the same ``adjacent``
    surface as :class:`~repro.cograph.CographAdjacencyOracle` — used to
    validate witnesses on graph and modular decomposition inputs."""

    def __init__(self, graph) -> None:
        self._adj = graph.adj

    def adjacent(self, u: int, v: int) -> bool:
        return v in self._adj[u]


def _oracle(problem: Problem):
    """The adjacency oracle witnesses are validated against: the LCA
    oracle on cograph inputs, the explicit graph on MD inputs."""
    if problem.graph is not None:
        return _GraphOracle(problem.graph)
    tree = problem.pipeline_tree()
    if isinstance(tree, FlatCotree) and tree.has_primes:
        return _GraphOracle(graph_from_md_tree(tree))
    return CographAdjacencyOracle(tree)


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


# answer builders, ``(root value, witness list) -> (answer, num_paths)``,
# are shared by the solo route below and the forest sweep

def _vertex_set_answer(key: str):
    return lambda value, vertices: ({key: value, "vertices": vertices}, None)


def _clique_cover_answer(theta: int, classes: list) -> Tuple[Any, None]:
    cliques: List[List[int]] = [[] for _ in range(theta)]
    for v, c in enumerate(classes):
        cliques[c].append(v)
    return {"num_cliques": theta, "cliques": cliques}, None


# ``validate=True`` checks, ``(problem, answer, weights) -> None``

def _sequential_check(dp: CotreeDP, field: str, key: Optional[str] = None):
    return lambda problem, answer, _weights: _check_sequential(
        problem, dp, field, answer if key is None else answer[key])


def _vertex_set_check(*, adjacent: bool, what: str):
    """The check of an extremal-set task; a weighted set must also weigh
    what the DP's root value claims."""
    def check(problem: Problem, answer, weights) -> None:
        vertices = answer["vertices"]
        size = answer.get("size", len(vertices))
        _check_vertex_set(problem, vertices, size, adjacent=adjacent,
                          what=what)
        if weights is not None:
            total = int(weights[np.asarray(vertices, dtype=np.int64)].sum())
            if total != answer["weight"]:
                raise ValueError(f"{what} witness weighs {total}, "
                                 f"claimed {answer['weight']}")
    return check


def _check_coloring(problem: Problem, answer, _weights) -> None:
    chi, coloring = answer["chromatic_number"], answer["coloring"]
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


def _check_clique_cover(problem: Problem, answer, _weights) -> None:
    cliques = answer["cliques"]
    covered = sorted(v for clique in cliques for v in clique)
    if covered != list(range(problem.num_vertices)):
        raise ValueError("clique cover is not a partition of the "
                         "vertex set")
    oracle = _oracle(problem)          # built once, shared by every clique
    for clique in cliques:
        _check_vertex_set(problem, clique, len(clique), adjacent=True,
                          what="clique_cover", oracle=oracle)


class _DPTask(NamedTuple):
    """One cotree-DP task: everything both routes need to answer it."""

    #: the DP spec, or ``weights -> spec`` when ``weighted``
    spec: Any
    #: the root field holding the task's value
    field: str
    #: ``None``, ``"set"`` (a sorted vertex-id array) or ``"labels"``
    #: (one label per vertex)
    witness: Optional[str]
    #: ``(value, witness list) -> (answer, num_paths)``
    answer: Callable[[Any, Any], Tuple[Any, Optional[int]]]
    #: the ``validate=True`` check, ``(problem, answer, weights) -> None``
    check: Callable[[Problem, Any, Any], None]
    summary: str
    #: run on the modular decomposition tree (prime combiners in the spec)
    md: bool = False
    weighted: bool = False


#: every cotree-DP task, in registration order.  The forest sweep takes the
#: unweighted ones (:data:`repro.api.FOREST_TASKS`).
_DP_TASKS: Dict[str, _DPTask] = {
    "path_cover_size": _DPTask(
        PATH_COVER_SIZE_DP, "p", None, lambda p, _: (p, p),
        _sequential_check(PATH_COVER_SIZE_DP, "p"),
        summary="p(root) only (Lemma 2.4 cotree DP)"),
    "max_clique": _DPTask(
        MAX_CLIQUE_DP, "omega", "set", _vertex_set_answer("size"),
        _vertex_set_check(adjacent=True, what="max_clique"), md=True,
        summary="omega(G) and a maximum-clique vertex witness "
                "(cotree DP; MD-capable)"),
    "max_independent_set": _DPTask(
        MAX_INDEPENDENT_SET_DP, "alpha", "set", _vertex_set_answer("size"),
        _vertex_set_check(adjacent=False, what="max_independent_set"),
        md=True,
        summary="alpha(G) and a maximum-independent-set vertex witness "
                "(cotree DP; MD-capable)"),
    "max_weight_independent_set": _DPTask(
        max_weight_independent_set_dp, "alpha", "set",
        _vertex_set_answer("weight"),
        _vertex_set_check(adjacent=False,
                          what="max_weight_independent_set"),
        md=True, weighted=True,
        summary="a maximum-weight independent set under per-vertex "
                "weights (cotree DP; MD-capable)"),
    "max_weight_clique": _DPTask(
        max_weight_clique_dp, "omega", "set", _vertex_set_answer("weight"),
        _vertex_set_check(adjacent=True, what="max_weight_clique"),
        md=True, weighted=True,
        summary="a maximum-weight clique under per-vertex weights "
                "(cotree DP; MD-capable)"),
    "chromatic_number": _DPTask(
        CHROMATIC_NUMBER_DP, "chi", "labels",
        lambda chi, coloring: (
            {"chromatic_number": chi, "coloring": coloring}, None),
        _check_coloring,
        summary="chi(G) and a proper colouring witness (cotree DP; "
                "chi = omega — cographs are perfect)"),
    "clique_cover": _DPTask(
        CLIQUE_COVER_DP, "theta", "labels", _clique_cover_answer,
        _check_clique_cover,
        summary="theta(G) and a partition into cliques (cotree DP; "
                "theta = alpha — cographs are perfect)"),
    "count_independent_sets": _DPTask(
        COUNT_INDEPENDENT_SETS_DP, "count", None,
        lambda count, _: ({"count": count, "includes_empty_set": True},
                          None),
        _sequential_check(COUNT_INDEPENDENT_SETS_DP, "count", "count"),
        summary="the exact number of independent sets, empty set "
                "included (cotree DP, arbitrary precision)"),
}


def _dp_body(task: str, entry: _DPTask, tree, options: SolveOptions,
             weights=None) -> List[Solution]:
    """One table task over every root of ``tree``, one Solution each."""
    dp = entry.spec(weights) if entry.weighted else entry.spec
    run, seconds = _run_dp(tree, options, dp, task)
    values = run.root_values(entry.field).tolist()
    witnesses = [None] * len(values)
    if entry.witness is not None:
        t0 = time.perf_counter()
        witness = run.witness()
        seconds["witness"] = time.perf_counter() - t0
        witnesses = _witness_per_root(run.tree, witness, entry.witness)
    return [_dp_solution(task, run, options, dict(seconds),
                         *entry.answer(int(value), vertices))
            for value, vertices in zip(values, witnesses)]


def _witness_per_root(tree, witness: np.ndarray, shape: str) -> list:
    """The witness as one list per root: whole for one tree; a packed
    forest's sorted vertex set splits by one ``searchsorted`` and is rebased
    to local ids, its per-vertex labels split at the vertex bases."""
    if not isinstance(tree, FlatForest):
        return [witness.tolist()]
    vb = tree.vertex_base
    if shape == "set":
        cuts = np.searchsorted(witness, vb)
        witness = witness - np.repeat(vb[:-1], np.diff(cuts))
    else:
        cuts = vb
    witness, cuts = witness.tolist(), cuts.tolist()
    return [witness[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]


def _solve_dp(task: str, entry: _DPTask, problem: Problem,
              options: SolveOptions) -> Solution:
    """Solve one instance of a table task; ``md`` rows (prime combiners in
    the spec) run on the modular decomposition tree of a non-cograph."""
    weights = _task_weights(problem, options, task) if entry.weighted \
        else None
    tree = problem.decomposition_tree() if entry.md \
        else problem.pipeline_tree()
    [solution] = _dp_body(task, entry, tree, options, weights)
    if options.validate:
        entry.check(problem, solution.answer, weights)
    return solution


for _task, _entry in _DP_TASKS.items():
    register_task(_task, summary=_entry.summary,
                  graph_classes=MD_GRAPH_CLASSES if _entry.md
                  else ("cograph",),
                  uses_weights=_entry.weighted)(
        functools.partial(_solve_dp, _task, _entry))


#: ``(tree, options) -> one Solution per root`` of every task that answers
#: a root array; the forest sweep runs the unweighted ones.
_ROOT_ARRAY_BODIES: Dict[str, Callable[..., List[Solution]]] = {
    "path_cover": _cover_body,
    **{task: functools.partial(_dp_body, task, entry)
       for task, entry in _DP_TASKS.items()},
}


def runs_fast_engine(task: str, options: SolveOptions) -> bool:
    """Whether solving ``task`` under ``options`` runs the fast engine or
    none (a task that runs no pipeline, such as ``recognition``).  The
    server's inline route keys on it."""
    return not get_task(task).runs_pipeline \
        or engine(task, options) == "fast"


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
    run, seconds = _run_dp(problem.pipeline_tree(), options,
                           PATH_COVER_SIZE_DP, "lower_bound")
    num_paths = run.root("p")
    bits = [int(b) for b in instance.bits]
    expected = expected_path_count(bits)
    if options.validate and num_paths != expected:
        raise ValueError(f"path count {num_paths} disagrees with the "
                         f"paper's formula n - k + 2 = {expected}")
    return _dp_solution("lower_bound", run, options, seconds, {
        "or": or_from_path_count(num_paths, instance.n),
        "bits": bits,
        "num_paths": num_paths,
        "expected_num_paths": expected,
    }, num_paths)
