"""The ``repro.api`` front door: solve()/solve_many() parity with the legacy
entry points, SolveOptions validation, and the unified Solution shape."""

from __future__ import annotations

import pytest

from repro.api import (
    Problem,
    Solution,
    SolveOptions,
    as_problem,
    get_task,
    register_task,
    solve,
    solve_many,
    task_names,
)
from repro.baselines import sequential_path_cover
from repro.cograph import (
    CographAdjacencyOracle,
    Cotree,
    CotreeError,
    Graph,
    clique,
    independent_set,
    minimum_path_cover_size,
    random_cotree,
)
from repro.core import (
    hamiltonian_cycle,
    hamiltonian_path,
    has_hamiltonian_cycle,
    has_hamiltonian_path,
    minimum_path_cover_parallel,
)
from repro.api.tasks import _DP_TASKS, engine, runs_fast_engine
from repro.pram import AccessMode

BACKENDS = ("pram", "fast")
ALL_TASKS = ("path_cover", "path_cover_size", "hamiltonian_path",
             "hamiltonian_cycle", "recognition", "lower_bound",
             "max_clique", "max_independent_set", "chromatic_number",
             "clique_cover", "count_independent_sets",
             "max_weight_clique", "max_weight_independent_set")


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #

def test_all_builtin_tasks_registered():
    assert task_names() == tuple(sorted(ALL_TASKS))


def test_unknown_task_lists_the_known_ones():
    with pytest.raises(ValueError, match="path_cover"):
        solve(clique(3), task="make_coffee")


def test_register_task_rejects_duplicates():
    with pytest.raises(ValueError, match="already registered"):
        register_task("path_cover")(lambda p, o: None)


def test_get_task_returns_spec():
    spec = get_task("recognition")
    assert spec.name == "recognition" and not spec.runs_pipeline


# --------------------------------------------------------------------------- #
# parity: solve() vs the legacy entry points, every task x backend x family
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("backend", BACKENDS)
def test_path_cover_parity_all_families(small_named_cotrees, backend):
    for name, tree in small_named_cotrees.items():
        legacy = minimum_path_cover_parallel(tree, backend=backend)
        new = solve(tree, "path_cover", backend=backend)
        assert new.cover.paths == legacy.cover.paths, name
        assert new.num_paths == legacy.num_paths == \
            minimum_path_cover_size(tree)
        assert new.backend == backend
        assert new.answer is new.cover


def test_path_cover_sequential_parity(small_named_cotrees):
    for name, tree in small_named_cotrees.items():
        legacy = sequential_path_cover(tree)
        new = solve(tree, "path_cover", method="sequential")
        assert new.cover.paths == legacy.paths, name
        assert new.backend == "sequential"
        assert new.report is None and new.machine is None


@pytest.mark.parametrize("backend", (None,) + BACKENDS)
def test_path_cover_size_parity(small_named_cotrees, backend):
    for name, tree in small_named_cotrees.items():
        new = solve(tree, "path_cover_size", backend=backend)
        assert new.answer == minimum_path_cover_size(tree), name
        assert new.backend == ("fast" if backend is None else backend)


def test_path_cover_size_honours_every_non_default_knob():
    tree = independent_set(6)
    # any engine option must run that engine, not the fast default
    traced = solve(tree, "path_cover_size", record_steps=True)
    assert traced.backend == "pram" and traced.report.by_label
    checked = solve(tree, "path_cover_size", validate=True)
    assert checked.backend == "pram" and checked.answer == 6
    seq = solve(tree, "path_cover_size", method="sequential")
    assert seq.backend == "sequential" and seq.answer == 6


@pytest.mark.parametrize("task,legacy_has,legacy_witness", [
    ("hamiltonian_path", has_hamiltonian_path, hamiltonian_path),
    ("hamiltonian_cycle", has_hamiltonian_cycle, hamiltonian_cycle),
])
@pytest.mark.parametrize("backend", BACKENDS)
def test_hamiltonian_parity(small_named_cotrees, task, legacy_has,
                            legacy_witness, backend):
    for name, tree in small_named_cotrees.items():
        new = solve(tree, task, backend=backend)
        assert (new.answer is not None) == legacy_has(tree), name
        assert new.ok == legacy_has(tree)
        legacy = legacy_witness(tree, backend=backend)
        assert new.answer == legacy, name


def test_hamiltonian_sequential_method(small_named_cotrees):
    for name, tree in small_named_cotrees.items():
        new = solve(tree, "hamiltonian_path", method="sequential")
        assert (new.answer is not None) == has_hamiltonian_path(tree), name
        if new.answer is not None:
            oracle = CographAdjacencyOracle(tree)
            for u, v in zip(new.answer, new.answer[1:]):
                assert oracle.adjacent(u, v)


def test_sequential_validate_is_honoured(small_named_cotrees):
    # validate=True must actually check sequential covers, not be dropped
    for tree in small_named_cotrees.values():
        sol = solve(tree, "path_cover", method="sequential", validate=True)
        assert sol.num_paths == minimum_path_cover_size(tree)


def test_recognition_parity(random_cotree_pool):
    for tree, graph in random_cotree_pool:
        assert solve(graph, "recognition").answer is True
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    bad = solve(p4, "recognition")
    assert bad.answer is False and not bad.ok
    assert sorted(bad.provenance["certificate"]) == [0, 1, 2, 3]


def test_recognition_on_cotree_is_trivially_true():
    sol = solve(clique(4), "recognition")
    assert sol.answer is True
    assert sol.provenance["input_was_cotree"] is True


@pytest.mark.parametrize("bits", [[0], [1], [0, 0, 0], [1, 0, 1],
                                  [0, 1, 0, 0], [1] * 6])
@pytest.mark.parametrize("backend", BACKENDS)
def test_lower_bound_task(bits, backend):
    sol = solve(bits, "lower_bound", backend=backend)
    assert sol.answer["or"] == int(any(bits))
    assert sol.answer["num_paths"] == len(bits) - sum(bits) + 2
    assert sol.answer["num_paths"] == sol.answer["expected_num_paths"]
    assert sol.answer["bits"] == list(bits)


def test_lower_bound_rejects_plain_cographs():
    with pytest.raises(ValueError, match="bit vector"):
        solve(clique(3), "lower_bound")


# --------------------------------------------------------------------------- #
# the Solution shape
# --------------------------------------------------------------------------- #

def test_solution_carries_accounting_for_pram():
    tree = independent_set(6)
    sol = solve(tree, backend="pram", validate=True)
    assert sol.report is not None and sol.report.rounds > 0
    assert sol.machine is not None
    assert sol.stage_seconds  # the pipeline ran
    assert sol.provenance["p_root"] == 6
    assert sol.provenance["num_vertices"] == 6
    assert sol.provenance["source_format"] == "cotree"
    assert sol.provenance["repro_version"]
    assert "exchanges" in sol.provenance


def test_solution_fast_backend_has_no_accounting():
    sol = solve(independent_set(6), backend="fast")
    assert sol.report is None and sol.machine is None
    assert sol.stage_seconds


def test_solution_summary_mentions_the_essentials():
    text = solve(clique(5)).summary()
    assert "path_cover" in text and "num_paths=1" in text and "n=5" in text


# --------------------------------------------------------------------------- #
# solve_many
# --------------------------------------------------------------------------- #

def test_solve_many_matches_individual_solves(random_cotree_pool):
    trees = [tree for tree, _ in random_cotree_pool]
    batch = solve_many(trees, backend="fast")
    assert len(batch) == len(trees)
    for i, (sol, tree) in enumerate(zip(batch, trees)):
        assert sol.cover.paths == solve(tree, backend="fast").cover.paths
        assert sol.provenance["batch_index"] == i
        assert sol.machine is None


def test_solve_many_across_processes(random_cotree_pool):
    trees = [tree for tree, _ in random_cotree_pool[:4]]
    batch = solve_many(trees, backend="fast", jobs=2)
    assert [s.num_paths for s in batch] == \
        [minimum_path_cover_size(t) for t in trees]
    assert all(s.machine is None for s in batch)


def test_solve_many_strips_machines_even_in_process():
    batch = solve_many([clique(4)], backend="pram")
    assert batch[0].report is not None      # accounting survives
    assert batch[0].machine is None         # the live machine does not


def test_solve_many_mixed_tasks_fail_fast_on_unknown_task():
    with pytest.raises(ValueError, match="unknown task"):
        solve_many([clique(3)], task="nope")


def test_solve_many_accepts_mixed_input_forms():
    forms = [clique(3), "(0 * (1 * 2))", [(0, 1), (1, 2), (0, 2)],
             {0: [1, 2], 1: [0, 2], 2: [0, 1]}]
    batch = solve_many(forms, "path_cover", backend="fast")
    assert [s.num_paths for s in batch] == [1, 1, 1, 1]
    assert [s.provenance["source_format"] for s in batch] == \
        ["cotree", "text", "edge_list", "adjacency"]


# --------------------------------------------------------------------------- #
# SolveOptions validation — nothing is silently ignored
# --------------------------------------------------------------------------- #

def test_options_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown method"):
        SolveOptions(method="magic")


def test_options_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown backend"):
        SolveOptions(backend="gpu")


def test_options_rejects_sequential_with_backend():
    with pytest.raises(ValueError, match="method='parallel'"):
        SolveOptions(method="sequential", backend="fast")


def test_options_rejects_sequential_with_pram_knobs():
    with pytest.raises(ValueError, match="num_processors"):
        SolveOptions(method="sequential", num_processors=8)
    with pytest.raises(ValueError, match="work_efficient"):
        SolveOptions(method="sequential", work_efficient=False)


def test_options_rejects_fast_with_pram_knobs():
    with pytest.raises(ValueError, match="num_processors"):
        SolveOptions(backend="fast", num_processors=8)
    with pytest.raises(ValueError, match="record_steps"):
        SolveOptions(backend="fast", record_steps=True)
    with pytest.raises(ValueError, match="mode"):
        SolveOptions(backend="fast", mode="CREW")
    # the fast backend always takes its vectorized shortcuts, so
    # work_efficient=False would be silently meaningless — reject it
    with pytest.raises(ValueError, match="work_efficient"):
        SolveOptions(backend="fast", work_efficient=False)


def test_options_normalises_mode_strings():
    assert SolveOptions(mode="CREW").mode is AccessMode.CREW
    with pytest.raises(ValueError):
        SolveOptions(mode="SIMD")


def test_options_resolved_backend():
    assert SolveOptions().resolved_backend == "pram"
    assert SolveOptions(backend="fast").resolved_backend == "fast"
    assert SolveOptions(method="sequential").resolved_backend == "sequential"


def test_options_with_revalidates():
    options = SolveOptions(backend="fast")
    assert options.with_(backend="pram").backend == "pram"
    with pytest.raises(ValueError):
        options.with_(num_processors=4)


def test_options_dict_round_trip():
    options = SolveOptions(backend="pram", num_processors=8, mode="CREW",
                           validate=True)
    assert SolveOptions.from_dict(options.to_dict()) == options
    with pytest.raises(ValueError, match="unknown SolveOptions"):
        SolveOptions.from_dict({"turbo": True})


def test_solve_rejects_options_plus_kwargs():
    with pytest.raises(ValueError, match="not both"):
        solve(clique(3), options=SolveOptions(), backend="fast")


def test_solve_rejects_non_options_object():
    with pytest.raises(TypeError, match="SolveOptions"):
        solve(clique(3), options={"backend": "fast"})


def test_pipeline_free_task_rejects_pipeline_options():
    with pytest.raises(ValueError, match="does not run the solver pipeline"):
        solve(clique(3), "recognition", backend="fast")
    with pytest.raises(ValueError, match="does not run the solver pipeline"):
        solve(clique(3), "recognition",
              options=SolveOptions(method="sequential"))


def test_num_processors_honoured_through_solve():
    sol = solve(independent_set(8), backend="pram", num_processors=3)
    assert sol.report.num_processors == 3


def test_record_steps_honoured_through_solve():
    sol = solve(independent_set(8), backend="pram", record_steps=True)
    assert sol.report.by_label  # per-label breakdown recorded


# --------------------------------------------------------------------------- #
# vertex ids outside 0..n-1
# --------------------------------------------------------------------------- #

SPARSE = ("union", 0, ("join", 2, 7))


@pytest.mark.parametrize("engine", [{"backend": "fast"}, {"backend": "pram"},
                                    {"method": "sequential"}])
def test_path_cover_refuses_foreign_vertex_ids_by_name(engine):
    with pytest.raises(CotreeError, match=r"path_cover: vertex id 7 is out "
                                          r"of range: vertex ids must be "
                                          r"0\.\.n-1 \(n = 3\)"):
        solve(Cotree.from_nested(SPARSE), **engine)
    # the lone leaf too, as chromatic_number refuses it
    with pytest.raises(CotreeError, match="vertex id 5 is out of range"):
        solve("5", **engine)
    # so do the tasks that never index by vertex id
    with pytest.raises(CotreeError, match=r"max_clique: vertex id 7 is out "
                                          r"of range"):
        solve(Cotree.from_nested(SPARSE), "max_clique", **engine)


@pytest.mark.parametrize("backend", BACKENDS)
def test_core_solver_answers_sparse_ids_through_their_ranks(backend):
    for tree, paths in ((Cotree.from_nested(SPARSE), [[0], [2, 7]]),
                        (Cotree.single_vertex(3), [[3]])):
        result = minimum_path_cover_parallel(tree, backend=backend,
                                             validate=True)
        assert result.cover.paths == paths
        assert result.num_paths == result.p_root == len(paths)


def test_one_vertex_pram_report_is_the_pipelines_cost():
    solution = solve("0", backend="pram")
    assert solution.cover.paths == [[0]]
    assert solution.report.rounds > 0 and solution.report.work > 0
    assert "extract" in solution.stage_seconds


# --------------------------------------------------------------------------- #
# the engine rule: only path_cover defaults to the simulator
# --------------------------------------------------------------------------- #

def _instance(task):
    """A small input every registered task accepts, with its options."""
    spec = get_task(task)
    if spec.input_kind == "bits":
        return [1, 0, 1, 1], {}
    weights = {"weights": list(range(1, 13))} if spec.uses_weights else {}
    return random_cotree(12, seed=3), weights


@pytest.mark.parametrize("task", task_names())
def test_default_solve_runs_the_engine_the_rule_names(task):
    problem, extra = _instance(task)
    solution = solve(problem, task, **extra)
    ran = engine(task, SolveOptions())
    if not get_task(task).runs_pipeline:
        assert solution.backend == "sequential"
    else:
        assert solution.backend == ran
        assert ran == ("pram" if task == "path_cover" else "fast")
    # the accounting comes with the simulator, and only with it
    assert (solution.report is not None) == (solution.backend == "pram")
    assert (solution.machine is not None) == (solution.backend == "pram")
    # the server's inline route keys on the engine the solve reports
    assert runs_fast_engine(task, SolveOptions()) == (
        solution.backend != "pram")


@pytest.mark.parametrize("task", sorted(_DP_TASKS))
def test_pram_backend_still_runs_the_simulator_on_every_dp_task(task):
    problem, extra = _instance(task)
    solution = solve(problem, task, backend="pram", **extra)
    assert solution.backend == "pram"
    assert solution.report is not None and solution.report.rounds > 0
    assert not runs_fast_engine(task, SolveOptions(backend="pram"))
