"""A tree is a forest of one: the root array is the only way the pipeline
describes a tree, so a one-instance pack runs exactly like the tree on the
PRAM simulator, and the multi-root rake schedule passes the EREW checker.
A packed forest of many runs the whole pipeline on either engine: no
bracket of ``B(R)`` pairs across two instances."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.tasks import _covers_per_root
from repro.baselines.sequential import sequential_path_cover
from repro.cograph import (
    CotreeError,
    as_flat_cotree,
    balanced_cotree,
    caterpillar_cotree,
    clique,
    independent_set,
    pack,
    random_cotree,
    single_vertex,
    threshold_cograph,
)
from repro.core import minimum_path_cover_parallel
from repro.core.binarize import binarize_parallel
from repro.core.path_trees import build_pseudo_forest
from repro.core.pipeline import Pipeline
from repro.pram import PRAM, AccessMode
from repro.primitives import evaluate_max_plus_tree, match_brackets

SHAPES = {
    "random": lambda: random_cotree(200, seed=19),
    "caterpillar": lambda: caterpillar_cotree(150),
    "balanced": lambda: balanced_cotree(7),
}


def _simulated_run(tree):
    machine = PRAM(mode=AccessMode.EREW, record_steps=True)
    run = Pipeline.default().run(tree, machine)
    return run, machine.report()


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_pipeline_on_a_forest_of_one_is_the_tree(shape):
    tree = as_flat_cotree(SHAPES[shape]())
    solo, solo_report = _simulated_run(tree)
    packed, packed_report = _simulated_run(pack([tree]))

    assert [list(p) for p in packed.cover.paths] == \
        [list(p) for p in solo.cover.paths]
    assert np.array_equal(packed.state.reduced.p, solo.state.reduced.p)
    assert (packed_report.rounds, packed_report.time, packed_report.work) \
        == (solo_report.rounds, solo_report.time, solo_report.work)
    assert packed_report.by_label == solo_report.by_label
    assert "step3.reduce.p-values:rake" in solo_report.by_label
    assert packed_report == solo_report


#: PRAM cost (rounds, time, work) of ``Pipeline.default()`` on EREW, as
#: measured with the separate single-root rake schedule this module's one
#: schedule replaced; pins the paper's Step 3 accounting.
PINNED_COSTS = {
    ("random", 50): (752, 752, 29588),
    ("caterpillar", 50): (733, 733, 28414),
    ("balanced", 50): (755, 755, 36963),
    ("random", 500): (1025, 1025, 293193),
    ("caterpillar", 500): (979, 979, 266714),
    ("balanced", 500): (981, 981, 299436),
}
PINNED_SHAPES = {
    "random": lambda n: random_cotree(n, seed=n),
    "caterpillar": caterpillar_cotree,
    "balanced": lambda n: balanced_cotree(round(np.log2(n))),
}


@pytest.mark.parametrize("shape, n", sorted(PINNED_COSTS))
def test_pipeline_cost_report_is_pinned(shape, n):
    machine = PRAM(mode=AccessMode.EREW)
    Pipeline.default().run(as_flat_cotree(PINNED_SHAPES[shape](n)), machine)
    report = machine.report()
    assert (report.rounds, report.time, report.work) == \
        PINNED_COSTS[shape, n]


def _p_values(machine, binary, roots):
    """The Lemma 2.4 recurrence over ``binary`` by rake contraction."""
    n = binary.num_nodes
    join_const = np.zeros(n, dtype=np.int64)
    internal = binary.internal_nodes
    join_const[internal] = \
        binary.subtree_leaf_counts()[binary.right[internal]]
    return evaluate_max_plus_tree(machine, binary.left, binary.right,
                                  binary.parent, roots, binary.kind,
                                  join_const, np.ones(n, dtype=np.int64))


def test_multi_root_rake_schedule_passes_the_erew_checker():
    trees = [as_flat_cotree(t) for t in (
        random_cotree(120, seed=4), caterpillar_cotree(60),
        single_vertex(0), balanced_cotree(5), clique(2),
        random_cotree(77, seed=9))]
    forest = binarize_parallel("fast", pack(trees))
    assert len(forest.roots) == len(trees)
    forest.validate()

    machine = PRAM(mode=AccessMode.EREW, record_steps=True)
    values = _p_values(machine, forest, forest.roots)
    assert "contract:rake" in machine.report().by_label

    # binarize allocates node ids in input order, so instance i owns one
    # contiguous block laid out exactly like its solo binarization
    base = 0
    for tree, root in zip(trees, forest.roots):
        solo = binarize_parallel("fast", tree)
        block = slice(base, base + solo.num_nodes)
        assert root == base + solo.root
        solo_values = _p_values(PRAM(mode=AccessMode.EREW), solo, solo.root)
        assert np.array_equal(values[block], solo_values)
        base += solo.num_nodes
    assert base == forest.num_nodes


# --------------------------------------------------------------------------- #
# Step 5 on a packed forest: brackets never pair across instances
# --------------------------------------------------------------------------- #

BRACKET_SHAPES = {
    "random": lambda: random_cotree(90, seed=5),
    "caterpillar": lambda: caterpillar_cotree(40),
    "balanced": lambda: balanced_cotree(5),
    "threshold": lambda: threshold_cograph([1, 0, 1, 1, 0, 0, 1, 0, 1]),
    "clique": lambda: clique(7),
    "independent set": lambda: independent_set(6),
    "single vertex": lambda: single_vertex(0),
}
ENGINES = {
    "fast": lambda: "fast",
    "pram": lambda: PRAM(mode=AccessMode.EREW),
}


def _brackets(tree, engine):
    return Pipeline.until("brackets").run(tree, engine).state.brackets


def _matches(seq, engine):
    """``match_brackets`` of each bracket class (square, round)."""
    return [match_brackets(engine, seq.is_open[seq.is_square == square])
            for square in (True, False)]


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("shape", sorted(BRACKET_SHAPES))
def test_every_close_bracket_is_matched_inside_its_tree(shape, engine):
    make = ENGINES[engine]
    seq = _brackets(as_flat_cotree(BRACKET_SHAPES[shape]()), make())
    for square, match in zip((True, False), _matches(seq, make())):
        closes = ~seq.is_open[seq.is_square == square]
        assert np.all(match[closes] >= 0), (shape, square)


def test_a_forest_sequence_matches_as_its_blocks():
    trees = [as_flat_cotree(make()) for make in BRACKET_SHAPES.values()]
    for engine in ENGINES.values():
        forest_seq = _brackets(pack(trees), engine())
        blocks = [_brackets(tree, engine()) for tree in trees]
        assert len(forest_seq) == sum(len(seq) for seq in blocks)
        for cls, forest_match in enumerate(_matches(forest_seq, engine())):
            base, expected = 0, []
            for seq in blocks:
                match = _matches(seq, engine())[cls]
                expected.append(np.where(match >= 0, match + base, -1))
                base += len(match)
            assert np.array_equal(forest_match, np.concatenate(expected))

        # Step 5 takes the forest's sequence on either engine
        pseudo = build_pseudo_forest(engine(), forest_seq)
        reference = build_pseudo_forest("fast", forest_seq)
        for field in ("parent", "left", "right"):
            assert np.array_equal(getattr(pseudo, field),
                                  getattr(reference, field))


def test_a_mixed_forest_solves_on_the_erew_simulator():
    trees = [as_flat_cotree(t) for t in (
        single_vertex(0), random_cotree(40, seed=3), clique(2),
        caterpillar_cotree(17), single_vertex(0), clique(2),
        random_cotree(23, seed=8))]
    forest = pack(trees)
    machine = PRAM(mode=AccessMode.EREW, record_steps=True)
    simulated = Pipeline.default().run(forest, machine).state
    fast = Pipeline.default().run(forest, "fast").state
    assert "step5.pseudo.match-sq:pair" in machine.report().by_label

    def paths(cover):
        return [[int(v) for v in path] for path in cover.paths]

    per_instance = [paths(cover) for cover, _ in
                    _covers_per_root(forest, simulated)]
    assert per_instance == [paths(cover) for cover, _ in
                            _covers_per_root(forest, fast)]
    for tree, own in zip(trees, per_instance):
        assert own == paths(Pipeline.default().run(tree, "fast").state.cover)


@pytest.mark.parametrize("backend", ["fast", "pram"])
def test_a_forest_path_count_sums_its_instances(backend):
    trees = [random_cotree(n, seed=n) for n in (3, 9, 20, 1, 14)]
    result = minimum_path_cover_parallel(pack(trees), backend=backend,
                                         validate=True)
    solo = [minimum_path_cover_parallel(t, backend=backend).p_root
            for t in trees]
    assert result.p_root == result.num_paths == sum(solo)


def test_the_sequential_baseline_refuses_a_forest_by_name():
    trees = [random_cotree(n, seed=n) for n in (3, 9, 20)]
    with pytest.raises(CotreeError, match="a forest of 3 trees"):
        sequential_path_cover(pack(trees))
