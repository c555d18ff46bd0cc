"""A tree is a forest of one: the root array is the only way the pipeline
describes a tree, so a one-instance pack runs exactly like the tree on the
PRAM simulator, and the multi-root rake schedule passes the EREW checker."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cograph import (
    as_flat_cotree,
    balanced_cotree,
    caterpillar_cotree,
    clique,
    pack,
    random_cotree,
    single_vertex,
)
from repro.core.binarize import binarize_parallel
from repro.core.pipeline import Pipeline
from repro.pram import PRAM, AccessMode
from repro.primitives import evaluate_max_plus_tree

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
