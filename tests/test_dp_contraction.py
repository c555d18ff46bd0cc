"""The heavy-path contraction schedule of the cotree-DP engine.

On the fast backend, deep trees run :func:`repro.core.dp.run_cotree_dp`
by heavy-path contraction instead of one round per level, and their
witnesses by interval passes over one preorder numbering.  Pinned here:

1. values and witnesses are bit-identical across the contraction, the
   fast level sweep, the PRAM backend and the sequential evaluator, for
   every built-in spec and both weighted factories, on deep, bushy,
   degenerate and forest shapes;
2. which schedule runs: the height rule picks the contraction on
   caterpillars and the level sweep on random trees; PRAM contexts, prime
   nodes and specs without a one-child map always sweep levels;
3. the contraction takes at most ``floor(log2 leaves) + 1`` rounds, and
   its numbering (preorder, sizes, leaf counts, heavy children with the
   smallest-id tie-break, light depths) is exact.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import solve
from repro._dfs import multiway_numbering
from repro.cograph import (
    FlatCotree,
    as_flat_cotree,
    caterpillar_cotree,
    md_tree,
    random_cotree,
    random_p4_sparse,
)
from repro.cograph.cotree import JOIN, LEAF, UNION, CotreeError
from repro.cograph.forest import pack
from repro.core import dp as dp_module
from repro.core.dp import (
    BUILTIN_DPS,
    CHROMATIC_NUMBER_DP,
    MAX_CLIQUE_DP,
    MAX_INDEPENDENT_SET_DP,
    Combine,
    CotreeDP,
    heavy_paths,
    max_weight_clique_dp,
    max_weight_independent_set_dp,
    run_cotree_dp,
    run_cotree_dp_sequential,
)
from repro.primitives.tree_contraction import NEG_INF


# --------------------------------------------------------------------------- #
# shapes
# --------------------------------------------------------------------------- #

def _flat_from_parent(parent, seed: int = 0) -> FlatCotree:
    """A cotree on a parent array: childless nodes are leaves (randomly
    labelled), internal kinds alternate with depth."""
    parent = np.asarray(parent, dtype=np.int64)
    n = len(parent)
    rng = np.random.default_rng(seed)
    nodes = np.flatnonzero(parent >= 0)
    order = nodes[np.argsort(parent[nodes], kind="stable")]
    counts = np.bincount(parent[nodes], minlength=n)
    offset = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offset[1:])
    depth = np.zeros(n, dtype=np.int64)
    for u in range(n):                      # parents precede children
        if parent[u] >= 0:
            depth[u] = depth[parent[u]] + 1
    kind = np.where(depth % 2 == 0, JOIN, UNION).astype(np.int8)
    leaves = np.flatnonzero(counts == 0)
    kind[leaves] = LEAF
    leaf_vertex = np.full(n, -1, dtype=np.int64)
    leaf_vertex[leaves] = rng.permutation(len(leaves))
    return FlatCotree(kind, offset, order, parent, leaf_vertex,
                      int(np.flatnonzero(parent < 0)[0]))


def broom(spine: int, bushy: int, seed: int = 0) -> FlatCotree:
    """A spine of ``spine`` internal nodes (one leaf each) over a random
    recursive tree of ``bushy`` internal nodes with two leaves each."""
    rng = np.random.default_rng(seed)
    inner = np.empty(bushy, dtype=np.int64)
    inner[0] = spine - 1
    inner[1:] = spine + (rng.random(bushy - 1)
                         * np.arange(1, bushy)).astype(np.int64)
    parent = np.concatenate([
        np.arange(-1, spine - 1),                       # the spine
        inner,                                          # the bushy part
        np.arange(spine),                               # spine leaves
        np.repeat(np.arange(spine, spine + bushy), 2),  # bushy leaves
    ])
    return _flat_from_parent(parent, seed)


def chained_random(n_internal: int, seed: int = 0) -> FlatCotree:
    """A random recursive tree that mostly extends its newest node (long
    chains with random side branches); every internal node gets a leaf."""
    rng = np.random.default_rng(seed)
    inner = np.empty(n_internal, dtype=np.int64)
    inner[0] = -1
    for i in range(1, n_internal):
        inner[i] = i - 1 if rng.random() < 0.8 else rng.integers(0, i)
    parent = np.concatenate([inner, np.arange(n_internal)])
    childless = np.setdiff1d(np.arange(n_internal), inner[1:])
    parent = np.concatenate([parent, childless])        # a second leaf
    return _flat_from_parent(parent, seed)


def unary_chain() -> FlatCotree:
    """A non-canonical tree: unary internal nodes on a deep spine."""
    parent = [-1, 0, 1, 2, 3, 4, 5, 6, 2, 4, 6, 7, 7, 0]
    return _flat_from_parent(parent, 3)


SHAPES = {
    "caterpillar": lambda: as_flat_cotree(caterpillar_cotree(400)),
    "caterpillar-same-label": lambda: as_flat_cotree(
        caterpillar_cotree(300, alternate=False)),
    "broom": lambda: broom(300, 200, seed=1),
    "chained-random": lambda: chained_random(500, seed=2),
    "depth-5000": lambda: as_flat_cotree(caterpillar_cotree(5001)),
    "one-vertex": lambda: as_flat_cotree(random_cotree(1)),
    "two-leaves": lambda: as_flat_cotree(random_cotree(2, seed=0)),
    "unary-chain": unary_chain,
    "forest": lambda: pack([caterpillar_cotree(250), random_cotree(1),
                            random_cotree(2, seed=1),
                            random_cotree(9, seed=2),
                            caterpillar_cotree(3)]),
}


def specs_for(flat: FlatCotree):
    n = flat.num_vertices
    weights = (np.arange(n) * 7919) % 23
    return list(BUILTIN_DPS) + [max_weight_clique_dp(weights),
                                max_weight_independent_set_dp(weights)]


@pytest.fixture
def schedule(monkeypatch):
    """Force one schedule on the fast backend: ``schedule("contraction")``
    contracts any tree with an internal node, ``schedule("levels")``
    never contracts."""
    def force(name: str) -> None:
        height = 1 if name == "contraction" else 2 ** 62
        monkeypatch.setattr(dp_module, "_contraction_height",
                            lambda num_nodes: height)
    return force


# --------------------------------------------------------------------------- #
# 1. bit parity
# --------------------------------------------------------------------------- #

def _witness(run):
    w = run.witness()
    return None if w is None else np.asarray(w).tolist()


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_values_and_witnesses_match_every_engine(shape, schedule,
                                                 monkeypatch):
    flat = SHAPES[shape]()
    for dp in specs_for(flat):
        schedule("contraction")
        contracted = run_cotree_dp(dp, flat)
        schedule("levels")
        levels = run_cotree_dp(dp, flat)
        pram = run_cotree_dp(dp, flat, "pram") if shape != "depth-5000" \
            else levels
        sequential = run_cotree_dp_sequential(dp, flat)
        expected = "contraction" if len(flat.internal_nodes) else "levels"
        assert contracted.schedule == expected
        assert levels.schedule == pram.schedule == "levels"
        for name in dp.fields:
            want = sequential.values[name].tolist()
            for run in (contracted, levels, pram):
                assert run.values[name].tolist() == want, (dp.name, name)
        want = _witness(sequential)
        for run in (contracted, levels, pram):
            assert _witness(run) == want, dp.name


def test_contraction_matches_levels_on_random_trees(schedule):
    for seed in range(6):
        flat = as_flat_cotree(random_cotree(300, seed=seed))
        for dp in specs_for(flat):
            schedule("contraction")
            contracted = run_cotree_dp(dp, flat)
            schedule("levels")
            levels = run_cotree_dp(dp, flat)
            for name in dp.fields:
                assert contracted.values[name].tolist() == \
                    levels.values[name].tolist()
            assert _witness(contracted) == _witness(levels)


# --------------------------------------------------------------------------- #
# 2. which schedule runs
# --------------------------------------------------------------------------- #

def test_height_rule_contracts_caterpillars_and_sweeps_random_trees():
    for dp in BUILTIN_DPS:
        deep = run_cotree_dp(dp, caterpillar_cotree(2000))
        bushy = run_cotree_dp(dp, random_cotree(2000, seed=5))
        assert deep.schedule == "contraction" and deep.paths is not None
        assert bushy.schedule == "levels" and bushy.paths is None
        assert bushy.rounds == int(bushy.depth.max())


def test_pram_contexts_keep_the_level_sweep():
    run = run_cotree_dp(MAX_CLIQUE_DP, caterpillar_cotree(400), "pram")
    assert run.schedule == "levels" and run.paths is None
    assert run.rounds == 399


def test_prime_nodes_stay_correct_on_the_level_sweep(schedule):
    schedule("contraction")
    for seed in range(3):
        graph = random_p4_sparse(60, seed=seed)
        tree = md_tree(graph)
        assert tree.has_primes
        for dp in (MAX_CLIQUE_DP, MAX_INDEPENDENT_SET_DP):
            run = run_cotree_dp(dp, tree)
            assert run.schedule == "levels"
            reference = run_cotree_dp_sequential(dp, tree)
            assert run.values[dp.fields[0]].tolist() == \
                reference.values[dp.fields[0]].tolist()
            assert _witness(run) == _witness(reference)


def test_specs_without_a_one_child_map_keep_the_level_sweep(schedule):
    schedule("contraction")
    smallest = CotreeDP(
        name="smallest_leaf_id", fields=("m",),
        leaf=lambda ids: {"m": ids.astype(np.int64)},
        union=Combine(reduce=(("m", "min", "m"),)),
        join=Combine(reduce=(("m", "min", "m"),)))
    halved = CotreeDP(
        name="halved", fields=("h",),
        leaf=lambda ids: {"h": np.ones(len(ids), dtype=np.int64)},
        union=Combine(reduce=(("s", "sum", "h"),),
                      finish=lambda red: {"h": red["s"] // 2 + 1}),
        join=Combine(reduce=(("h", "max", "h"),)))
    tree = caterpillar_cotree(300)
    for dp in (smallest, halved):
        run = run_cotree_dp(dp, tree)
        assert run.schedule == "levels"
        assert run.values[dp.fields[0]].tolist() == \
            run_cotree_dp_sequential(dp, tree).values[dp.fields[0]].tolist()


def test_declared_chain_contracts_an_out_of_tree_spec(schedule):
    """A spec with ``prepare`` / ``finish`` contracts once it declares its
    one-child map (here: joins add one to their deepest child)."""
    schedule("contraction")
    spec = CotreeDP(
        name="join_depth", fields=("d",),
        leaf=lambda ids: {"d": np.zeros(len(ids), dtype=np.int64)},
        union=Combine(reduce=(("d", "sum", "d"),)),
        join=Combine(prepare=lambda cv: {"d1": cv["d"] + 1},
                     reduce=(("m", "max", "d1"),),
                     finish=lambda red: {"d": red["m"]},
                     chain=lambda light, leaves: {
                         "d": (np.ones_like(leaves), light["m"])}))
    for flat in (SHAPES["broom"](), SHAPES["unary-chain"]()):
        run = run_cotree_dp(spec, flat)
        assert run.schedule == "contraction"
        assert run.values["d"].tolist() == \
            run_cotree_dp_sequential(spec, flat).values["d"].tolist()


@pytest.mark.parametrize("scale", [1, 2 ** 60])
def test_max_plus_chains_match_a_loop(scale):
    """The segmented running max, on both of its paths: lifted chains
    (small values) and pairwise doubling (values near ``2**62``)."""
    rng = np.random.default_rng(scale % 97)
    bottom = rng.random(400) < 0.1
    bottom[0] = True
    a = rng.integers(-5, 6, 400)
    b = np.where(rng.random(400) < 0.3, NEG_INF,
                 rng.integers(0, 4, 400) * scale)
    below = rng.integers(0, 4, 400) * scale
    want = np.empty(400, dtype=np.int64)
    for i in range(400):
        x = below[i] if bottom[i] else want[i - 1]
        want[i] = max(x + a[i], b[i])
    got = dp_module._max_plus_chains(a, b, below, bottom)
    assert got.tolist() == want.tolist()


def test_huge_weights_keep_parity(schedule):
    forest = pack([caterpillar_cotree(40)] * 3)
    weights = np.ones(40, dtype=np.int64)
    weights[[3, 17]] = 2 ** 60
    for dp in (max_weight_clique_dp(weights),
               max_weight_independent_set_dp(weights)):
        schedule("contraction")
        run = run_cotree_dp(dp, forest)
        reference = run_cotree_dp_sequential(dp, forest)
        assert run.values[dp.fields[0]].tolist() == \
            reference.values[dp.fields[0]].tolist()
        assert _witness(run) == _witness(reference)


# --------------------------------------------------------------------------- #
# 3. rounds and numbering
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("shape", ["caterpillar", "broom", "chained-random",
                                   "depth-5000", "forest", "unary-chain"])
def test_rounds_are_logarithmic_in_the_leaves(shape, schedule):
    schedule("contraction")
    flat = SHAPES[shape]()
    run = run_cotree_dp(MAX_CLIQUE_DP, flat)
    leaves = flat.num_vertices
    assert 1 <= run.rounds <= int(np.floor(np.log2(leaves))) + 1
    light = run.paths.light_depth[flat.internal_nodes]
    assert run.rounds == int(light.max()) + 1


def test_caterpillar_contracts_in_one_round():
    run = run_cotree_dp(CHROMATIC_NUMBER_DP, caterpillar_cotree(3000))
    assert run.schedule == "contraction" and run.rounds == 1


def _brute_numbering(flat: FlatCotree):
    n = flat.num_nodes
    size = np.ones(n, dtype=np.int64)
    leaves = (flat.kind == LEAF).astype(np.int64)
    order = []
    stack = [flat.root]
    while stack:
        u = stack.pop()
        order.append(u)
        stack.extend(flat.children_of(u).tolist())
    for u in reversed(order):
        if flat.parent[u] >= 0:
            size[flat.parent[u]] += size[u]
            leaves[flat.parent[u]] += leaves[u]
    return size, leaves


def test_heavy_paths_numbering_is_exact():
    for flat in (SHAPES["broom"](), SHAPES["chained-random"](),
                 SHAPES["unary-chain"](),
                 as_flat_cotree(random_cotree(500, seed=9))):
        paths = heavy_paths(flat)
        size, leaves = _brute_numbering(flat)
        assert sorted(paths.pre.tolist()) == list(range(flat.num_nodes))
        np.testing.assert_array_equal(paths.size, size)
        np.testing.assert_array_equal(paths.leaves, leaves)
        kids = flat.child_index
        parent = flat.parent[kids]
        # subtrees are contiguous preorder intervals
        assert np.all(paths.pre[kids] > paths.pre[parent])
        assert np.all(paths.pre[kids] + paths.size[kids]
                      <= paths.pre[parent] + paths.size[parent])
        for u in flat.internal_nodes.tolist():
            children = flat.children_of(u)
            best = children[paths.leaves[children]
                            == paths.leaves[children].max()].min()
            assert paths.heavy[u] == best
        light = kids[paths.heavy[parent] != kids]
        assert np.all(2 * paths.leaves[light]
                      <= paths.leaves[flat.parent[light]])


def test_heavy_child_ties_break_to_the_smallest_node_id():
    # root 0 (join) over three unions with two leaves each: all tie
    parent = [-1, 0, 0, 0, 1, 1, 2, 2, 3, 3]
    flat = _flat_from_parent(parent)
    # reverse the root's CSR order so the tie-break cannot follow it
    index = flat.child_index.copy()
    index[:3] = index[:3][::-1]
    flat = FlatCotree(flat.kind, flat.child_offset, index, flat.parent,
                      flat.leaf_vertex, flat.root)
    paths = heavy_paths(flat)
    assert paths.heavy[0] == 1
    assert paths.heavy[1:4].tolist() == [4, 6, 8]
    assert paths.light_depth.tolist() == [0, 0, 1, 1, 0, 1, 1, 2, 1, 2]


def test_multiway_numbering_chains_forest_roots_and_skips_empty():
    forest = pack([caterpillar_cotree(5), random_cotree(1),
                   random_cotree(3, seed=1)])
    pre, size = multiway_numbering(forest.child_offset, forest.child_index,
                                   np.append(forest.roots, -1))
    roots = forest.roots
    assert pre[roots].tolist() == [0, int(size[roots[0]]),
                                   int(size[roots[0]] + size[roots[1]])]
    assert int(size[roots].sum()) == forest.num_nodes


def test_multiway_numbering_refuses_non_forests(schedule):
    """Key collisions would hand scipy uninitialised CSR slots: a node
    listed twice, an out-of-range child or an unreachable node make the
    numbering refuse, and the run falls back to the level sweep."""
    flat = as_flat_cotree(caterpillar_cotree(300))
    twice = flat.child_index.copy()
    twice[10] = twice[200]
    far = flat.child_index.copy()
    far[10] = flat.num_nodes
    for index in (twice, far):
        assert multiway_numbering(flat.child_offset, index,
                                  [flat.root]) is None
    # a detached cycle: every node is one child slot, none reachable
    assert multiway_numbering(np.array([0, 1, 1, 2, 3]),
                              np.array([1, 3, 2]), [0]) is None
    schedule("contraction")
    broken = FlatCotree(flat.kind, flat.child_offset, twice, flat.parent,
                        flat.leaf_vertex, flat.root)
    assert run_cotree_dp(MAX_CLIQUE_DP, broken).schedule == "levels"


# --------------------------------------------------------------------------- #
# the lone-leaf refusal
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("task", ["chromatic_number", "clique_cover"])
def test_lone_leaf_with_a_foreign_id_is_refused_by_name(task):
    with pytest.raises(CotreeError, match=r"vertex id 5 .*0\.\.n-1"):
        solve("5", task=task)
    assert isinstance(CotreeError("x"), ValueError)


def test_lone_leaf_is_refused_by_the_other_tasks_too():
    # one input, one behaviour: the validator refuses ids outside 0..n-1
    # for every task, not only those that index by vertex id
    for task in ("max_clique", "path_cover_size", "count_independent_sets"):
        with pytest.raises(CotreeError, match=r"vertex id 5 .*0\.\.n-1"):
            solve("5", task=task)
