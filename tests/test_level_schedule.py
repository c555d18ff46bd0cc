"""The level schedule of the cotree-DP engine, and the validator's cheap
paths.

:attr:`FlatCotree.level_schedule` groups a tree's internal nodes by depth
(deepest first), by kind inside a level and by id inside a kind, and
gathers their children once.  Pinned here:

1. the order is the old ``argsort(-depth, kind="stable")`` order with
   each level's nodes regrouped by kind, and every node's children are
   its CSR row, on random, balanced, caterpillar, forest and prime trees;
2. fast, PRAM and sequential runs agree on values and witnesses on those
   shapes, and the PRAM cost of a run plus its witness is unchanged;
3. a bushy DP run plus its witness builds the schedule once and gathers
   children once; a contraction run never builds it;
4. ``validate()`` refuses cycles without pointer doubling when the ids
   only rise or only fall from parent to child, and spider quotients
   without a sort, with every refusal message unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._dfs import depth_by_doubling
from repro.cograph import (
    FlatCotree,
    as_flat_cotree,
    balanced_cotree,
    caterpillar_cotree,
    md_tree,
    random_cotree,
    random_p4_sparse,
)
from repro.cograph import flat as flat_module
from repro.cograph.cotree import JOIN, LEAF, PRIME, UNION, Cotree, CotreeError
from repro.cograph.forest import pack
from repro.cograph.graph import Graph
from repro.core import dp as dp_module
from repro.core.dp import (
    BUILTIN_DPS,
    CHROMATIC_NUMBER_DP,
    CLIQUE_COVER_DP,
    MAX_CLIQUE_DP,
    MAX_INDEPENDENT_SET_DP,
    PATH_COVER_SIZE_DP,
    max_weight_clique_dp,
    max_weight_independent_set_dp,
    run_cotree_dp,
    run_cotree_dp_sequential,
)
from repro.pram import PRAM, AccessMode

SHAPES = {
    "random": lambda: as_flat_cotree(random_cotree(400, seed=3)),
    "balanced": lambda: as_flat_cotree(balanced_cotree(7, branching=2)),
    "balanced-ternary": lambda: as_flat_cotree(
        balanced_cotree(4, branching=3)),
    "caterpillar": lambda: as_flat_cotree(caterpillar_cotree(120)),
    "forest": lambda: pack([random_cotree(50, seed=1),
                            caterpillar_cotree(30), random_cotree(1),
                            balanced_cotree(3)]),
    "prime": lambda: md_tree(random_p4_sparse(300, seed=5)),
    "generic-prime": lambda: md_tree(Graph(5, [(0, 1), (1, 2), (2, 3),
                                               (3, 4), (4, 0)])),
}


def _old_order(flat: FlatCotree) -> np.ndarray:
    internal = flat.internal_nodes
    return internal[np.argsort(-flat.depth[internal], kind="stable")]


# --------------------------------------------------------------------------- #
# 1. the order and the gather
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_schedule_is_the_depth_order_grouped_by_kind(shape):
    flat = SHAPES[shape]()
    schedule = flat.level_schedule
    old = _old_order(flat)
    depth, kind = flat.depth, flat.kind
    # the old order, each level's nodes stably regrouped by kind
    assert schedule.nodes.tolist() == old[np.lexsort(
        (kind[old], -depth[old]))].tolist()
    # levels deepest first, one block per kind in kind order
    blocks = [(d, k, lo, hi) for d, groups in schedule.levels
              for k, lo, hi in groups]
    assert [lo for _, _, lo, _ in blocks] == \
        [0] + [hi for _, _, _, hi in blocks[:-1]]
    assert (blocks[-1][3] if blocks else 0) == len(old)
    assert [d for d, _ in schedule.levels] == sorted(
        set(depth[old].tolist()), reverse=True)
    for d, groups in schedule.levels:
        assert [k for k, _, _ in groups] == sorted({k for k, _, _ in groups})
        level = np.concatenate([schedule.nodes[lo:hi]
                                for _, lo, hi in groups])
        assert sorted(level.tolist()) == old[depth[old] == d].tolist()
        for k, lo, hi in groups:
            nodes, kids, seg = schedule.block(lo, hi)
            assert (kind[nodes] == k).all() and (np.diff(nodes) > 0).all()
            assert (depth[nodes] == d).all()
            for i, u in enumerate(nodes.tolist()):
                assert kids[seg[i]:seg[i + 1]].tolist() == \
                    flat.children_of(u).tolist()
    for k in (UNION, JOIN, PRIME):
        nodes, kids, seg = schedule.of_kind(k)
        assert nodes.tolist() == \
            schedule.nodes[kind[schedule.nodes] == k].tolist()
        assert kids.tolist() == [c for u in nodes.tolist()
                                 for c in flat.children_of(u).tolist()]
        assert np.diff(seg).tolist() == flat.degrees()[nodes].tolist()


def test_a_tree_too_tall_for_a_16_bit_key_keeps_the_order():
    flat = as_flat_cotree(caterpillar_cotree(22_000))
    schedule = flat.level_schedule
    assert int(flat.depth.max()) * PRIME >= 2 ** 16
    assert schedule.nodes.tolist() == _old_order(flat).tolist()
    assert len(schedule.levels) == len(flat.internal_nodes)


def test_a_leaf_has_an_empty_schedule():
    schedule = as_flat_cotree(random_cotree(1)).level_schedule
    assert schedule.levels == [] and len(schedule.nodes) == 0
    assert schedule.seg.tolist() == [0]


# --------------------------------------------------------------------------- #
# 2. parity across engines, and the accounted cost
# --------------------------------------------------------------------------- #

def _specs(flat: FlatCotree):
    weights = (np.arange(flat.num_vertices) * 7919) % 23
    specs = list(BUILTIN_DPS) + [max_weight_clique_dp(weights),
                                 max_weight_independent_set_dp(weights)]
    return [dp for dp in specs if dp.prime is not None or
            not flat.has_primes]


def _witness(run):
    w = run.witness()
    return None if w is None else np.asarray(w).tolist()


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_fast_pram_and_sequential_agree(shape):
    flat = SHAPES[shape]()
    for dp in _specs(flat):
        runs = [run_cotree_dp(dp, flat), run_cotree_dp(dp, flat, "pram"),
                run_cotree_dp_sequential(dp, flat)]
        for name in dp.fields:
            want = runs[-1].values[name].tolist()
            assert all(r.values[name].tolist() == want for r in runs), \
                (dp.name, name)
        if runs[0].prime_choice is not None:
            assert runs[0].prime_choice.tolist() == \
                runs[1].prime_choice.tolist() == \
                runs[2].prime_choice.tolist()
        assert runs[1].rounds == len(flat.level_schedule.levels)
        assert _witness(runs[0]) == _witness(runs[1]) == \
            _witness(runs[2]), dp.name


#: ``(levels, machine rounds, time, work)`` of a PRAM run plus its
#: witness, as the level sweep with one argsort and one gather per level
#: and kind recorded them
PINNED_PRAM_COSTS = {
    ("random", MAX_CLIQUE_DP): (
        lambda: random_cotree(300, seed=5), (11, 54, 54, 1219)),
    ("balanced", CHROMATIC_NUMBER_DP): (
        lambda: balanced_cotree(6, branching=2), (6, 20, 20, 442)),
    ("prime", MAX_INDEPENDENT_SET_DP): (
        lambda: md_tree(random_p4_sparse(120, seed=8)), (7, 86, 86, 857)),
    ("forest", CLIQUE_COVER_DP): (
        lambda: pack([random_cotree(40, seed=1), caterpillar_cotree(20),
                      random_cotree(1), balanced_cotree(3)]),
        (19, 76, 76, 402)),
    ("caterpillar", PATH_COVER_SIZE_DP): (
        lambda: caterpillar_cotree(50), (49, 198, 198, 272)),
}


@pytest.mark.parametrize("case", sorted(PINNED_PRAM_COSTS,
                                        key=lambda c: c[0]),
                         ids=lambda c: c[0])
def test_pram_cost_of_run_and_witness_is_pinned(case):
    make, want = PINNED_PRAM_COSTS[case]
    machine = PRAM(mode=AccessMode.EREW)
    run = run_cotree_dp(case[1], make(), machine)
    run.witness()
    report = machine.report()
    assert (run.rounds, report.rounds, report.time, report.work) == want


# --------------------------------------------------------------------------- #
# 3. one schedule, one gather
# --------------------------------------------------------------------------- #

@pytest.fixture
def counted(monkeypatch):
    """Count schedule builds and child gathers (the schedule's own and any
    the engine makes itself)."""
    calls = {"builds": 0, "schedule gathers": 0, "engine gathers": 0}

    class Counting(flat_module.LevelSchedule):
        __slots__ = ()

        def __init__(self, flat):
            calls["builds"] += 1
            super().__init__(flat)

    def counter(name, gather):
        def wrapped(*args):
            calls[name] += 1
            return gather(*args)
        return wrapped

    monkeypatch.setattr(flat_module, "LevelSchedule", Counting)
    monkeypatch.setattr(flat_module, "gather_children", counter(
        "schedule gathers", flat_module.gather_children))
    monkeypatch.setattr(dp_module, "gather_children", counter(
        "engine gathers", dp_module.gather_children))
    return calls


@pytest.mark.parametrize("dp", [MAX_CLIQUE_DP, MAX_INDEPENDENT_SET_DP,
                                CHROMATIC_NUMBER_DP, PATH_COVER_SIZE_DP],
                         ids=lambda dp: dp.name)
def test_a_bushy_run_and_its_witness_sort_and_gather_once(dp, counted):
    flat = as_flat_cotree(random_cotree(3000, seed=7))
    run = run_cotree_dp(dp, flat)
    assert run.schedule == "levels" and run.rounds > 5
    run.witness()
    run_cotree_dp(dp, flat).witness()           # the schedule is cached
    assert counted == {"builds": 1, "schedule gathers": 1,
                       "engine gathers": 0}


def test_a_contraction_run_never_builds_the_schedule(counted):
    flat = as_flat_cotree(caterpillar_cotree(2000))
    for dp in (MAX_CLIQUE_DP, CHROMATIC_NUMBER_DP, PATH_COVER_SIZE_DP):
        run = run_cotree_dp(dp, flat)
        assert run.schedule == "contraction"
        run.witness()
    assert counted["builds"] == counted["schedule gathers"] == 0


# --------------------------------------------------------------------------- #
# 4. the validator: monotone ids, spider quotients
# --------------------------------------------------------------------------- #

def _relabel(flat: FlatCotree, new_id: np.ndarray) -> FlatCotree:
    """The same tree with node ``u`` renamed ``new_id[u]``."""
    n = flat.num_nodes
    old_id = np.argsort(new_id)
    parent = np.where(flat.parent[old_id] >= 0,
                      new_id[np.maximum(flat.parent[old_id], 0)], -1)
    child = np.flatnonzero(parent >= 0)
    offset = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(parent[child], minlength=n), out=offset[1:])
    return FlatCotree(flat.kind[old_id], offset,
                      child[np.argsort(parent[child], kind="stable")],
                      parent, flat.leaf_vertex[old_id],
                      int(new_id[flat.root]))


@pytest.fixture
def doublings(monkeypatch):
    calls = []

    def counted(parent):
        calls.append(len(parent))
        return depth_by_doubling(parent)
    monkeypatch.setattr(flat_module, "_depth_by_doubling", counted)
    return calls


def test_monotone_ids_validate_without_doubling(doublings):
    rising = as_flat_cotree(random_cotree(10_000, seed=4))
    n = rising.num_nodes
    falling = _relabel(rising, n - 1 - np.arange(n))
    postorder = md_tree(random_p4_sparse(500, seed=1))
    doublings.clear()                   # the builders may read depths
    for flat in (rising, falling, postorder):
        FlatCotree(flat.kind, flat.child_offset, flat.child_index,
                   flat.parent, flat.leaf_vertex, flat.root,
                   q_offset=flat.q_offset, q_edge_u=flat.q_edge_u,
                   q_edge_v=flat.q_edge_v, spider=flat.spider).validate()
    assert doublings == []


def test_other_ids_still_take_the_depth(doublings):
    flat = as_flat_cotree(random_cotree(500, seed=2))
    shuffled = _relabel(flat, np.random.default_rng(0).permutation(
        flat.num_nodes))
    assert shuffled.validate() is shuffled
    assert doublings == [flat.num_nodes]
    old = _old_order(shuffled)
    assert shuffled.level_schedule.nodes.tolist() == old[np.lexsort(
        (shuffled.kind[old], -shuffled.depth[old]))].tolist()


def test_a_cycle_is_refused_with_the_doubling_message():
    kind = [UNION, LEAF, LEAF, UNION, UNION]
    parent = np.array([-1, 0, 0, 4, 3])
    with pytest.raises(CotreeError) as caught:
        depth_by_doubling(parent)
    with pytest.raises(CotreeError) as refused:
        Cotree(kind, [[1, 2], [], [], [4], [3]], [-1, 0, 1, -1, -1], 0)
    assert str(refused.value) == str(caught.value)
    assert "lies on a cycle" in str(refused.value)


def _spider(k: int, head: bool, thin: bool, flag=None, edges=None):
    """A prime root over ``2k (+1)`` leaves laid out ``[feet, body,
    (head)]``; ``edges`` default to the spider's own."""
    if edges is None:
        edges = [(k + i, k + j) for i in range(k) for j in range(i + 1, k)]
        edges +=[(i, k + i) for i in range(k)] if thin else \
            [(i, k + j) for i in range(k) for j in range(k) if j != i]
        edges += [(k + i, 2 * k) for i in range(k)] if head else []
    d = 2 * k + head
    eu, ev = (np.array([e[s] for e in edges], dtype=np.int64)
              for s in (0, 1))
    return FlatCotree(
        [PRIME] + [LEAF] * d, [0] + [d] * (d + 1), np.arange(1, d + 1),
        [-1] + [0] * d, [-1] + list(range(d)), 0,
        q_offset=[0] + [len(edges)] * (d + 1), q_edge_u=eu, q_edge_v=ev,
        spider=[(1 if thin else 2) if flag is None else flag] + [0] * d)


@pytest.fixture
def lexsorts(monkeypatch):
    calls = []
    lexsort = np.lexsort

    def counted(keys):
        calls.append(len(keys[0]))
        return lexsort(keys)
    monkeypatch.setattr(flat_module.np, "lexsort", counted)
    return calls


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("head", [False, True])
@pytest.mark.parametrize("thin", [False, True])
def test_spider_layouts_pass_in_any_order_without_a_sort(k, head, thin,
                                                         lexsorts):
    tree = _spider(k, head, thin)
    assert tree.validate() is tree
    edges = list(zip(tree.q_edge_u.tolist(), tree.q_edge_v.tolist()))
    shuffled = [edges[i] for i in
                np.random.default_rng(k).permutation(len(edges))]
    assert _spider(k, head, thin, edges=shuffled).validate()
    assert lexsorts == []


@pytest.mark.parametrize("thin", [False, True])
def test_a_repeated_spider_edge_is_refused_at_its_second_listing(thin):
    edges = list(zip(*(a.tolist() for a in (_spider(3, True, thin).q_edge_u,
                                            _spider(3, True, thin).q_edge_v))))
    # the count stays right: one edge listed twice, another missing
    for first, later in ((0, 4), (2, 7), (5, 1)):
        hostile = list(edges)
        hostile[later] = hostile[first]
        u, v = hostile[later]
        second = max(first, later)
        with pytest.raises(CotreeError, match=(
                rf"q_edge_u / q_edge_v\[{second}\] = \({u}, {v}\) is not a "
                rf"quotient edge of prime node 0: two of its 7 child slots "
                rf"u < v, listed once, in its spider layout")):
            _spider(3, True, thin, edges=hostile).validate()


def test_other_spider_faults_keep_their_messages():
    thin = _spider(3, False, True)
    edges = list(zip(thin.q_edge_u.tolist(), thin.q_edge_v.tolist()))
    with pytest.raises(CotreeError, match=r"spider\[0\] = 1, but prime "
                       r"node 0 with 6 children and 5 quotient edges is "
                       r"no thin spider"):
        _spider(3, False, True, edges=edges[:-1]).validate()
    outside = list(edges)
    outside[-1] = (0, 4)                        # foot 0 to body 1: thick
    with pytest.raises(CotreeError, match=r"q_edge_u / q_edge_v\[5\] = "
                       r"\(0, 4\) is not a quotient edge of prime node 0.*"
                       r"in its spider layout"):
        _spider(3, False, True, edges=outside).validate()
    for k, thin in ((3, False), (2, True)):     # a flipped flag
        with pytest.raises(CotreeError, match=r"in its spider layout"):
            _spider(k, False, thin, flag=1 + thin).validate()


def test_generic_primes_still_sort_and_refuse_a_repeat(lexsorts):
    c5 = SHAPES["generic-prime"]()
    lexsorts.clear()                    # the decomposer sorts too
    assert c5.validate() is c5 and lexsorts == [5]
    eu, ev = c5.q_edge_u.copy(), c5.q_edge_v.copy()
    eu[3], ev[3] = eu[1], ev[1]
    hostile = FlatCotree(c5.kind, c5.child_offset, c5.child_index,
                         c5.parent, c5.leaf_vertex, c5.root,
                         q_offset=c5.q_offset, q_edge_u=eu, q_edge_v=ev,
                         spider=c5.spider)
    with pytest.raises(CotreeError, match=r"q_edge_u / q_edge_v\[3\] = .* "
                       r"listed once$"):
        hostile.validate()
