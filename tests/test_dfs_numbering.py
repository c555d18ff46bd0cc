"""The C-level DFS numbering kernel must be bit-identical to the simulator.

On the throughput backend ``compute_tree_numbers`` derives every field of
:class:`TreeNumbers` (and the tour positions) from one interval numbering
by ``repro._dfs.binary_numbering``; every field must match the
PRAM-simulated Euler tour exactly — on single trees, chained multi-root
forests (in arbitrary chain order) and forests containing unary nodes (the
dummy chains of Step 7) — and the numbers the multiway adapter's
intervals give.  The leftist reordering derives its renumbering from the
same intervals and is held to the same parity; Step 8 reads Step 6's
inorder sequence, updated for the exchanges, and must read the inorder a
fresh numbering gives.  A structural pin counts the DFS calls a solve
makes and the entries of every CSR row the kernel builds: a row listing
every root would be rescanned on every return, quadratic in the number of
roots.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
import repro._dfs as dfs
import repro.core.path_trees as path_trees
from repro._dfs import HAVE_SPARSE_DFS, binary_numbering, multiway_numbering, \
    two_slot_csr
from repro.cograph import (
    FlatCotree,
    balanced_cotree,
    binarize_cotree,
    canonical_key,
    caterpillar_cotree,
    independent_set,
    join_of_independent_sets,
    random_cotree,
    union_of_cliques,
)
from repro.cograph.forest import pack
from repro.core import Pipeline, extract_paths
from repro.core.binarize import binarize_parallel
from repro.core.leftist import leftist_reorder
from repro.pram import PRAM
from repro.primitives import build_euler_tour, compute_tree_numbers, \
    inorder_numbers, renumber_swapped
from repro.primitives.tree_numbering import _numbers_from_intervals

NUMBER_FIELDS = ("preorder", "inorder", "postorder", "depth",
                 "subtree_size", "subtree_leaves", "right_depth")


def assert_same_numbers(simulated, fast, tag=""):
    for field in NUMBER_FIELDS:
        assert np.array_equal(getattr(simulated, field),
                              getattr(fast, field)), (tag, field)
    assert np.array_equal(simulated.tour.position, fast.tour.position), tag
    # the lazily materialised successor array matches the simulated one
    assert np.array_equal(simulated.tour.successor, fast.tour.successor), tag


def assert_numbers_match(left, right, parent, roots, tag=""):
    simulated = compute_tree_numbers(PRAM(), left, right, parent, roots)
    assert_same_numbers(simulated, compute_tree_numbers(None, left, right,
                                                        parent, roots), tag)
    # Steps 6 and 8 number only inorder and sizes, on either engine
    for ctx in (PRAM(), None):
        inorder, size = inorder_numbers(ctx, left, right, parent, roots)
        assert np.array_equal(inorder, simulated.inorder), tag
        assert np.array_equal(size, simulated.subtree_size), tag


def random_binary_forest(rng, n):
    """A random binary forest that may contain unary (right- or left-only)
    nodes and several roots."""
    parent = np.full(n, -1, dtype=np.int64)
    left = np.full(n, -1, dtype=np.int64)
    right = np.full(n, -1, dtype=np.int64)
    for v in range(1, n):
        p = int(rng.integers(0, v))
        if left[p] != -1 and right[p] != -1:
            continue                                # v stays a root
        if left[p] == -1 and (right[p] != -1 or rng.integers(0, 2) == 0):
            left[p] = v
        else:
            right[p] = v
        parent[v] = p
    roots = np.flatnonzero(parent == -1)
    rng.shuffle(roots)                              # arbitrary chain order
    return left, right, parent, roots


class TestKernelParity:

    @pytest.mark.parametrize("seed", range(6))
    def test_random_binary_trees(self, seed):
        b = binarize_cotree(random_cotree(50, seed=seed))
        assert_numbers_match(b.left, b.right, b.parent, [b.root],
                             f"tree-{seed}")

    def test_deep_caterpillar(self):
        b = binarize_cotree(caterpillar_cotree(80))
        assert_numbers_match(b.left, b.right, b.parent, [b.root], "cater")

    def test_balanced(self):
        b = binarize_cotree(balanced_cotree(4, branching=3))
        assert_numbers_match(b.left, b.right, b.parent, [b.root], "balanced")

    @pytest.mark.parametrize("trial", range(15))
    def test_random_forests_with_unary_nodes(self, trial):
        rng = np.random.default_rng(100 + trial)
        n = int(rng.integers(1, 60))
        left, right, parent, roots = random_binary_forest(rng, n)
        assert_numbers_match(left, right, parent, roots, f"forest-{trial}")

    def test_many_roots(self):
        # a forest of lone nodes and pairs: one CSR row per node, however
        # many roots are chained
        rng = np.random.default_rng(7)
        n = 400
        parent = np.full(n, -1, dtype=np.int64)
        left = np.full(n, -1, dtype=np.int64)
        right = np.full(n, -1, dtype=np.int64)
        for p in range(0, n - 1, 3):
            left[p], parent[p + 1] = p + 1, p
        roots = np.flatnonzero(parent == -1)
        rng.shuffle(roots)
        assert_numbers_match(left, right, parent, roots, "many-roots")

    def test_tour_positions_match_on_forests(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            n = int(rng.integers(2, 40))
            left, right, parent, roots = random_binary_forest(rng, n)
            sim = build_euler_tour(PRAM(), left, right, parent, roots)
            fast = build_euler_tour(None, left, right, parent, roots)
            assert np.array_equal(sim.position, fast.position)
            assert np.array_equal(sim.successor, fast.successor)


def _binary_forests():
    """(name, left, right, parent, roots) of the adapter parity table."""
    rng = np.random.default_rng(11)
    lone = np.full(10_000, -1, dtype=np.int64)
    out = [("one-node", np.array([-1]), np.array([-1]), np.array([-1]),
            np.array([0])),
           ("edgeless", lone, lone, lone, rng.permutation(10_000))]
    for name, tree in (("caterpillar", caterpillar_cotree(300)),
                       ("balanced", balanced_cotree(5, branching=3))):
        b = binarize_cotree(tree)
        out.append((name, b.left, b.right, b.parent, b.roots))
    for trial in range(8):
        n = int(rng.integers(1, 400))
        out.append((f"random-{trial}",) + random_binary_forest(rng, n))
    return out


@pytest.mark.skipif(not HAVE_SPARSE_DFS, reason="scipy not installed")
class TestBinaryAdapter:
    """``binary_numbering`` builds the first-child / next-sibling form
    straight from ``left`` / ``right``; the multiway adapter over the
    two-slot CSR form (leaf children visited last) is the reference."""

    @pytest.mark.parametrize("case", _binary_forests(), ids=lambda c: c[0])
    def test_numbers_match_the_multiway_adapter(self, case):
        name, left, right, parent, roots = case
        intervals = binary_numbering(left, right, roots)
        reference = multiway_numbering(*two_slot_csr(left, right), roots)
        args = (left, right, parent, roots)
        assert_same_numbers(_numbers_from_intervals(reference, *args),
                            _numbers_from_intervals(intervals, *args), name)
        # with no leaf-last swap the DFS order is the forest's preorder
        simulated = compute_tree_numbers(PRAM(), *args)
        assert np.array_equal(intervals[0], simulated.preorder), name
        assert np.array_equal(intervals[1], simulated.subtree_size), name

    @pytest.mark.parametrize("case", [
        # node 1 in two child slots, node 3 in none
        ("two-slots", [1, -1, 1, -1], [-1, -1, -1, -1], [0, 2]),
        # nodes 1 and 2 are each other's child: every node fills one slot,
        # but the cycle is unreachable from the root
        ("detached-cycle", [-1, 2, 1], [-1, -1, -1], [0]),
        ("root-twice", [1, -1], [-1, -1], [0, 0]),
    ], ids=lambda c: c[0])
    def test_non_forests_are_refused_like_the_multiway_adapter(self, case):
        _, left, right, roots = case
        left, right = np.array(left), np.array(right)
        assert binary_numbering(left, right, roots) is None
        assert multiway_numbering(*two_slot_csr(left, right), roots) is None


@pytest.mark.skipif(not HAVE_SPARSE_DFS, reason="scipy not installed")
class TestKernelContract:

    def test_rejects_roots_mismatch(self):
        b = binarize_cotree(random_cotree(10, seed=0))
        offset, kids = two_slot_csr(b.left, b.right)
        # missing or repeated root -> the kernel bails out
        assert multiway_numbering(offset, kids, []) is None
        assert multiway_numbering(offset, kids, [b.root, b.root]) is None
        # ... and the numbering entry point falls back to ranking the tour
        # (an empty root list chains nothing, like the simulator)
        assert_numbers_match(b.left, b.right, b.parent, [], "no-roots")

    def test_numbering_values(self):
        #      0
        #    1   2
        #   3 4
        left = np.array([1, 3, -1, -1, -1])
        right = np.array([2, 4, -1, -1, -1])
        parent = np.array([-1, 0, 0, 1, 1])
        nums = compute_tree_numbers(None, left, right, parent, [0])
        assert list(nums.preorder) == [0, 1, 4, 2, 3]
        assert list(nums.inorder) == [3, 1, 4, 0, 2]
        assert list(nums.postorder) == [4, 2, 3, 0, 1]
        assert list(nums.depth) == [0, 1, 1, 2, 2]
        assert list(nums.subtree_size) == [5, 3, 1, 1, 1]
        assert list(nums.subtree_leaves) == [3, 2, 1, 1, 1]

    def test_fallback_when_scipy_disabled(self, monkeypatch):
        monkeypatch.setattr(dfs, "HAVE_SPARSE_DFS", False)
        b = binarize_cotree(random_cotree(12, seed=1))
        offset, kids = two_slot_csr(b.left, b.right)
        assert dfs.multiway_numbering(offset, kids, [b.root]) is None
        assert dfs.binary_numbering(b.left, b.right, [b.root]) is None
        # the numbering entry point silently falls back to list ranking
        assert_numbers_match(b.left, b.right, b.parent, [b.root], "no-scipy")
        rng = np.random.default_rng(3)
        left, right, parent, roots = random_binary_forest(rng, 30)
        assert_numbers_match(left, right, parent, roots, "no-scipy-forest")


# --------------------------------------------------------------------------- #
# leftist: one numbering of Tb, Tbl's numbers derived from its intervals
# --------------------------------------------------------------------------- #

LEFTIST_TREES = {
    "random": lambda: random_cotree(60, seed=4),
    "caterpillar": lambda: caterpillar_cotree(70),
    "balanced": lambda: balanced_cotree(4, branching=3),
    "star": lambda: independent_set(50),
    "pairs": lambda: union_of_cliques([2] * 20),
    "packed": lambda: pack([random_cotree(9, seed=1), caterpillar_cotree(12),
                            independent_set(5),
                            join_of_independent_sets([3, 1, 2])]),
}


@pytest.mark.parametrize("name", sorted(LEFTIST_TREES))
def test_leftist_renumbering_matches_pram(name):
    _assert_leftist_parity(name)


def test_leftist_renumbering_without_scipy(monkeypatch):
    # Tb is numbered by list ranking; Tbl is still derived from its intervals
    monkeypatch.setattr(dfs, "HAVE_SPARSE_DFS", False)
    for name in ("random", "packed"):
        _assert_leftist_parity(name)


@pytest.mark.skipif(not HAVE_SPARSE_DFS, reason="scipy not installed")
def test_leftist_derives_only_tbl_numbers(monkeypatch):
    # Tb's leaf counts come straight from its intervals: the one full
    # derivation is Tbl's
    import repro.primitives.tree_numbering as numbering

    derived = []
    inner = numbering._numbers_from_intervals

    def counting(intervals, left, *args):
        derived.append(len(left))
        return inner(intervals, left, *args)

    monkeypatch.setattr(numbering, "_numbers_from_intervals", counting)
    _assert_leftist_parity("random")
    assert len(derived) == 1, derived


def test_renumber_swapped_takes_numbers_or_intervals():
    # a 2.7 call passes the pre-swap TreeNumbers; leftist passes the bare
    # interval pair
    b = binarize_parallel(None, FlatCotree.from_cotree(random_cotree(40,
                                                                     seed=8)))
    numbers = compute_tree_numbers(None, b.left, b.right, b.parent, b.roots)
    swapped = leftist_reorder(None, b).tree
    args = (swapped.left, swapped.right, swapped.parent, b.roots)
    assert_same_numbers(
        renumber_swapped(None, numbers, *args),
        renumber_swapped(None, (numbers.preorder, numbers.subtree_size),
                         *args), "numbers vs intervals")


def _assert_leftist_parity(name):
    flat = FlatCotree.from_cotree(LEFTIST_TREES[name]())
    b = binarize_parallel(None, flat)
    sim = leftist_reorder(PRAM(), b)
    fast = leftist_reorder(None, b)
    assert np.array_equal(sim.tree.left, fast.tree.left), name
    assert np.array_equal(sim.tree.right, fast.tree.right), name
    assert_same_numbers(sim.numbers, fast.numbers, name)


# --------------------------------------------------------------------------- #
# the structural pin: DFS calls per solve and entries per CSR row
# --------------------------------------------------------------------------- #

@pytest.fixture
def dfs_calls(monkeypatch):
    """Every CSR graph handed to scipy's DFS, as its largest row length."""
    rows = []
    inner = dfs._depth_first_order

    def counting(graph, *args, **kwargs):
        rows.append(int(np.diff(graph.indptr).max()) if graph.shape[0]
                    else 0)
        return inner(graph, *args, **kwargs)

    monkeypatch.setattr(dfs, "_depth_first_order", counting)
    return rows


PIN_INPUTS = {
    "edgeless": lambda: independent_set(10_000),
    "pairs": lambda: union_of_cliques([2] * 5_000),
}


@pytest.mark.skipif(not HAVE_SPARSE_DFS, reason="scipy not installed")
@pytest.mark.parametrize("name", sorted(PIN_INPUTS))
def test_fast_path_cover_numbers_each_tree_once(name, dfs_calls):
    tree = FlatCotree.from_cotree(PIN_INPUTS[name]())
    solution = repro.solve(tree, backend="fast")
    assert solution.num_paths == (10_000 if name == "edgeless" else 5_000)
    # leftist (Tb) and legalize (Step 6's pseudo forest); Step 8 reads
    # Step 6's sequence
    assert len(dfs_calls) == 2, dfs_calls
    assert max(dfs_calls) <= 2, dfs_calls


@pytest.mark.skipif(not HAVE_SPARSE_DFS, reason="scipy not installed")
@pytest.mark.parametrize("tree", [random_cotree(300, seed=2),
                                  independent_set(50),
                                  balanced_cotree(4, branching=3)],
                         ids=["random", "edgeless", "balanced"])
def test_extract_makes_no_dfs_off_the_simulator(tree, dfs_calls):
    flat = FlatCotree.from_cotree(tree)
    run = Pipeline.until("compress").run(flat, None)
    dfs_calls.clear()
    cover = extract_paths(None, run.state.forest)
    assert dfs_calls == []
    assert Pipeline.default().run(flat, PRAM()).cover.paths == cover.paths
    # without Step 6 (the A2 ablation) Step 8 numbers the forest itself
    ablated = Pipeline.until("compress").without("legalize").run(flat, None)
    dfs_calls.clear()
    extract_paths(None, ablated.state.forest)
    assert len(dfs_calls) == 1, dfs_calls


@pytest.mark.skipif(not HAVE_SPARSE_DFS, reason="scipy not installed")
@pytest.mark.parametrize("name", sorted(PIN_INPUTS))
def test_canonical_key_numbers_each_tree_at_most_twice(name, dfs_calls):
    tree = FlatCotree.from_cotree(PIN_INPUTS[name]())
    canonical_key(tree)
    assert 1 <= len(dfs_calls) <= 2, dfs_calls
    assert max(dfs_calls) <= 2, dfs_calls


# --------------------------------------------------------------------------- #
# Step 8 reads Step 6's inorder sequence, updated for the exchanges
# --------------------------------------------------------------------------- #

def _nested_pairs(args):
    """Exchange pairs whose slot lies inside another pair's slot."""
    _, _, inorder, size, left, x, d = args
    slots = np.concatenate([x, d])
    below = left[slots]
    start = inorder[slots] - np.where(below >= 0, size[below], 0)
    end = start + size[slots]
    pair = np.concatenate([np.arange(len(x))] * 2)
    inside = ((start[:, None] >= start[None, :]) &
              (end[:, None] <= end[None, :]) &
              (pair[:, None] != pair[None, :]))
    return len(np.unique(pair[inside.any(axis=1)]))


def test_step8_sequence_matches_a_fresh_numbering(monkeypatch):
    calls = []
    inner = path_trees._exchanged_chain

    def spy(*args):
        calls.append(_nested_pairs(args))
        return inner(*args)

    monkeypatch.setattr(path_trees, "_exchanged_chain", spy)
    rng = np.random.default_rng(2024)
    sizes = [1, 2, 3, 2000] + rng.integers(4, 2000, size=56).tolist()
    for seed, n in enumerate(sizes):
        run = Pipeline.until("compress").run(
            FlatCotree.from_cotree(random_cotree(n, seed=seed)), None)
        forest = run.state.forest
        real = forest.num_real
        left, right = forest.left[:real], forest.right[:real]
        parent = forest.parent[:real]
        roots = np.flatnonzero(parent == -1)
        inorder, size = inorder_numbers(None, left, right, parent, roots)
        fresh = np.empty(real, dtype=np.int64)
        fresh[inorder] = np.arange(real)
        sequence, tree_start = forest.chain
        kept = np.flatnonzero(sequence < real)
        assert np.array_equal(sequence[kept], fresh), (seed, n)
        assert np.array_equal(np.searchsorted(kept, tree_start),
                              np.cumsum(size[roots]) - size[roots]), (seed, n)
    assert len(calls) > 10
    assert sum(calls) > 0, "no exchange slot lay inside another pair's"
