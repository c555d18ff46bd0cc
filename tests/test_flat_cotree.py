"""FlatCotree: round-trips, canonical form, canonical keys, pipeline parity.

The flat CSR representation is the canonical in-memory form of the hot
path, so these tests pin down three guarantees:

1. ``Cotree -> FlatCotree -> Cotree`` is the identity (same node ids, same
   child order) for every generator family;
2. the vectorized canonical-form kernel (``is_canonical`` /
   ``canonicalize`` / ``canonical_key``) agrees with the list-based
   implementation — including on arbitrarily deep trees, where the old
   recursive cache key used to blow the recursion limit;
3. the solver pipeline produces bit-identical covers whichever
   representation carries the instance, on both execution backends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import solve
from repro.api.cache import SolutionCache, canonical_cotree_key
from repro.cograph import (
    BinaryCotree,
    Cotree,
    FlatCotree,
    Graph,
    balanced_cotree,
    binarize_cotree,
    canonical_key,
    caterpillar_cotree,
    clique,
    complete_bipartite,
    independent_set,
    join_of_independent_sets,
    md_tree,
    pack,
    random_cotree,
    threshold_cograph,
    union_of_cliques,
)
from repro.cograph.cotree import JOIN, LEAF, UNION
from repro.cograph.flat import _in_preorder
from repro.core import minimum_path_cover_parallel

FAMILIES = {
    "single": lambda: Cotree.single_vertex(3),
    "edge": lambda: clique(2),
    "I7": lambda: independent_set(7),
    "K6": lambda: clique(6),
    "K34": lambda: complete_bipartite(3, 4),
    "cliques": lambda: union_of_cliques([2, 4, 3]),
    "multipartite": lambda: join_of_independent_sets([4, 2, 3]),
    "caterpillar": lambda: caterpillar_cotree(21),
    "balanced": lambda: balanced_cotree(4),
    "threshold": lambda: threshold_cograph([1, 0, 1, 1, 0, 0, 1, 1]),
    "random-40": lambda: random_cotree(40, seed=3),
    "random-65-dense": lambda: random_cotree(65, seed=9, join_prob=0.8),
}


# --------------------------------------------------------------------------- #
# 1. round trips
# --------------------------------------------------------------------------- #

class TestRoundTrip:

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_cotree_flat_cotree_identity(self, name):
        tree = FAMILIES[name]()
        flat = FlatCotree.from_cotree(tree)
        back = flat.to_cotree()
        assert back == tree                       # ordered structural equality
        assert back.root == tree.root
        assert np.array_equal(back.kind, tree.kind)
        assert back.children == tree.children
        assert np.array_equal(back.leaf_vertex, tree.leaf_vertex)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_flat_mirrors_cotree_properties(self, name):
        tree = FAMILIES[name]()
        flat = FlatCotree.from_cotree(tree)
        assert flat.num_nodes == tree.num_nodes
        assert flat.num_vertices == tree.num_vertices
        assert np.array_equal(flat.leaves, tree.leaves)
        assert np.array_equal(flat.vertices, tree.vertices)
        assert np.array_equal(flat.parent, tree.parent)
        for u in range(tree.num_nodes):
            assert list(flat.children_of(u)) == tree.children[u]

    def test_binary_cotree_conversion(self):
        binary = binarize_cotree(random_cotree(30, seed=5))
        flat = FlatCotree.from_cotree(binary)
        assert flat.to_cotree() == binary.to_cotree()

    def test_from_cotree_is_idempotent_on_flat(self):
        flat = FlatCotree.from_cotree(random_cotree(10, seed=0))
        assert FlatCotree.from_cotree(flat) is flat

    def test_cotree_to_flat_helper(self):
        tree = random_cotree(12, seed=2)
        assert tree.to_flat().to_cotree() == tree

    def test_rejects_non_tree(self):
        with pytest.raises(TypeError):
            FlatCotree.from_cotree([1, 2, 3])


# --------------------------------------------------------------------------- #
# 2. canonical form
# --------------------------------------------------------------------------- #

def _non_canonical_samples():
    # unary chain above the root
    unary_root = Cotree([1, 2, 0, 0], [[1], [2, 3], [], []],
                        [-1, -1, 0, 1], 0)
    # same-label child nesting
    nested = Cotree.from_nested(
        ("union", ("union", 0, 1), ("join", 2, ("join", 3, 4))))
    # unary node in the middle: join(union(leaf0), leaf1)
    mid_unary = Cotree([2, 1, 0, 0], [[1, 3], [2], [], []],
                       [-1, -1, 0, 1], 0)
    return {"unary-root": unary_root, "nested": nested,
            "mid-unary": mid_unary}


class TestCanonicalForm:

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_is_canonical_matches_cotree(self, name):
        tree = FAMILIES[name]()
        assert FlatCotree.from_cotree(tree).is_canonical() \
            == tree.is_canonical()

    @pytest.mark.parametrize("name", sorted(_non_canonical_samples()))
    def test_non_canonical_detected_and_fixed(self, name):
        tree = _non_canonical_samples()[name]
        flat = FlatCotree.from_cotree(tree)
        assert flat.is_canonical() == tree.is_canonical()
        fixed = flat.canonicalize()
        assert fixed.is_canonical()
        # same represented cograph as the list-based canonicalization
        assert canonical_key(fixed) == canonical_key(tree.canonicalize())
        assert canonical_key(fixed) == canonical_key(tree)

    def test_vectorized_is_canonical_agrees_on_generator_pool(self):
        for seed in range(10):
            tree = random_cotree(25, seed=seed)
            assert tree.is_canonical()
            assert FlatCotree.from_cotree(tree).is_canonical()

    def test_canonicalize_numbers_the_result_in_preorder(self):
        # node ids off preorder: the leaf 2 comes before the join's subtree
        tree = Cotree([UNION, LEAF, JOIN, LEAF, UNION, LEAF, LEAF],
                      [[2, 1], [], [4, 3], [], [5, 6], [], []],
                      [-1, 0, -1, 1, -1, 2, 3], 0)
        flat = FlatCotree.from_cotree(tree)
        assert not _in_preorder(flat)
        fixed = flat.canonicalize()
        assert _in_preorder(fixed)
        assert fixed.to_cotree().to_nested() == tree.to_nested()
        assert canonical_key(fixed) == canonical_key(tree)


def _relabelled(flat, rng):
    """The same ordered tree under a random node numbering."""
    perm = rng.permutation(flat.num_nodes)
    inv = np.argsort(perm)
    parent = np.where(flat.parent[inv] >= 0,
                      perm[np.maximum(flat.parent[inv], 0)], -1)
    offset = np.r_[0, np.cumsum(flat.degrees()[inv])]
    kids = np.concatenate([perm[flat.children_of(u)] for u in inv])
    return FlatCotree(flat.kind[inv], offset, kids.astype(np.int64), parent,
                      flat.leaf_vertex[inv], int(perm[flat.root]))


class TestOrderedNumbering:

    def test_preorder_check_agrees_with_the_dfs(self):
        rng = np.random.default_rng(0)
        for seed in range(200):
            flat = FlatCotree.from_cotree(random_cotree(2 + seed % 30,
                                                        seed=seed))
            if seed % 2:
                flat = _relabelled(flat, rng)
            pre = flat.ordered_intervals[0]
            assert _in_preorder(flat) == \
                bool((pre == np.arange(len(pre))).all())

    def test_traversals_do_not_depend_on_node_ids(self):
        rng = np.random.default_rng(1)
        tree = FlatCotree.from_cotree(random_cotree(60, seed=4))
        other = _relabelled(tree, rng)
        assert tree.to_cotree() == other.to_cotree()
        assert np.array_equal(tree.leaf_spans()[0], other.leaf_spans()[0])
        assert np.array_equal(tree.canonicalize().child_index,
                              other.canonicalize().child_index)

    def test_stack_fallback_matches_the_dfs(self, monkeypatch):
        import repro.cograph.flat as flatmod
        trees = [FlatCotree.from_cotree(t) for t in (
            random_cotree(50, seed=2), caterpillar_cotree(40),
            independent_set(9), Cotree.single_vertex(0))]
        trees.append(pack([random_cotree(30, seed=5), clique(4)]))
        with_dfs = [t.ordered_intervals for t in trees]
        monkeypatch.setattr(flatmod, "_multiway_numbering",
                            lambda *args, **kwargs: None)
        for t, (pre, size) in zip(trees, with_dfs):
            t._ordered = None
            assert np.array_equal(t.ordered_intervals[0], pre)
            assert np.array_equal(t.ordered_intervals[1], size)


class TestCanonicalKey:

    def test_invariant_under_child_permutation(self):
        rng = np.random.default_rng(0)
        for seed in range(8):
            tree = random_cotree(50, seed=seed)
            children = [list(c) for c in tree.children]
            for c in children:
                rng.shuffle(c)
            shuffled = Cotree(tree.kind, children, tree.leaf_vertex,
                              tree.root)
            assert canonical_key(tree) == canonical_key(shuffled)

    def test_sensitive_to_vertex_labels(self):
        a = Cotree.from_nested(("join", 0, ("union", 1, 2)))
        b = Cotree.from_nested(("join", 0, ("union", 1, 3)))
        assert canonical_key(a) != canonical_key(b)

    def test_sensitive_to_structure(self):
        a = Cotree.from_nested(("join", 0, ("union", 1, 2)))
        b = Cotree.from_nested(("union", 0, ("join", 1, 2)))
        assert canonical_key(a) != canonical_key(b)

    def test_same_key_across_representations(self):
        tree = random_cotree(40, seed=4)
        flat = FlatCotree.from_cotree(tree)
        binary = binarize_cotree(tree)
        assert canonical_key(tree) == canonical_key(flat)
        # binarization only rewrites k-ary nodes into same-label chains,
        # which canonicalization undoes
        assert canonical_key(tree) == canonical_key(binary)

    def test_single_vertex(self):
        assert canonical_key(Cotree.single_vertex(5)) \
            == canonical_key(FlatCotree.from_cotree(Cotree.single_vertex(5)))
        assert canonical_key(Cotree.single_vertex(5)) \
            != canonical_key(Cotree.single_vertex(6))

    def test_depth_5000_caterpillar_no_recursion_error(self):
        # regression: the old recursive nested-tuple key blew RecursionError
        # past depth ~1000; the iterative kernel must not.
        spec = 0
        for i in range(1, 5001):
            spec = ("join" if i % 2 else "union", i, spec)
        deep = Cotree.from_nested(spec)
        assert deep.height() == 5000
        key = canonical_cotree_key(deep)
        assert key == canonical_cotree_key(deep.to_flat())
        # a relabelled twin must differ
        twin_spec = 0
        for i in range(1, 5001):
            twin_spec = ("join" if i % 2 else "union",
                         i if i != 4321 else 9999, twin_spec)
        assert key != canonical_cotree_key(Cotree.from_nested(twin_spec))

    def test_cache_key_unifies_flat_and_cotree_spellings(self):
        from repro.api import SolveOptions, as_problem
        cache = SolutionCache(maxsize=8)
        tree = random_cotree(24, seed=6)
        k1 = cache.key_for(as_problem(tree), "path_cover", SolveOptions())
        k2 = cache.key_for(as_problem(FlatCotree.from_cotree(tree)),
                           "path_cover", SolveOptions())
        assert k1 == k2

    def test_scipy_fallback_gives_identical_keys(self, monkeypatch):
        import repro.cograph.flat as flatmod
        trees = [random_cotree(30, seed=s) for s in range(4)]
        trees.append(caterpillar_cotree(15))
        # wide nodes (the sparse DFS runs on the first-child / next-sibling
        # form), deep and larger random trees, and a prime node: P5 with a
        # false twin of its middle vertex, all joined to one apex
        trees += [independent_set(3000), join_of_independent_sets([1500, 2]),
                  caterpillar_cotree(2000), random_cotree(1500, seed=11)]
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (5, 3)]
        trees.append(md_tree(Graph(7, edges + [(6, v) for v in range(6)])))
        assert FlatCotree.from_cotree(trees[-1]).has_primes
        with_scipy = [canonical_key(t) for t in trees]
        monkeypatch.setattr(flatmod, "_HAVE_SPARSE_DFS", False)
        without = [canonical_key(t) for t in trees]
        assert with_scipy == without

    def test_rejects_non_tree(self):
        with pytest.raises(TypeError):
            canonical_cotree_key({"not": "a tree"})


# --------------------------------------------------------------------------- #
# 3. pipeline parity across representations and backends
# --------------------------------------------------------------------------- #

class TestPipelineParity:

    @pytest.mark.parametrize("backend", ["fast", "pram"])
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_bit_identical_covers(self, name, backend):
        tree = FAMILIES[name]()
        flat = FlatCotree.from_cotree(tree)
        a = minimum_path_cover_parallel(tree, backend=backend)
        b = minimum_path_cover_parallel(flat, backend=backend)
        assert a.cover.paths == b.cover.paths
        assert a.num_paths == b.num_paths == b.p_root

    def test_solve_front_door_accepts_flat(self):
        tree = random_cotree(35, seed=8)
        flat = FlatCotree.from_cotree(tree)
        a = solve(tree, task="path_cover")
        b = solve(flat, task="path_cover")
        assert a.cover.paths == b.cover.paths
        assert b.provenance["source_format"] == "flat_cotree"

    def test_flat_input_solves_every_task(self):
        flat = FlatCotree.from_cotree(clique(6))
        assert solve(flat, task="path_cover_size").answer == 1
        assert solve(flat, task="hamiltonian_path").answer is not None
        assert solve(flat, task="recognition").answer is True

    def test_flat_round_trips_through_cache(self):
        cache = SolutionCache(maxsize=4)
        flat = FlatCotree.from_cotree(random_cotree(20, seed=12))
        first = solve(flat, task="path_cover", cache=cache)
        second = solve(flat.to_cotree(), task="path_cover", cache=cache)
        assert first.cache_status == "miss"
        assert second.cache_status == "hit"
        assert first.cover.paths == second.cover.paths


class TestEmptyAndSingleVertexEdgeCases:
    """PR-5 regressions: the degenerate trees must round-trip, not raise."""

    def empty_flat(self):
        return FlatCotree([], [0], [], [], [], -1)

    def test_empty_cotree_constructs_with_root_minus_one(self):
        empty = Cotree([], [], [], -1)
        assert empty.num_nodes == 0
        assert empty.num_vertices == 0
        assert list(empty.preorder()) == []
        assert list(empty.postorder()) == []
        assert empty.height() == 0

    def test_empty_cotree_rejects_a_real_root(self):
        with pytest.raises(Exception, match="root"):
            Cotree([], [], [], 0)

    def test_empty_round_trip(self):
        flat = self.empty_flat()
        back = flat.to_cotree()
        assert back.num_nodes == 0 and back.root == -1
        again = FlatCotree.from_cotree(back)
        assert again.num_nodes == 0
        assert again == flat

    def test_empty_canonical_key_and_canonicalize(self):
        flat = self.empty_flat()
        assert canonical_key(flat) == ("cotree", 0)
        assert canonical_key(Cotree([], [], [], -1)) == ("cotree", 0)
        assert flat.is_canonical()
        assert flat.canonicalize().num_nodes == 0
        assert hash(flat) == hash(self.empty_flat())

    def test_single_vertex_round_trip(self):
        one = Cotree.single_vertex(7)
        flat = FlatCotree.from_cotree(one)
        assert flat.num_nodes == 1 and flat.num_vertices == 1
        back = flat.to_cotree()
        assert int(back.leaf_vertex[back.root]) == 7
        assert FlatCotree.from_cotree(back) == flat

    def test_single_vertex_canonical_key_and_canonicalize(self):
        flat = FlatCotree.from_cotree(Cotree.single_vertex(3))
        assert canonical_key(flat) == ("cotree", 1, 3)
        assert flat.canonicalize().num_nodes == 1
        assert flat.is_canonical()

    def test_single_vertex_binary_cotree_round_trip(self):
        binary = binarize_cotree(Cotree.single_vertex(0))
        flat = FlatCotree.from_cotree(binary)
        assert flat.num_nodes == binary.num_nodes
        assert canonical_key(flat) == canonical_key(Cotree.single_vertex(0))

    def test_single_vertex_cache_key_stable(self):
        cache = SolutionCache(maxsize=2)
        first = solve(Cotree.single_vertex(0), task="path_cover_size",
                      cache=cache)
        second = solve(FlatCotree.from_cotree(Cotree.single_vertex(0)),
                       task="path_cover_size", cache=cache)
        assert first.answer == 1
        assert second.cache_status == "hit"

