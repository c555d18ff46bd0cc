"""Tests for the cograph algebra (union/join/complement) and the generators."""

import numpy as np
import pytest

from repro.cograph import (
    JOIN,
    UNION,
    Cotree,
    CotreeError,
    Graph,
    balanced_cotree,
    caterpillar_cotree,
    clique,
    complement_cotree,
    complete_bipartite,
    independent_set,
    join_cotrees,
    join_of_independent_sets,
    minimum_path_cover_size,
    random_cograph_edges,
    random_cotree,
    relabel_disjoint,
    single_vertex,
    threshold_cograph,
    union_cotrees,
    union_of_cliques,
    validate_cotree,
)
from repro.api.adapters import as_problem
from repro.cograph.flat import as_flat_cotree
from repro.cograph.md import md_tree


class TestOperations:
    def test_union_edge_count(self):
        t = union_cotrees(clique(3), clique(4), relabel=True)
        assert t.edge_count() == 3 + 6

    def test_join_edge_count(self):
        t = join_cotrees(independent_set(3), independent_set(4), relabel=True)
        assert t.edge_count() == 12

    def test_union_requires_disjoint_ids(self):
        with pytest.raises(CotreeError):
            union_cotrees(clique(2), clique(2))

    def test_relabel_disjoint(self):
        a, b = relabel_disjoint([clique(2), clique(3)])
        assert sorted(a.vertices) == [0, 1]
        assert sorted(b.vertices) == [2, 3, 4]

    def test_single_tree_passthrough(self):
        t = clique(3)
        assert union_cotrees(t) is t

    def test_results_are_canonical(self):
        t = join_cotrees(clique(2), clique(3), relabel=True)
        assert t.is_canonical()
        u = union_cotrees(independent_set(2), independent_set(2), relabel=True)
        assert u.is_canonical()

    def test_complement_swaps_labels(self):
        t = complement_cotree(complete_bipartite(2, 3))
        g = Graph.from_cotree(t)
        assert g == Graph.from_cotree(complete_bipartite(2, 3)).complement()

    def test_complement_involution(self):
        t = random_cotree(20, seed=9)
        back = complement_cotree(complement_cotree(t))
        assert Graph.from_cotree(back) == Graph.from_cotree(t)

    def test_de_morgan(self):
        """complement(A union B) == join(complement A, complement B)."""
        a, b = random_cotree(6, seed=1), random_cotree(5, seed=2)
        a, b = relabel_disjoint([a, b])
        lhs = complement_cotree(union_cotrees(a, b))
        rhs = join_cotrees(complement_cotree(a), complement_cotree(b))
        assert Graph.from_cotree(lhs) == Graph.from_cotree(rhs)

    def test_flat_trees_with_primes_are_refused(self):
        p4 = md_tree(Graph(4, [(0, 1), (1, 2), (2, 3)]))
        assert p4.has_primes
        for op in (complement_cotree, lambda t: union_cotrees(t, clique(2),
                                                              relabel=True)):
            with pytest.raises(CotreeError, match="prime"):
                op(p4)

    def test_unchecked_flat_trees_are_validated(self):
        twice = as_problem("(0 + 0)").tree      # parsed, not yet validated
        for op in (complement_cotree, lambda t: join_cotrees(t, clique(2),
                                                             relabel=True)):
            with pytest.raises(CotreeError, match="leaf_vertex"):
                op(twice)

    def test_flat_inputs_give_the_cotree_answer(self):
        a, b = random_cotree(9, seed=3), random_cotree(7, seed=4)
        fa, fb = as_flat_cotree(a), as_flat_cotree(b)
        assert complement_cotree(fa) == complement_cotree(a)
        assert union_cotrees(fa, fb, relabel=True) == \
            union_cotrees(a, b, relabel=True)


class TestGenerators:
    def test_independent_set(self):
        t = independent_set(7)
        assert t.num_vertices == 7
        assert t.edge_count() == 0
        assert minimum_path_cover_size(t) == 7

    def test_clique(self):
        t = clique(6)
        assert t.edge_count() == 15
        assert minimum_path_cover_size(t) == 1

    def test_single_vertex_generators(self):
        assert independent_set(1).num_vertices == 1
        assert clique(1).num_vertices == 1

    def test_generators_reject_bad_sizes(self):
        with pytest.raises(ValueError):
            independent_set(0)
        with pytest.raises(ValueError):
            clique(0)
        with pytest.raises(ValueError):
            balanced_cotree(-1)
        with pytest.raises(ValueError):
            caterpillar_cotree(0)
        with pytest.raises(ValueError):
            union_of_cliques([])
        with pytest.raises(ValueError):
            threshold_cograph([])

    def test_complete_bipartite(self):
        t = complete_bipartite(3, 4)
        assert t.num_vertices == 7
        assert t.edge_count() == 12
        assert minimum_path_cover_size(t) == 1

    def test_complete_bipartite_unbalanced_cover(self):
        # K_{1,5}: the star needs 5 - 1 = 4 paths
        assert minimum_path_cover_size(complete_bipartite(1, 5)) == 4

    def test_union_of_cliques_cover_size(self):
        sizes = [3, 1, 4, 2]
        t = union_of_cliques(sizes)
        assert t.num_vertices == sum(sizes)
        assert minimum_path_cover_size(t) == len(sizes)

    def test_join_of_independent_sets_cover_formula(self):
        # p = max(1, max_part - rest)
        for sizes in ([4, 2], [5, 5], [7, 2, 1], [3, 3, 3], [10, 1]):
            t = join_of_independent_sets(sizes)
            expect = max(1, max(sizes) - (sum(sizes) - max(sizes)))
            assert minimum_path_cover_size(t) == expect, sizes

    def test_balanced_cotree_shape(self):
        t = balanced_cotree(4)
        assert t.num_vertices == 16
        assert t.height() == 4
        assert t.is_canonical()

    def test_balanced_cotree_branching(self):
        t = balanced_cotree(2, branching=3)
        assert t.num_vertices == 9

    def test_caterpillar_is_deep(self):
        t = caterpillar_cotree(20)
        assert t.num_vertices == 20
        assert t.height() == 19 or t.is_canonical()
        # the binarized caterpillar has height n-1
        from repro.cograph import binarize_cotree
        assert binarize_cotree(t).height() == 19

    def test_caterpillar_alternating_is_canonical(self):
        assert caterpillar_cotree(15).is_canonical()

    @staticmethod
    def _threshold_by_folding(seq):
        """The creation sequence read one vertex at a time, each step a
        canonical join or union with the tree so far."""
        tree = Cotree.single_vertex(0)
        for i, bit in enumerate(seq[1:], start=1):
            step = join_cotrees if bit else union_cotrees
            tree = step(tree, Cotree.single_vertex(i))
        return tree

    def test_threshold_arrays_match_the_fold(self):
        import itertools
        rng = np.random.default_rng(11)
        seqs = [list(bits) for n in range(1, 9)
                for bits in itertools.product([0, 1], repeat=n)]
        seqs += [rng.integers(0, 2, int(rng.integers(9, 200))).tolist()
                 for _ in range(10)]
        for seq in seqs:
            got = as_flat_cotree(threshold_cograph(seq))
            want = as_flat_cotree(self._threshold_by_folding(seq))
            for field in ("kind", "child_offset", "child_index", "parent",
                          "leaf_vertex"):
                a, b = getattr(got, field), getattr(want, field)
                assert a.dtype == b.dtype and np.array_equal(a, b), \
                    (seq, field)
            assert got.root == want.root
            got.validate()

    def test_threshold_graph_all_ones_is_clique(self):
        t = threshold_cograph([1, 1, 1, 1])
        assert Graph.from_cotree(t) == Graph.from_cotree(clique(4))

    def test_threshold_graph_all_zeros_is_independent(self):
        t = threshold_cograph([0, 0, 0])
        assert t.edge_count() == 0

    def test_random_cotree_is_canonical_and_valid(self):
        for seed in range(10):
            t = random_cotree(17, seed=seed)
            validate_cotree(t, Graph.from_cotree(t))
            assert t.num_vertices == 17

    def test_random_cotree_determinism(self):
        a = random_cotree(30, seed=42)
        b = random_cotree(30, seed=42)
        assert a == b

    def test_random_cotree_density_bias(self):
        sparse = random_cotree(60, seed=1, join_prob=0.1).edge_count()
        dense = random_cotree(60, seed=1, join_prob=0.9).edge_count()
        assert dense > sparse

    def test_random_cograph_edges(self):
        t, edges = random_cograph_edges(12, seed=3)
        g = Graph(12, edges)
        assert g == Graph.from_cotree(t)
