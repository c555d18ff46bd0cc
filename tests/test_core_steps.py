"""Step-by-step tests of the parallel pipeline (Steps 1-7 internals)."""

import numpy as np
import pytest

from repro import solve
from repro.cograph import (
    Cotree,
    Graph,
    JOIN,
    LEAF,
    UNION,
    binarize_cotree,
    caterpillar_cotree,
    clique,
    independent_set,
    join_cotrees,
    join_of_independent_sets,
    make_leftist,
    path_cover_sizes_per_node,
    random_cotree,
    single_vertex,
    union_cotrees,
    validate_binary_cotree,
)
from repro.core import (
    VertexClass,
    binarize_parallel,
    build_pseudo_forest,
    generate_brackets,
    leftist_reorder,
    legalize_forest,
    reduce_cotree,
    remove_dummies,
    render_brackets,
)
from repro.pram import PRAM, AccessMode


def pipeline_to(tree, stage, machine=None):
    """Run the pipeline up to a named stage and return the artefacts."""
    m = machine or PRAM.null()
    binary = binarize_parallel(m, tree)
    if stage == "binary":
        return binary
    leftist = leftist_reorder(m, binary)
    if stage == "leftist":
        return leftist
    reduced = reduce_cotree(m, leftist)
    if stage == "reduced":
        return reduced
    seq = generate_brackets(m, reduced)
    if stage == "brackets":
        return reduced, seq
    forest = build_pseudo_forest(m, seq)
    if stage == "pseudo":
        return reduced, seq, forest
    forest2, nex = legalize_forest(m, forest, reduced)
    if stage == "legal":
        return reduced, seq, forest2, nex
    forest3 = remove_dummies(m, forest2)
    return reduced, seq, forest3


class TestStep1Binarize:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_sequential_binarizer_graph(self, seed):
        t = random_cotree(30, seed=seed)
        par = binarize_parallel(PRAM(), t)
        seq = binarize_cotree(t)
        assert par.num_nodes == seq.num_nodes
        assert Graph.from_cotree(par.to_cotree()) == Graph.from_cotree(seq.to_cotree())

    def test_erew_clean(self):
        binarize_parallel(PRAM(mode=AccessMode.EREW), random_cotree(50, seed=1))

    def test_wide_node(self):
        b = binarize_parallel(PRAM(), independent_set(9))
        b.validate()
        assert b.num_nodes == 17

    def test_rejects_unary_nodes(self):
        from repro.cograph import Cotree, CotreeError
        bad = Cotree([UNION, LEAF], [[1], []], [-1, 0], 0)
        with pytest.raises(CotreeError):
            binarize_parallel(PRAM(), bad)


class TestStep2Leftist:
    @pytest.mark.parametrize("seed", range(5))
    def test_result_is_leftist(self, seed):
        t = random_cotree(40, seed=seed)
        lf = leftist_reorder(PRAM(), binarize_cotree(t))
        validate_binary_cotree(lf.tree, leftist=True)

    def test_leaf_counts_match(self):
        t = random_cotree(40, seed=9)
        lf = leftist_reorder(PRAM(), binarize_cotree(t))
        assert np.array_equal(lf.leaf_count, lf.tree.subtree_leaf_counts())

    def test_graph_unchanged(self):
        t = random_cotree(25, seed=3)
        lf = leftist_reorder(PRAM(), binarize_cotree(t))
        assert Graph.from_cotree(lf.tree.to_cotree()) == Graph.from_cotree(t)

    def test_numbers_reflect_swapped_order(self):
        t = join_cotrees(single_vertex(0), independent_set(3).relabel_vertices(
            {0: 1, 1: 2, 2: 3}))
        lf = leftist_reorder(PRAM(), binarize_cotree(t))
        # after the swap the (heavier) independent side is on the left, so the
        # single vertex 0 is the last leaf in inorder
        order = sorted(lf.tree.leaves, key=lambda u: lf.numbers.inorder[u])
        assert int(lf.tree.leaf_vertex[order[-1]]) == 0


class TestStep3Reduce:
    def reduced(self, tree):
        lf = leftist_reorder(None, binarize_cotree(tree))
        return reduce_cotree(None, lf)

    def test_p_values_match_reference(self):
        t = random_cotree(60, seed=4)
        red = self.reduced(t)
        assert np.array_equal(red.p, path_cover_sizes_per_node(red.tree))

    def test_every_vertex_classified_once(self):
        t = random_cotree(60, seed=5, join_prob=0.6)
        red = self.reduced(t)
        assert set(np.unique(red.vertex_class)) <= {VertexClass.PRIMARY,
                                                    VertexClass.BRIDGE,
                                                    VertexClass.INSERT}
        assert len(red.vertex_class) == 60

    def test_primary_vertices_have_no_owner(self):
        red = self.reduced(random_cotree(40, seed=6, join_prob=0.5))
        primary = red.vertex_class == VertexClass.PRIMARY
        assert np.all(red.vertex_owner[primary] == -1)
        assert np.all(red.vertex_owner[~primary] >= 0)

    def test_owner_block_sizes(self):
        """Every active 1-node owns exactly L(w) vertices, split into bridges
        and inserts according to Case 1 / Case 2."""
        red = self.reduced(random_cotree(80, seed=7, join_prob=0.5))
        tree = red.tree
        for u in red.active_join_nodes():
            w = int(tree.right[u])
            owned = np.flatnonzero(red.vertex_owner == u)
            assert len(owned) == red.leaf_count[w]
            p_v = red.p[tree.left[u]]
            n_bridges = np.count_nonzero(
                red.vertex_class[owned] == VertexClass.BRIDGE)
            if p_v > red.leaf_count[w]:
                assert n_bridges == red.leaf_count[w]
            else:
                assert n_bridges == p_v - 1
            ranks = sorted(red.vertex_rank[owned])
            assert ranks == list(range(len(owned)))

    def test_pure_union_tree_all_primary(self):
        red = self.reduced(independent_set(12))
        assert np.all(red.vertex_class == VertexClass.PRIMARY)
        assert red.minimum_path_count() == 12

    def test_clique_has_single_primary(self):
        red = self.reduced(clique(8))
        assert np.count_nonzero(red.vertex_class == VertexClass.PRIMARY) == 1
        assert red.minimum_path_count() == 1

    def test_dummy_counts(self):
        """A Case-2 1-node contributes 2 p(v) - 2 dummies, a Case-1 node none."""
        red = self.reduced(join_of_independent_sets([4, 4]))
        tree = red.tree
        for u in red.active_join_nodes():
            p_v = red.p[tree.left[u]]
            L_w = red.leaf_count[tree.right[u]]
            if p_v <= L_w:
                assert red.num_dummies_of[u] == 2 * p_v - 2
            else:
                assert red.num_dummies_of[u] == 0

    def test_nested_joins_flattened_regions_nest_correctly(self):
        # join(join(I2, I2), I2): the inner join's right side is swallowed by
        # nothing (it is in the left subtree), the outer join's right side is
        # flattened.
        inner = join_of_independent_sets([2, 2])
        outer = join_cotrees(inner, independent_set(2).relabel_vertices(
            {0: 4, 1: 5}))
        red = self.reduced(outer)
        assert red.minimum_path_count() == 1
        assert np.count_nonzero(red.vertex_class != VertexClass.PRIMARY) >= 2


class TestStep4Brackets:
    def test_sequence_length_is_linear(self):
        for seed in range(4):
            t = random_cotree(50, seed=seed, join_prob=0.6)
            red, seq = pipeline_to(t, "brackets")
            assert len(seq) <= 7 * 50
            assert seq.num_real == 50

    def test_three_brackets_per_primary_vertex(self):
        t = independent_set(9)
        red, seq = pipeline_to(t, "brackets")
        assert len(seq) == 27
        assert np.all(seq.is_open)
        assert np.count_nonzero(seq.is_square) == 9

    def test_square_closes_only_from_bridges(self):
        t = random_cotree(40, seed=8, join_prob=0.7)
        red, seq = pipeline_to(t, "brackets")
        closes = ~seq.is_open & seq.is_square
        for v in np.unique(seq.vertex[closes]):
            assert red.vertex_class[v] == VertexClass.BRIDGE

    def test_dummy_ids_above_real_range(self):
        t = join_of_independent_sets([4, 4])
        red, seq = pipeline_to(t, "brackets")
        if seq.num_dummies:
            assert seq.dummy_ids.min() >= seq.num_real

    def test_render_brackets_is_readable(self):
        t = clique(3)
        red, seq = pipeline_to(t, "brackets")
        text = render_brackets(seq, names=["a", "b", "c"])
        assert "a^p[" in text and "(" in text


class TestSteps5to7Forest:
    def test_roots_equal_minimum_path_count(self):
        for seed in range(5):
            t = random_cotree(45, seed=seed, join_prob=0.5)
            red, seq, forest = pipeline_to(t, "pseudo")
            real_roots = forest.roots(include_dummies=False)
            assert len(real_roots) == red.minimum_path_count()

    def test_every_real_vertex_in_some_tree(self):
        t = random_cotree(45, seed=11, join_prob=0.5)
        red, seq, forest = pipeline_to(t, "pseudo")
        # walk up from every vertex; must reach a root without cycling
        for v in range(45):
            seen = set()
            u = v
            while forest.parent[u] != -1:
                assert u not in seen
                seen.add(u)
                u = int(forest.parent[u])

    def test_forest_is_binary_and_consistent(self):
        t = random_cotree(45, seed=12, join_prob=0.6)
        red, seq, forest = pipeline_to(t, "pseudo")
        for u in range(forest.num_nodes):
            for c in (forest.left[u], forest.right[u]):
                if c != -1:
                    assert forest.parent[c] == u

    def test_legalization_leaves_no_illegal_insert(self):
        """After Step 6, re-running the detection finds nothing illegal."""
        t = random_cotree(80, seed=13, join_prob=0.35)
        red, seq, forest, nex = pipeline_to(t, "legal")
        forest2, nex2 = legalize_forest(None, forest, red)
        assert nex2 == 0

    def test_dummy_slot_is_judged_without_its_subtree(self):
        """A dummy leaves its slot together with the later inserts hanging
        off it, so the slot's legality must not count them: here an insert
        moved into such a slot ended next to a bridge of its own 1-node
        (a 76-vertex shrink of a 65k-vertex random cotree)."""
        spec = (
            ('join', ('union', ('union', ('join', ('union', ('join',
            ('union', ('join', ('union', 8, 23), 74, 49), 42, 35), 21),
            ('join', 60, 22, 13, 64), ('join', 45, 67, 55)), ('union',
            ('join', ('union', 51, 66), ('union', 33, 36), 16, 17, 6),
            ('join', ('union', 58, 27, 9), 69))), ('union', 20, 39, 54)),
            ('join', ('union', ('join', ('union', 19, 53, 14), 62, 70, 34),
            37, 7, 28, 24), ('union', ('join', 5, 32, 1, 26, 4), ('join',
            ('union', 56, 25, 48, 47), 10), ('join', 57, 65, 63), ('join',
            75, 73), ('join', 41, 30), 29)), ('union', ('join', 46, 15), 18,
            50), ('union', ('join', 43, 0), 31)), ('union', ('join',
            ('union', 2, 52, 68, 11, 40), 72, 38), ('join', 44, 61, 71)),
            ('union', 12, 59, 3)))
        tree = Cotree.from_nested(spec).canonicalize()
        red, seq, forest, nex = pipeline_to(tree, "legal")
        assert nex > 0
        assert legalize_forest(None, forest, red)[1] == 0
        for backend in ("fast", "pram"):
            cover = solve(tree, "path_cover", backend=backend,
                          validate=True)
            assert cover.num_paths == 1

    def test_dummies_removed_completely(self):
        t = random_cotree(60, seed=14, join_prob=0.4)
        red, seq, forest = pipeline_to(t, "compress")
        assert np.all(forest.parent[forest.num_real:] == -1)
        assert np.all(forest.left[forest.num_real:] == -1)
        assert np.all(forest.left[:forest.num_real] < forest.num_real)
        assert np.all(forest.right[:forest.num_real] < forest.num_real)
        assert np.all(forest.parent[:forest.num_real] < forest.num_real)

    def test_remove_dummies_noop_without_dummies(self):
        t = independent_set(6)
        red, seq, forest = pipeline_to(t, "pseudo")
        out = remove_dummies(None, forest)
        assert np.array_equal(out.parent, forest.parent)

    def test_exchange_count_is_bounded_by_dummies(self):
        t = random_cotree(80, seed=15, join_prob=0.3)
        red, seq, forest, nex = pipeline_to(t, "legal")
        assert 0 <= nex <= seq.num_dummies
