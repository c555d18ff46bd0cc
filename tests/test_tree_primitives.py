"""Tests for the Euler tour, tree numbering, ancestor aggregation and the
tree-contraction evaluator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import log2ceil
from repro.cograph import (
    JOIN,
    LEAF,
    UNION,
    binarize_cotree,
    caterpillar_cotree,
    make_leftist,
    path_cover_sizes_per_node,
    random_cotree,
)
from repro.pram import PRAM, AccessMode
from repro.primitives import (
    NEG_INF,
    build_euler_tour,
    compute_tree_numbers,
    evaluate_max_plus_tree,
    mp_apply,
    mp_compose,
    mp_constant,
    mp_identity,
    topmost_marked_ancestor,
    topmost_marked_ancestor_jumping,
)


@pytest.fixture(scope="module")
def trees():
    out = []
    for n, seed in [(3, 0), (8, 1), (25, 2), (60, 3), (150, 4)]:
        out.append(make_leftist(binarize_cotree(random_cotree(n, seed=seed))))
    out.append(make_leftist(binarize_cotree(caterpillar_cotree(40))))
    return out


class TestEulerTour:
    def test_positions_are_a_permutation(self, trees):
        for b in trees:
            tour = build_euler_tour(PRAM(), b.left, b.right, b.parent, [b.root])
            assert sorted(tour.position) == list(range(2 * b.num_nodes))

    def test_enter_before_exit(self, trees):
        for b in trees:
            tour = build_euler_tour(PRAM(), b.left, b.right, b.parent, [b.root])
            nodes = np.arange(b.num_nodes)
            assert np.all(tour.enter_position(nodes) < tour.exit_position(nodes))

    def test_root_spans_whole_tour(self, trees):
        b = trees[0]
        tour = build_euler_tour(PRAM(), b.left, b.right, b.parent, [b.root])
        assert tour.enter_position([b.root])[0] == 0
        assert tour.exit_position([b.root])[0] == 2 * b.num_nodes - 1

    def test_parent_interval_contains_child_interval(self, trees):
        for b in trees[:3]:
            tour = build_euler_tour(PRAM(), b.left, b.right, b.parent, [b.root])
            for u in b.internal_nodes:
                for c in (int(b.left[u]), int(b.right[u])):
                    assert tour.enter_position([u])[0] < tour.enter_position([c])[0]
                    assert tour.exit_position([c])[0] < tour.exit_position([u])[0]

    def test_empty_forest(self):
        tour = build_euler_tour(PRAM(), [], [], [], [])
        assert tour.num_nodes == 0

    def test_prefix_over_tour(self, trees):
        b = trees[1]
        m = PRAM()
        tour = build_euler_tour(m, b.left, b.right, b.parent, [b.root])
        ones = np.ones(2 * b.num_nodes, dtype=np.int64)
        pref = tour.prefix_over_tour(m, ones, inclusive=True)
        # the prefix at an arc equals its position + 1
        assert np.array_equal(pref, tour.position + 1)


class TestTreeNumbering:
    def test_matches_sequential_reference(self, trees):
        for b in trees:
            nums = compute_tree_numbers(PRAM(), b.left, b.right, b.parent, [b.root])
            assert np.array_equal(nums.subtree_leaves, b.subtree_leaf_counts())
            assert np.array_equal(nums.depth, b.depth())
            pre_expected = np.empty(b.num_nodes, dtype=np.int64)
            for i, u in enumerate(b.preorder()):
                pre_expected[u] = i
            assert np.array_equal(nums.preorder, pre_expected)
            post_expected = np.empty(b.num_nodes, dtype=np.int64)
            for i, u in enumerate(b.postorder()):
                post_expected[u] = i
            assert np.array_equal(nums.postorder, post_expected)

    def test_inorder_of_leaves_matches_left_to_right(self, trees):
        for b in trees:
            nums = compute_tree_numbers(PRAM(), b.left, b.right, b.parent, [b.root])
            by_inorder = sorted(range(b.num_nodes), key=lambda u: nums.inorder[u])
            leaf_vertices = [int(b.leaf_vertex[u]) for u in by_inorder
                             if b.kind[u] == LEAF]
            assert leaf_vertices == b.inorder_leaves()

    def test_inorder_is_a_permutation(self, trees):
        for b in trees:
            nums = compute_tree_numbers(PRAM(), b.left, b.right, b.parent, [b.root])
            assert sorted(nums.inorder) == list(range(b.num_nodes))

    def test_subtree_size(self, trees):
        b = trees[2]
        nums = compute_tree_numbers(PRAM(), b.left, b.right, b.parent, [b.root])
        assert nums.subtree_size[b.root] == b.num_nodes
        for leaf in b.leaves:
            assert nums.subtree_size[leaf] == 1

    def test_forest_numbering(self):
        # two separate one-node "trees" plus one proper tree
        b = make_leftist(binarize_cotree(random_cotree(10, seed=5)))
        n = b.num_nodes
        left = np.concatenate([b.left, [-1, -1]])
        right = np.concatenate([b.right, [-1, -1]])
        parent = np.concatenate([b.parent, [-1, -1]])
        nums = compute_tree_numbers(PRAM(), left, right, parent,
                                    [b.root, n, n + 1])
        assert nums.subtree_size[n] == 1
        assert nums.subtree_size[n + 1] == 1
        # chained inorder: the singleton trees come after the first tree
        assert nums.inorder[n] == b.num_nodes
        assert nums.inorder[n + 1] == b.num_nodes + 1

    def test_rounds_logarithmic(self):
        b = make_leftist(binarize_cotree(random_cotree(512, seed=6)))
        m = PRAM()
        compute_tree_numbers(m, b.left, b.right, b.parent, [b.root])
        assert m.rounds <= 60 * log2ceil(b.num_nodes)

    def test_erew_clean(self, trees):
        for b in trees[:2]:
            compute_tree_numbers(PRAM(mode=AccessMode.EREW), b.left, b.right,
                                 b.parent, [b.root])


class TestTopmostMarkedAncestor:
    def brute(self, parent, marked):
        n = len(parent)
        out = np.full(n, -1, dtype=np.int64)
        for v in range(n):
            best = -1
            u = v
            while u != -1:
                if marked[u]:
                    best = u
                u = parent[u]
            out[v] = best
        return out

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, trees, seed):
        b = trees[seed % len(trees)]
        rng = np.random.default_rng(seed)
        marked = rng.random(b.num_nodes) < 0.25
        got = topmost_marked_ancestor(PRAM(), b.left, b.right, b.parent,
                                      [b.root], marked)
        assert np.array_equal(got, self.brute(b.parent, marked))

    def test_jumping_variant_matches(self, trees):
        b = trees[2]
        rng = np.random.default_rng(1)
        marked = rng.random(b.num_nodes) < 0.3
        a = topmost_marked_ancestor(PRAM(), b.left, b.right, b.parent,
                                    [b.root], marked)
        c = topmost_marked_ancestor_jumping(PRAM(mode=AccessMode.CREW),
                                            b.parent, marked)
        assert np.array_equal(a, c)

    def test_no_marks(self, trees):
        b = trees[0]
        marked = np.zeros(b.num_nodes, dtype=bool)
        got = topmost_marked_ancestor(PRAM(), b.left, b.right, b.parent,
                                      [b.root], marked)
        assert np.all(got == -1)

    def test_root_marked_owns_everything(self, trees):
        b = trees[0]
        marked = np.zeros(b.num_nodes, dtype=bool)
        marked[b.root] = True
        got = topmost_marked_ancestor(PRAM(), b.left, b.right, b.parent,
                                      [b.root], marked)
        assert np.all(got == b.root)

    def test_erew_tour_variant_is_erew_clean(self, trees):
        b = trees[1]
        marked = np.zeros(b.num_nodes, dtype=bool)
        marked[b.internal_nodes[:3]] = True
        topmost_marked_ancestor(PRAM(mode=AccessMode.EREW), b.left, b.right,
                                b.parent, [b.root], marked)

    def test_jumping_variant_needs_concurrent_reads(self, trees):
        from repro.pram import AccessConflictError
        b = trees[2]
        marked = np.zeros(b.num_nodes, dtype=bool)
        with pytest.raises(AccessConflictError):
            topmost_marked_ancestor_jumping(PRAM(mode=AccessMode.EREW),
                                            b.parent, marked)


class TestMaxPlusFunctions:
    int_vals = st.integers(min_value=-1000, max_value=1000)

    @settings(max_examples=100, deadline=None)
    @given(int_vals, int_vals, int_vals, int_vals, int_vals)
    def test_compose_is_function_composition(self, a1, b1, a2, b2, x):
        ca, cb = mp_compose(np.array([a1]), np.array([b1]),
                            np.array([a2]), np.array([b2]))
        direct = mp_apply(np.array([a2]), np.array([b2]),
                          mp_apply(np.array([a1]), np.array([b1]),
                                   np.array([x])))
        composed = mp_apply(ca, cb, np.array([x]))
        assert composed[0] == direct[0]

    @settings(max_examples=60, deadline=None)
    @given(int_vals, int_vals, int_vals, int_vals, int_vals, int_vals, int_vals)
    def test_compose_associative(self, a1, b1, a2, b2, a3, b3, x):
        f12 = mp_compose(np.array([a1]), np.array([b1]), np.array([a2]),
                         np.array([b2]))
        left = mp_compose(*f12, np.array([a3]), np.array([b3]))
        f23 = mp_compose(np.array([a2]), np.array([b2]), np.array([a3]),
                         np.array([b3]))
        right = mp_compose(np.array([a1]), np.array([b1]), *f23)
        lx = mp_apply(*left, np.array([x]))
        rx = mp_apply(*right, np.array([x]))
        assert lx[0] == rx[0]

    def test_identity(self):
        a, b = mp_identity(3)
        x = np.array([5, -2, 0])
        assert np.array_equal(mp_apply(a, b, x), x)

    def test_constant(self):
        a, b = mp_constant([7, 9])
        assert np.array_equal(mp_apply(a, b, np.array([0, 1000])), [7, 9])

    def test_neg_inf_saturates(self):
        a = np.array([NEG_INF])
        b = np.array([3])
        assert mp_apply(a, b, np.array([10 ** 15]))[0] == 3


class TestTreeContraction:
    def p_inputs(self, b):
        L = b.subtree_leaf_counts()
        jc = np.zeros(b.num_nodes, dtype=np.int64)
        jc[b.internal_nodes] = L[b.right[b.internal_nodes]]
        return jc, np.ones(b.num_nodes, dtype=np.int64)

    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (5, 2), (9, 3),
                                        (33, 4), (128, 5), (301, 6)])
    def test_matches_sequential_recurrence(self, n, seed):
        b = make_leftist(binarize_cotree(random_cotree(n, seed=seed)))
        jc, leafv = self.p_inputs(b)
        got = evaluate_max_plus_tree(PRAM(), b.left, b.right, b.parent, b.root,
                                     b.kind, jc, leafv)
        assert np.array_equal(got, path_cover_sizes_per_node(b))

    def test_caterpillar(self):
        b = make_leftist(binarize_cotree(caterpillar_cotree(200)))
        jc, leafv = self.p_inputs(b)
        got = evaluate_max_plus_tree(PRAM(), b.left, b.right, b.parent, b.root,
                                     b.kind, jc, leafv)
        assert np.array_equal(got, path_cover_sizes_per_node(b))

    def test_single_leaf(self):
        got = evaluate_max_plus_tree(PRAM(), [-1], [-1], [-1], 0, [LEAF], [0],
                                     [1])
        assert got[0] == 1

    def test_malformed_arrays_are_refused_not_looped(self):
        # leaf 2 names leaf 1 as its parent: it never retires nor rakes
        with pytest.raises(ValueError, match="not a full binary forest"):
            evaluate_max_plus_tree(PRAM(), [1, -1, -1], [2, -1, -1],
                                   [-1, 0, 1], 0, [JOIN, LEAF, LEAF],
                                   [0, 0, 0], [1, 1, 1])

    def test_pure_union_tree_counts_leaves(self):
        from repro.cograph import independent_set
        b = binarize_cotree(independent_set(17))
        jc, leafv = self.p_inputs(b)
        got = evaluate_max_plus_tree(PRAM(), b.left, b.right, b.parent, b.root,
                                     b.kind, jc, leafv)
        assert got[b.root] == 17

    def test_erew_clean(self):
        b = make_leftist(binarize_cotree(random_cotree(200, seed=7)))
        jc, leafv = self.p_inputs(b)
        evaluate_max_plus_tree(PRAM(mode=AccessMode.EREW), b.left, b.right,
                               b.parent, b.root, b.kind, jc, leafv)

    def test_rounds_logarithmic_work_linear(self):
        b = make_leftist(binarize_cotree(random_cotree(2048, seed=8)))
        jc, leafv = self.p_inputs(b)
        m = PRAM()
        evaluate_max_plus_tree(m, b.left, b.right, b.parent, b.root, b.kind,
                               jc, leafv)
        assert m.rounds <= 8 * log2ceil(b.num_nodes)
        assert m.work <= 12 * b.num_nodes

    def test_accepts_precomputed_leaf_order(self):
        b = make_leftist(binarize_cotree(random_cotree(50, seed=9)))
        nums = compute_tree_numbers(None, b.left, b.right, b.parent, [b.root])
        jc, leafv = self.p_inputs(b)
        got = evaluate_max_plus_tree(PRAM(), b.left, b.right, b.parent, b.root,
                                     b.kind, jc, leafv,
                                     leaf_inorder=nums.inorder)
        assert np.array_equal(got, path_cover_sizes_per_node(b))
