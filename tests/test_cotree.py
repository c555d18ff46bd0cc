"""Tests for the general cotree data structure (repro.cograph.cotree)."""

import pickle

import numpy as np
import pytest

from repro import solve
from repro.cograph import (
    JOIN,
    LEAF,
    PRIME,
    UNION,
    Cotree,
    CotreeError,
    FlatCotree,
    Graph,
    as_flat_cotree,
    caterpillar_cotree,
    kind_name,
    random_cotree,
)

#: library-constructor arguments that are no tree, and the refusal naming
#: the field at fault
HOSTILE = {
    "child id -1": (([UNION, LEAF, LEAF], [[1, -1], [], []], [-1, 0, 1], 0),
                    r"children\[1\] = -1 is outside 0\.\.2"),
    "child id 5 of 3 nodes": (
        ([UNION, LEAF, LEAF], [[1, 5], [], []], [-1, 0, 1], 0),
        r"children\[1\] = 5 is outside 0\.\.2"),
    "root 7": (([UNION, LEAF, LEAF], [[1, 2], [], []], [-1, 0, 1], 7),
               r"root = 7 is not a node id 0\.\.2"),
    "kind 9": (([9, LEAF, LEAF], [[1, 2], [], []], [-1, 0, 1], 0),
               r"kind\[0\] = 9 is outside 0\.\.2"),
    "detached cycle": (([UNION, LEAF, LEAF, UNION, UNION],
                        [[1, 2], [], [], [4], [3]], [-1, 0, 1, -1, -1], 0),
                       r"parent: node [34] lies on a cycle"),
    "leaf with children": (([LEAF, LEAF], [[1], []], [0, 1], 0),
                           r"child_offset gives leaf node 0 1 children"),
}


class TestConstruction:
    def test_single_vertex(self):
        t = Cotree.single_vertex(3)
        assert t.num_vertices == 1
        assert t.num_nodes == 1
        assert list(t.vertices) == [3]
        assert t.is_leaf(t.root)

    def test_from_nested_basic(self):
        t = Cotree.from_nested(("join", 0, ("union", 1, 2)))
        assert t.num_vertices == 3
        assert t.num_nodes == 5
        assert t.kind[t.root] == JOIN

    def test_from_nested_accepts_integer_ops(self):
        t = Cotree.from_nested((1, 0, (0, 1, 2)))
        assert t.kind[t.root] == JOIN
        assert sorted(t.vertices) == [0, 1, 2]

    def test_from_nested_rejects_bad_op(self):
        with pytest.raises(CotreeError):
            Cotree.from_nested(("xor", 0, 1))

    def test_from_nested_rejects_too_short_tuple(self):
        with pytest.raises(CotreeError):
            Cotree.from_nested(("join",))

    def test_from_parent_pointers(self):
        # root 0 (union) with children 1 (join) and leaf 4;
        # node 1 has leaf children 2, 3
        parent = [-1, 0, 1, 1, 0]
        kind = [UNION, JOIN, LEAF, LEAF, LEAF]
        t = Cotree.from_parent_pointers(parent, kind)
        assert t.num_vertices == 3
        assert t.kind[t.root] == UNION
        assert t.degree(t.root) == 2

    def test_from_parent_pointers_requires_single_root(self):
        with pytest.raises(CotreeError):
            Cotree.from_parent_pointers([-1, -1], [LEAF, LEAF])

    def test_from_parent_pointers_refuses_a_parent_past_the_nodes(self):
        with pytest.raises(CotreeError, match=r"parent\[1\] = 5 is outside"):
            Cotree.from_parent_pointers([-1, 5, 0], [UNION, LEAF, LEAF])

    def test_duplicate_vertex_ids_rejected(self):
        with pytest.raises(CotreeError):
            Cotree([UNION, LEAF, LEAF], [[1, 2], [], []], [-1, 0, 0], 0)

    def test_two_parents_rejected(self):
        with pytest.raises(CotreeError):
            Cotree([UNION, UNION, LEAF], [[1, 2], [2], []], [-1, -1, 0], 0)

    def test_internal_node_without_children_rejected(self):
        with pytest.raises(CotreeError):
            Cotree([UNION, LEAF], [[], []], [-1, 0], 0)

    def test_leaf_with_children_rejected(self):
        with pytest.raises(CotreeError):
            Cotree([LEAF, LEAF], [[1], []], [0, 1], 0)

    def test_kind_name(self):
        assert kind_name(LEAF) == "leaf"
        assert kind_name(UNION) == "0"
        assert kind_name(JOIN) == "1"
        assert kind_name(PRIME) == "prime"

    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_hostile_arguments_are_refused_by_field(self, name):
        args, message = HOSTILE[name]
        with pytest.raises(CotreeError, match=message):
            Cotree(*args)

    def test_sparse_ids_need_only_be_distinct_and_non_negative(self):
        t = Cotree([UNION, LEAF, LEAF], [[1, 2], [], []], [-1, 9, 4], 0)
        assert list(t.vertices) == [4, 9]
        with pytest.raises(CotreeError, match=r"vertex 9 labels 2 leaves"):
            Cotree([UNION, LEAF, LEAF], [[1, 2], [], []], [-1, 9, 9], 0)
        with pytest.raises(CotreeError,
                           match=r"leaf_vertex\[1\] = -2 is not a vertex"):
            Cotree([UNION, LEAF, LEAF], [[1, 2], [], []], [-1, -2, 9], 0)
        with pytest.raises(ValueError, match="vertex id 9 is out of range"):
            solve(Cotree([UNION, LEAF, LEAF], [[1, 2], [], []],
                         [-1, 0, 9], 0), backend="fast")


class TestProperties:
    def test_counts(self, paper_figure1_cotree):
        t = paper_figure1_cotree
        assert t.num_vertices == 8
        assert len(t.leaves) == 8
        assert len(t.internal_nodes) == t.num_nodes - 8

    def test_leaf_of_vertex_roundtrip(self, paper_figure1_cotree):
        t = paper_figure1_cotree
        for v in t.vertices:
            leaf = t.leaf_of_vertex(int(v))
            assert t.leaf_vertex[leaf] == v

    def test_depth_and_height(self):
        t = Cotree.from_nested(("join", 0, ("union", 1, ("join", 2, 3))))
        d = t.depth()
        assert d[t.root] == 0
        assert t.height() == 3

    def test_height_single_vertex(self):
        assert Cotree.single_vertex().height() == 0

    def test_subtree_leaf_counts(self, paper_figure1_cotree):
        t = paper_figure1_cotree
        counts = t.subtree_leaf_counts()
        assert counts[t.root] == t.num_vertices
        for leaf in t.leaves:
            assert counts[leaf] == 1

    def test_leaf_descendants_order(self):
        t = Cotree.from_nested(("join", ("union", 0, 1), 2))
        assert t.leaf_descendants(t.root) == [0, 1, 2]

    def test_preorder_visits_every_node_once(self, paper_figure1_cotree):
        order = list(paper_figure1_cotree.preorder())
        assert sorted(order) == list(range(paper_figure1_cotree.num_nodes))

    def test_postorder_children_before_parent(self, paper_figure1_cotree):
        t = paper_figure1_cotree
        pos = {u: i for i, u in enumerate(t.postorder())}
        for u in t.internal_nodes:
            for c in t.children[u]:
                assert pos[c] < pos[u]


class TestCanonicalisation:
    def test_already_canonical(self, paper_figure1_cotree):
        assert paper_figure1_cotree.is_canonical()

    def test_same_label_child_merged(self):
        t = Cotree.from_nested(("join", 0, ("join", 1, 2)))
        assert not t.is_canonical()
        c = t.canonicalize()
        assert c.is_canonical()
        assert c.num_vertices == 3
        # a join of three vertices is a triangle
        assert c.edge_count() == 3

    def test_canonicalise_preserves_graph(self):
        t = Cotree.from_nested(
            ("union", ("union", 0, 1), ("join", 2, ("join", 3, 4))))
        g_before = Graph.from_cotree(t)
        c = t.canonicalize()
        assert c.is_canonical()
        assert Graph.from_cotree(c) == g_before

    def test_single_vertex_is_canonical(self):
        assert Cotree.single_vertex().canonicalize().num_nodes == 1

    def test_deep_same_label_chain(self):
        spec = 0
        for v in range(1, 6):
            spec = ("join", spec, v)
        t = Cotree.from_nested(spec)
        c = t.canonicalize()
        assert c.is_canonical()
        # all-join over 6 vertices is K6 represented by a single 1-node
        assert c.num_nodes == 7
        assert c.edge_count() == 15


class TestGraphSemantics:
    def test_adjacency_join_is_complete_bipartite(self):
        t = Cotree.from_nested(("join", ("union", 0, 1), ("union", 2, 3)))
        adj = t.adjacency_sets()
        assert adj[0] == {2, 3}
        assert adj[2] == {0, 1}

    def test_edge_count_matches_materialised_graph(self, small_named_cotrees):
        for name, t in small_named_cotrees.items():
            g = Graph.from_cotree(t)
            assert t.edge_count() == g.num_edges(), name

    def test_union_has_no_cross_edges(self):
        t = Cotree.from_nested(("union", ("join", 0, 1), ("join", 2, 3)))
        adj = t.adjacency_sets()
        assert adj[0] == {1}
        assert adj[2] == {3}


class TestMisc:
    def test_to_nested_roundtrip(self, small_named_cotrees):
        for name, t in small_named_cotrees.items():
            rebuilt = (Cotree.from_nested(t.to_nested())
                       if t.num_nodes > 1 else Cotree.single_vertex(0))
            assert Graph.from_cotree(rebuilt) == Graph.from_cotree(t), name

    def test_equality_and_hash(self):
        a = Cotree.from_nested(("join", 0, 1))
        b = Cotree.from_nested(("join", 0, 1))
        c = Cotree.from_nested(("union", 0, 1))
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_relabel_vertices(self):
        t = Cotree.from_nested(("join", 0, 1))
        r = t.relabel_vertices({0: 5, 1: 9})
        assert sorted(r.vertices) == [5, 9]

    def test_repr_mentions_size(self):
        assert "num_vertices=2" in repr(Cotree.from_nested(("join", 0, 1)))


class TestOneTreeType:
    """A Cotree is a view over one FlatCotree: one validator, one
    canonicalize, no second copy of the tree."""

    def test_construction_validates_once(self, monkeypatch):
        calls = []
        inner = FlatCotree.validate

        def counting(self, **kwargs):
            calls.append(kwargs)
            return inner(self, **kwargs)

        monkeypatch.setattr(FlatCotree, "validate", counting)
        Cotree([UNION, LEAF, LEAF], [[1, 2], [], []], [-1, 0, 5], 0)
        assert calls == [{"sparse_ids": True}]
        calls.clear()
        Cotree.from_nested(("join", 0, ("union", 1, 2)))
        assert len(calls) == 1

    def test_the_flat_form_is_the_held_tree(self):
        tree = random_cotree(40, seed=3)
        flat = as_flat_cotree(tree)
        assert flat is tree.to_flat() is FlatCotree.from_cotree(tree)
        assert as_flat_cotree(flat.to_cotree()) is flat

    def test_to_cotree_builds_no_child_lists(self, monkeypatch):
        def refuse(self):
            raise AssertionError("child lists built")

        monkeypatch.setattr(Cotree, "children", property(refuse))
        tree = as_flat_cotree(random_cotree(40, seed=3)).to_cotree()
        assert tree == random_cotree(40, seed=3)
        assert solve(tree, backend="fast").num_paths >= 1

    def test_canonicalize_is_the_flat_kernel(self, monkeypatch):
        calls = []
        inner = FlatCotree.canonicalize

        def counting(self, **kwargs):
            calls.append(self)
            return inner(self, **kwargs)

        monkeypatch.setattr(FlatCotree, "canonicalize", counting)
        tree = Cotree.from_nested(("join", 0, ("join", 1, ("union", 2, 3))))
        assert tree.canonicalize().to_nested() == \
            ("join", 0, 1, ("union", 2, 3))
        assert calls == [as_flat_cotree(tree)]

    def test_pickles_as_its_flat_tree(self):
        tree = random_cotree(100, seed=1)
        data = pickle.dumps(tree)
        assert len(data) < len(pickle.dumps(as_flat_cotree(tree))) + 128
        assert pickle.loads(data) == tree

    def test_deep_caterpillar_traversals(self):
        tree = caterpillar_cotree(5000)
        assert tree.height() == 4999
        assert tree.subtree_leaf_counts()[tree.root] == 5000
        assert tree.leaf_descendants(tree.root)[:3] == [0, 1, 2]
        post = list(tree.postorder())
        assert post[-1] == tree.root and len(post) == tree.num_nodes
        assert tree == caterpillar_cotree(5000)
