"""Tests for the analysis helpers (complexity fits, metrics, tables,
experiment registry) and the io package (serialisation, drawing)."""

import json
import os

import numpy as np
import pytest

from repro.analysis import (
    EXPERIMENTS,
    best_model,
    compute_metrics,
    experiment_by_id,
    fit_growth,
    format_markdown_table,
    format_table,
    log2ceil,
    loglog_slope,
)
from repro.api import solve
from repro.cograph import (
    Cotree,
    Graph,
    PathCover,
    caterpillar_cotree,
    clique,
    complete_bipartite,
    random_cotree,
)
from repro.core import generate_brackets, minimum_path_cover_parallel, reduce_cotree, leftist_reorder, binarize_parallel
from repro.io import (
    cotree_from_json,
    cotree_from_text,
    cotree_to_json,
    cotree_to_text,
    cover_from_json,
    cover_to_json,
    graph_from_json,
    graph_to_json,
    load_json,
    render_binary_cotree,
    render_cotree,
    render_cover,
    render_forest,
    save_json,
)


class TestComplexityFitting:
    def test_linear_data_identified(self):
        sizes = [128, 256, 512, 1024, 4096]
        values = [3 * n + 17 for n in sizes]
        assert best_model(sizes, values).model == "n"

    def test_logarithmic_data_identified(self):
        sizes = [2 ** k for k in range(6, 18)]
        values = [5 * np.log2(n) for n in sizes]
        assert best_model(sizes, values).model == "log n"

    def test_nlogn_data_identified(self):
        sizes = [2 ** k for k in range(6, 16)]
        values = [2 * n * np.log2(n) for n in sizes]
        assert best_model(sizes, values).model == "n log n"

    def test_quadratic_data_identified(self):
        sizes = [2 ** k for k in range(4, 10)]
        values = [0.5 * n * n for n in sizes]
        assert best_model(sizes, values).model == "n^2"

    def test_fit_growth_returns_sorted(self):
        sizes = [10, 100, 1000]
        fits = fit_growth(sizes, [n for n in sizes])
        assert fits[0].relative_rmse <= fits[-1].relative_rmse

    def test_fit_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fit_growth([1, 2], [1])
        with pytest.raises(ValueError):
            fit_growth([1, 2], [0, 1])
        with pytest.raises(ValueError):
            loglog_slope([1], [1])

    def test_loglog_slope(self):
        sizes = [2 ** k for k in range(5, 12)]
        assert abs(loglog_slope(sizes, [7.0 * n for n in sizes]) - 1.0) < 0.01
        assert loglog_slope(sizes, [np.log2(n) for n in sizes]) < 0.4

    def test_log2ceil(self):
        assert log2ceil(1) == 1
        assert log2ceil(2) == 1
        assert log2ceil(1024) == 10
        assert log2ceil(1025) == 11


class TestMetricsAndTables:
    def test_compute_metrics(self):
        m = compute_metrics(n=1024, parallel_time=50, work=4096, processors=103,
                            sequential_time=2048)
        assert m.speedup == pytest.approx(2048 / 50)
        assert m.efficiency == pytest.approx(m.speedup / 103)
        assert m.work_ratio == pytest.approx(2.0)
        assert m.work_per_n == pytest.approx(4.0)
        assert m.time_per_log_n == pytest.approx(5.0)
        assert m.to_dict()["n"] == 1024

    def test_metrics_without_sequential(self):
        m = compute_metrics(64, 10, 100, 8)
        assert m.speedup is None and m.efficiency is None

    def test_format_table(self):
        rows = [{"n": 4, "t": 1.25}, {"n": 16, "t": 2.5}]
        text = format_table(rows, title="demo")
        assert "demo" in text and "1.250" in text and "n" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="x")

    def test_markdown_table(self):
        text = format_markdown_table([{"a": 1, "b": 2.0}])
        assert text.startswith("| a | b |")
        assert "| 1 | 2.000 |" in text


class TestExperimentRegistry:
    def test_ids_are_unique(self):
        ids = [e.experiment_id for e in EXPERIMENTS]
        assert len(ids) == len(set(ids))

    def test_lookup(self):
        assert experiment_by_id("E4").paper_item.startswith("Theorem 5.3")
        with pytest.raises(KeyError):
            experiment_by_id("E99")

    def test_all_main_claims_covered(self):
        ids = {e.experiment_id for e in EXPERIMENTS}
        assert {"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8",
                "A1", "A2", "A3", "F1-F12"} <= ids

    def test_registered_benchmark_files_exist(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        for spec in EXPERIMENTS:
            path = os.path.join(root, spec.harness)
            assert os.path.exists(path), f"{spec.experiment_id}: {spec.harness}"

    def test_design_and_experiments_docs_mention_each_id(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        design = open(os.path.join(root, "DESIGN.md"), encoding="utf8").read()
        experiments = open(os.path.join(root, "EXPERIMENTS.md"), encoding="utf8").read()
        for spec in EXPERIMENTS:
            key = spec.experiment_id.split("-")[0]
            assert key in design
            assert key in experiments


class TestSerialisation:
    def test_cotree_json_roundtrip(self):
        t = random_cotree(20, seed=1)
        data = json.loads(json.dumps(cotree_to_json(t)))
        back = cotree_from_json(data)
        assert Graph.from_cotree(back) == Graph.from_cotree(t)

    def test_cotree_text_roundtrip(self):
        t = random_cotree(15, seed=2)
        back = cotree_from_text(cotree_to_text(t))
        assert Graph.from_cotree(back) == Graph.from_cotree(t)

    @pytest.mark.parametrize("tree", [
        random_cotree(5, seed=1), random_cotree(40, seed=3), clique(1),
        caterpillar_cotree(30)])
    def test_flat_cotrees_serialise_like_their_cotree(self, tree):
        from repro.cograph.flat import as_flat_cotree
        from repro.io.wire import from_bytes, to_bytes
        flat = as_flat_cotree(tree)
        for same in (flat, from_bytes(to_bytes(flat))):
            assert cotree_to_text(same) == cotree_to_text(tree)
            assert cotree_to_json(same) == cotree_to_json(tree)

    def test_text_form_single_vertex(self):
        assert cotree_to_text(clique(1)) == "0"
        assert cotree_from_text("5").num_vertices == 1

    def test_text_form_rejects_mixed_ops(self):
        with pytest.raises(ValueError):
            cotree_from_text("(0 * 1 + 2)")

    def test_text_round_trip_at_depth_5000(self):
        t = caterpillar_cotree(5000)
        text = cotree_to_text(t)
        back = cotree_from_text(text)
        assert back.height() == t.height() == 4999
        assert cotree_to_text(back) == text
        assert np.array_equal(back.leaf_vertex, t.leaf_vertex)
        assert back.children == t.children

    @pytest.mark.parametrize("text, spec", [
        ("((0 * 1) * 2)", ("join", ("join", 0, 1), 2)),
        ("(((0)) + ((1 + (2 * 3))))",
         ("union", 0, ("union", 1, ("join", 2, 3)))),
        ("((0 * (1 * (2 + 3))) * (4 + (5 + 6)))",
         ("join", ("join", 0, ("join", 1, ("union", 2, 3))),
          ("union", 4, ("union", 5, 6)))),
    ])
    def test_text_parses_to_the_canonical_tree(self, text, spec):
        back = cotree_from_text(text)
        want = Cotree.from_nested(spec).canonicalize()
        assert back.is_canonical()
        assert back.kind.tolist() == want.kind.tolist()
        assert back.children == want.children
        assert back.leaf_vertex.tolist() == want.leaf_vertex.tolist()
        assert back.root == want.root

    @pytest.mark.parametrize("text, message", [
        ("(0 + 1", "truncated cotree text"),
        ("", "truncated cotree text"),
        ("(0 + 1 * 2)", "mixed operators inside one group"),
        ("(0 1)", "group without operator"),
        ("(0 + 1))", "trailing input after cotree expression"),
    ])
    def test_text_form_error_messages(self, text, message):
        with pytest.raises(ValueError, match=message):
            cotree_from_text(text)

    @pytest.mark.parametrize("text, missing", [
        ("(0 * 2)", 1), ("(1 + 2)", 0), ("((0 * 1) + 3)", 2),
    ])
    @pytest.mark.parametrize("task", [
        "path_cover", "path_cover_size", "chromatic_number", "max_clique",
    ])
    def test_text_leaf_ids_must_be_0_to_n_minus_1(self, text, missing, task):
        match = f"vertex id {missing} is missing"
        with pytest.raises(ValueError, match=match):
            cotree_from_text(text)
        with pytest.raises(ValueError, match=match):
            solve(text, task=task, backend="fast")

    def test_cover_json_roundtrip(self):
        c = PathCover([[0, 1], [2]])
        assert cover_from_json(cover_to_json(c)).paths == c.paths

    def test_graph_json_roundtrip(self):
        g = Graph.from_cotree(complete_bipartite(2, 3))
        assert graph_from_json(graph_to_json(g)) == g

    def test_wrong_type_rejected(self):
        with pytest.raises(ValueError):
            cotree_from_json({"type": "graph"})
        with pytest.raises(ValueError):
            cover_from_json({"type": "cotree"})
        with pytest.raises(ValueError):
            graph_from_json({"type": "cotree"})

    def test_save_and_load(self, tmp_path):
        t = random_cotree(10, seed=3)
        cover = minimum_path_cover_parallel(t).cover
        g = Graph.from_cotree(t)
        for obj, name in ((t, "t.json"), (cover, "c.json"), (g, "g.json")):
            path = str(tmp_path / name)
            save_json(obj, path)
            loaded = load_json(path)
            assert type(loaded) is type(obj)

    def test_save_plain_dict(self, tmp_path):
        path = str(tmp_path / "d.json")
        save_json({"hello": 1}, path)
        assert load_json(path) == {"hello": 1}


class TestDrawing:
    def test_render_cotree_contains_labels(self):
        text = render_cotree(complete_bipartite(2, 2), names=list("abcd"))
        assert "(1)" in text and "(0)" in text and "a" in text

    def test_render_binary_cotree(self):
        from repro.cograph import binarize_cotree
        text = render_binary_cotree(binarize_cotree(clique(3)))
        assert "L:" in text and "R:" in text

    def test_render_cover(self):
        text = render_cover(PathCover([[0, 1], [2]]), names=list("xyz"))
        assert "path 1: x - y" in text and "path 2: z" in text

    def test_render_forest(self):
        t = random_cotree(12, seed=4, join_prob=0.6)
        m = None
        b = binarize_parallel(m, t)
        red = reduce_cotree(m, leftist_reorder(m, b))
        seq = generate_brackets(m, red)
        from repro.core import build_pseudo_forest
        forest = build_pseudo_forest(m, seq)
        text = render_forest(forest)
        assert "v0" in text
