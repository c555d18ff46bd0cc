"""The ``python -m repro`` command line, driven in-process."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.api import task_names
from repro.cograph import Graph, clique
from repro.io import save_json


def test_tasks_subcommand_lists_everything(capsys):
    assert main(["tasks"]) == 0
    out = capsys.readouterr().out
    for name in task_names():
        assert name in out


def test_solve_text_input(capsys):
    assert main(["solve", "(0 + (1 * 2))"]) == 0
    out = capsys.readouterr().out
    assert "num_paths=2" in out
    assert "PRAM cost report" in out


def test_solve_json_output_parses(capsys):
    assert main(["solve", "(0 * (1 * 2))", "--task", "hamiltonian_cycle",
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["type"] == "solution"
    assert data["task"] == "hamiltonian_cycle"
    assert data["answer"] == [0, 1, 2]


def test_solve_json_file_input(tmp_path, capsys):
    path = tmp_path / "graph.json"
    save_json(Graph.from_cotree(clique(4)), str(path))
    assert main(["solve", str(path), "--backend", "fast"]) == 0
    assert "num_paths=1" in capsys.readouterr().out


def test_solve_lower_bound_prints_the_dict(capsys):
    assert main(["solve", "(0+1)", "--task", "path_cover_size"]) == 0
    assert "answer" not in capsys.readouterr().err


def test_lower_bound_takes_bit_strings(capsys):
    assert main(["solve", "1,0,1", "--task", "lower_bound", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["answer"]["or"] == 1 and data["answer"]["bits"] == [1, 0, 1]
    assert main(["solve", "0b2", "--task", "lower_bound"]) == 2
    assert "bit string" in capsys.readouterr().err


def test_incompatible_options_exit_2(capsys):
    assert main(["solve", "(0 + 1)", "--backend", "fast",
                 "--num-processors", "4"]) == 2
    assert "num_processors" in capsys.readouterr().err


def test_bad_input_exits_2(capsys):
    assert main(["solve", "no/such/file.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_sequential_method(capsys):
    assert main(["solve", "(0 + (1 * 2))", "--method", "sequential"]) == 0
    assert "backend=sequential" in capsys.readouterr().out


def test_unknown_task_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["solve", "(0+1)", "--task", "nope"])


# --------------------------------------------------------------------------- #
# --stream: JSONL in, solutions out (ISSUE 3)
# --------------------------------------------------------------------------- #

def _feed_stdin(monkeypatch, lines):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))


def test_stream_reads_jsonl_and_preserves_order(monkeypatch, capsys):
    lines = [json.dumps("(0 + (1 * 2))"), json.dumps({"0": [1], "1": [0]}),
             "", json.dumps([[0, 1], [1, 2], [0, 2]])]
    _feed_stdin(monkeypatch, lines)
    assert main(["solve", "--stream", "--json"]) == 0
    captured = capsys.readouterr()
    solutions = [json.loads(line) for line in captured.out.splitlines()]
    assert [s["num_paths"] for s in solutions] == [2, 1, 1]
    assert [s["provenance"]["batch_index"] for s in solutions] == [0, 1, 2]
    assert "solved 3 instance(s)" in captured.err


def test_stream_accepts_bare_cotree_text_lines(monkeypatch, capsys):
    _feed_stdin(monkeypatch, ["(0 * 1)", "(0 + 1)"])
    assert main(["solve", "--stream", "--task", "path_cover_size"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    assert "num_paths=1" in out[0] and "num_paths=2" in out[1]


def test_stream_with_jobs_and_cache(monkeypatch, capsys):
    _feed_stdin(monkeypatch, [json.dumps("(0 * (1 + 2))")] * 6)
    assert main(["solve", "--stream", "--jobs", "2", "--window", "2",
                 "--cache", "8", "--json"]) == 0
    captured = capsys.readouterr()
    solutions = [json.loads(line) for line in captured.out.splitlines()]
    assert len(solutions) == 6
    assert solutions[0]["provenance"]["cache"] == "miss"
    assert solutions[-1]["provenance"]["cache"] == "hit"
    assert "'hits':" in captured.err


def test_stream_lower_bound_bit_lines(monkeypatch, capsys):
    _feed_stdin(monkeypatch, ["101", json.dumps([0, 0])])
    assert main(["solve", "--stream", "--task", "lower_bound",
                 "--json"]) == 0
    solutions = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines()]
    assert [s["answer"]["or"] for s in solutions] == [1, 0]


def test_stream_rejects_positional_input(capsys):
    assert main(["solve", "--stream", "(0 + 1)"]) == 2
    assert "drop the INPUT argument" in capsys.readouterr().err


def test_missing_input_without_stream_exits_2(capsys):
    assert main(["solve"]) == 2
    assert "INPUT is required" in capsys.readouterr().err


def test_jobs_without_stream_exits_2(capsys):
    assert main(["solve", "(0 + 1)", "--jobs", "2"]) == 2
    assert "--jobs/--window" in capsys.readouterr().err


def test_chunksize_without_stream_exits_2(capsys):
    assert main(["solve", "(0 + 1)", "--chunksize", "7"]) == 2
    assert "--chunksize" in capsys.readouterr().err


def test_cache_zero_is_rejected_not_ignored(monkeypatch, capsys):
    _feed_stdin(monkeypatch, ["(0 * 1)"])
    assert main(["solve", "--stream", "--cache", "0"]) == 2
    assert "maxsize" in capsys.readouterr().err


def test_cache_without_stream_exits_2(capsys):
    assert main(["solve", "(0 + 1)", "--cache", "64"]) == 2
    assert "--cache" in capsys.readouterr().err


def test_stream_garbage_line_prints_prefix_then_fails(monkeypatch, capsys):
    _feed_stdin(monkeypatch, ['"(0 * 1)"', '"(0 + 1)"', '"no/such/file"'])
    assert main(["solve", "--stream", "--jobs", "2", "--window", "8"]) == 2
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 2  # valid prefix delivered
    assert "error:" in captured.err


# --------------------------------------------------------------------------- #
# the cotree-DP tasks and the registry-derived help (PR 5)
# --------------------------------------------------------------------------- #

def test_dp_tasks_solve_from_the_cli(capsys):
    assert main(["solve", "(0 * (1 + 2))", "--task", "max_clique",
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["answer"] == {"size": 2, "vertices": [0, 1]} or \
        data["answer"]["size"] == 2
    assert main(["solve", "(0 * (1 + 2))", "--task", "chromatic_number",
                 "--backend", "fast", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["answer"]["chromatic_number"] == 2
    assert data["backend"] == "fast"
    assert main(["solve", "(0 + (1 + 2))", "--task",
                 "count_independent_sets", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["answer"]["count"] == 8


def test_dp_task_plain_output_prints_the_answer_dict(capsys):
    assert main(["solve", "(0 * (1 + 2))", "--task", "max_independent_set",
                 "--validate"]) == 0
    out = capsys.readouterr().out
    assert "size" in out and "vertices" in out


def test_task_choices_and_help_come_from_the_registry(capsys):
    from repro.api.registry import TASKS
    with pytest.raises(SystemExit):
        main(["solve", "--help"])
    out = capsys.readouterr().out
    for name, spec in TASKS.items():
        assert name in out              # the choice list and the epilog
        assert spec.summary.split()[0] in out


def test_unknown_task_names_the_new_tasks(capsys):
    # argparse rejects the choice itself and its message lists every
    # registered task (the choices tuple is read from the registry)
    with pytest.raises(SystemExit):
        main(["solve", "(0 + 1)", "--task", "nope"])
    err = capsys.readouterr().err
    assert "max_clique" in err and "count_independent_sets" in err


def test_stream_dp_task(monkeypatch, capsys):
    import io, sys
    lines = "\n".join(['"(0 * (1 + 2))"', "(0 + (1 * 2))", '"(0 * 1)"'])
    monkeypatch.setattr(sys, "stdin", io.StringIO(lines))
    assert main(["solve", "--stream", "--task", "clique_cover",
                 "--json"]) == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    assert len(out_lines) == 3
    answers = [json.loads(line)["answer"]["num_cliques"]
               for line in out_lines]
    assert answers == [2, 2, 1]


# --------------------------------------------------------------------------- #
# version plumbing and --on-error (PR 7)
# --------------------------------------------------------------------------- #

def test_version_flag_prints_the_package_version(capsys):
    from repro._version import __version__
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out.strip()
    assert out == f"repro {__version__} (backends: pram, fast)"


def test_version_subcommand_matches_the_flag(capsys):
    from repro._version import __version__
    assert main(["version"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == f"repro {__version__} (backends: pram, fast)"


def test_stream_on_error_emit_interleaves_error_records(monkeypatch,
                                                        capsys):
    _feed_stdin(monkeypatch, ['"(0 * 1)"', '"((0+1)"', '"(0 + 1)"',
                              "{bad json that is not cotree text either"])
    assert main(["solve", "--stream", "--on-error", "emit",
                 "--json"]) == 0
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines()]
    assert len(records) == 4
    # input order is preserved: solution, error, solution, trailing error
    assert records[0]["num_paths"] == 1
    assert records[1]["line"] == 2 and "error" in records[1]
    assert records[2]["num_paths"] == 2
    assert records[3]["line"] == 4 and "error" in records[3]
    assert "solved 2 instance(s), skipped 2 malformed line(s)" \
        in captured.err


@pytest.mark.parametrize("jobs", [[], ["--jobs", "2"]])
def test_stream_on_error_emit_reports_a_structurally_bad_line(monkeypatch,
                                                              capsys, jobs):
    # "(0 + 0)" and a JSON node with two parents pass the grammar; only
    # the tree validator refuses them, and that must still be per line
    two_parents = json.dumps({"type": "cotree", "kind": [1, 2, 0, 0],
                              "children": [[1, 2], [2, 3], [], []],
                              "leaf_vertex": [-1, -1, 0, 1], "root": 0})
    _feed_stdin(monkeypatch, ['"(0 * 1)"', '"(0 + 0)"', two_parents,
                              '"(0 + 1)"'])
    assert main(["solve", "--stream", "--on-error", "emit", "--json",
                 *jobs]) == 0
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines()]
    assert [r.get("line") for r in records] == [None, 2, 3, None]
    assert "leaf_vertex" in records[1]["error"]
    assert "appears 2 times" in records[2]["error"]
    assert records[0]["num_paths"] == 1 and records[3]["num_paths"] == 2
    assert "solved 2 instance(s), skipped 2 malformed line(s)" \
        in captured.err


def test_stream_on_error_emit_with_jobs_and_all_bad_lines(monkeypatch,
                                                          capsys):
    _feed_stdin(monkeypatch, ['"((0+1)"', '"no/such/file.json"'])
    assert main(["solve", "--stream", "--on-error", "emit", "--jobs", "2"]
                ) == 0
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines()]
    assert [r["line"] for r in records] == [1, 2]
    assert "solved 0 instance(s), skipped 2 malformed line(s)" \
        in captured.err


def test_stream_on_error_fail_stays_the_default(monkeypatch, capsys):
    _feed_stdin(monkeypatch, ['"(0 * 1)"', '"((0+1)"', '"(0 + 1)"'])
    assert main(["solve", "--stream"]) == 2
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 1  # valid prefix only
    assert "error:" in captured.err


def test_on_error_without_stream_exits_2(capsys):
    assert main(["solve", "(0 + 1)", "--on-error", "emit"]) == 2
    assert "--on-error" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", [[], ["--jobs", "2"]])
def test_stream_on_error_emit_answers_past_a_solve_time_refusal(monkeypatch,
                                                                capsys, jobs):
    # a P4 edge list adapts fine; only the solve finds it is no cograph
    _feed_stdin(monkeypatch, ['"(0 + 1)"', "[[0, 1], [1, 2], [2, 3]]",
                              '"(0 * 1)"'])
    assert main(["solve", "--stream", "--on-error", "emit", "--task",
                 "chromatic_number", "--json", *jobs]) == 0
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines()]
    assert len(records) == 3
    assert records[1] == {"error": records[1]["error"], "line": 2}
    assert "not a cograph" in records[1]["error"]
    assert [records[i]["answer"]["chromatic_number"] for i in (0, 2)] == \
        [1, 2]
    assert "solved 2 instance(s), skipped 1 malformed line(s)" \
        in captured.err


def test_binary_stream_on_error_emit_names_the_refused_frame(monkeypatch,
                                                             capsys):
    import io
    import sys
    from repro.cograph import as_flat_cotree, md_tree
    from repro.io.wire import frame, to_bytes
    prime = md_tree(Graph(4, [(0, 1), (1, 2), (2, 3)]))   # no cotree
    frames = [to_bytes(as_flat_cotree(clique(2))), to_bytes(prime),
              to_bytes(as_flat_cotree(clique(3)))]
    stdin = io.TextIOWrapper(io.BytesIO(b"".join(map(frame, frames))))
    monkeypatch.setattr(sys, "stdin", stdin)
    assert main(["solve", "--stream", "--format", "binary", "--on-error",
                 "emit", "--json"]) == 0
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines()]
    assert [r.get("frame") for r in records] == [None, 2, None]
    assert "prime nodes" in records[1]["error"]
    assert [records[i]["num_paths"] for i in (0, 2)] == [1, 1]
    assert "skipped 1 malformed line(s)" in captured.err
