"""Self-test of the benchmark itself (not of the program).

    python3 -m pytest perfbench/test_selftest.py -q

Checks that every metric ``BENCHMARK.json`` declares is emitted with its
unit, that the oracle accepts the program's answers and rejects corrupted
ones, and that the reference loop never imports the program.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from gen import balanced_tree, caterpillar_tree, random_tree  # noqa: E402
from oracle import (  # noqa: E402
    CotreeChecker,
    check_answer,
    expected_for_tree,
    flat_of,
)
import run  # noqa: E402
from workloads import BULK_TASKS, SERVE_TASKS, options_for  # noqa: E402


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]}, spec)


def test_declared_metrics_match_the_runner():
    end_to_end, per_layer, spec = _declared()
    assert end_to_end == run.END_TO_END
    assert per_layer == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(trace):
    end_to_end, per_layer, _ = _declared()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "serve-small", "--seed", "7", "--seconds", "0.3", "--trace",
         str(trace)], capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = per_layer if trace else end_to_end
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared


def _answers(tree, tasks, weights):
    """The program's answers, as a client decodes them."""
    from repro.api import solve
    from repro.io.wire import to_bytes
    wire = to_bytes(flat_of(tree))
    out = {}
    for task in tasks:
        options = options_for(task, weights if task == "max_weight_clique"
                              else None)
        solution = solve(wire, task, **options)
        out[task] = json.loads(json.dumps(solution.to_json_dict()))["answer"]
    return out


def _corruptions(task, answer):
    """Wrong variants of one correct answer."""
    a = json.loads(json.dumps(answer))
    if task == "path_cover":
        paths = a["paths"]
        yield {"paths": paths + [[paths[0][0]]]}             # duplicate
        yield {"paths": [p[::-1] for p in paths][:-1]}       # vertices lost
        flat = [v for p in paths for v in p]
        yield {"paths": [[v] for v in flat]}                 # not minimum
        if len(paths[0]) >= 3:
            p = paths[0]
            yield {"paths": [[p[0], p[2], p[1]] + p[3:]] + paths[1:]}
    elif task == "path_cover_size":
        yield a + 1
    elif task in ("max_clique", "max_independent_set"):
        yield {"size": a["size"] + 1, "vertices": a["vertices"]}
        yield {"size": a["size"], "vertices": a["vertices"][:-1] + [-1]}
    elif task == "chromatic_number":
        coloring = list(a["coloring"])
        yield {"chromatic_number": a["chromatic_number"],
               "coloring": [0] * len(coloring)}
    elif task == "count_independent_sets":
        yield {"count": a["count"] + 1}


def test_oracle_accepts_answers_and_rejects_corruptions():
    rng = np.random.default_rng(3)
    for shape in (random_tree, balanced_tree, caterpillar_tree):
        tree = shape(60, rng)
        weights = rng.integers(1, 100, tree.num_vertices).tolist()
        tasks = sorted(set(SERVE_TASKS) | set(BULK_TASKS))
        expected = expected_for_tree(tree, tasks, weights)
        checker = CotreeChecker(tree)
        answers = _answers(tree, tasks, weights)
        for task in tasks:
            assert check_answer(task, answers[task], expected[task],
                                checker, weights) is None, (shape, task)
            for wrong in _corruptions(task, answers[task]):
                assert check_answer(task, wrong, expected[task], checker,
                                    weights) is not None, (shape, task, wrong)


def test_checker_adjacency_matches_the_program():
    from repro.cograph import CographAdjacencyOracle
    tree = random_tree(40, np.random.default_rng(5))
    oracle = CographAdjacencyOracle(flat_of(tree).to_cotree())
    u, v = np.triu_indices(40, 1)
    mine = CotreeChecker(tree).adjacent(u, v)
    assert mine.tolist() == [oracle.adjacent(int(a), int(b))
                             for a, b in zip(u, v)]


def test_reference_loop_imports_nothing_from_the_program():
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "import reference; reference.Reference().run(); "
             "bad = [m for m in sys.modules if m.split('.')[0] == 'repro']; "
             "assert not bad, bad")
    done = subprocess.run([sys.executable, "-c", probe, HERE],
                          capture_output=True, text=True, timeout=60,
                          env={k: v for k, v in os.environ.items()
                               if k != "PYTHONPATH"})
    assert done.returncode == 0, done.stderr
