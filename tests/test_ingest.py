"""Cotree text and JSON parse straight to a :class:`FlatCotree`.

* Parity: a text spelling parses to exactly the arrays of the canonical
  form of the tree that printed it, and a JSON dict to exactly
  ``FlatCotree.from_cotree`` of the tree it serialises (shape kept), with
  the same answers, covers and canonical keys.
* No request path builds a :class:`Cotree`: the library type stays for
  users, generators and oracles.
* Hostile spellings (out-of-range, negative or oversized ids, a bad root,
  ragged lists) are a ``ValueError`` naming the field in-process and a 400
  from the server, and never open the circuit breaker.
"""

from __future__ import annotations

import asyncio
import io
import json
import sys

import numpy as np
import pytest

from repro import solve
from repro.__main__ import main
from repro.api import as_problem
from repro.cograph import (
    Cotree,
    FlatCotree,
    as_flat_cotree,
    balanced_cotree,
    canonical_key,
    caterpillar_cotree,
    complete_bipartite,
    random_cotree,
    single_vertex,
    union_of_cliques,
)
from repro.io import cotree_from_json, cotree_from_text, cotree_to_json, \
    cotree_to_text, save_json
from repro.io.serialization import _flat_from_json, _flat_from_text
from repro.server import ServerApp, Settings

FIELDS = ("kind", "child_offset", "child_index", "parent", "leaf_vertex")

TREES = {
    "random-1": single_vertex(),
    "random-2": random_cotree(2, seed=1),
    "random-16": random_cotree(16, seed=2),
    "random-300": random_cotree(300, seed=3),
    "random-3000": random_cotree(3000, seed=4),
    "balanced": balanced_cotree(7),
    "star": complete_bipartite(1, 40),
    "pairs": union_of_cliques([2] * 60),
    "caterpillar-5000": caterpillar_cotree(5000),
    # non-canonical spellings: same-operator nesting and unary groups
    "nested-union": Cotree.from_nested(("union", ("union", 0, 1), 2)),
    "unary-chain": Cotree.from_nested(("union", ("union", ("union", 0)))),
    "nested-join": Cotree.from_nested(
        ("join", ("join", 0, 1), ("join", 2, ("union", 3, 4)))),
    "unary-members": Cotree.from_nested(
        ("union", ("join", 0), ("join", 1, ("union", 2)))),
}


def assert_same_arrays(got: FlatCotree, want: FlatCotree) -> None:
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.root == want.root


@pytest.mark.parametrize("name", sorted(TREES))
def test_text_parses_to_the_canonical_arrays(name):
    tree = TREES[name]
    text = cotree_to_text(tree)
    want = as_flat_cotree(tree.canonicalize())
    got = _flat_from_text(text)
    assert_same_arrays(got, want)
    assert canonical_key(got) == canonical_key(want)
    assert_same_arrays(as_flat_cotree(cotree_from_text(text)), want)
    problem = as_problem(text)
    assert problem.tree is not None and isinstance(problem.tree, FlatCotree)
    assert_same_arrays(problem.pipeline_tree(), want)


def test_non_canonical_spellings_print_as_expected():
    assert [cotree_to_text(TREES[name]) for name in (
        "nested-union", "unary-chain", "nested-join", "unary-members")] == [
        "((0 + 1) + 2)", "(((0)))", "((0 * 1) * (2 * (3 + 4)))",
        "((0) + (1 * (2)))"]


@pytest.mark.parametrize("name", sorted(TREES))
def test_json_parses_to_the_arrays_of_the_tree_it_serialises(name):
    tree = TREES[name]
    data = json.loads(json.dumps(cotree_to_json(tree)))
    want = FlatCotree.from_cotree(Cotree(
        data["kind"], data["children"], data["leaf_vertex"], data["root"]))
    assert_same_arrays(_flat_from_json(data), want)
    assert_same_arrays(as_problem(data).pipeline_tree(), want)
    assert_same_arrays(as_flat_cotree(cotree_from_json(data)), want)


@pytest.mark.parametrize("name, backend", [
    (name, backend) for name in ("random-16", "random-300", "star",
                                 "nested-join", "unary-members")
    for backend in ("fast", "pram")] + [("caterpillar-5000", "fast")])
def test_answers_and_covers_match_the_object_tree(name, backend):
    tree = TREES[name]
    canonical = tree.canonicalize()
    want = solve(canonical, backend=backend).cover.paths
    assert solve(cotree_to_text(tree), backend=backend).cover.paths == want
    for task in ("max_clique", "chromatic_number"):
        assert solve(cotree_to_text(tree), task, backend=backend).answer == \
            solve(canonical, task, backend=backend).answer
    if tree.is_canonical():          # JSON keeps the shape it spells
        assert solve(cotree_to_json(tree), backend=backend).cover.paths == \
            want


# --------------------------------------------------------------------------- #
# no request path builds a Cotree
# --------------------------------------------------------------------------- #

@pytest.fixture
def cotree_inits(monkeypatch):
    """The number of ``Cotree.__init__`` calls made after it is requested."""
    calls = []
    real = Cotree.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Cotree, "__init__", counting)
    return calls


PIN_TREE = random_cotree(24, seed=5)
PIN_TEXT = cotree_to_text(PIN_TREE)
PIN_JSON = cotree_to_json(PIN_TREE)


@pytest.mark.parametrize("backend", ["fast", "pram"])
def test_solve_text_json_and_file_build_no_cotree(backend, tmp_path,
                                                  cotree_inits):
    path = str(tmp_path / "tree.json")
    save_json(PIN_JSON, path)
    for problem in (PIN_TEXT, PIN_JSON, path):
        for task in ("path_cover", "max_clique", "path_cover_size"):
            solve(problem, task, backend=backend)
        solve(problem, "recognition")
    assert as_problem(path).pipeline_tree().num_vertices == 24
    assert cotree_inits == []


@pytest.mark.parametrize("backend", ["fast", "pram"])
def test_stream_builds_no_cotree(backend, monkeypatch, capsys, cotree_inits):
    lines = [json.dumps(PIN_TEXT), PIN_TEXT, json.dumps(PIN_JSON)]
    monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
    assert main(["solve", "--stream", "--json", "--backend", backend]) == 0
    out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [s["num_paths"] for s in out] == [solve(PIN_TREE).num_paths] * 3
    assert cotree_inits == []


@pytest.mark.parametrize("backend", ["fast", "pram"])
def test_server_bodies_build_no_cotree(backend, cotree_inits):
    options = {"backend": backend}
    app = ServerApp(Settings(port=0, jobs=1, log_level="ERROR",
                             cache_size=0))

    async def driver():
        try:
            out = []
            for problem in (PIN_TEXT, PIN_JSON):
                out.append(await app.dispatch("POST", "/v1/solve", json.dumps(
                    {"problem": problem, "options": options}).encode()))
            out.append(await app.dispatch(
                "POST", "/v1/solve_batch", json.dumps(
                    {"problems": [PIN_TEXT, {"problem": PIN_JSON}],
                     "options": options}).encode()))
            return out
        finally:
            app.close()

    responses = asyncio.run(driver())
    assert [r.status for r in responses] == [200, 200, 200]
    assert cotree_inits == []


# --------------------------------------------------------------------------- #
# hostile spellings
# --------------------------------------------------------------------------- #

def _json_tree(**change):
    """A 5-node JSON cotree ``(0 + (1 * 2))`` with ``change`` applied."""
    data = {"type": "cotree", "kind": [1, 0, 2, 0, 0],
            "children": [[1, 2], [], [3, 4], [], []],
            "leaf_vertex": [-1, 0, -1, 1, 2], "root": 0}
    data.update(change)
    return data


HUGE = 99999999999999999999

HOSTILE = {
    "child id out of range": (_json_tree(children=[[1, 2], [], [3, 9], [],
                                                   []]), "children"),
    "negative child id": (_json_tree(children=[[1, 2], [], [3, -1], [],
                                               []]), "children"),
    "oversized child id": (_json_tree(children=[[1, 2], [], [3, HUGE], [],
                                                []]), "children"),
    "root out of range": (_json_tree(root=7), "root"),
    "non-int root": (_json_tree(root="0"), "root"),
    "null root": (_json_tree(root=None), "root"),
    "ragged lists": (_json_tree(kind=[1, 0, 2, 0]), "kind, children and "
                                                    "leaf_vertex"),
    "ragged children": (_json_tree(children=[[1, 2], [], 3, [], []]),
                        "children"),
    "nested child row": (_json_tree(children=[[[1], [2]], [], [3, 4], [],
                                              []]), "children"),
    "nested lone child": (_json_tree(kind=[1, 0], children=[[[1]], []],
                                     leaf_vertex=[-1, 0]), "children"),
    "oversized leaf_vertex": (_json_tree(leaf_vertex=[-1, 0, -1, 1, HUGE]),
                              "leaf_vertex"),
    "oversized kind": (_json_tree(kind=[1, 0, 300, 0, 0]), "kind"),
    "oversized text id": (f"(0 + {HUGE})", "vertex id 1 is missing"),
    "oversized negative text id": (f"(-{HUGE} + 0)", f"vertex id -{HUGE}"),
    "lone huge leaf": (str(HUGE), f"vertex id {HUGE}"),
    "oversized edge list id": ([[0, HUGE]], "edge list"),
    "oversized adjacency id": ({"0": [HUGE]}, "adjacency"),
    "oversized adjacency key": ({str(HUGE): [0]}, "adjacency"),
}


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_spelling_is_a_value_error_naming_the_field(name):
    problem, field = HOSTILE[name]
    with pytest.raises(ValueError) as info:
        solve(problem, backend="fast")
    assert field in str(info.value)


def test_hostile_spellings_are_400s_that_spare_the_breaker():
    threshold = 3
    app = ServerApp(Settings(port=0, jobs=1, log_level="ERROR",
                             breaker_threshold=threshold))
    cases = [HOSTILE[name] for name in sorted(HOSTILE)]

    async def driver():
        try:
            out = []
            for problem, _ in cases:
                for _ in range(threshold + 1):
                    out.append(await app.dispatch(
                        "POST", "/v1/solve",
                        json.dumps({"problem": problem}).encode()))
            ok = await app.dispatch("POST", "/v1/solve",
                                    json.dumps({"problem": PIN_TEXT}).encode())
            return out, ok, app.breaker.snapshot()
        finally:
            app.close()

    responses, ok, breaker = asyncio.run(driver())
    for i, response in enumerate(responses):
        problem, field = cases[i // (threshold + 1)]
        assert response.status == 400, (field, response.json())
        [detail] = response.json()["error"]["details"]
        assert detail["field"] == "problem" and field in detail["error"]
    assert ok.status == 200
    assert breaker["state"] == "closed"
    assert breaker["consecutive_failures"] == 0
    assert not any(status.startswith("5")
                   for _, status in app.metrics.requests_total)
