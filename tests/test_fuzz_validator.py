"""Differential fuzz suite for the one structural validator.

Valid cotrees of every shape (random, caterpillar, balanced, star, one
vertex, two leaves, modular decomposition trees) are mutated the ways a
corrupt or hostile input can be: two parents swapped, a child slot listed
twice, a detached cycle, a duplicate or out-of-range leaf id, a flipped
kind, a skewed offset, a corrupt prime payload.  Each case runs on one
route (``solve`` on wire bytes, a ``FlatCotree``, a ``BinaryCotree``, a
``Cotree`` from the library constructor, a JSON cotree dict or cotree
text, ``solve_forest``, the binary CLI stream, ``ServerApp.dispatch`` with
JSON, text or octet-stream bodies, a cache hit) and must get one of two
outcomes:

* an answer that agrees with the oracle — brute force on the graph the
  arrays describe for ``n <= 10``, sequential/fast/pram parity above; or
* a refusal, a ``ValueError`` (a 400 with the breaker closed from the
  server) that names the offending field.

Whether a mutated case is a cotree at all is decided here by a plain
Python walk, independent of :meth:`FlatCotree.validate`.  A JSON dict
spells a case by its CSR rows (``children``, ``kind``, ``leaf_vertex``,
``root``), as the ``Cotree`` constructor does, and text by its tree walk,
so those routes are judged against the tree they spell, with the parent
derived from ``children``.  The hypothesis half runs derandomized with a bounded example count; the ``fuzz-smoke``
profile raises the budget (``pytest tests/test_fuzz_validator.py
--hypothesis-profile=fuzz-smoke``).
"""

from __future__ import annotations

import asyncio
import io
import json
import re
import sys
import zlib
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import solve
from repro.__main__ import main
from repro.api import SolutionCache, solve_forest
from repro.baselines.brute_force import (
    brute_force_chromatic_number,
    brute_force_clique_cover_number,
    brute_force_count_independent_sets,
    brute_force_max_clique,
    brute_force_max_independent_set,
    brute_force_path_cover_size,
)
from repro.cograph import (
    BinaryCotree,
    Cotree,
    FlatCotree,
    Graph,
    as_flat_cotree,
    balanced_cotree,
    binarize_cotree,
    caterpillar_cotree,
    complete_bipartite,
    md_tree,
    random_cotree,
    random_p4_sparse,
    single_vertex,
)
from repro.cograph.cotree import JOIN, LEAF, PRIME, UNION
from repro.io.wire import frame, to_bytes
from repro.server import ServerApp, Settings

#: tier-1 runs a bounded, derandomized budget; ``--hypothesis-profile=
#: fuzz-smoke`` (registered in conftest.py) runs that profile's larger one
BUDGET = settings.default \
    if settings.get_current_profile_name() == "fuzz-smoke" else settings(
        max_examples=30, derandomize=True, deadline=None,
        suppress_health_check=[HealthCheck.too_slow])

FIELD = re.compile(r"\b(kind|child_offset|child_index|parent|roots|"
                   r"leaf_vertex|q_offset|q_edge_u|q_edge_v|spider)\b")
#: a JSON cotree dict names its own fields: ``children`` and ``root``
JSON_FIELD = re.compile(FIELD.pattern + r"|\b(children|root)\b")
#: cotree text names no array: its refusals name the leaf id instead
TEXT_FIELD = re.compile(FIELD.pattern + r"|vertex id -?\d+ is missing")
#: refusals of a well-formed tree a task cannot take
UNSUPPORTED = re.compile(r"prime nodes|at least two children")
TASKS = ("path_cover", "path_cover_size", "max_clique",
         "max_independent_set", "chromatic_number", "clique_cover",
         "count_independent_sets")
MD_TASKS = ("max_clique", "max_independent_set")
PAYLOAD = ("q_offset", "q_edge_u", "q_edge_v", "spider")


# --------------------------------------------------------------------------- #
# shapes and mutations over plain array dicts
# --------------------------------------------------------------------------- #

def _arrays(tree) -> dict:
    flat = as_flat_cotree(tree)
    out = {name: np.array(getattr(flat, name)) for name in (
        "kind", "child_offset", "child_index", "parent", "leaf_vertex")}
    out["root"] = flat.root
    if len(flat.q_offset):
        out.update({name: np.array(getattr(flat, name)) for name in PAYLOAD})
    return out


def _flat(t: dict) -> FlatCotree:
    payload = {name: t[name] for name in PAYLOAD if name in t}
    return FlatCotree(t["kind"], t["child_offset"], t["child_index"],
                      t["parent"], t["leaf_vertex"], t["root"], **payload)


def _md(n: int, seed: int) -> dict:
    """A modular decomposition tree with at least one prime node."""
    for s in range(seed, seed + 50):
        flat = md_tree(random_p4_sparse(n, seed=s))
        if flat.has_primes:
            return _arrays(flat)
    return _arrays(md_tree(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])))


SHAPES = {
    "random": lambda n, s: _arrays(random_cotree(n, seed=s)),
    "caterpillar": lambda n, s: _arrays(caterpillar_cotree(n)),
    "balanced": lambda n, s: _arrays(balanced_cotree(3)),
    "star": lambda n, s: _arrays(complete_bipartite(1, n - 1)),
    "one": lambda n, s: _arrays(single_vertex()),
    "two": lambda n, s: _arrays(random_cotree(2, seed=s)),
    "md": _md,
}


def _swap_parents(t, rng):
    n = len(t["kind"])
    if n < 2:
        return None
    i, j = rng.choice(n, 2, replace=False)
    t["parent"][[i, j]] = t["parent"][[j, i]]
    return t


def _dup_child_slot(t, rng):
    e = len(t["child_index"])
    if e < 2:
        return None
    a, b = rng.choice(e, 2, replace=False)
    t["child_index"][a] = t["child_index"][b]
    return t


def _detach_cycle(t, rng):
    """Append UNION a <-> JOIN b, each with one fresh leaf: every node is
    still one child slot, every leaf id still a permutation."""
    n, e = len(t["kind"]), len(t["child_index"])
    nv = int(np.sum(t["kind"] == LEAF))
    a, b = n, n + 1
    t["kind"] = np.append(t["kind"], [UNION, JOIN, LEAF, LEAF]).astype(np.int8)
    t["child_index"] = np.append(t["child_index"], [b, n + 2, a, n + 3])
    t["child_offset"] = np.append(t["child_offset"][:-1],
                                  [e, e + 2, e + 4, e + 4, e + 4])
    t["parent"] = np.append(t["parent"], [b, a, a, b])
    t["leaf_vertex"] = np.append(t["leaf_vertex"], [-1, -1, nv, nv + 1])
    if "q_offset" in t:
        t["q_offset"] = np.append(t["q_offset"], [t["q_offset"][-1]] * 4)
        t["spider"] = np.append(t["spider"], [0] * 4).astype(np.int8)
    return t


def _leaves(t):
    return np.flatnonzero(t["kind"] == LEAF)


def _dup_leaf_id(t, rng):
    leaves = _leaves(t)
    if len(leaves) < 2:
        return None
    a, b = rng.choice(leaves, 2, replace=False)
    t["leaf_vertex"][a] = t["leaf_vertex"][b]
    return t


def _foreign_leaf_id(t, rng):
    leaves = _leaves(t)
    t["leaf_vertex"][rng.choice(leaves)] = rng.choice(
        [-1, len(leaves), len(leaves) + 7, 10 ** 6])
    return t


def _flip_kind(t, rng):
    u = rng.integers(len(t["kind"]))
    t["kind"][u] = rng.choice([k for k in (LEAF, UNION, JOIN, PRIME)
                               if k != t["kind"][u]])
    return t


def _skew_offset(t, rng):
    i = rng.integers(len(t["child_offset"]))
    t["child_offset"][i] += rng.choice([-2, -1, 1, 2])
    return t


def _corrupt_payload(t, rng):
    if "q_offset" not in t:
        return None
    primes = np.flatnonzero(t["kind"] == PRIME)
    m = len(t["q_edge_u"])
    how = rng.integers(6)
    if how == 0:
        t["spider"][:] = 7
    elif how == 1:                      # thin <-> thick, or a generic flag
        p = rng.choice(primes)
        t["spider"][p] = {0: 1, 1: 2, 2: 1}[int(t["spider"][p])]
    elif how == 2 and m:
        t["q_edge_u"][rng.integers(m)] = 50
    elif how == 3 and m:
        i = rng.integers(m)
        t["q_edge_u"][i], t["q_edge_v"][i] = t["q_edge_v"][i], t["q_edge_u"][i]
    elif how == 4 and m > 1:
        i, j = rng.choice(m, 2, replace=False)
        t["q_edge_u"][i], t["q_edge_v"][i] = t["q_edge_u"][j], t["q_edge_v"][j]
    else:
        t["q_offset"][rng.integers(1, len(t["q_offset"]))] += 1
    return t


MUTATIONS = {
    "swap_parents": _swap_parents, "dup_child_slot": _dup_child_slot,
    "detach_cycle": _detach_cycle, "dup_leaf_id": _dup_leaf_id,
    "foreign_leaf_id": _foreign_leaf_id, "flip_kind": _flip_kind,
    "skew_offset": _skew_offset, "corrupt_payload": _corrupt_payload,
}


def make_case(shape: str, n: int, mutation: str, seed: int):
    rng = np.random.default_rng(seed)
    t = SHAPES[shape](n, seed)
    return MUTATIONS[mutation]({k: (v.copy() if isinstance(v, np.ndarray)
                                    else v) for k, v in t.items()}, rng)


# --------------------------------------------------------------------------- #
# the independent reference: is it a cotree, and which graph is it?
# --------------------------------------------------------------------------- #

def _spider_edges(k: int, head: bool, thin: bool) -> set:
    edges = {(k + i, k + j) for i in range(k) for j in range(i + 1, k)}
    edges |= ({(i, k + i) for i in range(k)} if thin else
              {(i, k + j) for i in range(k) for j in range(k) if i != j})
    if head:
        edges |= {(k + i, 2 * k) for i in range(k)}
    return edges


def reference(t: dict):
    """``(children, quotient edges)`` when the arrays are a cotree, else
    ``None`` — plain loops, no NumPy vectorisation, no library validator."""
    kind = [int(k) for k in t["kind"]]
    off = [int(o) for o in t["child_offset"]]
    index = [int(c) for c in t["child_index"]]
    parent = [int(p) for p in t["parent"]]
    n, payload = len(kind), "q_offset" in t
    if any(k not in (LEAF, UNION, JOIN) + ((PRIME,) if payload else ())
           for k in kind) or off[0] != 0 or off[-1] != len(index):
        return None
    if any(b < a for a, b in zip(off, off[1:])):
        return None
    kids = [index[off[u]:off[u + 1]] for u in range(n)]
    if any((kind[u] == LEAF) != (not kids[u]) for u in range(n)):
        return None
    root, seen, stack = int(t["root"]), set(), []
    if n:
        if not 0 <= root < n or parent[root] != -1:
            return None
        stack = [root]
        seen.add(root)
    while stack:
        u = stack.pop()
        for c in kids[u]:
            if not 0 <= c < n or c in seen or parent[c] != u:
                return None
            seen.add(c)
            stack.append(c)
    if len(seen) != n:
        return None
    ids = sorted(int(t["leaf_vertex"][u]) for u in range(n)
                 if kind[u] == LEAF)
    if ids != list(range(len(ids))):
        return None
    quotient = {}
    if payload:
        q = [int(x) for x in t["q_offset"]]
        spider = [int(s) for s in t["spider"]]
        if len(q) != n + 1 or q[0] != 0 or q[-1] != len(t["q_edge_u"]) \
                or len(t["q_edge_v"]) != len(t["q_edge_u"]) \
                or len(spider) != n:
            return None
        for u in range(n):
            if q[u + 1] < q[u] or (kind[u] != PRIME and q[u + 1] != q[u]) \
                    or spider[u] not in (0, 1, 2) \
                    or (spider[u] and kind[u] != PRIME):
                return None
            edges = list(zip(t["q_edge_u"][q[u]:q[u + 1]].tolist(),
                             t["q_edge_v"][q[u]:q[u + 1]].tolist()))
            d = len(kids[u])
            if len(set(edges)) != len(edges) or \
                    any(not 0 <= a < b < d for a, b in edges):
                return None
            if spider[u] and set(edges) != _spider_edges(
                    d // 2, d % 2 == 1, spider[u] == 1):
                return None
            if spider[u] and d // 2 < 2:
                return None
            quotient[u] = set(edges)
    return kids, quotient


def graph_of(t: dict, kids, quotient) -> Graph:
    """The graph the tree describes, pair by pair through the LCA."""
    kind, parent = t["kind"], t["parent"]
    leaf_of = {int(t["leaf_vertex"][u]): u
               for u in range(len(kind)) if kind[u] == LEAF}

    def path(u):
        out = [u]
        while parent[out[-1]] != -1:
            out.append(int(parent[out[-1]]))
        return out[::-1]

    edges = []
    for a, b in combinations(sorted(leaf_of), 2):
        pa, pb = path(leaf_of[a]), path(leaf_of[b])
        depth = 0
        while pa[depth + 1] == pb[depth + 1]:
            depth += 1
        lca = pa[depth]
        if kind[lca] == JOIN:
            edges.append((a, b))
        elif kind[lca] == PRIME:
            sa = kids[lca].index(pa[depth + 1])
            sb = kids[lca].index(pb[depth + 1])
            if (min(sa, sb), max(sa, sb)) in quotient[lca]:
                edges.append((a, b))
    return Graph(len(leaf_of), edges)


def check_answer(g: Graph, task: str, answer) -> None:
    """The answer agrees with brute force on ``g``, witness included."""
    adj = lambda u, v: g.has_edge(u, v)                       # noqa: E731
    if task == "path_cover":
        paths = answer["paths"]
        assert sorted(v for p in paths for v in p) == list(range(g.n))
        assert all(adj(u, v) for p in paths for u, v in zip(p, p[1:]))
        assert len(paths) == brute_force_path_cover_size(g)
    elif task == "path_cover_size":
        assert answer == brute_force_path_cover_size(g)
    elif task in ("max_clique", "max_independent_set"):
        clique = task == "max_clique"
        best = (brute_force_max_clique if clique
                else brute_force_max_independent_set)(g)
        vs = answer["vertices"]
        assert answer["size"] == len(vs) == best
        assert all(adj(u, v) == clique for u, v in combinations(vs, 2))
    elif task == "chromatic_number":
        chi, colours = answer["chromatic_number"], answer["coloring"]
        assert chi == brute_force_chromatic_number(g) == len(set(colours))
        assert not any(colours[u] == colours[v] for u, v in g.edges())
    elif task == "clique_cover":
        cliques = answer["cliques"]
        assert answer["num_cliques"] == brute_force_clique_cover_number(g)
        assert sorted(v for c in cliques for v in c) == list(range(g.n))
        assert all(adj(u, v) for c in cliques for u, v in combinations(c, 2))
    else:
        assert answer["count"] == brute_force_count_independent_sets(g)


def judge(t: dict, task: str, outcome, field=FIELD) -> None:
    """One case: a field-naming refusal exactly when the reference says
    the arrays are not a cotree, else an oracle-correct answer (or the
    task's own refusal of a tree it cannot take)."""
    ref = reference(t)
    status, value = outcome
    if ref is None:
        assert status == "refused", f"malformed arrays answered: {value}"
        assert field.search(value), value
    elif status == "refused":
        assert UNSUPPORTED.search(value), value
    elif np.sum(t["kind"] == LEAF) <= 10:
        check_answer(graph_of(t, *ref), task, value)


# --------------------------------------------------------------------------- #
# JSON and text spellings of a case
# --------------------------------------------------------------------------- #

def _rows(t: dict) -> list:
    """The child list of every node, read off the CSR arrays as given."""
    index, off = t["child_index"].tolist(), t["child_offset"].tolist()
    return [index[off[u]:off[u + 1]] for u in range(len(t["kind"]))]


def spelled(t: dict) -> dict:
    """The arrays a JSON spelling of ``t``'s CSR rows describes: ``t``'s
    kinds, leaf ids and root, with the CSR rebuilt from the rows and the
    parent derived from ``children``."""
    rows, n = _rows(t), len(t["kind"])
    parent = np.full(n, -1, dtype=np.int64)
    for u, row in enumerate(rows):
        for c in row:
            if 0 <= c < n:
                parent[c] = u
    return {"kind": t["kind"].copy(), "leaf_vertex": t["leaf_vertex"].copy(),
            "root": t["root"], "parent": parent,
            "child_offset": np.cumsum([0] + [len(r) for r in rows]),
            "child_index": np.array([c for r in rows for c in r],
                                    dtype=np.int64)}


def json_spelling(t: dict) -> dict:
    return {"type": "cotree", "kind": t["kind"].tolist(),
            "children": _rows(t), "leaf_vertex": t["leaf_vertex"].tolist(),
            "root": int(t["root"])}


def text_spelling(t: dict):
    """Cotree text for ``t``, wrapped in one unary group, or ``None`` when
    text cannot spell its structure (leaf ids aside)."""
    kind = t["kind"]
    ids = np.full(len(kind), -1, dtype=np.int64)
    ids[kind == LEAF] = np.arange(int(np.sum(kind == LEAF)))
    if "q_offset" in t or reference({**t, "leaf_vertex": ids}) is None:
        return None
    rows, out, stack = _rows(t), [], [int(t["root"])]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif kind[item] == LEAF:
            out.append(str(int(t["leaf_vertex"][item])))
        else:
            sep = " * " if kind[item] == JOIN else " + "
            stack.append(")")
            for i, c in enumerate(reversed(rows[item])):
                stack.extend([sep, c] if i else [c])
            stack.append("(")
    return "(" + "".join(out) + ")"


# --------------------------------------------------------------------------- #
# routes: each returns ("answer", JSON answer) or ("refused", message)
# --------------------------------------------------------------------------- #

def _solved(fn):
    try:
        return "answer", fn()
    except ValueError as exc:
        return "refused", str(exc)


def route_bytes(t, task, **options):
    return _solved(lambda: solve(to_bytes(_flat(t)), task, **options)
                   .to_json_dict()["answer"])


def route_flat(t, task, **options):
    return _solved(lambda: solve(_flat(t), task, **options)
                   .to_json_dict()["answer"])


def route_json(t, task, **options):
    return _solved(lambda: solve(json_spelling(t), task, **options)
                   .to_json_dict()["answer"])


def route_text(t, task, **options):
    return _solved(lambda: solve(text_spelling(t), task, **options)
                   .to_json_dict()["answer"])


def route_cotree(t, task, **options):
    """The library constructor, ``Cotree(kind, children, leaf_vertex,
    root)`` from the case's CSR rows: judged, like a JSON dict, against
    the tree those rows spell."""
    return _solved(lambda: solve(Cotree(t["kind"], _rows(t), t["leaf_vertex"],
                                        t["root"]), task, **options)
                   .to_json_dict()["answer"])


route_cotree.judged_as = (spelled, JSON_FIELD)


def route_forest(t, task, **options):
    neighbours = [as_flat_cotree(random_cotree(4, seed=1)),
                  as_flat_cotree(caterpillar_cotree(3))]
    return _solved(lambda: solve_forest(
        [neighbours[0], _flat(t), neighbours[1]], task, **options)[1]
        .to_json_dict()["answer"])


def route_cache(t, task):
    cache = SolutionCache(8)
    valid = to_bytes(as_flat_cotree(random_cotree(6, seed=2)))
    first = solve(valid, task, cache=cache).to_json_dict()["answer"]
    hit = solve(valid, task, cache=cache)
    assert hit.provenance["cache"] == "hit"
    assert hit.to_json_dict()["answer"] == first
    return _solved(lambda: solve(to_bytes(_flat(t)), task, cache=cache)
                   .to_json_dict()["answer"])


def route_cli(t, task, monkeypatch, capsys):
    """``solve --stream --format binary --on-error emit``: a valid frame,
    then the case; a refused frame becomes an error record."""
    valid = to_bytes(as_flat_cotree(random_cotree(5, seed=3)))
    stdin = io.TextIOWrapper(io.BytesIO(frame(valid) + frame(to_bytes(
        _flat(t)))))
    monkeypatch.setattr(sys, "stdin", stdin)
    assert main(["solve", "--stream", "--format", "binary", "--task", task,
                 "--json", "--on-error", "emit"]) == 0
    records = [json.loads(line)
               for line in capsys.readouterr().out.splitlines()]
    assert len(records) == 2 and "answer" in records[0]
    last = records[1]
    return ("refused", last["error"]) if "error" in last \
        else ("answer", last["answer"])


async def _dispatch(app, t, task, spelling):
    if spelling == "binary":
        response = await app.dispatch(
            "POST", f"/v1/solve?task={task}", to_bytes(_flat(t)),
            {"content-type": "application/octet-stream"})
    else:
        problem = json_spelling(t) if spelling == "json" else \
            text_spelling(t)
        response = await app.dispatch("POST", "/v1/solve", json.dumps(
            {"problem": problem, "task": task}).encode())
    body = response.json()
    if response.status == 200:
        return "answer", body["answer"]
    assert response.status == 400, body
    error = body["error"]
    return "refused", error["message"] + json.dumps(error.get("details", []))


def run_server(cases):
    """Dispatch ``(t, task, spelling)`` cases through one app; refusals are
    400s, and the breaker stays closed throughout."""
    app = ServerApp(Settings(port=0, jobs=1, log_level="ERROR"))

    async def driver():
        try:
            outcomes = [await _dispatch(app, *case) for case in cases]
            return outcomes, app.breaker.snapshot()
        finally:
            app.close()

    outcomes, breaker = asyncio.run(driver())
    assert breaker["state"] == "closed"
    assert breaker["consecutive_failures"] == 0
    return outcomes


# --------------------------------------------------------------------------- #
# seeded cases
# --------------------------------------------------------------------------- #

def seeded_cases(count: int, seed: int, shapes=tuple(SHAPES)):
    """``count`` reproducible ``(t, task)`` cases (skipping mutations a
    shape cannot take)."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        shape = shapes[rng.integers(len(shapes))]
        mutation = tuple(MUTATIONS)[rng.integers(len(MUTATIONS))]
        t = make_case(shape, int(rng.integers(2, 11)), mutation,
                      int(rng.integers(1 << 30)))
        if t is not None:
            tasks = MD_TASKS if "q_offset" in t else TASKS
            out.append((t, tasks[rng.integers(len(tasks))]))
    return out


@pytest.mark.parametrize("route", [route_bytes, route_flat, route_forest,
                                   route_cache, route_cotree])
def test_seeded_mutations_get_an_oracle_answer_or_a_named_refusal(route):
    spell, field = getattr(route, "judged_as", (lambda t: t, FIELD))
    for t, task in seeded_cases(60, seed=zlib.crc32(route.__name__.encode())):
        judge(spell(t), task, route(t, task), field)


@pytest.mark.parametrize("options", [{"backend": "pram"},
                                     {"method": "sequential"},
                                     {"validate": True}])
def test_every_engine_refuses_or_answers_alike(options):
    for t, task in seeded_cases(30, seed=7):
        judge(t, task, route_bytes(t, task, **options))


def test_binary_cli_stream(monkeypatch, capsys):
    for t, task in seeded_cases(12, seed=11):
        judge(t, task, route_cli(t, task, monkeypatch, capsys))


def spelled_cases(count: int, seed: int, text: bool = False):
    """Prime-free seeded cases as the JSON (or text, where it can) spells
    them."""
    out = [(spelled(t), task) for t, task in seeded_cases(count, seed)
           if "q_offset" not in t]
    return [case for case in out
            if not text or text_spelling(case[0]) is not None]


@pytest.mark.parametrize("route, field", [(route_json, JSON_FIELD),
                                          (route_text, TEXT_FIELD)])
def test_seeded_spellings_get_an_oracle_answer_or_a_named_refusal(route,
                                                                 field):
    seed = zlib.crc32(route.__name__.encode())
    for t, task in spelled_cases(60, seed, text=route is route_text):
        judge(t, task, route(t, task), field)


def test_server_refusals_are_400s_that_spare_the_breaker():
    cases = [(t, task, "binary") for t, task in seeded_cases(40, seed=13)]
    cases += [(t, task, "json") for t, task in spelled_cases(40, seed=13)]
    cases += [(t, task, "text")
              for t, task in spelled_cases(40, seed=13, text=True)]
    outcomes = run_server(cases)
    assert {spelling for *_, spelling in cases} == {"binary", "json", "text"}
    for (t, task, spelling), outcome in zip(cases, outcomes):
        judge(t, task, outcome, {"json": JSON_FIELD, "text": TEXT_FIELD}
              .get(spelling, FIELD))


def test_server_json_foreign_leaf_id_is_a_400():
    base = _arrays(random_cotree(5, seed=4))
    foreign = {k: (v.copy() if isinstance(v, np.ndarray) else v)
               for k, v in base.items()}
    foreign["leaf_vertex"][_leaves(foreign)[0]] = 9
    [outcome] = run_server([(foreign, "max_clique", "json")])
    judge(foreign, "max_clique", outcome, JSON_FIELD)
    assert "leaf_vertex" in outcome[1]


# --------------------------------------------------------------------------- #
# hypothesis
# --------------------------------------------------------------------------- #

@BUDGET
@given(shape=st.sampled_from(sorted(SHAPES)),
       mutation=st.sampled_from(sorted(MUTATIONS)),
       n=st.integers(2, 10), seed=st.integers(0, 2 ** 30),
       task=st.sampled_from(TASKS),
       route=st.sampled_from([route_bytes, route_flat, route_forest,
                              route_json, route_text]))
def test_hypothesis_mutations(shape, mutation, n, seed, task, route):
    t = make_case(shape, n, mutation, seed)
    if t is None:
        return
    if "q_offset" in t:
        if route in (route_json, route_text):
            return
        task = MD_TASKS[seed % 2]
    field = FIELD
    if route in (route_json, route_text):
        t = spelled(t)
        field = JSON_FIELD
    if route is route_text:
        if text_spelling(t) is None:
            return
        field = TEXT_FIELD
    judge(t, task, route(t, task, backend="fast"), field)


def _binary_arrays(rng, mutation):
    b = binarize_cotree(random_cotree(int(rng.integers(2, 11)),
                                      seed=int(rng.integers(1 << 30))))
    kind, left, right = b.kind.copy(), b.left.copy(), b.right.copy()
    parent, leaf_vertex = b.parent.copy(), b.leaf_vertex.copy()
    n = len(kind)
    internal = np.flatnonzero(kind != LEAF)
    leaves = np.flatnonzero(kind == LEAF)
    if mutation == "swap_parents" and n > 1:
        i, j = rng.choice(n, 2, replace=False)
        parent[[i, j]] = parent[[j, i]]
    elif mutation == "drop_child" and len(internal):
        left[rng.choice(internal)] = -1
    elif mutation == "dup_child" and len(internal) > 1:
        u, v = rng.choice(internal, 2, replace=False)
        right[u] = right[v]
    elif mutation == "dup_leaf_id" and len(leaves) > 1:
        a, b_ = rng.choice(leaves, 2, replace=False)
        leaf_vertex[a] = leaf_vertex[b_]
    elif mutation == "flip_kind":
        u = rng.integers(n)
        kind[u] = rng.choice([k for k in (LEAF, UNION, JOIN)
                              if k != kind[u]])
    return BinaryCotree(kind, left, right, parent, leaf_vertex, b.root)


@BUDGET
@given(mutation=st.sampled_from(["swap_parents", "drop_child", "dup_child",
                                 "dup_leaf_id", "flip_kind"]),
       seed=st.integers(0, 2 ** 30), task=st.sampled_from(TASKS))
def test_hypothesis_binary_cotree_inputs(mutation, seed, task):
    binary = _binary_arrays(np.random.default_rng(seed), mutation)
    t = _arrays(binary)
    # a binary cotree also needs two children per internal node
    one_child = np.any((binary.kind != LEAF)
                       & ((binary.left == -1) | (binary.right == -1)))
    status, value = _solved(lambda: solve(binary, task).to_json_dict()
                            ["answer"])
    if one_child and status == "refused":
        assert "left / right" in value or FIELD.search(value), value
        return
    judge(t, task, (status, value))


# --------------------------------------------------------------------------- #
# larger instances: parity, and refusals at 1e4 - 1e5 vertices
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("shape, n", [("random", 40), ("caterpillar", 60),
                                      ("md", 40)])
def test_larger_valid_mutants_agree_across_engines(shape, n):
    rng = np.random.default_rng(n)
    for _ in range(8):
        t = make_case(shape, n, "flip_kind", int(rng.integers(1 << 30)))
        tasks = MD_TASKS if "q_offset" in t else TASKS
        for task in tasks:
            outcomes = [route_flat(t, task, **options) for options in (
                {"backend": "fast"}, {"backend": "pram"},
                {"method": "sequential"})]
            if reference(t) is None:
                for outcome in outcomes:
                    judge(t, task, outcome)
            elif task == "path_cover":       # sequential: another algorithm
                assert len({len(o[1]["paths"]) for o in outcomes}) == 1
            else:
                assert outcomes[0] == outcomes[1] == outcomes[2], task


@pytest.mark.parametrize("n, mutation", [
    (10 ** 5, "swap_parents"), (10 ** 5, "detach_cycle"),
    (10 ** 5, "dup_leaf_id"), (10 ** 4, "dup_child_slot"),
    (10 ** 4, "skew_offset"),
])
def test_large_malformed_wire_bodies_are_refused_by_field(n, mutation):
    t = _arrays(random_cotree(n, seed=5) if n > 10 ** 4
                else caterpillar_cotree(n))
    rng = np.random.default_rng(n)
    if mutation == "swap_parents":      # two nodes with different parents
        i = int(rng.integers(1, len(t["kind"])))
        j = int(np.flatnonzero(t["parent"] != t["parent"][i])[-1])
        t["parent"][[i, j]] = t["parent"][[j, i]]
    else:
        t = MUTATIONS[mutation](t, rng)
    assert reference(t) is None
    status, message = route_bytes(t, "max_clique", backend="fast")
    assert status == "refused" and FIELD.search(message), message


def test_large_relabelled_caterpillar_agrees_with_sequential():
    t = _arrays(caterpillar_cotree(10 ** 4))
    t["kind"][t["root"]] = UNION if t["kind"][t["root"]] == JOIN else JOIN
    fast = route_bytes(t, "max_independent_set", backend="fast")
    assert fast == route_flat(t, "max_independent_set", method="sequential")


# --------------------------------------------------------------------------- #
# the named repros
# --------------------------------------------------------------------------- #

SEVEN = _arrays(random_cotree(7, seed=3))


def _copy(t):
    return {k: (v.copy() if isinstance(v, np.ndarray) else v)
            for k, v in t.items()}


def test_swapped_parents_of_nodes_2_and_4():
    t = _copy(SEVEN)
    t["parent"][[2, 4]] = t["parent"][[4, 2]]
    for task in ("max_clique", "clique_cover", "path_cover"):
        for route in (route_bytes, route_flat):
            for backend in ("pram", "fast"):
                status, message = route(t, task, backend=backend)
                assert status == "refused" and "parent[" in message
    for outcome in run_server([(t, "max_clique", "binary")]):
        assert outcome[0] == "refused" and "parent[" in outcome[1]


def test_detached_two_node_cycle():
    t = _detach_cycle(_copy(SEVEN), None)
    for task in ("max_clique", "chromatic_number", "path_cover"):
        status, message = route_bytes(t, task, backend="fast")
        assert status == "refused" and "lies on a cycle" in message
    for outcome in run_server([(t, "max_clique", "binary")]):
        assert outcome[0] == "refused" and "cycle" in outcome[1]


def test_in_process_union_of_leaves_0_0_2():
    tree = FlatCotree([UNION, LEAF, LEAF, LEAF], [0, 3, 3, 3, 3], [1, 2, 3],
                      [-1, 0, 0, 0], [-1, 0, 0, 2], 0)
    for task in ("max_independent_set", "chromatic_number", "path_cover"):
        with pytest.raises(ValueError, match=r"leaf_vertex: vertex 0 "
                                             r"labels 2 leaves"):
            solve(tree, task)


@pytest.mark.parametrize("corrupt, message", [
    (lambda t: t["spider"].__setitem__(slice(None), 7),
     r"spider\[0\] = 7 is outside 0\.\.2"),
    (lambda t: t["q_edge_u"].__setitem__(0, 50), r"q_edge_u / q_edge_v\[0\]"),
    (lambda t: t["q_offset"].__setitem__(slice(1, None),
                                         t["q_offset"][1:] + 1),
     r"q_offset"),
])
def test_corrupt_p5_payload(corrupt, message):
    t = _arrays(md_tree(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])))
    corrupt(t)
    status, refusal = route_bytes(t, "max_clique")
    assert status == "refused" and re.search(message, refusal), refusal
    for outcome in run_server([(t, "max_clique", "binary")]):
        assert outcome[0] == "refused" and re.search(message, outcome[1])


def test_flipped_spider_flag_is_refused():
    # the closed-form spider combine trusts the flag: a thin spider
    # flagged thick gave weighted "cliques" of non-adjacent vertices
    for seed in range(40):
        t = _arrays(md_tree(random_p4_sparse(9, seed=seed)))
        spiders = np.flatnonzero(t["spider"] > 0)
        if len(spiders):
            break
    t["spider"][spiders[0]] = 3 - t["spider"][spiders[0]]
    weights = list(range(1, int(np.sum(t["kind"] == LEAF)) + 1))
    for task in ("max_weight_clique", "max_weight_independent_set"):
        status, message = route_bytes(t, task, weights=weights)
        assert status == "refused" and "spider" in message, message


def test_empty_wire_tree_is_refused_not_a_500():
    # a valid cotree of the empty graph, which no DP task can solve: it
    # raised a plain ValueError, a 500 that fed the breaker
    t = _arrays(FlatCotree([], [0], [], [], [], -1))
    for task in ("max_clique", "path_cover_size", "path_cover"):
        status, message = route_bytes(t, task)
        assert status == "refused" and "empty" in message
    outcomes = run_server([(t, "max_clique", "binary"),
                           (t, "chromatic_number", "binary")])
    assert all(status == "refused" for status, _ in outcomes)
