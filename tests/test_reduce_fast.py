"""Step 3 off the simulator: ``p(u)`` by left-spine chain scans, the
regions and leaf ranks from ``Tbl``'s preorder intervals, and the
``path_cover`` response that carries its cover once.

The simulator keeps the paper's rake contraction and Euler-tour scans;
every :class:`~repro.core.reduce.ReducedCotree` field must agree between
the two, and the fast route must not fall back to the simulated
machinery.
"""

import json
import math

import numpy as np
import pytest

import repro
import repro.core.reduce as reduce_module
from repro.api import Solution, SolveOptions
from repro.cograph import (
    balanced_cotree,
    caterpillar_cotree,
    clique,
    complete_bipartite,
    independent_set,
    random_cotree,
    threshold_cograph,
)
from repro.cograph.forest import pack
from repro.core import Pipeline
from repro.primitives import EulerTour

FIELDS = ("p", "active", "owner_of_node", "vertex_class", "vertex_owner",
          "vertex_rank", "num_dummies_of")

FAMILIES = {
    "random": lambda n: random_cotree(n, seed=n),
    "random-dense": lambda n: random_cotree(n, seed=n + 1, join_prob=0.8),
    "balanced": lambda n: balanced_cotree(max(0, int(math.log2(n)))),
    "caterpillar": lambda n: caterpillar_cotree(n),
    "star": lambda n: complete_bipartite(1, n - 1) if n > 1 else clique(1),
    "edgeless": lambda n: independent_set(n),
    "clique": lambda n: clique(n),
    "threshold": lambda n: threshold_cograph(
        np.random.default_rng(n).integers(0, 2, n).tolist()),
}

SIZES = (1, 2, 3, 5, 8, 17, 64, 257, 2000)


def _reduced(tree, backend):
    return Pipeline.until("reduce").run(tree, backend).state.reduced


def _assert_same(tree):
    fast, pram = _reduced(tree, "fast"), _reduced(tree, "pram")
    for field in FIELDS:
        assert np.array_equal(getattr(fast, field), getattr(pram, field)), \
            field


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n", SIZES)
def test_every_reduced_field_matches_the_simulator(family, n):
    _assert_same(FAMILIES[family](n))


def test_packed_forests_match_the_simulator():
    _assert_same(pack([random_cotree(k, seed=k) for k in range(1, 33)]))
    _assert_same(pack([caterpillar_cotree(40), clique(1), balanced_cotree(4),
                       independent_set(7), threshold_cograph([1, 0] * 9)]))


# --------------------------------------------------------------------------- #
# the fast route does not contract or tour
# --------------------------------------------------------------------------- #

@pytest.fixture
def spies(monkeypatch):
    """Forbid the simulated Step 3 and count the chain-scan rounds."""
    rounds = []

    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"the fast path_cover called {name}")
        return call

    monkeypatch.setattr(reduce_module, "evaluate_max_plus_tree",
                        forbidden("evaluate_max_plus_tree"))
    monkeypatch.setattr(reduce_module, "topmost_marked_ancestor",
                        forbidden("topmost_marked_ancestor"))
    monkeypatch.setattr(EulerTour, "prefix_over_tour",
                        forbidden("EulerTour.prefix_over_tour"))
    chains = reduce_module._max_plus_chains

    def counted(*args):
        rounds.append(len(args[0]))
        return chains(*args)

    monkeypatch.setattr(reduce_module, "_max_plus_chains", counted)
    return rounds


@pytest.mark.parametrize("tree", [
    caterpillar_cotree(10 ** 4),
    random_cotree(10 ** 4, seed=3),
    random_cotree(3000, seed=4, join_prob=0.2),
    random_cotree(300, seed=5, join_prob=0.9),
    balanced_cotree(10),
], ids=["caterpillar-1e4", "random-1e4", "random-sparse", "random-dense",
        "balanced"])
def test_fast_path_cover_scans_left_spines(spies, tree):
    solution = repro.solve(tree, backend="fast")
    n = tree.num_vertices
    assert solution.num_paths == repro.cograph.minimum_path_cover_size(tree)
    assert 1 <= len(spies) <= int(math.log2(n)) + 1
    # every internal node of Tbl is evaluated exactly once
    assert sum(spies) == n - 1


def test_the_simulator_still_rakes(monkeypatch):
    calls = []
    rake = reduce_module.evaluate_max_plus_tree

    def counted(*args, **kwargs):
        calls.append(1)
        return rake(*args, **kwargs)

    monkeypatch.setattr(reduce_module, "evaluate_max_plus_tree", counted)
    fast = repro.solve(random_cotree(60, seed=2), backend="fast")
    assert calls == []
    pram = repro.solve(random_cotree(60, seed=2), backend="pram")
    assert calls == [1]
    assert pram.cover == fast.cover


# --------------------------------------------------------------------------- #
# the cover is sent once
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("route", [{"backend": "fast"}, {"backend": "pram"},
                                   {"method": "sequential"}],
                         ids=["fast", "pram", "sequential"])
def test_path_cover_json_lists_every_vertex_once(route):
    tree = random_cotree(200, seed=9)
    solution = repro.solve(tree, **route)
    data = json.loads(json.dumps(solution.to_json_dict()))
    assert data["cover"] is None
    seen = [v for path in data["answer"]["paths"] for v in path]
    assert sorted(seen) == list(range(200))
    back = Solution.from_json_dict(data)
    assert back.cover == solution.cover
    assert back.answer is back.cover
    # the restored solution serializes the same way again
    assert back.to_json_dict()["cover"] is None


def test_a_cover_that_is_not_the_answer_is_kept():
    cover = repro.solve(caterpillar_cotree(9)).cover
    solution = Solution(task="hamiltonian_path", answer=cover.paths[0],
                        backend="fast", options=SolveOptions(), cover=cover,
                        num_paths=1)
    data = json.loads(json.dumps(solution.to_json_dict()))
    assert data["cover"] is not None
    back = Solution.from_json_dict(data)
    assert back.cover == cover and back.answer == cover.paths[0]
