"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from repro.cograph import (
    Cotree,
    Graph,
    balanced_cotree,
    caterpillar_cotree,
    clique,
    complete_bipartite,
    independent_set,
    join_of_independent_sets,
    random_cotree,
    threshold_cograph,
    union_of_cliques,
)

#: the CI fuzz-smoke job's budget for tests/test_fuzz_validator.py
#: (``pytest --hypothesis-profile=fuzz-smoke``): fixed, not random, and
#: bounded to run in under two minutes
settings.register_profile(
    "fuzz-smoke", max_examples=500, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])

# --------------------------------------------------------------------------- #
# deterministic example instances
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="session")
def paper_figure1_cotree() -> Cotree:
    """A small canonical cotree in the spirit of the paper's Fig. 1."""
    return Cotree.from_nested(
        ("join",
         ("union", 0, 1, ("join", 2, 3)),
         ("union", 4, ("join", 5, 6)),
         7))


@pytest.fixture(scope="session")
def small_named_cotrees():
    """A dictionary of small, structurally diverse cotrees."""
    return {
        "single": Cotree.single_vertex(0),
        "edge": clique(2),
        "two-isolated": independent_set(2),
        "triangle": clique(3),
        "I5": independent_set(5),
        "K5": clique(5),
        "K23": complete_bipartite(2, 3),
        "K44": complete_bipartite(4, 4),
        "cliques-234": union_of_cliques([2, 3, 4]),
        "multipartite-532": join_of_independent_sets([5, 3, 2]),
        "caterpillar-9": caterpillar_cotree(9),
        "balanced-3": balanced_cotree(3),
        "threshold": threshold_cograph([1, 0, 1, 1, 0, 0, 1]),
        "random-20": random_cotree(20, seed=7),
        "random-33-sparse": random_cotree(33, seed=11, join_prob=0.25),
        "random-33-dense": random_cotree(33, seed=11, join_prob=0.8),
    }


@pytest.fixture(scope="session")
def random_cotree_pool():
    """A pool of (cotree, graph) pairs reused by the heavier tests."""
    pool = []
    for n, seed, jp in [(6, 0, 0.5), (10, 1, 0.3), (14, 2, 0.7), (25, 3, 0.5),
                        (40, 4, 0.2), (40, 5, 0.8), (60, 6, 0.5)]:
        tree = random_cotree(n, seed=seed, join_prob=jp)
        pool.append((tree, Graph.from_cotree(tree)))
    return pool


# --------------------------------------------------------------------------- #
# hypothesis strategies
# --------------------------------------------------------------------------- #


def nested_cotree_specs(max_leaves: int = 10):
    """Hypothesis strategy producing nested cotree specs with ``1..max_leaves``
    leaves and vertex ids ``0..k-1`` (by construction)."""

    def _partition(leaf_ids):
        if len(leaf_ids) == 1:
            return st.just(leaf_ids[0])
        return st.integers(min_value=1, max_value=len(leaf_ids) - 1).flatmap(
            lambda cut: st.tuples(
                st.sampled_from(["union", "join"]),
                _partition(leaf_ids[:cut]),
                _partition(leaf_ids[cut:]),
            )
        )

    return st.integers(min_value=1, max_value=max_leaves).flatmap(
        lambda k: _partition(list(range(k))))


@pytest.fixture(scope="session")
def cotree_spec_strategy():
    return nested_cotree_specs


def small_graphs(max_n: int = 7):
    """Hypothesis strategy for arbitrary small graphs (adjacency by edge set)."""
    def make(n, edge_bools):
        g = Graph(n)
        k = 0
        for u in range(n):
            for v in range(u + 1, n):
                if k < len(edge_bools) and edge_bools[k]:
                    g.add_edge(u, v)
                k += 1
        return g
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                           max_size=n * (n - 1) // 2).map(
            lambda bools: make(n, bools)))
