"""Removals stay removed: the 2.0 kernel tier, fail-fast stream loop and
pre-1.1 compatibility layer, 2.3's ``BinaryForest``, 2.4's trust flag,
timing switch and forest sweeps, 2.7's numbering keywords and 2.11's
second cotree validator (MIGRATION.md maps each name to its
replacement)."""

from __future__ import annotations

import asyncio
import importlib
import json

import pytest

from repro.__main__ import main
from repro.api import SolveOptions
from repro.server import ServerApp, Settings

#: (module, attribute) pairs deleted in 2.0 and later
REMOVED_ATTRIBUTES = [
    ("repro", name) for name in (
        "minimum_path_cover", "minimum_path_cover_parallel",
        "sequential_path_cover", "solve_batch", "has_hamiltonian_path",
        "has_hamiltonian_cycle", "hamiltonian_path", "hamiltonian_cycle",
        "BatchResult", "PathCoverSolver")
] + [
    ("repro.core", "solve_batch"), ("repro.core", "BatchResult"),
    ("repro.core", "fan_out"), ("repro.core", "PathCoverSolver"),
    ("repro.core.batch", "solve_batch"), ("repro.core.batch", "BatchResult"),
    ("repro.core.batch", "_solve_one"), ("repro.core.batch", "fan_out"),
    ("repro.core.batch", "_pump_fast"),
    ("repro.core.solver", "PathCoverSolver"),
    ("repro.backends", "KernelBackend"),
    # 2.3: a binarized forest is a BinaryCotree with several roots
    ("repro.cograph", "BinaryForest"), ("repro.cograph.forest", "BinaryForest"),
    # 2.4: solo solves and forest sweeps share one body per task
    ("repro.api.forest", "_sweep_dp"), ("repro.api.forest", "_sweep_cover"),
    ("repro.api.forest", "Pipeline"), ("repro.api.forest", "run_cotree_dp"),
    # 2.7: one numbering kernel
    ("repro._dfs", "binary_forest_numbering"),
    ("repro.core.dp", "_root_path_sums"),
    # 2.11: a Cotree is a view over a FlatCotree, checked by its validator
    ("repro.cograph.cotree", "_NodeRecord"),
]

REMOVED_MODULES = ["repro.kernels", "repro.backends.kernel_backend"]


def test_removed_names_are_gone():
    from repro.core.retry import RetryPolicy

    for module, name in REMOVED_ATTRIBUTES:
        with pytest.raises(AttributeError):
            getattr(importlib.import_module(module), name)
    for module in REMOVED_MODULES:
        with pytest.raises(ImportError):
            importlib.import_module(module)
    with pytest.raises(AttributeError):
        RetryPolicy.off
    assert "enabled" not in RetryPolicy.__dataclass_fields__
    from repro.cograph import Cotree
    with pytest.raises(AttributeError):
        Cotree._validate_basic


def test_trust_flag_and_timing_switch_are_gone():
    from repro.cograph import FlatCotree, clique
    from repro.core.pipeline import Pipeline
    from repro.primitives.euler_tour import EulerTour

    tree = FlatCotree.from_cotree(clique(3))
    with pytest.raises(AttributeError):
        tree.pre_validated
    with pytest.raises(AttributeError):
        tree.pre_validated = True              # no slot left to set
    with pytest.raises(TypeError, match="collect_timings"):
        Pipeline.default().run(tree, "fast", collect_timings=False)
    assert not hasattr(EulerTour, "values_by_position")


def test_numbering_keywords_are_gone():
    from repro.primitives import build_euler_tour, compute_tree_numbers

    arrays = ([1, -1, -1], [2, -1, -1], [-1, 0, 0])
    with pytest.raises(TypeError, match="known_depth"):
        compute_tree_numbers(None, *arrays, [0], known_depth=[0, 1, 1])
    with pytest.raises(TypeError, match="numbering"):
        build_euler_tour(None, *arrays, [0], numbering=None)


def test_kernel_backend_is_refused_everywhere(capsys):
    with pytest.raises(ValueError, match="unknown backend 'kernel'"):
        SolveOptions(backend="kernel")

    with pytest.raises(SystemExit) as info:
        main(["solve", "(0 + 1)", "--backend", "kernel"])
    assert info.value.code == 2                      # argparse usage error
    assert "invalid choice: 'kernel'" in capsys.readouterr().err

    async def scenario():
        app = ServerApp(Settings(port=0, jobs=1, log_level="ERROR"))
        try:
            before = app.breaker.snapshot()["consecutive_failures"]
            body = json.dumps({"problem": "(0 + 1)",
                               "options": {"backend": "kernel"}}).encode()
            response = await app.dispatch("POST", "/v1/solve", body)
            after = app.breaker.snapshot()["consecutive_failures"]
            return response, before, after
        finally:
            app.close()

    response, before, after = asyncio.run(scenario())
    assert response.status == 400
    [detail] = response.json()["error"]["details"]
    assert detail["field"] == "options" and "kernel" in detail["error"]
    assert after == before == 0
