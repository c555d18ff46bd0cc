"""The 2.0 removals stay removed: the kernel tier, the fail-fast stream loop
and the pre-1.1 compatibility layer (MIGRATION.md maps each name to its
replacement)."""

from __future__ import annotations

import asyncio
import importlib
import json

import pytest

from repro.__main__ import main
from repro.api import SolveOptions
from repro.server import ServerApp, Settings

#: (module, attribute) pairs deleted in 2.0
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
