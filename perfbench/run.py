"""The request benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload serve-small --seed 1 --seconds 15 \\
        --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics (set-up time from several
cold starts, then a timed closed loop, then the oracle checks).
``--trace 1`` runs the same sequence untraced and then traced, and reports
the per-layer self times, the residual and the tracing overhead.  Every
timing is rescaled to the nominal host speed of :mod:`reference`.  The
last line of standard output is the JSON result; the command exits 1 when
any answer fails the oracle and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from reference import Reference, scale, trimmed_mean

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE_DIR = os.path.join(HERE, ".cache")

WORKLOADS = ("serve-small", "bulk-bushy", "bulk-deep")
COLD_STARTS = 5           # measured cold starts; one more warms the disk
REF_EVERY = {"serve-small": 10, "bulk-bushy": 1, "bulk-deep": 1}
SERVE_MAX_RATE = 250      # requests/s the pre-generated blocks cover;
                          # a faster run generates more between blocks

END_TO_END = {
    "requests_per_s": "1/s",
    "vertices_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

LAYERS = (
    "server.schemas.parse", "json.decode", "json.encode",
    "api.adapters.as_problem", "api.adapters.cotree", "api.cache.lookup",
    "api.cache.put", "core.batch.offload_overhead", "api.solve.solve",
    "api.solve.solve_many", "core.solver.path_cover",
    "core.pipeline.binarize", "core.pipeline.leftist",
    "core.pipeline.reduce", "core.pipeline.brackets",
    "core.pipeline.pseudo", "core.pipeline.legalize",
    "core.pipeline.compress", "core.pipeline.extract", "core.dp.sweep",
    "core.dp.witness", "cograph.path_cover.analytic", "api.forest.sweep",
    "api.solution.serialize",
)
PER_LAYER = dict(
    {f"{layer}_ms": "ms" for layer in LAYERS},
    **{
        "api.cache.hit_ratio": "ratio",
        "api.forest.routed_ratio": "ratio",
        "core.retry.retries": "count",
        "core.batch.pool_restarts": "count",
        "server.app.status_5xx": "count",
        "failed_fraction": "ratio",
        "trace.wall_ms": "ms",
        "trace.residual_ms": "ms",
        "trace.residual_share": "ratio",
        "trace.overhead_pct": "%",
        "host.ref_ms": "ms",
        "host.steal_s": "s",
        "host.cpu_s": "s",
        "host.raw_requests_per_s": "1/s",
    })


def _require_program() -> None:
    """Exit 2 unless the checkout holds the program's sources."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {SRC}/repro; run from the "
              f"root of a checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)


# --------------------------------------------------------------------------- #
# set-up time
# --------------------------------------------------------------------------- #

def measure_setup(workload: str, ref) -> List[float]:
    """Normalized seconds of each cold start (the first one, which may
    compile bytecode, is run and dropped)."""
    from gen import random_tree
    from workloads import wire_bytes
    if workload == "serve-small":
        args = ["serve"]
    else:
        tiny = random_tree(8, np.random.default_rng(0))
        args = ["bulk", wire_bytes(tiny).hex()]
    command = [sys.executable, os.path.join(HERE, "coldstart.py"), *args]
    env = dict(os.environ, PYTHONPATH=SRC)
    values = []
    for attempt in range(COLD_STARTS + 1):
        ref.samples.clear()
        for _ in range(3):
            ref.run()
        done = subprocess.run(command, capture_output=True, text=True,
                              env=env, cwd=ROOT, timeout=120)
        for _ in range(3):
            ref.run()
        if done.returncode != 0:
            raise RuntimeError(f"cold start failed:\n{done.stderr[-2000:]}")
        wall = json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]
        if attempt:
            values.append(wall * scale(ref.samples))
    return values


# --------------------------------------------------------------------------- #
# timed phases
# --------------------------------------------------------------------------- #

@dataclass
class Phase:
    """What one closed-loop pass measured."""

    latencies: List[float] = field(default_factory=list)
    vertices: int = 0
    ref_samples: List[float] = field(default_factory=list)
    steal_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    health: Dict = field(default_factory=dict)
    status_5xx: int = 0

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    @property
    def ref_mean(self) -> float:
        return trimmed_mean(self.ref_samples)

    @property
    def scale(self) -> float:
        return scale(self.ref_samples)


class _Context:
    """Host counters and peak RSS around one timed phase."""

    def __init__(self, phase: Phase) -> None:
        import host
        self.host, self.phase = host, phase
        self.pids = [os.getpid()] + host.children(os.getpid())
        gc.collect()
        host.reset_peak_rss(self.pids)
        self.before = host.snapshot(self.pids)

    def finish(self) -> None:
        after = self.host.snapshot(self.pids)
        self.phase.steal_s = after["steal"] - self.before["steal"]
        self.phase.cpu_s = after["cpu"] - self.before["cpu"]
        self.phase.peak_rss_mb = self.host.peak_rss_mb(self.pids)


def _new_app():
    from repro.server.app import ServerApp
    from repro.server.logging_config import configure_logging
    from repro.server.settings import Settings
    from workloads import SERVE_JOBS
    settings = Settings(jobs=SERVE_JOBS, log_level="ERROR")
    configure_logging(settings)
    app = ServerApp(settings)
    app.pool.warm_up()
    return app


def run_serve(app, plan, seed: int, seconds: float, spool, ref) -> Phase:
    from workloads import serve_block
    phase = Phase()
    ref.samples.clear()
    every = REF_EVERY["serve-small"]

    async def closed_loop() -> None:
        context = _Context(phase)
        started = time.perf_counter()
        block = 0
        while block == 0 or time.perf_counter() - started < seconds:
            if block == len(plan.blocks):   # outran the pre-generated mix
                plan.blocks.append(serve_block(seed, block, plan))
            for pos, item in enumerate(plan.blocks[block]):
                t0 = time.perf_counter()
                response = await app.dispatch("POST", item.target,
                                              item.body, item.headers)
                phase.latencies.append(time.perf_counter() - t0)
                phase.vertices += item.vertices
                spool.write(block, pos, response.status, response.body)
                if len(phase.latencies) % every == 0:
                    ref.run()
            block += 1
        context.finish()
        phase.health = (await app.dispatch("GET", "/healthz")).json()
        metrics = (await app.dispatch("GET", "/metrics")).body.decode()
        phase.status_5xx = sum(
            int(float(line.rsplit(" ", 1)[1])) for line in metrics.splitlines()
            if line.startswith("repro_requests_total")
            and 'status="5' in line)

    asyncio.run(closed_loop())
    phase.ref_samples = list(ref.samples)
    return phase


def run_bulk(plan, seconds: float, spool, ref, tracer=None) -> Phase:
    import repro.api as api
    phase = Phase()
    ref.samples.clear()
    items = plan.blocks[0]
    encode = json.dumps if tracer is None else \
        (lambda data: tracer.span("json.encode", json.dumps, data))
    context = _Context(phase)
    started = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - started < seconds:
        for pos, item in enumerate(items):
            status = 200
            t0 = time.perf_counter()
            try:
                solution = api.solve(item.body, item.task, **item.options)
                body = encode(solution.to_json_dict()).encode()
            except Exception as exc:      # a failed request, not a crash
                status, body = 500, repr(exc).encode()
            phase.latencies.append(time.perf_counter() - t0)
            phase.vertices += item.vertices
            spool.write(passes, pos, status, body)
            solution = body = None      # freed here, not inside the next
            ref.run()                   # request's timing
        passes += 1
    context.finish()
    phase.ref_samples = list(ref.samples)
    return phase


# --------------------------------------------------------------------------- #
# checks
# --------------------------------------------------------------------------- #

@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    batch_members: int = 0
    batch_forest: int = 0
    reasons: List[str] = field(default_factory=list)


def _fill_expected(plan, keys) -> None:
    """Compute the expected answers the spooled requests need."""
    from oracle import expected_for_graph, expected_for_tree
    by_instance: Dict[str, set] = {}
    for key, task in keys:
        if (key, task) not in plan.expected:
            by_instance.setdefault(key, set()).add(task)
    for key, tasks in by_instance.items():
        inst = plan.instances[key]
        if inst.tree is not None:
            values = expected_for_tree(inst.tree, sorted(tasks),
                                       inst.weights)
        else:
            values = expected_for_graph(inst.edges, sorted(tasks))
        for task, value in values.items():
            plan.expected[(key, task)] = value


def check(plan, spool, bulk: bool) -> Verdict:
    from oracle import CotreeChecker, GraphChecker, check_answer
    verdict = Verdict()
    records = list(spool.read())
    items = [plan.blocks[0 if bulk else b][p] for b, p, _, _ in records]
    _fill_expected(plan, {c for item in items for c in item.checks})
    checkers: Dict[str, object] = {}

    def checker(key):
        if key not in checkers:
            inst = plan.instances[key]
            checkers[key] = (CotreeChecker(inst.tree) if inst.tree is not None
                             else GraphChecker(inst.n, inst.edges))
        return checkers[key]

    def fail(reason: str) -> None:
        verdict.failed += 1
        if len(verdict.reasons) < 5:
            verdict.reasons.append(reason)

    for (block, pos, status, body), item in zip(records, items):
        verdict.attempted += 1
        where = f"block {block} request {pos} ({item.task})"
        if status != 200:
            fail(f"{where}: HTTP {status} {body[:200]!r}")
            continue
        try:
            data = json.loads(body)
        except ValueError:
            fail(f"{where}: response is not JSON {body[:200]!r}")
            continue
        solutions = data["solutions"] if "solutions" in data else [data]
        if len(solutions) != len(item.checks):
            fail(f"{where}: {len(solutions)} answers for "
                 f"{len(item.checks)} instances")
            continue
        if len(item.checks) > 1:
            verdict.batch_members += len(solutions)
            verdict.batch_forest += sum(
                s.get("provenance", {}).get("route") == "forest"
                for s in solutions)
        for (key, task), solution in zip(item.checks, solutions):
            inst = plan.instances[key]
            reason = check_answer(task, solution.get("answer"),
                                  plan.expected[(key, task)], checker(key),
                                  inst.weights)
            if reason is not None:
                fail(f"{where} instance {key}: {reason}")
                break
    return verdict


# --------------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------------- #

def end_to_end(phase: Phase, setup: List[float]) -> Dict[str, float]:
    scale = phase.scale
    lat = np.asarray(phase.latencies) * scale
    return {
        "requests_per_s": len(lat) / lat.sum(),
        "vertices_per_s": phase.vertices / lat.sum(),
        "latency_p50_ms": float(np.percentile(lat, 50)) * 1e3,
        "latency_p90_ms": float(np.percentile(lat, 90)) * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": phase.peak_rss_mb,
    }


def context_metrics(phase: Phase) -> Dict[str, float]:
    return {
        "host.ref_ms": 1e3 * phase.ref_mean,
        "host.steal_s": phase.steal_s,
        "host.cpu_s": phase.cpu_s,
        "host.raw_requests_per_s": len(phase.latencies) / phase.busy,
    }


def per_layer(untraced: Phase, traced: Phase, tracer, verdict: Verdict,
              failed_fraction: float) -> Dict[str, float]:
    count = len(traced.latencies)
    ms = 1e3 * traced.scale / count          # total seconds -> ms/request
    layers = tracer.snapshot()
    out = {f"{layer}_ms": layers.get(layer, 0.0) * ms for layer in LAYERS}
    wall = traced.busy * ms
    covered = sum(out.values())
    cache = traced.health.get("cache") or {}
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    pool = traced.health.get("pool") or {}
    untraced_rate = len(untraced.latencies) / (untraced.busy
                                              * untraced.scale)
    traced_rate = count / (traced.busy * traced.scale)
    out.update({
        "api.cache.hit_ratio": cache.get("hits", 0) / lookups
        if lookups else 0.0,
        "api.forest.routed_ratio": verdict.batch_forest
        / verdict.batch_members if verdict.batch_members else 0.0,
        "core.retry.retries": float(pool.get("retries", 0)),
        "core.batch.pool_restarts": float(pool.get("restarts", 0)),
        "server.app.status_5xx": float(traced.status_5xx),
        "failed_fraction": failed_fraction,
        "trace.wall_ms": wall,
        "trace.residual_ms": wall - covered,
        "trace.residual_share": (wall - covered) / wall,
        "trace.overhead_pct": 100.0 * (untraced_rate / traced_rate - 1.0),
    })
    out.update(context_metrics(traced))
    return out


def _table(title: str, values: Dict[str, float], units: Dict[str, str]
           ) -> str:
    lines = [title]
    for name, value in values.items():
        lines.append(f"  {name:<34} {value:>14.4f} {units.get(name, '')}")
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# main
# --------------------------------------------------------------------------- #

def measure(workload: str, seed: int, seconds: float, trace: bool, ref):
    """Run one workload; returns ``(metrics, verdicts, report lines)``."""
    from workloads import AnswerCache, Spool, make_plan
    cache = AnswerCache(CACHE_DIR, workload, seed)
    serve = workload == "serve-small"
    blocks = math.ceil(seconds * SERVE_MAX_RATE / 40) if serve else 1
    spool_path = os.path.join(CACHE_DIR, f"spool-{os.getpid()}.bin")
    plan = None
    report: List[str] = []

    def phase_once(tracer=None):
        nonlocal plan
        spool = Spool(spool_path)
        try:
            # fork the pool workers before the inputs exist, so they never
            # hold a copy of them
            app = _new_app() if serve else None
            try:
                if plan is None:
                    plan = make_plan(workload, seed, blocks)
                    plan.expected = cache.load()
                phase = (run_serve(app, plan, seed, seconds, spool, ref)
                         if serve else
                         run_bulk(plan, seconds, spool, ref, tracer))
            finally:
                if app is not None:
                    app.close()
            spool.close()
            verdict = check(plan, spool, bulk=not serve)
            cache.save(plan.expected)
        finally:
            spool.close()
            spool.remove()
        return phase, verdict

    if not trace:
        setup = measure_setup(workload, ref)
        phase, verdict = phase_once()
        metrics = end_to_end(phase, setup)
        report.append(_table(f"{workload} (seed {seed}): end to end",
                             metrics, END_TO_END))
        context = context_metrics(phase)
        context["failed_fraction"] = verdict.failed / verdict.attempted
        report.append(_table("run context (not bounded)", context,
                             PER_LAYER))
        return metrics, [verdict], report

    untraced, first = phase_once()
    import layers
    tracer = layers.install()
    try:
        traced, second = phase_once(tracer)
    finally:
        tracer.uninstall()
    attempted = first.attempted + second.attempted
    failed = first.failed + second.failed
    metrics = per_layer(untraced, traced, tracer, second,
                        failed / attempted)
    report.append(_table(f"{workload} (seed {seed}): per layer, ms per "
                         f"request unless noted", metrics, PER_LAYER))
    return metrics, [first, second], report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _require_program()
    with Reference() as ref:
        metrics, verdicts, report = measure(args.workload, args.seed,
                                            args.seconds, bool(args.trace),
                                            ref)
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    units = PER_LAYER if args.trace else END_TO_END
    for line in report:
        print(line)
    for verdict in verdicts:
        for reason in verdict.reasons:
            print(f"WRONG: {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
