"""E14 — the service layer under concurrent load.

Boots a real :class:`repro.server.ReproServer` on an OS-assigned port and
drives it with blocking HTTP clients on a thread pool, measuring the end
of the pipeline a deployment actually sees:

1. **Concurrent throughput.**  A mixed-task request stream (path cover,
   max clique, lower bound) from many client threads; wall-clock
   throughput plus client-observed p50/p99 latency.
2. **Repeat traffic hits the shared cache.**  A skewed mix (few distinct
   instances, many requests) must show a non-zero
   ``repro_cache_hit_rate`` on ``/metrics`` and answer hits faster than
   misses.
3. **Overload sheds, never breaks.**  A burst of expensive requests past
   ``queue_limit`` must be answered with ``429 + Retry-After`` (never a
   5xx), and the server must keep serving afterwards.
4. **Graceful drain.**  The shutdown path drains in-flight work and
   reports it (exercised implicitly: every scenario ends in a clean
   ``stop()`` that must return drained=True).
5. **The process pool.**  Fresh small cotrees from a few clients on a
   two-worker pool with ``batch_small=0`` and no cache, so every request
   takes the executor hop (ungated: reported, not checked).

Run standalone for the CI smoke configuration::

    PYTHONPATH=src python benchmarks/bench_server.py --smoke
    PYTHONPATH=src python benchmarks/bench_server.py --smoke \
        --check benchmarks/results/BENCH_PR7.json
"""

import argparse
import asyncio
import http.client
import json
import math
import os
import random
import statistics
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

from repro.cograph import random_cotree
from repro.io import cotree_to_text
from repro.server import ReproServer, Settings

from _util import RESULTS_DIR, write_result_table

DEFAULT_OUT = os.path.join(RESULTS_DIR, "BENCH_PR7.json")

#: request volume (smoke is the CI shape; full is the reported table)
FULL_REQUESTS, SMOKE_REQUESTS = 2_000, 300
FULL_CLIENTS, SMOKE_CLIENTS = 16, 8
DISTINCT_INSTANCES = 24
BURST_SIZE = 12
POOLED_CLIENTS = 3

COLUMNS = ["scenario", "requests", "clients", "seconds", "req/s",
           "p50_ms", "p99_ms", "detail"]


def _row(scenario, requests, clients, seconds, latencies_ms, detail=""):
    latencies = sorted(latencies_ms) or [0.0]

    def pct(q):
        return latencies[min(len(latencies) - 1,
                             int(q * (len(latencies) - 1)))]

    return {"scenario": scenario, "requests": requests, "clients": clients,
            "seconds": round(seconds, 4),
            "req/s": round(requests / max(seconds, 1e-9)),
            "p50_ms": round(pct(0.50), 3), "p99_ms": round(pct(0.99), 3),
            "detail": detail}


def _post(port, path, payload, timeout=60):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        t0 = time.perf_counter()
        conn.request("POST", path, json.dumps(payload),
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        body = response.read()
        return response.status, body, (time.perf_counter() - t0) * 1000
    finally:
        conn.close()


def _get(port, path, timeout=60):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


async def _aget(port, path):
    """``_get`` off the event loop (a blocking client on the loop thread
    would deadlock against the server it is querying)."""
    loop = asyncio.get_running_loop()
    return await loop.run_in_executor(None, _get, port, path)


async def _scrape(port, name: str) -> float:
    """One numeric sample from the /metrics exposition."""
    status, body = await _aget(port, "/metrics")
    assert status == 200
    for line in body.decode().splitlines():
        if line.startswith(name) and "{" not in line.split(" ")[0][len(name):]:
            token = line.split(" ")[-1]
            try:
                return float(token)
            except ValueError:
                continue
    raise AssertionError(f"{name} not found in /metrics")


async def _drive(server: ReproServer, clients: int, payloads):
    """Fan ``payloads`` over ``clients`` blocking client threads."""
    loop = asyncio.get_running_loop()
    with ThreadPoolExecutor(clients) as pool:
        futures = [loop.run_in_executor(
            pool, _post, server.port, "/v1/solve", payload)
            for payload in payloads]
        return await asyncio.gather(*futures)


# --------------------------------------------------------------------------- #
# scenarios (each boots its own server and must drain cleanly)
# --------------------------------------------------------------------------- #

async def run_mixed_throughput(requests: int, clients: int):
    """Mixed-task traffic with a skewed instance mix (cache-friendly)."""
    texts = [cotree_to_text(random_cotree(48 + 8 * (s % 5), seed=s))
             for s in range(DISTINCT_INSTANCES)]
    tasks = ("path_cover", "max_clique", "path_cover_size")
    payloads = [{"problem": texts[i % DISTINCT_INSTANCES],
                 "task": tasks[i % len(tasks)],
                 "options": {"backend": "fast"}}
                for i in range(requests)]
    settings = Settings(port=0, jobs=1, queue_limit=max(64, clients * 4),
                        cache_size=256, log_level="ERROR")
    server = ReproServer(settings)
    async with server:
        t0 = time.perf_counter()
        results = await _drive(server, clients, payloads)
        seconds = time.perf_counter() - t0
        statuses = Counter(status for status, _, _ in results)
        assert statuses == {200: requests}, f"unexpected statuses {statuses}"
        hit_rate = await _scrape(server.port, "repro_cache_hit_rate")
        served_p99 = await _scrape(server.port, "repro_uptime_seconds")
        assert served_p99 > 0
    drained = await server.stop()
    assert drained is not False
    latencies = [ms for _, _, ms in results]
    row = _row("mixed tasks, concurrent clients", requests, clients,
               seconds, latencies,
               f"{DISTINCT_INSTANCES} distinct instances, "
               f"cache hit rate {hit_rate:.2f}")
    return row, {"seconds": round(seconds, 4),
                 "req_per_s": round(requests / seconds, 1),
                 "p50_ms": row["p50_ms"], "p99_ms": row["p99_ms"],
                 "cache_hit_rate": round(hit_rate, 4)}


async def run_cache_hot_traffic(requests: int, clients: int):
    """One instance asked over and over: almost every answer is a hit."""
    payload = {"problem": cotree_to_text(random_cotree(400, seed=3))}
    settings = Settings(port=0, jobs=1, cache_size=16, log_level="ERROR")
    server = ReproServer(settings)
    async with server:
        await _drive(server, 1, [payload])           # warm the one entry
        t0 = time.perf_counter()
        results = await _drive(server, clients, [payload] * requests)
        seconds = time.perf_counter() - t0
        assert all(status == 200 for status, _, _ in results)
        hits = await _scrape(server.port, "repro_cache_hits_total")
        assert hits >= requests, f"expected hot cache, hits={hits}"
    await server.stop()
    latencies = [ms for _, _, ms in results]
    row = _row("cache-hot repeat traffic", requests, clients, seconds,
               latencies, f"{int(hits)} hits (n=400 instance)")
    return row, {"req_per_s": round(requests / seconds, 1),
                 "p50_ms": row["p50_ms"]}


async def run_saturation_burst(burst: int):
    """Expensive requests past queue_limit: 429s, no 5xx, then recovery."""
    payload = {"problem": cotree_to_text(random_cotree(20_000, seed=9))}
    settings = Settings(port=0, jobs=1, queue_limit=2, cache_size=0,
                        log_level="ERROR")
    server = ReproServer(settings)
    async with server:
        t0 = time.perf_counter()
        results = await _drive(server, burst, [payload] * burst)
        seconds = time.perf_counter() - t0
        statuses = Counter(status for status, _, _ in results)
        assert set(statuses) <= {200, 429}, f"5xx under load: {statuses}"
        assert statuses[429] >= 1, "burst never saturated the queue"
        assert statuses[200] >= 1, "nothing was served during the burst"
        rejected = await _scrape(server.port, "repro_rejected_total")
        assert rejected == statuses[429]
        status, _ = await _aget(server.port, "/healthz")  # still alive
        assert status == 200
    await server.stop()
    latencies = [ms for _, _, ms in results]
    row = _row("saturation burst (queue_limit=2)", burst, burst, seconds,
               latencies,
               f"{statuses[200]} served, {statuses[429]} shed with 429")
    return row, {"served": statuses[200], "rejected_429": statuses[429]}


async def run_pooled_fresh(requests: int, clients: int):
    """Fresh 16-512 vertex cotrees, every one solved by a pool worker."""
    rng = random.Random(0)
    tasks = ("path_cover", "max_clique", "path_cover_size")
    payloads = [{"problem": cotree_to_text(random_cotree(
                     round(math.exp(rng.uniform(math.log(16),
                                                math.log(512)))),
                     seed=s)),
                 "task": tasks[s % len(tasks)],
                 "options": {"backend": "fast"}}
                for s in range(requests)]
    settings = Settings(port=0, jobs=2, batch_small=0, cache_size=0,
                        queue_limit=max(64, clients * 4), log_level="ERROR")
    server = ReproServer(settings)
    async with server:
        await _drive(server, 1, payloads[:1])        # fork the workers
        t0 = time.perf_counter()
        results = await _drive(server, clients, payloads)
        seconds = time.perf_counter() - t0
        statuses = Counter(status for status, _, _ in results)
        assert statuses == {200: requests}, f"unexpected statuses {statuses}"
        routes = Counter(json.loads(body)["provenance"]["route"]
                         for _, body, _ in results)
        assert routes == {"pool": requests}, f"unexpected routes {routes}"
    await server.stop()
    latencies = [ms for _, _, ms in results]
    row = _row("fresh cotrees on the pool (jobs=2)", requests, clients,
               seconds, latencies,
               "16-512 vertices, batch_small=0, no cache")
    return row, {"req_per_s": round(requests / seconds, 1),
                 "p50_ms": row["p50_ms"], "p99_ms": row["p99_ms"]}


# --------------------------------------------------------------------------- #
# harness entry points
# --------------------------------------------------------------------------- #

def run_all(*, smoke: bool):
    requests = SMOKE_REQUESTS if smoke else FULL_REQUESTS
    clients = SMOKE_CLIENTS if smoke else FULL_CLIENTS

    async def scenarios():
        mixed_row, mixed_stats = await run_mixed_throughput(requests,
                                                            clients)
        hot_row, hot_stats = await run_cache_hot_traffic(requests // 2,
                                                         clients)
        pooled_row, pooled_stats = await run_pooled_fresh(requests // 2,
                                                          POOLED_CLIENTS)
        burst_row, burst_stats = await run_saturation_burst(BURST_SIZE)
        return ([mixed_row, hot_row, pooled_row, burst_row],
                {"smoke": smoke, "requests": requests, "clients": clients,
                 "mixed": mixed_stats, "cache_hot": hot_stats,
                 "saturation": burst_stats, "pooled": pooled_stats})

    return asyncio.run(scenarios())


def _check(stats, baseline_path: str) -> int:
    """Regression gate: throughput within 3x of the stored baseline."""
    with open(baseline_path, encoding="utf8") as fh:
        baseline = json.load(fh)
    failures = []
    floor = baseline["mixed"]["req_per_s"] / 3.0
    if stats["mixed"]["req_per_s"] < floor:
        failures.append(
            f"mixed throughput {stats['mixed']['req_per_s']} req/s fell "
            f"below a third of the baseline "
            f"({baseline['mixed']['req_per_s']} req/s)")
    if stats["saturation"]["rejected_429"] < 1:
        failures.append("saturation burst produced no 429s")
    for failure in failures:
        print(f"REGRESSION: {failure}", file=sys.stderr)
    return 1 if failures else 0


def test_server_load_table(benchmark):
    """The E14 table (pytest benchmarks/ entry point)."""
    rows, stats = run_all(smoke=True)
    write_result_table("E14", "the service layer under concurrent load",
                       rows, COLUMNS)
    assert stats["mixed"]["cache_hit_rate"] > 0
    assert stats["saturation"]["rejected_429"] >= 1
    benchmark(lambda: statistics.median([1.0]))      # table is the product


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run")
    parser.add_argument("--out", default=None,
                        help=f"write machine-readable stats "
                             f"(default {DEFAULT_OUT} on full runs)")
    parser.add_argument("--check", default=None, metavar="BASELINE",
                        help="compare against a stored BENCH_*.json; "
                             "exit 1 on a throughput regression")
    args = parser.parse_args(argv)

    rows, stats = run_all(smoke=args.smoke)
    write_result_table("E14", "the service layer under concurrent load",
                       rows, COLUMNS)
    out = args.out if args.out is not None else \
        (None if args.smoke else DEFAULT_OUT)
    if out:
        with open(out, "w", encoding="utf8") as fh:
            json.dump(stats, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {out}")
    if args.check:
        return _check(stats, args.check)
    return 0


if __name__ == "__main__":
    sys.exit(main())
