"""Chaos suite: fault injection, self-healing pools, retries, breaker.

Drives :class:`repro.core.FaultPlan` scripts through every layer that is
supposed to survive them:

* the streaming engine (``stream_out``) — workers SIGKILLed
  mid-stream, poison items, in-worker ``MemoryError``, slow items past
  their deadline;
* the API front door (``solve_stream`` / ``solve_many``) — quarantined
  instances degrade to structured error solutions in their ordered slot;
* the HTTP service (``ServerApp.dispatch``) — structured 500s, the
  circuit-breaker open/half-open/close cycle, and a real worker kill that
  heals behind a 200.

Faults are armed through the ``REPRO_FAULTS`` environment variable, which
worker processes inherit at fork time; the ``arm`` fixture cleans up both
it and the ``REPRO_FAULT_GENERATION`` stamp ``WorkerPool.rebuild`` leaves
behind.  Kill faults are only ever armed for *worker* processes — the
serial paths never consult the plan, so pytest itself is never at risk.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import time

import pytest

from repro.api import SolutionCache, solve, solve_many, solve_stream
from repro.cograph import random_cotree
from repro.core import (
    CORRUPT_SENTINEL,
    CircuitBreaker,
    ErrorOutcome,
    FaultPlan,
    RetryPolicy,
    WorkerCrashError,
    WorkerPool,
)
from repro.core.batch import Resolved, _apply_chunk, _ItemFailure, \
    stream_out
from repro.core.faults import FAULTS_ENV, GENERATION_ENV, active_plan, \
    clear_active_plan
from repro.io import cotree_to_text
from repro.server import ServerApp, Settings

#: a fast, jitter-free policy so chaos tests stay deterministic and quick.
FAST = RetryPolicy(max_retries=2, base_delay=0.01, max_delay=0.05,
                   jitter=0.0)

SMALL = "(0 + (1 * 2))"


def _square(payload):
    """Indexed worker body (module level so it pickles)."""
    index, x = payload
    return (index, x * x)


def _worker_sigterm_disposition(payload):
    """Report whether the worker process has the default SIGTERM handler."""
    import signal

    return signal.getsignal(signal.SIGTERM) is signal.SIG_DFL


@pytest.fixture
def arm(monkeypatch):
    """Arm a :class:`FaultPlan` for worker processes forked after this."""
    def _arm(**plan_fields):
        plan = FaultPlan(**plan_fields)
        monkeypatch.setenv(FAULTS_ENV, plan.to_json())
        os.environ.pop(GENERATION_ENV, None)
        clear_active_plan()
        return plan
    yield _arm
    # rebuild() stamps the generation straight into os.environ, outside
    # monkeypatch's bookkeeping — restore by hand
    os.environ.pop(GENERATION_ENV, None)
    clear_active_plan()


# --------------------------------------------------------------------------- #
# RetryPolicy
# --------------------------------------------------------------------------- #

class TestRetryPolicy:
    def test_backoff_is_capped_exponential(self):
        p = RetryPolicy(base_delay=0.1, max_delay=0.4, jitter=0.0)
        assert p.delay_for(0) == 0.0
        assert p.delay_for(1) == pytest.approx(0.1)
        assert p.delay_for(2) == pytest.approx(0.2)
        assert p.delay_for(3) == pytest.approx(0.4)
        assert p.delay_for(9) == pytest.approx(0.4)   # capped

    def test_jitter_stretches_within_bounds(self):
        p = RetryPolicy(base_delay=0.1, max_delay=0.1, jitter=0.5)
        for _ in range(50):
            assert 0.1 <= p.delay_for(1) <= 0.15 + 1e-9

    def test_validation_rejects_nonsense(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="max_delay"):
            RetryPolicy(base_delay=1.0, max_delay=0.5)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ValueError, match="deadline"):
            RetryPolicy(deadline=0.0)

    def test_remaining_tracks_the_deadline(self):
        p = RetryPolicy(deadline=5.0)
        left = p.remaining(time.monotonic())
        assert 0.0 <= left <= 5.0
        assert p.remaining(time.monotonic() - 10.0) == 0.0
        assert RetryPolicy().remaining(time.monotonic()) is None


class TestErrorOutcome:
    def test_to_dict_is_json_ready(self):
        out = ErrorOutcome(error="boom", kind="crash", attempts=3,
                           payload=(7, "x"))
        assert out.to_dict() == {"error": "boom", "error_kind": "crash",
                                 "attempts": 3}

    def test_worker_crash_error_carries_the_outcome(self):
        out = ErrorOutcome(error="boom", kind="memory", attempts=2)
        exc = WorkerCrashError(out)
        assert exc.outcome is out
        assert "memory" in str(exc) and "2 attempt" in str(exc)


# --------------------------------------------------------------------------- #
# FaultPlan
# --------------------------------------------------------------------------- #

class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(kill_index=7, delay_task=2, delay_seconds=0.5,
                         once=False)
        again = FaultPlan.from_json(plan.to_json())
        assert (again.kill_index, again.delay_task, again.delay_seconds,
                again.once) == (7, 2, 0.5, False)

    def test_from_json_rejects_malformed_plans(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            FaultPlan.from_json("{nope")
        with pytest.raises(ValueError, match="JSON object"):
            FaultPlan.from_json("[1, 2]")
        with pytest.raises(ValueError, match="unknown"):
            FaultPlan.from_json('{"explode_task": 1}')
        with pytest.raises(ValueError, match="at least one trigger"):
            FaultPlan.from_json('{"once": false}')
        with pytest.raises(ValueError, match="delay_seconds"):
            FaultPlan(delay_task=1, delay_seconds=-1.0)

    def test_payload_index_reads_indexed_tuples(self):
        assert FaultPlan.payload_index((3, "x")) == 3
        assert FaultPlan.payload_index(("a", 3)) is None
        assert FaultPlan.payload_index(()) is None
        assert FaultPlan.payload_index("bare") is None

    def test_memory_fault_fires_by_task_count(self):
        plan = FaultPlan(memory_task=1)
        with pytest.raises(MemoryError, match="injected fault"):
            plan.apply(_square, (0, 2))
        # the worker's second task is past the trigger
        assert plan.apply(_square, (1, 3)) == (1, 9)

    def test_corrupt_fault_replaces_the_result(self):
        plan = FaultPlan(corrupt_index=2)
        assert plan.apply(_square, (1, 5)) == (1, 25)
        assert plan.apply(_square, (2, 5)) == CORRUPT_SENTINEL

    def test_delay_fault_sleeps(self):
        plan = FaultPlan(delay_task=1, delay_seconds=0.05)
        t0 = time.monotonic()
        assert plan.apply(_square, (0, 4)) == (0, 16)
        assert time.monotonic() - t0 >= 0.05

    def test_active_plan_respects_generation_gating(self, arm,
                                                    monkeypatch):
        arm(memory_task=1, once=True)
        assert active_plan() is not None
        # a healed pool stamps generation >= 1: once-plans go inert
        monkeypatch.setenv(GENERATION_ENV, "1")
        clear_active_plan()
        assert active_plan() is None
        # persistent plans stay armed across rebuilds
        arm(memory_task=1, once=False)
        monkeypatch.setenv(GENERATION_ENV, "3")
        clear_active_plan()
        assert active_plan() is not None

    def test_active_plan_none_without_env(self):
        clear_active_plan()
        assert os.environ.get(FAULTS_ENV) is None
        assert active_plan() is None

    def test_apply_chunk_degrades_memory_errors_per_item(self, arm):
        # in-process check of the worker entrypoint: a MemoryError marks
        # one slot retryable instead of failing the whole chunk
        arm(memory_task=1, once=False)
        out = _apply_chunk(_square, [(0, 2), (1, 3)])
        assert isinstance(out[0], _ItemFailure)
        assert out[0].kind == "memory"
        assert out[1] == (1, 9)


# --------------------------------------------------------------------------- #
# the self-healing streaming engine (real worker processes)
# --------------------------------------------------------------------------- #

class TestWorkerPoolHealing:
    def test_workers_reset_inherited_signal_handlers(self):
        # Forked workers inherit the parent's Python-level signal handlers;
        # under asyncio that proxies a SIGTERM aimed at a worker into the
        # parent's event loop (via the shared wakeup fd) and lets the worker
        # outlive its own termination.  The executor initializer must restore
        # default dispositions even when the parent has a custom handler.
        import signal

        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        try:
            with WorkerPool(2) as pool:
                out = list(stream_out(_worker_sigterm_disposition,
                                      [(0, 0)], pool=pool))
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert out == [True]

    def test_transient_crash_heals_transparently(self, arm):
        # every generation-0 worker dies on its 3rd task; the heal
        # rebuilds the pool, generation-1 workers run fault-free, and the
        # stream loses zero results (the default policy, retry=None)
        arm(kill_task=3, once=True)
        payloads = [(i, i) for i in range(20)]
        with WorkerPool(2) as pool:
            out = list(stream_out(_square, payloads, pool=pool))
            assert pool.restarts >= 1
            assert pool.quarantined == 0
        assert out == [(i, i * i) for i in range(20)]

    def test_poison_item_is_quarantined_in_its_slot(self, arm):
        # index 5 SIGKILLs whoever runs it, every generation
        arm(kill_index=5, once=False)
        payloads = [(i, i) for i in range(10)]
        with WorkerPool(2) as pool:
            out = list(stream_out(_square, payloads, pool=pool,
                                  retry=FAST))
            assert pool.quarantined == 1
            assert pool.restarts >= 1
            health = pool.health()
            assert health["quarantined"] == 1
            assert health["jobs"] == 2
        bad = out[5]
        assert isinstance(bad, ErrorOutcome)
        assert bad.kind == "crash"
        assert bad.attempts == FAST.max_retries + 1
        assert bad.payload == (5, 5)
        rest = out[:5] + out[6:]
        assert rest == [(i, i * i) for i in range(10) if i != 5]

    def test_memory_poison_quarantines_as_memory(self, arm):
        arm(memory_index=3, once=False)
        payloads = [(i, i) for i in range(8)]
        with WorkerPool(2) as pool:
            out = list(stream_out(_square, payloads, pool=pool,
                                  retry=FAST))
            # in-worker failures retry without breaking the executor
            assert pool.restarts == 0
            assert pool.retries >= FAST.max_retries
            assert pool.quarantined == 1
        bad = out[3]
        assert isinstance(bad, ErrorOutcome)
        assert bad.kind == "memory"
        assert "injected fault" in bad.error

    def test_slow_item_past_deadline_degrades(self, arm):
        arm(delay_index=2, delay_seconds=1.2, once=False)
        policy = RetryPolicy(max_retries=2, base_delay=0.01,
                             max_delay=0.05, jitter=0.0, deadline=0.4)
        payloads = [(i, i) for i in range(6)]
        with WorkerPool(2) as pool:
            pool.warm_up()      # fork time must not eat the deadline
            out = list(stream_out(_square, payloads, pool=pool,
                                  retry=policy))
            assert pool.quarantined == 1
        bad = out[2]
        assert isinstance(bad, ErrorOutcome)
        assert bad.kind == "deadline"
        assert bad.attempts == 1          # deadlines are never retried
        assert out[:2] == [(0, 0), (1, 1)]
        assert out[3:] == [(i, i * i) for i in range(3, 6)]

    def test_zero_retries_quarantines_at_once(self, arm):
        # max_retries=0 still heals the pool and never raises: the crashed
        # item (and any item that may have shared its dying worker) degrades
        # to an ErrorOutcome on its first failure instead of being retried
        arm(kill_index=1, once=False)
        payloads = [(i, i) for i in range(6)]
        with WorkerPool(2) as pool:
            out = list(stream_out(_square, payloads, pool=pool,
                                  retry=RetryPolicy(max_retries=0)))
            failed = [r for r in out if isinstance(r, ErrorOutcome)]
            assert pool.retries == 0
            assert pool.quarantined == len(failed) <= pool.jobs
        assert isinstance(out[1], ErrorOutcome)
        assert all(r.kind == "crash" and r.attempts == 1 for r in failed)
        assert all(r == (i, i * i) for i, r in enumerate(out)
                   if not isinstance(r, ErrorOutcome))

    def test_fan_out_is_strict_about_quarantine(self, arm):
        # the eager front door (solve_many) raises on a quarantined item
        arm(kill_index=2, once=False)
        with WorkerPool(2) as pool:
            with pytest.raises(WorkerCrashError) as info:
                solve_many(_trees(8), pool=pool, retry=FAST)
        assert info.value.outcome.kind == "crash"

    def test_resolved_passthrough_survives_healing(self, arm):
        arm(kill_task=2, once=True)
        payloads = [(0, 2), Resolved("hit-a"), (1, 3), Resolved("hit-b"),
                    (2, 4), (3, 5), (4, 6), (5, 7)]
        with WorkerPool(2) as pool:
            out = list(stream_out(_square, payloads, pool=pool,
                                  retry=FAST))
        assert out == [(0, 4), "hit-a", (1, 9), "hit-b", (2, 16),
                       (3, 25), (4, 36), (5, 49)]

    def test_serial_stream_never_consults_fault_plans(self, arm):
        # jobs=1 runs in-process; a kill plan must not touch pytest
        arm(kill_task=1, once=False)
        out = list(stream_out(_square, [(i, i) for i in range(4)],
                              jobs=1))
        assert out == [(i, i * i) for i in range(4)]

    def test_rebuild_is_idempotent_for_an_observed_executor(self):
        pool = WorkerPool(2)
        try:
            first = pool.executor
            healed = pool.rebuild(broken=first)
            assert healed is not first
            assert pool.restarts == 1
            # a second thread reporting the same stale executor no-ops
            assert pool.rebuild(broken=first) is healed
            assert pool.restarts == 1
            # an unconditional rebuild always swaps
            assert pool.rebuild() is not healed
            assert pool.restarts == 2
        finally:
            pool.close()

    def test_serial_pool_has_no_executor_to_heal(self):
        with WorkerPool(1) as pool:
            assert pool.serial
            assert pool.executor is None
            assert pool.rebuild() is None
            assert pool.restarts == 0


# --------------------------------------------------------------------------- #
# solve_stream / solve_many degradation
# --------------------------------------------------------------------------- #

def _trees(n=6, size=18):
    return [cotree_to_text(random_cotree(size, seed=s)) for s in range(n)]


class TestSolveStreamResilience:
    def test_worker_kill_mid_stream_loses_zero_results(self, arm):
        # the headline regression: SIGKILL a worker mid-stream, remaining
        # instances still yield, in order, with bit-identical answers
        trees = _trees()
        expected = [solve(t).num_paths for t in trees]
        arm(kill_task=2, once=True)
        with WorkerPool(2) as pool:
            sols = list(solve_stream(trees, pool=pool, retry=FAST,
                                     on_error="emit"))
            assert pool.restarts >= 1
        assert [s.backend for s in sols].count("error") == 0
        assert [s.num_paths for s in sols] == expected
        assert [s.provenance["batch_index"] for s in sols] \
            == list(range(len(trees)))

    def test_poison_instance_degrades_to_error_solution(self, arm):
        trees = _trees()
        expected = [solve(t).num_paths for t in trees]
        arm(kill_index=3, once=False)
        with WorkerPool(2) as pool:
            sols = list(solve_stream(trees, pool=pool, retry=FAST,
                                     on_error="emit"))
        bad = sols[3]
        assert bad.backend == "error"
        assert bad.answer is None
        assert bad.provenance["error_kind"] == "crash"
        assert bad.provenance["attempts"] == FAST.max_retries + 1
        assert bad.provenance["batch_index"] == 3
        for i, s in enumerate(sols):
            if i != 3:
                assert s.num_paths == expected[i]

    def test_on_error_fail_raises_worker_crash_error(self, arm):
        arm(kill_index=1, once=False)
        with WorkerPool(2) as pool:
            with pytest.raises(WorkerCrashError):
                list(solve_stream(_trees(4), pool=pool, retry=FAST))

    def test_on_error_is_validated_up_front(self):
        with pytest.raises(ValueError, match="on_error"):
            solve_stream([], on_error="explode")

    def test_corrupt_worker_result_is_detected(self, arm):
        trees = _trees(5)
        arm(corrupt_index=2, once=False)
        with WorkerPool(2) as pool:
            sols = list(solve_stream(trees, pool=pool, retry=FAST,
                                     on_error="emit"))
        bad = sols[2]
        assert bad.backend == "error"
        assert bad.provenance["error_kind"] == "corrupt"
        assert "instead of a Solution" in bad.provenance["error"]
        assert all(s.backend != "error"
                   for i, s in enumerate(sols) if i != 2)

    def test_forest_route_is_immune_to_worker_faults(self, arm):
        # tiny instances sweep in the calling process and never meet the
        # poison; the big instance at index 3 goes to the pool and dies
        tiny = [cotree_to_text(random_cotree(8, seed=s)) for s in range(5)]
        big = cotree_to_text(random_cotree(40, seed=9))
        problems = tiny[:3] + [big] + tiny[3:]
        arm(kill_index=3, once=False)
        with WorkerPool(2) as pool:
            sols = list(solve_stream(problems, pool=pool, retry=FAST,
                                     on_error="emit", batch_small=16))
        assert sols[3].backend == "error"
        assert sols[3].provenance["error_kind"] == "crash"
        for i, s in enumerate(sols):
            if i != 3:
                assert s.provenance["route"] == "forest"
                assert s.num_paths == solve(problems[i]).num_paths
        assert [s.provenance["batch_index"] for s in sols] \
            == list(range(len(problems)))

    def test_failures_are_never_cached(self, arm):
        trees = _trees(4)
        cache = SolutionCache(32)
        arm(kill_index=1, once=False)
        with WorkerPool(2) as pool:
            sols = list(solve_stream(trees, pool=pool, retry=FAST,
                                     on_error="emit", cache=cache))
        assert sols[1].backend == "error"
        assert cache.stats()["size"] == 3    # the three real solutions
        # a fault-free serial pass: hits for the survivors, a fresh miss
        # (not a cached failure) for the quarantined instance
        os.environ.pop(FAULTS_ENV, None)
        clear_active_plan()
        again = list(solve_stream(trees, cache=cache))
        states = [s.provenance["cache"] for s in again]
        assert states == ["hit", "miss", "hit", "hit"]
        assert again[1].num_paths == solve(trees[1]).num_paths


# --------------------------------------------------------------------------- #
# CircuitBreaker (fake clock)
# --------------------------------------------------------------------------- #

class _Clock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clk = _Clock()
        br = CircuitBreaker(threshold=3, cooldown=5.0, clock=clk)
        assert br.state == "closed" and br.allow()
        br.record_failure()
        br.record_failure()
        assert br.state == "closed" and br.allow()
        br.record_failure()
        assert br.state == "open"
        assert not br.allow()
        assert br.retry_after() == pytest.approx(5.0)
        assert br.opened_total == 1

    def test_success_resets_the_failure_streak(self):
        br = CircuitBreaker(threshold=3, clock=_Clock())
        br.record_failure()
        br.record_failure()
        br.record_success()
        br.record_failure()
        br.record_failure()
        assert br.state == "closed"

    def test_half_open_admits_exactly_one_probe(self):
        clk = _Clock()
        br = CircuitBreaker(threshold=1, cooldown=2.0, clock=clk)
        br.record_failure()
        assert not br.allow()
        clk.advance(2.5)
        assert br.state == "half_open"
        assert br.allow()            # the probe
        assert not br.allow()        # everyone else keeps waiting
        br.record_success()
        assert br.state == "closed"
        assert br.allow() and br.allow()

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        clk = _Clock()
        br = CircuitBreaker(threshold=1, cooldown=2.0, clock=clk)
        br.record_failure()
        clk.advance(2.5)
        assert br.allow()
        br.record_failure()
        assert br.state == "open"
        assert br.opened_total == 2
        assert br.retry_after() == pytest.approx(2.0)

    def test_retry_after_counts_down(self):
        clk = _Clock()
        br = CircuitBreaker(threshold=1, cooldown=4.0, clock=clk)
        br.record_failure()
        clk.advance(1.0)
        assert br.retry_after() == pytest.approx(3.0)

    def test_snapshot_and_validation(self):
        br = CircuitBreaker(threshold=2, cooldown=1.5, clock=_Clock())
        snap = br.snapshot()
        assert snap == {"state": "closed", "consecutive_failures": 0,
                        "threshold": 2, "cooldown_seconds": 1.5,
                        "opened_total": 0}
        with pytest.raises(ValueError, match="threshold"):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError, match="cooldown"):
            CircuitBreaker(cooldown=0.0)


# --------------------------------------------------------------------------- #
# the server: structured 500s, breaker cycle, healing behind a 200
# --------------------------------------------------------------------------- #

def make_app(**overrides) -> ServerApp:
    defaults = dict(port=0, jobs=1, log_level="ERROR")
    defaults.update(overrides)
    return ServerApp(Settings(**defaults))


def run_app(coro_fn, **overrides):
    """Run ``await coro_fn(app)`` inside a fresh loop, closing the app."""
    app = make_app(**overrides)

    async def driver():
        try:
            return await coro_fn(app)
        finally:
            app.close()

    return asyncio.run(driver())


def solve_body(problem=SMALL, **extra) -> bytes:
    return json.dumps({"problem": problem, **extra}).encode()


class TestServerResilience:
    def test_unexpected_exception_returns_structured_500(self):
        async def scenario(app):
            def boom():
                raise RuntimeError("kaboom")
            app._healthz_body = boom
            r = await app.dispatch("GET", "/healthz")
            m = await app.dispatch("GET", "/metrics")
            return r, m

        r, m = run_app(scenario)
        assert r.status == 500
        error = r.json()["error"]
        assert error["status"] == 500
        assert "RuntimeError" in error["message"]
        assert "request_id" in error
        assert re.search(r"repro_internal_errors_total 1\b",
                         m.body.decode("utf8"))

    def test_breaker_opens_rejects_then_recovers(self):
        async def scenario(app):
            original = app._handle_solve
            state = {"fail": True}

            async def flaky(req):
                if state["fail"]:
                    raise RuntimeError("solver down")
                return await original(req)

            app._handle_solve = flaky
            r1 = await app.dispatch("POST", "/v1/solve", solve_body())
            r2 = await app.dispatch("POST", "/v1/solve", solve_body())
            r3 = await app.dispatch("POST", "/v1/solve", solve_body())
            h_open = await app.dispatch("GET", "/healthz")
            await asyncio.sleep(0.25)            # past the cooldown
            state["fail"] = False
            r4 = await app.dispatch("POST", "/v1/solve", solve_body())
            h_closed = await app.dispatch("GET", "/healthz")
            m = await app.dispatch("GET", "/metrics")
            return r1, r2, r3, h_open, r4, h_closed, m

        r1, r2, r3, h_open, r4, h_closed, m = run_app(
            scenario, breaker_threshold=2, breaker_cooldown=0.2,
            retries=0)
        assert (r1.status, r2.status) == (500, 500)
        # the third request is turned away without touching the solver
        assert r3.status == 503
        assert int(r3.headers["Retry-After"]) >= 1
        assert "circuit breaker" in r3.json()["error"]["message"]
        assert h_open.json()["breaker"]["state"] == "open"
        # after the cooldown the half-open probe succeeds and closes it
        assert r4.status == 200
        assert h_closed.json()["breaker"]["state"] == "closed"
        text = m.body.decode("utf8")
        assert re.search(r"repro_breaker_rejections_total 1\b", text)
        assert re.search(r"repro_breaker_opened_total 1\b", text)
        assert 'repro_breaker_state{state="closed"} 1' in text

    def test_healthz_and_metrics_bypass_an_open_breaker(self):
        async def scenario(app):
            app.breaker.record_failure()          # threshold=1: open
            h = await app.dispatch("GET", "/healthz")
            m = await app.dispatch("GET", "/metrics")
            s = await app.dispatch("POST", "/v1/solve", solve_body())
            return h, m, s

        h, m, s = run_app(scenario, breaker_threshold=1,
                          breaker_cooldown=30.0)
        assert h.status == 200 and m.status == 200
        assert s.status == 503

    def test_breaker_disabled_with_threshold_zero(self):
        async def scenario(app):
            assert app.breaker is None
            h = await app.dispatch("GET", "/healthz")
            return h

        h = run_app(scenario, breaker_threshold=0)
        assert h.json()["breaker"] is None

    def test_worker_crash_through_the_server_heals(self, arm):
        # a real worker process SIGKILLed mid-solve: the request retries
        # on a rebuilt pool and still answers 200, with the restart
        # visible in /healthz and /metrics
        arm(kill_task=1, once=True)

        async def scenario(app):
            r = await app.dispatch("POST", "/v1/solve", solve_body())
            h = await app.dispatch("GET", "/healthz")
            m = await app.dispatch("GET", "/metrics")
            return r, h, m

        r, h, m = run_app(scenario, jobs=2, retries=2)
        assert r.status == 200
        assert r.json()["num_paths"] == 2
        health = h.json()
        assert health["pool"]["restarts"] >= 1
        assert health["breaker"]["state"] == "closed"
        found = re.search(r"repro_pool_restarts_total (\d+)",
                          m.body.decode("utf8"))
        assert found and int(found.group(1)) >= 1

    def test_persistent_crash_degrades_to_structured_500(self, arm):
        arm(kill_task=1, once=False)   # every worker generation dies

        async def scenario(app):
            return await app.dispatch("POST", "/v1/solve", solve_body())

        r = run_app(scenario, jobs=2, retries=1)
        assert r.status == 500
        error = r.json()["error"]
        assert "worker crash" in error["message"]
        assert "request_id" in error

    def test_batch_poison_degrades_one_record(self, arm):
        trees = _trees(3, size=20)
        arm(kill_index=1, once=False)

        async def scenario(app):
            body = json.dumps({"problems": trees}).encode()
            r = await app.dispatch("POST", "/v1/solve_batch", body)
            h = await app.dispatch("GET", "/healthz")
            return r, h

        r, h = run_app(scenario, jobs=2, retries=1, batch_small=0)
        assert r.status == 200
        data = r.json()
        assert data["count"] == 3
        bad = data["solutions"][1]
        assert bad["backend"] == "error"
        assert bad["provenance"]["error_kind"] == "crash"
        assert bad["provenance"]["batch_index"] == 1
        for i in (0, 2):
            good = data["solutions"][i]
            assert good["backend"] != "error"
            assert good["num_paths"] == solve(trees[i]).num_paths
        assert h.json()["pool"]["quarantined"] >= 1
