"""The HTTP/JSON service layer (``repro.server``), in-process and on-wire.

Most tests drive :meth:`ServerApp.dispatch` directly — the whole app
(routing, validation, admission, offload, caching, metrics) without a
socket.  A handful boot a real listening :class:`ReproServer` to cover the
wire protocol, concurrency, overload shedding and the graceful-drain
lifecycle, and one boots ``python -m repro serve`` as a subprocess to pin
the SIGTERM exit path.
"""

from __future__ import annotations

import asyncio
import http.client
import io
import json
import logging
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.parse
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro._version import __version__
from repro.api import SolutionCache, SolveOptions, as_problem, solve, \
    task_names
from repro.cograph import Cotree, Graph, as_flat_cotree, \
    caterpillar_cotree, md_tree, pack, random_cotree
from repro.io import cotree_to_json, cotree_to_text
from repro.io.wire import HEADER_SIZE
from repro.io.wire import frame as wire_frame
from repro.io.wire import to_bytes as wire_to_bytes
from repro.server import (
    HTTPError,
    LatencyHistogram,
    Metrics,
    ReproServer,
    SchemaError,
    ServerApp,
    Settings,
    parse_batch_request,
    parse_solve_request,
)
from repro.server.schemas import (
    parse_wire_batch_request,
    parse_wire_solve_request,
)
from repro.server.logging_config import (
    JsonFormatter,
    KeyValueFormatter,
    configure_logging,
    new_request_id,
    request_id_var,
)

SMALL = "(0 + (1 * 2))"


def big_instance(n: int = 20000, seed: int = 7) -> str:
    return cotree_to_text(random_cotree(n, seed=seed))


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


# --------------------------------------------------------------------------- #
# Settings
# --------------------------------------------------------------------------- #

class TestSettings:
    def test_defaults_are_valid_and_frozen(self):
        s = Settings()
        assert s.port == 8080 and s.queue_limit == 64
        with pytest.raises(Exception):
            s.port = 9090                       # frozen dataclass

    def test_from_env_reads_typed_repro_variables(self):
        s = Settings.from_env({"REPRO_PORT": "9001", "REPRO_JOBS": "2",
                               "REPRO_REQUEST_TIMEOUT": "2.5",
                               "REPRO_LOG_FORMAT": "json"})
        assert (s.port, s.jobs) == (9001, 2)
        assert s.request_timeout == 2.5 and s.log_format == "json"

    def test_from_env_overrides_win_and_none_is_ignored(self):
        s = Settings.from_env({"REPRO_PORT": "9001"},
                              port=7000, host=None)
        assert s.port == 7000                   # CLI flag beats the env
        assert s.host == "127.0.0.1"            # None = unset argparse flag

    def test_from_env_bad_value_names_the_variable(self):
        with pytest.raises(ValueError, match="REPRO_QUEUE_LIMIT"):
            Settings.from_env({"REPRO_QUEUE_LIMIT": "lots"})
        with pytest.raises(ValueError, match="REPRO_REQUEST_TIMEOUT"):
            Settings.from_env({"REPRO_REQUEST_TIMEOUT": "soon"})

    @pytest.mark.parametrize("bad", [
        {"port": 70000}, {"queue_limit": 0}, {"request_timeout": 0.0},
        {"log_format": "xml"}, {"log_level": "LOUD"}, {"max_batch": 0},
    ])
    def test_validation_rejects_out_of_range_fields(self, bad):
        with pytest.raises(ValueError):
            Settings(**bad)

    def test_with_revalidates_and_to_dict_round_trips(self):
        s = Settings(port=0).with_(queue_limit=5, log_level="debug")
        assert s.queue_limit == 5 and s.log_level == "DEBUG"
        assert Settings(**s.to_dict()) == s
        with pytest.raises(ValueError):
            s.with_(port=-1)


# --------------------------------------------------------------------------- #
# structured logging
# --------------------------------------------------------------------------- #

class TestLogging:
    def _record(self, **extra):
        record = logging.LogRecord("repro.server", logging.INFO, __file__,
                                   1, "request done", (), None)
        record.request_id = "abc123"
        for name, value in extra.items():
            setattr(record, name, value)
        return record

    def test_kv_formatter_emits_sorted_quoted_pairs(self):
        line = KeyValueFormatter().format(
            self._record(status=200, path="/v1/solve", note="two words"))
        assert "level=INFO" in line and "request_id=abc123" in line
        assert 'msg="request done"' in line      # spaces -> JSON-quoted
        assert "path=/v1/solve status=200" in line   # extras sorted
        assert 'note="two words"' in line

    def test_json_formatter_emits_one_parseable_object(self):
        data = json.loads(JsonFormatter().format(
            self._record(status=200, duration_ms=4.25)))
        assert data["msg"] == "request done"
        assert data["request_id"] == "abc123"
        assert data["status"] == 200 and data["duration_ms"] == 4.25
        assert data["ts"].endswith("Z")

    def test_configure_logging_is_idempotent_and_unpropagated(self):
        stream = io.StringIO()
        logger = configure_logging(Settings(log_level="INFO"), stream)
        logger = configure_logging(Settings(log_level="INFO"), stream)
        assert len(logger.handlers) == 1        # no handler stacking
        assert logger.propagate is False
        logger.info("hello", extra={"event": "test"})
        assert "event=test" in stream.getvalue()
        configure_logging(Settings(log_level="ERROR"))  # detach the buffer

    def test_request_ids_are_fresh_hex_and_contextual(self):
        ids = {new_request_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(i) == 12 and int(i, 16) >= 0 for i in ids)
        assert request_id_var.get() == "-"       # ambient default


# --------------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------------- #

class TestMetrics:
    def test_histogram_quantiles_use_bucket_upper_bounds(self):
        hist = LatencyHistogram()
        for value in (0.002, 0.002, 0.002, 0.09):
            hist.observe(value)
        assert hist.total == 4 and hist.sum == pytest.approx(0.096)
        assert hist.quantile(0.5) == 0.0025      # 0.002 rounds up a bucket
        assert hist.quantile(0.99) == 0.1

    def test_histogram_empty_and_overflow(self):
        hist = LatencyHistogram()
        assert hist.quantile(0.5) is None
        hist.observe(10_000.0)                   # beyond the last bucket
        assert hist.quantile(0.5) == 120.0       # clamped to last bound

    def test_render_exposes_counters_gauges_and_cache(self):
        metrics = Metrics()
        metrics.observe_request("path_cover", 200, 0.01)
        metrics.observe_request("path_cover", 429, 0.0001)
        metrics.observe_request("max_clique", 504, 1.0)
        metrics.set_gauges(in_flight=2, queue_depth=3)
        text = metrics.render({"hits": 3, "misses": 1, "size": 2})
        assert f'repro_info{{version="{__version__}"}} 1' in text
        assert 'repro_requests_total{task="path_cover",status="200"} 1' \
            in text
        assert "repro_rejected_total 1" in text
        assert "repro_timeouts_total 1" in text
        assert "repro_in_flight 2" in text and "repro_queue_depth 3" in text
        assert "repro_cache_hit_rate 0.750000" in text
        assert 'repro_request_seconds{task="path_cover",quantile="0.5"}' \
            in text
        assert 'repro_request_seconds_count{task="max_clique"} 1' in text

    def test_render_without_cache_omits_cache_lines(self):
        text = Metrics().render(None)
        assert "repro_cache_hits_total" not in text
        assert "repro_uptime_seconds" in text


# --------------------------------------------------------------------------- #
# schemas
# --------------------------------------------------------------------------- #

class TestSchemas:
    def test_bare_value_is_the_problem(self):
        req = parse_solve_request(SMALL)
        assert req.task == "path_cover"
        assert req.problem.tree is not None

    def test_full_record_with_task_and_options(self):
        req = parse_solve_request({
            "problem": SMALL, "task": "max_clique",
            "options": {"backend": "fast", "validate": True}})
        assert req.task == "max_clique"
        assert req.options.backend == "fast" and req.options.validate

    def test_missing_problem_is_a_field_error(self):
        with pytest.raises(SchemaError) as excinfo:
            parse_solve_request({"task": "path_cover"})
        assert excinfo.value.errors == [
            {"field": "problem", "error": "is required"}]

    def test_unknown_keys_and_unknown_task_collected(self):
        with pytest.raises(SchemaError) as excinfo:
            parse_solve_request({"problem": SMALL, "frobnicate": 1})
        assert excinfo.value.errors[0]["field"] == "frobnicate"
        with pytest.raises(SchemaError) as excinfo:
            parse_solve_request({"problem": SMALL, "task": "nope"})
        error = excinfo.value.errors[0]
        assert error["field"] == "task" and "max_clique" in error["error"]

    def test_request_cannot_set_server_owned_options(self):
        with pytest.raises(SchemaError) as excinfo:
            parse_solve_request({"problem": SMALL,
                                 "options": {"cache": 64,
                                             "batch_small": 10}})
        fields = {e["field"] for e in excinfo.value.errors}
        assert fields == {"options.cache", "options.batch_small"}

    def test_bad_option_values_surface_per_field(self):
        with pytest.raises(SchemaError) as excinfo:
            parse_solve_request({"problem": SMALL,
                                 "options": {"backend": "turbo"}})
        assert excinfo.value.errors[0]["field"] == "options"
        with pytest.raises(SchemaError):
            parse_solve_request({"problem": SMALL, "options": "fast"})

    def test_file_paths_are_refused_over_the_network(self, tmp_path):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"type": "cotree"}))
        with pytest.raises(SchemaError) as excinfo:
            parse_solve_request({"problem": str(path)})
        assert "file paths" in excinfo.value.errors[0]["error"]

    def test_batch_accepts_list_and_object_forms(self):
        by_list = parse_batch_request(
            [SMALL, {"problem": "(0 * 1)", "task": "max_clique"}],
            max_batch=10)
        assert [r.task for r in by_list] == ["path_cover", "max_clique"]
        by_object = parse_batch_request(
            {"problems": [SMALL, "(0 * 1)"], "task": "max_clique",
             "options": {"backend": "fast"}}, max_batch=10)
        assert all(r.task == "max_clique" for r in by_object)
        assert all(r.options.backend == "fast" for r in by_object)

    def test_batch_record_overrides_the_defaults(self):
        requests = parse_batch_request(
            {"problems": [{"problem": SMALL, "task": "path_cover"},
                          SMALL],
             "task": "max_clique"}, max_batch=10)
        assert [r.task for r in requests] == ["path_cover", "max_clique"]

    def test_batch_errors_are_indexed_per_record(self):
        with pytest.raises(SchemaError) as excinfo:
            parse_batch_request(
                [SMALL, {"problem": SMALL, "task": "nope"},
                 {"task": "path_cover"}], max_batch=10)
        fields = [e["field"] for e in excinfo.value.errors]
        assert fields == ["problems[1].task", "problems[2].problem"]

    def test_batch_rejects_empty_oversized_and_non_list(self):
        with pytest.raises(SchemaError, match="empty"):
            parse_batch_request([], max_batch=10)
        with pytest.raises(SchemaError, match="max_batch"):
            parse_batch_request([SMALL] * 11, max_batch=10)
        with pytest.raises(SchemaError, match="list"):
            parse_batch_request({"problems": SMALL}, max_batch=10)


def wire_buf(text=SMALL):
    return wire_to_bytes(as_flat_cotree(as_problem(text).pipeline_tree()))


class TestWireSchemas:
    def test_solve_buffer_with_query_defaults(self):
        req = parse_wire_solve_request(wire_buf())
        assert req.task == "path_cover"
        assert req.problem.source_format == "wire"

    def test_query_task_and_options(self):
        query = "task=max_clique&options=" + urllib.parse.quote(
            json.dumps({"backend": "fast"}))
        req = parse_wire_solve_request(wire_buf(), query)
        assert req.task == "max_clique"
        assert req.options.backend == "fast"

    def test_bad_query_parameters_are_schema_errors(self):
        with pytest.raises(SchemaError, match="unknown query parameter"):
            parse_wire_solve_request(wire_buf(), "bogus=1")
        with pytest.raises(SchemaError, match="unknown task"):
            parse_wire_solve_request(wire_buf(), "task=nope")
        with pytest.raises(SchemaError, match="JSON object"):
            parse_wire_solve_request(wire_buf(), "options={broken")
        with pytest.raises(SchemaError, match="server configuration"):
            parse_wire_solve_request(
                wire_buf(), "options=" + urllib.parse.quote(
                    json.dumps({"batch_small": 4})))

    def test_corrupt_and_empty_buffers_are_schema_errors(self):
        with pytest.raises(SchemaError, match="invalid wire buffer"):
            parse_wire_solve_request(b"garbage")
        with pytest.raises(SchemaError, match="body"):
            parse_wire_solve_request(b"")

    def test_forest_container_refused_on_solve(self):
        forest = pack([as_flat_cotree(as_problem(SMALL).pipeline_tree())])
        with pytest.raises(SchemaError, match="solve_batch"):
            parse_wire_solve_request(wire_to_bytes(forest))

    def test_batch_frames(self):
        body = wire_frame(wire_buf()) + wire_frame(wire_buf("(0 * 1)"))
        requests = parse_wire_batch_request(body, "task=max_clique",
                                            max_batch=10)
        assert len(requests) == 2
        assert all(r.task == "max_clique" for r in requests)

    def test_batch_truncated_frame_and_limits(self):
        with pytest.raises(SchemaError, match="truncated frame"):
            parse_wire_batch_request(wire_frame(wire_buf())[:-3],
                                     max_batch=10)
        with pytest.raises(SchemaError, match="max_batch"):
            parse_wire_batch_request(wire_frame(wire_buf()) * 3, max_batch=2)
        with pytest.raises(SchemaError, match="body"):
            parse_wire_batch_request(b"", max_batch=2)


# --------------------------------------------------------------------------- #
# the app, dispatched in-process (no socket)
# --------------------------------------------------------------------------- #

class TestDispatch:
    def test_healthz_reports_version_tasks_and_queue(self):
        async def scenario(app):
            return await app.dispatch("GET", "/healthz")

        data = run_app(scenario).json()
        assert data["status"] == "ok" and data["version"] == __version__
        assert set(data["tasks"]) == set(task_names())
        assert data["queue"]["limit"] == 64 and data["queue"]["admitted"] == 0
        assert data["cache"]["size"] == 0

    def test_solve_returns_a_full_solution_document(self):
        async def scenario(app):
            return await app.dispatch("POST", "/v1/solve", solve_body())

        response = run_app(scenario)
        assert response.status == 200
        data = response.json()
        assert data["type"] == "solution" and data["num_paths"] == 2
        assert data["provenance"]["route"] == "serial"
        assert data["provenance"]["cache"] == "miss"

    def test_deep_cotree_text_is_solved_not_a_500(self):
        deep = cotree_to_text(caterpillar_cotree(1500))

        async def scenario(app):
            return await app.dispatch(
                "POST", "/v1/solve",
                solve_body(deep, options={"backend": "fast"}))

        response = run_app(scenario)
        assert response.status == 200
        assert response.json()["num_paths"] == solve(
            caterpillar_cotree(1500), backend="fast").num_paths

    @pytest.mark.parametrize("task", [
        "path_cover", "path_cover_size", "chromatic_number", "max_clique",
    ])
    def test_text_leaf_ids_outside_0_to_n_minus_1_are_a_400(self, task):
        async def scenario(app):
            response = await app.dispatch(
                "POST", "/v1/solve", solve_body("(0 * 2)", task=task))
            return response, app.breaker.snapshot()

        response, breaker = run_app(scenario)
        assert response.status == 400
        [detail] = response.json()["error"]["details"]
        assert detail["field"] == "problem"
        assert "vertex id 1 is missing" in detail["error"]
        assert breaker["consecutive_failures"] == 0

    def test_solve_cache_miss_then_hit(self):
        async def scenario(app):
            first = await app.dispatch("POST", "/v1/solve", solve_body())
            second = await app.dispatch("POST", "/v1/solve", solve_body())
            return first.json(), second.json(), app.cache.stats()

        first, second, stats = run_app(scenario)
        assert first["provenance"]["cache"] == "miss"
        assert second["provenance"]["cache"] == "hit"
        assert second["answer"] == first["answer"]
        assert stats["hits"] == 1 and stats["size"] == 1

    def test_solve_runs_every_kind_of_task(self):
        async def scenario(app):
            clique = await app.dispatch("POST", "/v1/solve", solve_body(
                "(0 * (1 + 2))", task="max_clique"))
            bits = await app.dispatch("POST", "/v1/solve", solve_body(
                [1, 0, 1], task="lower_bound"))
            fast = await app.dispatch("POST", "/v1/solve", solve_body(
                SMALL, options={"backend": "fast", "validate": True}))
            return clique.json(), bits.json(), fast.json()

        clique, bits, fast = run_app(scenario)
        assert clique["answer"]["size"] == 2
        assert bits["answer"]["or"] == 1
        assert fast["backend"] == "fast"

    def test_solve_parity_with_direct_api_call(self):
        async def scenario(app):
            return (await app.dispatch(
                "POST", "/v1/solve", solve_body(task="max_clique"))).json()

        served = run_app(scenario, cache_size=0)
        direct = solve(SMALL, "max_clique")
        assert served["answer"] == direct.to_json_dict()["answer"]

    @pytest.mark.parametrize("body, fragment", [
        (b"", "body is required"),
        (b"{not json", "not valid JSON"),
        (solve_body(task="nope"), "unknown task"),
        (json.dumps({"task": "path_cover"}).encode(), "is required"),
        (solve_body(options={"cache": 4}), "server configuration"),
        (solve_body("((0+1)"), "problem"),
        (solve_body({"type": "graph", "edges": [[0, 1]]}),
         "missing key(s) 'n'"),
        (solve_body({"type": "cotree", "root": 0}),
         "missing key(s) 'kind', 'children', 'leaf_vertex'"),
    ])
    def test_solve_bad_requests_are_structured_400s(self, body, fragment):
        async def scenario(app):
            response = await app.dispatch("POST", "/v1/solve", body)
            return response, app.breaker.snapshot()

        response, breaker = run_app(scenario)
        assert response.status == 400
        error = response.json()["error"]
        assert error["status"] == 400
        assert fragment in json.dumps(error)
        assert breaker["state"] == "closed"
        assert breaker["consecutive_failures"] == 0

    def test_deeply_nested_json_is_a_400_and_spares_the_breaker(self):
        deep = b"[" * 1500

        async def scenario(app):
            refused = [await app.dispatch("POST", "/v1/solve", deep)
                       for _ in range(5)]
            query = await app.dispatch(
                "POST", "/v1/solve?options=" + "[" * 1500, wire_buf(),
                {"content-type": "application/octet-stream"})
            return refused, query, await app.dispatch(
                "POST", "/v1/solve", solve_body())

        refused, query, valid = run_app(scenario)
        assert [r.status for r in refused] == [400] * 5
        assert "JSON nesting too deep" in refused[0].json()["error"]["message"]
        assert query.status == 400
        assert "JSON nesting too deep" in json.dumps(query.json())
        assert valid.status == 200

    def test_lone_leaf_with_a_foreign_id_is_a_400_and_spares_the_breaker(self):
        async def scenario(app):
            refused = [await app.dispatch("POST", "/v1/solve",
                                          solve_body("5", task=task))
                       for task in ("chromatic_number", "clique_cover") * 3]
            clique = await app.dispatch("POST", "/v1/solve",
                                        solve_body("5", task="max_clique"))
            valid = await app.dispatch("POST", "/v1/solve", solve_body())
            return refused, clique, valid, app.breaker.snapshot()

        refused, clique, valid, breaker = run_app(scenario)
        assert [r.status for r in refused] == [400] * 6
        error = refused[0].json()["error"]
        assert "vertex id 5" in error["message"]
        assert "vertex ids must be 0..n-1" in error["message"]
        # every task refuses the foreign id alike
        assert clique.status == 400
        assert "vertex id 5" in clique.json()["error"]["message"]
        assert valid.status == 200
        assert breaker["state"] == "closed"
        assert breaker["consecutive_failures"] == 0

    def test_path_cover_foreign_vertex_id_is_a_400_and_spares_the_breaker(
            self):
        sparse = cotree_to_json(Cotree.from_nested(("union", 0,
                                                    ("join", 2, 7))))

        async def scenario(app):
            refused = [await app.dispatch("POST", "/v1/solve",
                                          solve_body(sparse))
                       for _ in range(5)]
            valid = await app.dispatch("POST", "/v1/solve", solve_body())
            return refused, valid, app.breaker.snapshot()

        refused, valid, breaker = run_app(scenario)
        assert [r.status for r in refused] == [400] * 5
        assert "vertex id 7 is out of range" in \
            refused[0].json()["error"]["message"]
        assert valid.status == 200
        assert breaker["state"] == "closed"
        assert breaker["consecutive_failures"] == 0

    def test_unknown_route_404_and_wrong_method_405(self):
        async def scenario(app):
            return (await app.dispatch("GET", "/v1/nope"),
                    await app.dispatch("POST", "/healthz"),
                    await app.dispatch("GET", "/v1/solve"),
                    await app.dispatch("DELETE", "/metrics"))

        missing, h_post, s_get, m_delete = run_app(scenario)
        assert missing.status == 404
        assert (h_post.status, s_get.status, m_delete.status) \
            == (405, 405, 405)


class TestBinaryDispatch:
    """``Content-Type: application/octet-stream`` bodies on the solve
    endpoints: zero-copy wire buffers in, the same JSON solutions out."""

    OCTET = {"content-type": "application/octet-stream"}

    def test_binary_solve_matches_json_solve_byte_for_byte(self):
        async def scenario(app):
            as_json = await app.dispatch("POST", "/v1/solve", solve_body())
            as_wire = await app.dispatch("POST", "/v1/solve", wire_buf(),
                                         self.OCTET)
            return as_json, as_wire

        as_json, as_wire = run_app(scenario, cache_size=0)
        assert as_wire.status == 200
        assert as_wire.json()["answer"] == as_json.json()["answer"]

    @staticmethod
    def corrupt_body(field: str) -> bytes:
        """A CRC-valid 7-vertex wire buffer with kind code 7 at the root
        (``field="kind"``) or ``child_index[0] = 10**6``."""
        tree = as_flat_cotree(random_cotree(7, seed=3))
        buf = bytearray(wire_to_bytes(tree))
        if field == "kind":
            buf[len(buf) - tree.num_nodes + tree.root] = 7
        else:
            at = HEADER_SIZE + 8 * (tree.num_nodes + 1)
            buf[at:at + 8] = (10 ** 6).to_bytes(8, "little", signed=True)
        return bytes(buf)

    @pytest.mark.parametrize("field", ["kind", "child_index"])
    def test_out_of_range_body_is_a_400_naming_the_field(self, field):
        body = self.corrupt_body(field)

        async def scenario(app):
            refused = [await app.dispatch("POST", f"/v1/solve?task={task}",
                                          body, self.OCTET)
                       for task in ("path_cover", "path_cover_size",
                                    "chromatic_number", "max_clique",
                                    "path_cover", "max_clique")]
            valid = await app.dispatch("POST", "/v1/solve", wire_buf(),
                                       self.OCTET)
            return refused, valid, app.breaker.snapshot()

        refused, valid, breaker = run_app(scenario)
        assert [r.status for r in refused] == [400] * 6
        [detail] = refused[0].json()["error"]["details"]
        assert detail["field"] == "body"
        assert f"{field}[" in detail["error"]
        assert valid.status == 200
        assert breaker["state"] == "closed"
        assert breaker["consecutive_failures"] == 0

    def test_prime_flagged_body_is_a_400_for_path_cover(self):
        body = wire_to_bytes(md_tree(Graph(4, [(0, 1), (1, 2), (2, 3)])))

        async def scenario(app):
            refused = [await app.dispatch("POST", f"/v1/solve?task={task}",
                                          body, self.OCTET)
                       for task in ["path_cover"] * 3 + ["path_cover_size"]
                       * 3]
            clique = await app.dispatch("POST", "/v1/solve?task=max_clique",
                                        body, self.OCTET)
            return refused, clique, app.breaker.snapshot()

        refused, clique, breaker = run_app(scenario)
        assert [r.status for r in refused] == [400] * 6
        assert "prime nodes" in refused[0].json()["error"]["message"]
        assert clique.status == 200     # MD-capable tasks still answer
        assert clique.json()["answer"]["size"] == 2
        assert breaker["state"] == "closed"
        assert breaker["consecutive_failures"] == 0

    def test_binary_solve_with_task_and_options_in_query(self):
        async def scenario(app):
            return await app.dispatch(
                "POST", "/v1/solve?task=max_clique&options=" +
                urllib.parse.quote(json.dumps({"backend": "fast"})),
                wire_buf(), self.OCTET)

        response = run_app(scenario)
        assert response.status == 200
        data = response.json()
        assert data["backend"] == "fast"
        assert data["answer"]["size"] == 2

    def test_binary_batch_matches_json_batch(self):
        texts = [SMALL, "(0 * 1)", "((0 + 1) * (2 + 3))"]

        async def scenario(app):
            as_json = await app.dispatch(
                "POST", "/v1/solve_batch",
                json.dumps({"problems": texts}).encode())
            blob = b"".join(wire_frame(wire_buf(t)) for t in texts)
            as_wire = await app.dispatch("POST", "/v1/solve_batch", blob,
                                         self.OCTET)
            return as_json, as_wire

        as_json, as_wire = run_app(scenario, cache_size=0)
        assert as_wire.status == 200
        assert ([s["answer"] for s in as_wire.json()["solutions"]]
                == [s["answer"] for s in as_json.json()["solutions"]])

    def test_binary_errors_are_structured_400s(self):
        async def scenario(app):
            corrupt = await app.dispatch("POST", "/v1/solve", b"garbage",
                                         self.OCTET)
            bad_query = await app.dispatch("POST", "/v1/solve?nope=1",
                                           wire_buf(), self.OCTET)
            return corrupt, bad_query

        corrupt, bad_query = run_app(scenario)
        assert corrupt.status == 400
        assert "invalid wire buffer" in json.dumps(corrupt.json())
        assert bad_query.status == 400
        assert "unknown query parameter" in json.dumps(bad_query.json())

    def test_json_bodies_ignore_the_header_entirely(self):
        async def scenario(app):
            return await app.dispatch(
                "POST", "/v1/solve", solve_body(),
                {"content-type": "application/json"})

        assert run_app(scenario).status == 200

    def test_healthz_reports_backends(self):
        async def scenario(app):
            return await app.dispatch("GET", "/healthz")

        data = run_app(scenario).json()
        assert data["backends"] == {"available": ["pram", "fast"]}

    def test_batch_routes_through_the_forest_sweep(self):
        async def scenario(app):
            body = json.dumps({"problems": [SMALL, "(0 * 1)", SMALL]}
                              ).encode()
            return await app.dispatch("POST", "/v1/solve_batch", body)

        response = run_app(scenario, batch_small=64)
        assert response.status == 200
        data = response.json()
        assert data["count"] == 3
        assert [s["provenance"]["batch_index"]
                for s in data["solutions"]] == [0, 1, 2]
        # small instances take the vectorized forest route
        assert all(s["provenance"]["route"] == "forest"
                   for s in data["solutions"])
        assert [s["num_paths"] for s in data["solutions"]] == [2, 1, 2]

    def test_batch_groups_mixed_tasks_and_matches_solo_answers(self):
        async def scenario(app):
            body = json.dumps([
                {"problem": SMALL, "task": "max_clique"},
                {"problem": SMALL, "task": "path_cover"},
                {"problem": "(0 * (1 + 2))", "task": "max_clique"},
            ]).encode()
            return await app.dispatch("POST", "/v1/solve_batch", body)

        data = run_app(scenario).json()
        tasks = [s["task"] for s in data["solutions"]]
        assert tasks == ["max_clique", "path_cover", "max_clique"]
        assert data["solutions"][0]["answer"] == \
            solve(SMALL, "max_clique").to_json_dict()["answer"]

    def test_batch_validation_errors_are_indexed(self):
        async def scenario(app):
            body = json.dumps([SMALL, {"problem": SMALL, "task": "nope"}]
                              ).encode()
            return await app.dispatch("POST", "/v1/solve_batch", body)

        response = run_app(scenario)
        assert response.status == 400
        details = response.json()["error"]["details"]
        assert details[0]["field"] == "problems[1].task"

    def test_admission_control_sheds_load_with_429(self):
        body = solve_body(big_instance())

        async def scenario(app):
            results = await asyncio.gather(*[
                app.dispatch("POST", "/v1/solve", body) for _ in range(4)])
            return [r.status for r in results], [
                dict(r.headers) for r in results]

        statuses, headers = run_app(scenario, queue_limit=1, cache_size=0)
        counts = Counter(statuses)
        assert counts[200] >= 1 and counts[429] >= 1
        assert counts[200] + counts[429] == 4
        rejected = headers[statuses.index(429)]
        assert rejected["Retry-After"] == "1"

    def test_slow_requests_time_out_with_504(self):
        async def scenario(app):
            return await app.dispatch("POST", "/v1/solve",
                                      solve_body(big_instance()))

        response = run_app(scenario, request_timeout=0.005, cache_size=0)
        assert response.status == 504
        assert "request_timeout" in response.json()["error"]["message"]

    def test_drain_refuses_new_work_but_healthz_stays_up(self):
        async def scenario(app):
            app.begin_drain()
            refused = await app.dispatch("POST", "/v1/solve", solve_body())
            batch = await app.dispatch(
                "POST", "/v1/solve_batch", json.dumps([SMALL]).encode())
            health = await app.dispatch("GET", "/healthz")
            drained = await app.drain(timeout=1.0)
            return refused, batch, health, drained

        refused, batch, health, drained = run_app(scenario)
        assert refused.status == 503 and batch.status == 503
        assert health.status == 200
        assert health.json()["status"] == "draining"
        assert drained is True

    def test_metrics_reflect_dispatched_traffic(self):
        async def scenario(app):
            await app.dispatch("POST", "/v1/solve", solve_body())
            await app.dispatch("POST", "/v1/solve", solve_body())
            await app.dispatch("POST", "/v1/solve", b"")
            response = await app.dispatch("GET", "/metrics")
            return response

        response = run_app(scenario)
        assert response.headers["Content-Type"].startswith("text/plain")
        text = response.body.decode()
        assert 'repro_requests_total{task="path_cover",status="200"} 2' \
            in text
        assert 'status="400"' in text
        assert "repro_cache_hits_total 1" in text
        assert "repro_cache_hit_rate 0.500000" in text
        assert 'repro_request_seconds_count{task="path_cover"} 2' in text


class TestRequestCache:
    """The server's cache keys on what the client sent: a verbatim repeat
    hits before any parse, a respelled instance is a fresh entry, and no
    request computes the canonical cotree key."""

    OCTET = {"content-type": "application/octet-stream"}

    def test_verbatim_repeat_hits_without_calling_the_parser(
            self, monkeypatch):
        import repro.server.app as app_module
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return parse_solve_request(*args, **kwargs)

        monkeypatch.setattr(app_module, "parse_solve_request", counting)

        async def scenario(app):
            first = await app.dispatch("POST", "/v1/solve", solve_body())
            second = await app.dispatch("POST", "/v1/solve", solve_body())
            return first.json(), second.json(), app.cache.stats()

        first, second, stats = run_app(scenario)
        assert len(calls) == 1
        assert first["provenance"]["cache"] == "miss"
        assert second["provenance"]["cache"] == "hit"
        assert second["answer"] == first["answer"]
        # the stored input provenance stands; the call's route does not
        assert second["provenance"]["source_format"] == "text"
        assert second["provenance"]["num_vertices"] == 3
        assert "route" not in second["provenance"]
        assert (stats["hits"], stats["misses"]) == (1, 1)

    def test_respelled_requests_miss(self):
        record = {"problem": SMALL, "task": "path_cover"}
        bodies = [json.dumps(record).encode(),
                  json.dumps(record, indent=2).encode(),       # whitespace
                  json.dumps(dict(reversed(record.items()))).encode(),
                  solve_body("(0 + (1*2))", task="path_cover")]

        async def scenario(app):
            responses = [await app.dispatch("POST", "/v1/solve", body)
                         for body in bodies]
            return [r.json() for r in responses], app.cache.stats()

        solutions, stats = run_app(scenario)
        assert [s["provenance"]["cache"] for s in solutions] == \
            ["miss"] * 4
        assert len({json.dumps(s["answer"]) for s in solutions}) == 1
        assert (stats["hits"], stats["misses"], stats["size"]) == (0, 4, 4)

    def test_same_wire_body_with_other_options_misses(self):
        fast = "/v1/solve?options=" + urllib.parse.quote(
            json.dumps({"backend": "fast"}))

        async def scenario(app):
            return [(await app.dispatch("POST", target, wire_buf(),
                                        self.OCTET)).json()
                    for target in ("/v1/solve", fast, fast)]

        default, first_fast, second_fast = run_app(scenario)
        assert [s["provenance"]["cache"] for s in
                (default, first_fast, second_fast)] == ["miss", "miss", "hit"]
        assert default["backend"] == "pram"
        assert first_fast["backend"] == second_fast["backend"] == "fast"

    def test_json_and_octet_bodies_never_share_an_entry(self):
        async def scenario(app):
            responses = [
                await app.dispatch("POST", "/v1/solve", solve_body()),
                await app.dispatch("POST", "/v1/solve", solve_body(),
                                   self.OCTET),
                await app.dispatch("POST", "/v1/solve", wire_buf(),
                                   self.OCTET),
                await app.dispatch("POST", "/v1/solve", wire_buf()),
            ]
            return [r.status for r in responses], app.cache.stats()

        statuses, stats = run_app(scenario)
        assert statuses == [200, 400, 200, 400]
        assert (stats["hits"], stats["misses"], stats["size"]) == (0, 2, 2)

    def test_refused_requests_are_not_cache_misses(self):
        sparse = cotree_to_json(Cotree.from_nested(("union", 0,
                                                    ("join", 2, 7))))

        async def scenario(app):
            statuses = [(await app.dispatch("POST", "/v1/solve", body)).status
                        for body in (b"", b"{not json",
                                     solve_body(task="nope"),
                                     solve_body(sparse), solve_body(sparse))]
            return statuses, app.cache.stats()

        statuses, stats = run_app(scenario)
        assert statuses == [400] * 5
        assert (stats["hits"], stats["misses"], stats["size"]) == (0, 0, 0)

    def test_record_repeated_across_batches_hits(self):
        path = [[0, 1], [1, 2]]

        def batch(*records):
            return json.dumps(list(records)).encode()

        async def scenario(app):
            bodies = [
                (batch(SMALL, {"problem": {"0": [1], "1": [0, 2]},
                               "task": "max_clique"}), {}),
                (batch("(0 * 1)", SMALL,
                       {"problem": {"1": [0, 2], "0": [1]},
                        "task": "max_clique"},
                       {"problem": path, "task": "max_clique"}), {}),
                (wire_frame(wire_buf()), self.OCTET),
                (wire_frame(wire_buf("(0 * 1)")) + wire_frame(wire_buf()),
                 self.OCTET),
            ]
            return [(await app.dispatch("POST", "/v1/solve_batch", body,
                                        headers)).json()["solutions"]
                    for body, headers in bodies]

        first, second, wire_first, wire_second = run_app(scenario)
        caches = [[s["provenance"]["cache"] for s in solutions]
                  for solutions in (first, second, wire_first, wire_second)]
        # a JSON value keys on its sort_keys dump: the adjacency dict
        # listed in another key order is the same spelling
        assert caches == [["miss", "miss"], ["miss", "hit", "hit", "miss"],
                          ["miss"], ["miss", "hit"]]
        assert second[1]["answer"] == first[0]["answer"]
        assert second[1]["provenance"]["batch_index"] == 1
        assert wire_second[1]["provenance"]["source_format"] == "wire"

    def test_hit_carries_its_own_request_id(self):
        async def scenario(app):
            out = []
            for rid in ("first-request", "second-request"):
                token = request_id_var.set(rid)
                try:
                    out.append((await app.dispatch(
                        "POST", "/v1/solve", solve_body())).json())
                finally:
                    request_id_var.reset(token)
            return out

        first, second = run_app(scenario)
        assert second["provenance"]["cache"] == "hit"
        assert first["provenance"]["request_id"] == "first-request"
        assert second["provenance"]["request_id"] == "second-request"

    def test_draining_server_refuses_byte_hits(self):
        async def scenario(app):
            first = await app.dispatch("POST", "/v1/solve", solve_body())
            app.begin_drain()
            again = await app.dispatch("POST", "/v1/solve", solve_body())
            return first.status, again.status, app.cache.stats()

        first, again, stats = run_app(scenario)
        assert (first, again) == (200, 503)
        assert stats["hits"] == 0

    def test_no_request_computes_the_canonical_key(self, monkeypatch):
        import repro.api.cache
        import repro.cograph.flat

        def refuse(tree):
            raise AssertionError("canonical_key ran on a server request")

        monkeypatch.setattr(repro.api.cache, "canonical_key", refuse)
        monkeypatch.setattr(repro.cograph.flat, "canonical_key", refuse)
        big = cotree_to_text(random_cotree(100, seed=3))    # > batch_small
        p4 = [[0, 1], [1, 2], [2, 3]]
        singles = [solve_body(), solve_body(), solve_body(big),
                   solve_body(p4, task="max_clique"),
                   solve_body(p4, task="recognition"),
                   solve_body([1, 0, 1], task="lower_bound")]
        batch = json.dumps([SMALL, big, {"problem": p4,
                                         "task": "max_clique"}]).encode()

        async def scenario(app):
            responses = [await app.dispatch("POST", "/v1/solve", body)
                         for body in singles]
            responses.append(await app.dispatch(
                "POST", "/v1/solve", wire_buf(), self.OCTET))
            for _ in range(2):
                responses.append(await app.dispatch(
                    "POST", "/v1/solve_batch", batch))
                responses.append(await app.dispatch(
                    "POST", "/v1/solve_batch",
                    wire_frame(wire_buf()) + wire_frame(wire_buf(big)),
                    self.OCTET))
            return responses, app.cache.stats()

        responses, stats = run_app(scenario, batch_small=16)
        assert [r.status for r in responses] == [200] * 11
        for response in responses[-4:]:
            assert all(s["backend"] != "error"
                       for s in response.json()["solutions"])
        assert stats["hits"] == 1 + 5            # one single, five records


# --------------------------------------------------------------------------- #
# the wire: a real listening server
# --------------------------------------------------------------------------- #

def _post(port, path, payload, timeout=30):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("POST", path, json.dumps(payload),
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        body = response.read()
        return response.status, dict(response.getheaders()), body
    finally:
        conn.close()


def _get(port, path, timeout=30):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class TestWire:
    """Socket-level lifecycle.  Blocking clients always run on their own
    thread pool — never on the event loop's default executor."""

    def test_lifecycle_boot_concurrent_solve_validate_drain(self):
        async def scenario():
            settings = Settings(port=0, jobs=1, log_level="ERROR")
            server = ReproServer(settings)
            async with server:
                port = server.port
                assert port and server.running
                loop = asyncio.get_running_loop()
                with ThreadPoolExecutor(8) as pool:
                    solves = [loop.run_in_executor(
                        pool, _post, port, "/v1/solve", {"problem": SMALL})
                        for _ in range(6)]
                    bad = loop.run_in_executor(
                        pool, _post, port, "/v1/solve", {"task": "nope"})
                    health = loop.run_in_executor(
                        pool, _get, port, "/healthz")
                    results = await asyncio.gather(*solves, bad, health)
                drained = await server.stop()
                return results, drained, server.running

        results, drained, running = asyncio.run(scenario())
        *solves, bad, health = results
        assert all(status == 200 for status, _, _ in solves)
        ids = {headers["X-Request-Id"] for _, headers, _ in solves}
        assert len(ids) == len(solves)          # fresh id per request
        bodies = [json.loads(body) for _, _, body in solves]
        assert all(b["num_paths"] == 2 for b in bodies)
        assert {b["provenance"]["request_id"] for b in bodies} == ids
        assert bad[0] == 400 and "unknown task" in bad[2].decode()
        assert health[0] == 200
        assert drained is True and running is False

    def test_saturation_returns_429_and_server_survives(self):
        body = {"problem": big_instance()}

        async def scenario():
            settings = Settings(port=0, jobs=1, queue_limit=2,
                                cache_size=0, log_level="ERROR")
            async with ReproServer(settings) as server:
                loop = asyncio.get_running_loop()
                with ThreadPoolExecutor(10) as pool:
                    futures = [loop.run_in_executor(
                        pool, _post, server.port, "/v1/solve", body)
                        for _ in range(10)]
                    results = await asyncio.gather(*futures)
                after = await asyncio.get_running_loop().run_in_executor(
                    None, _get, server.port, "/healthz")
                return results, after

        results, after = asyncio.run(scenario())
        counts = Counter(status for status, _, _ in results)
        assert counts[429] >= 1 and counts[200] >= 1
        assert set(counts) == {200, 429}        # never a 500
        rejected = next(r for r in results if r[0] == 429)
        assert rejected[1]["Retry-After"] == "1"
        assert after[0] == 200                  # still serving afterwards

    def test_oversized_body_is_413_and_garbage_request_400(self):
        async def scenario():
            settings = Settings(port=0, jobs=1, max_body_bytes=128,
                                log_level="ERROR")
            async with ReproServer(settings) as server:
                port = server.port
                loop = asyncio.get_running_loop()

                def oversized():
                    return _post(port, "/v1/solve",
                                 {"problem": "x" * 4096})

                def garbage():
                    with socket.create_connection(("127.0.0.1", port),
                                                  timeout=10) as sock:
                        sock.sendall(b"NONSENSE\r\n\r\n")
                        return sock.recv(4096)

                with ThreadPoolExecutor(2) as pool:
                    too_big = await loop.run_in_executor(pool, oversized)
                    raw = await loop.run_in_executor(pool, garbage)
                return too_big, raw

        too_big, raw = asyncio.run(scenario())
        assert too_big[0] == 413
        assert "max_body_bytes" in too_big[2].decode()
        assert raw.startswith(b"HTTP/1.1 400")
        assert b"Connection: close" in raw

    @pytest.mark.parametrize("drain_times_out", [False, True])
    def test_stop_with_an_idle_connection_logs_no_loop_exception(
            self, drain_times_out):
        # a keep-alive client that sent nothing, after a clean or a
        # timed-out drain: stop() must see its handler end, not leave it
        # for asyncio.run's teardown to cancel, which logs a
        # CancelledError from connection_made's callback
        errors = []

        async def timed_out(timeout):
            return False

        async def scenario():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: errors.append(context))
            server = ReproServer(Settings(port=0, jobs=1, log_level="ERROR"))
            if drain_times_out:
                server.app.drain = timed_out
            await server.start()
            _, writer = await asyncio.open_connection("127.0.0.1",
                                                      server.port)
            for _ in range(200):                # until the server accepts
                if server.app._connections:
                    break
                await asyncio.sleep(0.01)
            assert server.app._connections
            drained = await server.stop()
            writer.close()
            return drained

        assert asyncio.run(scenario()) is not drain_times_out
        assert errors == []

    def test_serve_subprocess_sigterm_drains_to_exit_0(self):
        env = dict(os.environ, PYTHONPATH="src", REPRO_LOG_FORMAT="json")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "1"],
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env, stderr=subprocess.PIPE, text=True)
        try:
            port = None
            deadline = time.time() + 30
            while time.time() < deadline:       # the boot log names the port
                line = proc.stderr.readline()
                if not line:
                    time.sleep(0.05)
                    continue
                record = json.loads(line)
                if record.get("event") == "listening":
                    port = record["port"]
                    break
            assert port, "server never logged its port"
            status, body = _get(port, "/healthz")
            assert status == 200
            assert json.loads(body)["version"] == __version__
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0   # clean drain
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


# --------------------------------------------------------------------------- #
# the thread-safe SolutionCache (satellite: concurrency regression)
# --------------------------------------------------------------------------- #

class TestCacheConcurrency:
    def test_hammering_one_cache_from_many_threads_stays_consistent(self):
        cache = SolutionCache(maxsize=8)
        options = SolveOptions()
        texts = [cotree_to_text(random_cotree(12, seed=s))
                 for s in range(16)]
        keys = [cache.key_for(as_problem(t), "path_cover", options)
                for t in texts]
        solutions = [solve(t, "path_cover") for t in texts]
        errors = []
        barrier = threading.Barrier(8)

        def worker(which: int) -> None:
            try:
                barrier.wait()
                for round_no in range(200):
                    i = (which * 7 + round_no) % len(keys)
                    hit = cache.get(keys[i])
                    if hit is None:
                        cache.put(keys[i], solutions[i])
                    elif hit.answer != solutions[i].answer:
                        errors.append(f"wrong entry for key {i}")
                    if round_no % 50 == 0:
                        cache.stats()
                        len(cache)
            except Exception as exc:            # pragma: no cover
                errors.append(repr(exc))

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 8 * 200
        assert len(cache) <= 8                  # the bound held throughout


# --------------------------------------------------------------------------- #
# refused problems: a 400 or an in-slot record on every route
# --------------------------------------------------------------------------- #

P4 = [[0, 1], [1, 2], [2, 3]]

#: bodies that parse but whose solve refuses them, with a fragment of the
#: refusal
REFUSED = [
    ({"problem": SMALL, "task": "max_weight_clique",
      "options": {"weights": [1, 2]}}, "weights length 2"),
    ({"problem": SMALL, "task": "path_cover_size",
      "options": {"weights": [1, 2, 3]}}, "takes no vertex weights"),
    ({"problem": SMALL, "task": "lower_bound"}, "0/1 bit vector"),
    ({"problem": P4, "task": "chromatic_number"}, "not a cograph"),
    ({"problem": P4}, "not a cograph"),
    ({"problem": [[i, i + 1] for i in range(19)], "task": "max_clique"},
     "capped at 16"),
]


class TestRefusedProblems:
    @pytest.mark.parametrize("settings", [
        {"jobs": 1}, {"jobs": 2, "batch_small": 0}], ids=["jobs1", "pool"])
    def test_refused_solves_are_400s_that_spare_breaker_and_pool(
            self, settings):
        async def scenario(app):
            refused = [await app.dispatch("POST", "/v1/solve",
                                          json.dumps(body).encode())
                       for body, _ in REFUSED]
            breaker = app.breaker.snapshot()
            valid = await app.dispatch(
                "POST", "/v1/solve", solve_body(task="path_cover_size"))
            return refused, breaker, valid, app.pool.health()

        refused, breaker, valid, health = run_app(scenario, **settings)
        for response, (_, fragment) in zip(refused, REFUSED):
            assert response.status == 400, response.json()
            message = response.json()["error"]["message"]
            assert message.startswith("problem: ") and fragment in message
        assert breaker["state"] == "closed"
        assert breaker["consecutive_failures"] == 0
        assert valid.status == 200 and valid.json()["answer"] == 2
        assert (health["restarts"], health["retries"]) == (0, 0)

    @pytest.mark.parametrize("settings, route", [
        ({}, "forest"), ({"jobs": 2, "batch_small": 0}, "pool")],
        ids=["forest", "pool"])
    def test_batch_answers_around_its_refused_records(self, settings, route):
        records = [{"problem": "(0 * 1)", "task": "chromatic_number"},
                   {"problem": P4, "task": "chromatic_number"},
                   {"problem": "(0 + 1)", "task": "chromatic_number"},
                   {"problem": SMALL, "task": "path_cover_size",
                    "options": {"weights": [1, 2, 3]}}]

        async def scenario(app):
            r = await app.dispatch("POST", "/v1/solve_batch",
                                   json.dumps(records).encode())
            return r, app.breaker.snapshot()

        r, breaker = run_app(scenario, **settings)
        assert r.status == 200
        solutions = r.json()["solutions"]
        assert [s["provenance"]["batch_index"] for s in solutions] == \
            [0, 1, 2, 3]
        for i, fragment in ((1, "not a cograph"),
                            (3, "takes no vertex weights")):
            assert solutions[i]["backend"] == "error"
            assert solutions[i]["provenance"]["error_kind"] == "refused"
            assert fragment in solutions[i]["provenance"]["error"]
        assert [solutions[i]["answer"]["chromatic_number"]
                for i in (0, 2)] == [2, 1]
        assert [solutions[i]["provenance"]["route"] for i in (0, 2)] == \
            [route, route]
        assert breaker["consecutive_failures"] == 0

    def test_a_tree_the_pack_refuses_costs_only_its_own_slot(self):
        # leaf id 9 is out of range: only the packed validation sees it
        bad = {"type": "cotree", "kind": [1, 0, 0],
               "children": [[1, 2], [], []], "leaf_vertex": [-1, 0, 9],
               "root": 0}
        records = [{"problem": problem, "task": "path_cover",
                    "options": {"backend": "fast"}}
                   for problem in (bad, "(0 * 1)", "(0 + 1)")]

        async def scenario(app):
            r = await app.dispatch("POST", "/v1/solve_batch",
                                   json.dumps(records).encode())
            return r, app.cache.stats()

        r, stats = run_app(scenario, jobs=1)
        assert r.status == 200
        refused, *good = r.json()["solutions"]
        assert refused["backend"] == "error"
        assert refused["provenance"]["error_kind"] == "refused"
        assert "vertex id 9 is out of range" in refused["provenance"]["error"]
        assert [s["provenance"]["route"] for s in good] == \
            ["forest", "forest"]
        assert [s["num_paths"] for s in good] == [1, 2]
        assert stats["misses"] == 3
