"""Request/response schemas: one validated value per endpoint.

The wire format of ``POST /v1/solve`` mirrors one ``solve --stream`` JSONL
record, lifted into an object so a request can carry its own task and
options::

    {"problem": "(0 + (1 * 2))", "task": "path_cover",
     "options": {"backend": "fast"}}

``problem`` accepts everything :func:`repro.api.as_problem` does over JSON
— cotree text, a serialised cotree/graph object, an edge list, an
adjacency dict, a 0/1 bit vector for bit-input tasks — with one deliberate
exception: **file paths are refused**.  A network peer must never make the
server read its local filesystem.

``POST /v1/solve_batch`` takes either a JSON array of such records or::

    {"problems": [...], "task": "max_clique", "options": {...}}

where ``task``/``options`` are defaults for records that do not carry
their own, and each entry of ``problems`` may be a full record or a bare
problem value.

Both endpoints also negotiate the zero-copy binary wire format: a body
sent with ``Content-Type: application/octet-stream`` is one
:mod:`repro.io.wire` buffer (``/v1/solve``) or a stream of
length-prefixed wire frames (``/v1/solve_batch``), with ``task`` and a
JSON-encoded ``options`` object carried in the query string since a
binary body has nowhere to put them.  Wire bytes are decoded entirely
in memory — they never touch the server's filesystem, preserving the
no-file-paths stance above.

Validation failures never raise bare exceptions at the caller: they
collect into a :class:`SchemaError` holding *field-level* records
(``[{"field": "options.backend", "error": "..."}]``) that the app layer
returns as a structured ``400`` body.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs

from ..api import SolveOptions, as_problem, task_names
from ..api.adapters import Problem

__all__ = ["SchemaError", "SolveRequest", "parse_solve_request",
           "parse_batch_request", "parse_wire_solve_request",
           "parse_wire_batch_request"]

#: options fields a request may set.  ``cache`` (a live object) and
#: ``batch_small`` (routing policy) belong to the *server's* settings, not
#: to a request — accepting them per-request would let one caller disable
#: or bloat shared infrastructure.
_FORBIDDEN_OPTIONS = ("cache", "batch_small")


class SchemaError(ValueError):
    """A request failed validation; ``errors`` lists field-level records."""

    def __init__(self, errors: List[Dict[str, str]]) -> None:
        self.errors = list(errors)
        super().__init__("; ".join(
            f"{e['field']}: {e['error']}" for e in self.errors)
            or "invalid request")

    @classmethod
    def single(cls, field_name: str, message: str) -> "SchemaError":
        return cls([{"field": field_name, "error": message}])


@dataclass
class SolveRequest:
    """One validated solve request, ready for dispatch.

    ``problem`` is already adapted (so schema errors surface as 400s, not
    as worker crashes) and ``options`` is already a validated
    :class:`~repro.api.SolveOptions` with no cache attached — the server
    owns the shared cache.
    """

    problem: Problem
    task: str = "path_cover"
    options: SolveOptions = field(default_factory=SolveOptions)


def _parse_options(data: Any, field_name: str) -> SolveOptions:
    if not isinstance(data, dict):
        raise SchemaError.single(
            field_name, f"must be an object of SolveOptions fields, "
                        f"got {type(data).__name__}")
    errors = []
    for name in _FORBIDDEN_OPTIONS:
        if name in data:
            errors.append({"field": f"{field_name}.{name}",
                           "error": "a request cannot set this; it is "
                                    "server configuration"})
    if errors:
        raise SchemaError(errors)
    try:
        return SolveOptions.from_dict(data)
    except (ValueError, TypeError) as exc:
        raise SchemaError.single(field_name, str(exc)) from None


def _parse_problem(value: Any, task: str, field_name: str) -> Problem:
    if isinstance(value, str) and os.path.exists(value):
        raise SchemaError.single(
            field_name, "file paths are not accepted over the network; "
                        "send the instance inline (cotree text, a "
                        "serialised object, an edge list, ...)")
    try:
        return as_problem(value, task=task)
    except (ValueError, TypeError) as exc:
        raise SchemaError.single(field_name, str(exc)) from None


def _parse_task(value: Any, field_name: str) -> str:
    if not isinstance(value, str) or value not in task_names():
        raise SchemaError.single(
            field_name, f"unknown task {value!r}; one of "
                        f"{', '.join(task_names())}")
    return value


def parse_solve_request(data: Any, *, prefix: str = "",
                        default_task: Optional[str] = None,
                        default_options: Optional[SolveOptions] = None,
                        ) -> SolveRequest:
    """Validate one ``/v1/solve`` body (or one batch record).

    Raises :class:`SchemaError` carrying every field-level problem found
    (missing ``problem``, unknown ``task``, bad ``options`` fields,
    unadaptable instance, unknown top-level keys).
    """
    dot = prefix + "." if prefix else ""
    if not isinstance(data, dict):
        # a bare value is taken as the problem itself (the JSONL shape)
        data = {"problem": data}
    unknown = set(data) - {"problem", "task", "options"}
    if unknown:
        raise SchemaError([
            {"field": dot + name, "error": "unknown field"}
            for name in sorted(unknown)])
    errors: List[Dict[str, str]] = []
    task = default_task or "path_cover"
    if "task" in data:
        try:
            task = _parse_task(data["task"], dot + "task")
        except SchemaError as exc:
            errors.extend(exc.errors)
    options = default_options if default_options is not None \
        else SolveOptions()
    if "options" in data:
        try:
            options = _parse_options(data["options"], dot + "options")
        except SchemaError as exc:
            errors.extend(exc.errors)
    problem: Optional[Problem] = None
    if "problem" not in data:
        errors.append({"field": dot + "problem", "error": "is required"})
    elif not errors:
        try:
            problem = _parse_problem(data["problem"], task, dot + "problem")
        except SchemaError as exc:
            errors.extend(exc.errors)
    if errors:
        raise SchemaError(errors)
    return SolveRequest(problem=problem, task=task, options=options)


def parse_batch_request(data: Any, *, max_batch: int) -> List[SolveRequest]:
    """Validate one ``/v1/solve_batch`` body into a list of requests.

    Accepts a JSON array of records, or an object with ``problems`` plus
    optional ``task``/``options`` defaults.  Every record's errors are
    collected (indexed like ``problems[3].options.backend``) before
    anything is solved, so a bad batch is rejected whole.
    """
    default_task: Optional[str] = None
    default_options: Optional[SolveOptions] = None
    errors: List[Dict[str, str]] = []
    if isinstance(data, dict):
        unknown = set(data) - {"problems", "task", "options"}
        if unknown:
            raise SchemaError([
                {"field": name, "error": "unknown field"}
                for name in sorted(unknown)])
        if "problems" not in data:
            raise SchemaError.single("problems", "is required")
        if "task" in data:
            try:
                default_task = _parse_task(data["task"], "task")
            except SchemaError as exc:
                errors.extend(exc.errors)
        if "options" in data:
            try:
                default_options = _parse_options(data["options"], "options")
            except SchemaError as exc:
                errors.extend(exc.errors)
        records = data["problems"]
    else:
        records = data
    if not isinstance(records, list):
        raise SchemaError(errors + [
            {"field": "problems",
             "error": f"must be a list of records, "
                      f"got {type(records).__name__}"}])
    if len(records) > max_batch:
        raise SchemaError(errors + [
            {"field": "problems",
             "error": f"too many records ({len(records)} > "
                      f"max_batch={max_batch})"}])
    if not records:
        raise SchemaError(errors + [
            {"field": "problems", "error": "must not be empty"}])
    requests: List[SolveRequest] = []
    for i, record in enumerate(records):
        try:
            requests.append(parse_solve_request(
                record, prefix=f"problems[{i}]",
                default_task=default_task,
                default_options=default_options))
        except SchemaError as exc:
            errors.extend(exc.errors)
    if errors:
        raise SchemaError(errors)
    return requests


# --------------------------------------------------------------------------- #
# binary wire bodies (Content-Type: application/octet-stream)
# --------------------------------------------------------------------------- #

def _parse_query_defaults(query: str) -> Tuple[str, SolveOptions]:
    """``task``/``options`` from the query string of a binary request."""
    errors: List[Dict[str, str]] = []
    params: Dict[str, str] = {}
    for name, values in parse_qs(query, keep_blank_values=True).items():
        if name not in ("task", "options"):
            errors.append({"field": f"?{name}",
                           "error": "unknown query parameter; binary "
                                    "requests accept ?task= and ?options="})
        else:
            params[name] = values[-1]
    task = "path_cover"
    if "task" in params:
        try:
            task = _parse_task(params["task"], "?task")
        except SchemaError as exc:
            errors.extend(exc.errors)
    options = SolveOptions()
    if "options" in params:
        try:
            data = json.loads(params["options"])
        except (json.JSONDecodeError, RecursionError) as exc:
            reason = "JSON nesting too deep" \
                if isinstance(exc, RecursionError) else exc
            errors.append({"field": "?options",
                           "error": f"must be a JSON object of SolveOptions "
                                    f"fields: {reason}"})
        else:
            try:
                options = _parse_options(data, "?options")
            except SchemaError as exc:
                errors.extend(exc.errors)
    if errors:
        raise SchemaError(errors)
    return task, options


def _wire_problem(payload: bytes, task: str, field_name: str) -> Problem:
    """Adapt one wire buffer; forests are a batch shape, not a solve."""
    problem = _parse_problem(payload, task, field_name)
    from ..cograph.forest import FlatForest
    if isinstance(problem.tree, FlatForest):
        raise SchemaError.single(
            field_name, "a forest wire container holds many instances; "
                        "send it to /v1/solve_batch as framed trees, or "
                        "one tree per request here")
    return problem


def parse_wire_solve_request(body: bytes, query: str = "") -> SolveRequest:
    """Validate one binary ``/v1/solve`` body (a single wire buffer).

    ``task``/``options`` ride in the query string (``?task=...&options=
    <json>``) since an octet-stream body has no envelope.  The buffer is
    decoded entirely in memory; it is never written to disk.
    """
    task, options = _parse_query_defaults(query)
    if not body:
        raise SchemaError.single(
            "body", "request body is required (a repro wire buffer; see "
                    "repro.io.wire.to_bytes)")
    problem = _wire_problem(body, task, "body")
    return SolveRequest(problem=problem, task=task, options=options)


def parse_wire_batch_request(body: bytes, query: str = "", *,
                             max_batch: int) -> List[SolveRequest]:
    """Validate one binary ``/v1/solve_batch`` body.

    The body is a stream of length-prefixed wire frames (the exact bytes
    ``solve --stream --format binary`` reads), one instance per frame,
    sharing the query-string ``task``/``options`` defaults.
    """
    task, options = _parse_query_defaults(query)
    if not body:
        raise SchemaError.single(
            "body", "request body is required (length-prefixed repro wire "
                    "frames; see repro.io.wire.frame)")
    from ..io.wire import read_frames
    try:
        payloads = list(read_frames(io.BytesIO(body)))
    except ValueError as exc:
        raise SchemaError.single("body", str(exc)) from None
    if not payloads:
        raise SchemaError.single("body", "must contain at least one frame")
    if len(payloads) > max_batch:
        raise SchemaError.single(
            "body", f"too many frames ({len(payloads)} > "
                    f"max_batch={max_batch})")
    errors: List[Dict[str, str]] = []
    requests: List[SolveRequest] = []
    for i, payload in enumerate(payloads):
        try:
            requests.append(SolveRequest(
                problem=_wire_problem(payload, task, f"frames[{i}]"),
                task=task, options=options))
        except SchemaError as exc:
            errors.extend(exc.errors)
    if errors:
        raise SchemaError(errors)
    return requests
