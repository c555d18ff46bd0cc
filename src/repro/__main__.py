"""Command-line front end over :func:`repro.api.solve`.

::

    python -m repro solve "(0 + (1 * 2))"
    python -m repro solve instance.json --task hamiltonian_cycle --json
    python -m repro solve "(0 * (1 * 2))" --backend fast --validate
    python -m repro solve --stream --jobs 4 < instances.jsonl
    python -m repro serve --port 8080 --jobs 4
    python -m repro tasks
    python -m repro --version

The INPUT argument accepts everything :func:`repro.api.as_problem` does from
a string: compact cotree text (``(0 + (1 * 2))``) or a path to a JSON file
written by :func:`repro.io.save_json`.

With ``--stream`` no INPUT is given: instances are read from stdin as JSON
Lines — one problem per line (a quoted cotree-text string, a serialised
cotree/graph object, an edge list, an adjacency dict; bare cotree text lines
are accepted too) — and one solution is written per line, in input order,
as they complete.  ``--jobs`` fans the stream out over worker processes
with bounded in-flight instances (``--window``), and ``--cache`` answers
repeated identical instances from an LRU cache.

``--stream --format binary`` switches the *input* side to the zero-copy
wire format (:mod:`repro.io.wire`): stdin carries u32 length-prefixed
frames, each a ``to_bytes`` buffer, and ingestion memory-views instead of
parsing JSON.  Solutions still stream out as text/JSONL.
"""

from __future__ import annotations

import argparse
import json
import sys

from ._version import __version__
from .api import (
    METHOD_NAMES,
    SolutionCache,
    SolveOptions,
    as_problem,
    solve,
    solve_stream,
    task_names,
)
from .api.registry import TASKS
from .backends import BACKEND_NAMES
from .io import render_cover


def _version_line() -> str:
    """Shared by ``--version`` and the ``version`` subcommand (the server's
    ``/healthz`` reports the same facts)."""
    return f"repro {__version__} (backends: {', '.join(BACKEND_NAMES)})"


def _task_help_lines() -> str:
    """The task list of ``--help``, derived from the registry — a newly
    registered task appears here (and in the ``--task`` choices) with no
    CLI change."""
    width = max(len(name) for name in task_names())
    return "\n".join(f"  {name:<{width}s}  {TASKS[name].summary}"
                     for name in task_names())


def _takes_bits(task: str) -> bool:
    """Does ``task`` read its input as a 0/1 bit vector?  (From the
    registry's ``input_kind``, not a hard-coded task list.)"""
    spec = TASKS.get(task)
    return spec is not None and spec.input_kind == "bits"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Minimum path cover on cographs (Nakano-Olariu-Zomaya) "
                    "— one front door over every task.")
    parser.add_argument("--version", action="version",
                        version=_version_line(),
                        help="print version and live backends, then exit")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "solve", help="solve one instance (or a stream)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="registered tasks:\n" + _task_help_lines())
    run.add_argument("input", nargs="?", default=None,
                     help="cotree text like '(0 + (1 * 2))' or a JSON file "
                          "path (cotree or graph); for bit-vector tasks "
                          "(e.g. lower_bound), a 0/1 bit string like '101' "
                          "or '1,0,1'; omit with --stream")
    run.add_argument("--task", default="path_cover", choices=task_names(),
                     metavar="TASK",
                     help="what to compute (default: path_cover); one of "
                          + ", ".join(task_names()))
    run.add_argument("--method", default="parallel", choices=METHOD_NAMES,
                     help="algorithm family (default: parallel)")
    run.add_argument("--backend", default=None,
                     choices=tuple(BACKEND_NAMES),
                     help="execution backend for the parallel method")
    run.add_argument("--num-processors", type=int, default=None,
                     help="PRAM processor count (backend=pram only)")
    run.add_argument("--validate", action="store_true",
                     help="check the cover against the adjacency oracle")
    run.add_argument("--weights", default=None, metavar="W0,W1,...",
                     help="per-vertex non-negative integer weights for the "
                          "weighted tasks (comma- or space-separated, one "
                          "per vertex)")
    run.add_argument("--json", action="store_true",
                     help="print the full Solution as JSON (JSONL with "
                          "--stream)")
    run.add_argument("--stream", action="store_true",
                     help="read one problem per line (JSON Lines) from "
                          "stdin and stream solutions out in input order")
    run.add_argument("--format", default="jsonl",
                     choices=("jsonl", "binary"),
                     help="for --stream: input framing — 'jsonl' (default) "
                          "or 'binary' (u32 length-prefixed repro.io.wire "
                          "frames, decoded zero-copy)")
    run.add_argument("--jobs", type=int, default=None, metavar="N",
                     help="worker processes for --stream (0 = one per CPU; "
                          "default: in-process)")
    run.add_argument("--window", type=int, default=None, metavar="W",
                     help="max instances in flight for --stream "
                          "(backpressure; default: 4 * jobs * chunksize)")
    run.add_argument("--chunksize", type=int, default=1, metavar="C",
                     help="instances per worker task for --stream "
                          "(default: 1)")
    run.add_argument("--cache", type=int, default=None, metavar="SIZE",
                     help="answer repeated identical instances from an "
                          "LRU cache of SIZE entries")
    run.add_argument("--batch-small", type=int, default=None, metavar="N",
                     help="for --stream: sweep instances of at most N "
                          "vertices in vectorized forest batches instead "
                          "of the worker pool")
    run.add_argument("--on-error", default="fail", choices=("fail", "emit"),
                     help="for --stream: on a malformed input line or an "
                          "instance whose worker retries are exhausted, "
                          "'fail' (default) stops with an error after the "
                          "valid prefix; 'emit' writes a structured "
                          '{"error": ...} record in that slot and continues')
    run.add_argument("--retries", type=int, default=None, metavar="N",
                     help="for --stream: per-instance re-runs after a "
                          "worker crash or MemoryError before the instance "
                          "is quarantined (default: 3)")
    run.add_argument("--retry-backoff", type=float, default=None,
                     metavar="SECONDS",
                     help="for --stream: base of the capped exponential "
                          "backoff between crash retries (default: 0.05)")
    run.add_argument("--deadline", type=float, default=None,
                     metavar="SECONDS",
                     help="for --stream: per-instance wall-clock budget; "
                          "an instance past it degrades to a structured "
                          "deadline error instead of stalling the stream")

    server = sub.add_parser(
        "serve", help="run the HTTP/JSON service (repro.server)",
        description="Serve every registered task over HTTP/1.1 + JSON.  "
                    "Defaults come from REPRO_* environment variables "
                    "(REPRO_PORT, REPRO_QUEUE_LIMIT, ...); flags win.")
    server.add_argument("--host", default=None,
                        help="listen address (default 127.0.0.1)")
    server.add_argument("--port", type=int, default=None,
                        help="listen port (default 8080; 0 = OS-assigned)")
    server.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="solver worker processes (0 = one per CPU; "
                             "1 = in-process)")
    server.add_argument("--queue-limit", type=int, default=None, metavar="N",
                        help="max admitted-but-unanswered requests; past "
                             "it new requests get 429")
    server.add_argument("--cache-size", type=int, default=None, metavar="N",
                        help="solution-cache entries (0 disables)")
    server.add_argument("--batch-small", type=int, default=None, metavar="N",
                        help="forest-sweep threshold for /v1/solve_batch "
                             "(0 disables)")
    server.add_argument("--request-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-request solve budget before a 504")
    server.add_argument("--retries", type=int, default=None, metavar="N",
                        help="re-runs of a request whose worker process "
                             "died before answering a structured 500 "
                             "(default 2)")
    server.add_argument("--retry-backoff", type=float, default=None,
                        metavar="SECONDS",
                        help="base backoff between worker-crash retries "
                             "(default 0.05)")
    server.add_argument("--breaker-threshold", type=int, default=None,
                        metavar="N",
                        help="consecutive solve failures that open the "
                             "circuit breaker (503 + Retry-After); "
                             "0 disables (default 5)")
    server.add_argument("--breaker-cooldown", type=float, default=None,
                        metavar="SECONDS",
                        help="seconds an open breaker waits before a "
                             "half-open probe (default 5)")
    server.add_argument("--log-format", default=None,
                        choices=("kv", "json"),
                        help="structured log shape (default kv)")
    server.add_argument("--log-level", default=None,
                        help="DEBUG/INFO/WARNING/ERROR (default INFO)")

    sub.add_parser("tasks", help="list the registered tasks")
    sub.add_parser("version", help="print the package version")
    return parser


def _cmd_tasks() -> int:
    """One line per task: name, input kind, exactly-solved graph classes
    (``-`` for bit-vector tasks), weight support and the summary — all
    read off the registry."""
    names = task_names()
    width = max(len(name) for name in names)
    kinds = {name: TASKS[name].input_kind for name in names}
    kwidth = max(len(k) for k in kinds.values())
    classes = {name: ",".join(TASKS[name].graph_classes) or "-"
               for name in names}
    cwidth = max(len(c) for c in classes.values())
    for name in names:
        spec = TASKS[name]
        weighted = "weights" if spec.uses_weights else "       "
        print(f"  {name:<{width}s}  {kinds[name]:<{kwidth}s}  "
              f"{classes[name]:<{cwidth}s}  {weighted}  {spec.summary}")
    return 0


def _parse_bits(text: str, task: str):
    """``"101"`` / ``"1,0,1"`` / ``"1 0 1"`` -> a bit-vector problem."""
    digits = text.replace(",", "").replace(" ", "")
    if not digits or set(digits) - {"0", "1"}:
        raise ValueError(
            f"the {task} task takes a 0/1 bit string "
            f"(e.g. '101' or '1,0,1'), got {text!r}")
    return [int(c) for c in digits]


def _iter_jsonl(lines, task: str, on_error: str = "fail",
                pending_errors=None):
    """Lazily turn stdin lines into problems (blank lines skipped).

    With ``on_error="fail"`` (the historical behaviour) a malformed line
    raises and kills the stream after the valid prefix.  With ``"emit"``
    each line is adapted eagerly so a bad one is caught *here*: a record
    ``{"error": ..., "line": N}`` is parked in ``pending_errors`` under
    the index of the next good problem (so the consumer can interleave it
    at the right position in the output) and the stream continues.
    """
    bits_task = _takes_bits(task)
    good = 0
    for line_no, raw in enumerate(lines, 1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            # bare cotree text like (0 + (1 * 2)) is accepted unquoted
            value = raw
        try:
            if bits_task and isinstance(value, (str, int)):
                # "101" JSON-parses to the integer 101; both spellings are
                # bit strings here
                value = _parse_bits(str(value), task)
            if on_error == "emit":
                # adapt now so a hopeless line surfaces per line, not as
                # a worker crash deep inside the stream engine
                value = as_problem(value, task=task)
        except (ValueError, TypeError) as exc:
            if on_error != "emit":
                raise
            pending_errors.setdefault(good, []).append(
                {"error": str(exc), "line": line_no})
            continue
        yield value
        good += 1


def _iter_wire_frames(stream, task: str, on_error: str = "fail",
                      pending_errors=None):
    """Lazily decode u32 length-prefixed wire frames from a binary stream.

    The ``--format binary`` counterpart of :func:`_iter_jsonl`: with
    ``on_error="emit"`` a frame that fails wire validation parks a record
    ``{"error": ..., "frame": N}`` and the stream continues; a *truncated*
    stream always fails — once the framing is lost there is no next frame
    to resynchronise on.
    """
    from .io.wire import read_frames
    good = 0
    for frame_no, payload in enumerate(read_frames(stream), 1):
        if on_error == "emit":
            try:
                value = as_problem(payload, task=task)
            except (ValueError, TypeError) as exc:
                pending_errors.setdefault(good, []).append(
                    {"error": str(exc), "frame": frame_no})
                continue
        else:
            # workers adapt the raw bytes themselves (zero-copy per worker)
            value = payload
        yield value
        good += 1


def _print_solution(solution, as_json: bool) -> None:
    if as_json:
        print(json.dumps(solution.to_json_dict()))
    else:
        print(solution.summary())


def _parse_weights(text):
    """``"3,1,4"`` / ``"3 1 4"`` -> a weight tuple for SolveOptions."""
    if text is None:
        return None
    parts = text.replace(",", " ").split()
    if not parts:
        raise ValueError("--weights needs at least one integer")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"--weights must be comma- or space-separated "
                         f"integers, got {text!r}") from None


def _cmd_solve(args: argparse.Namespace) -> int:
    cache = SolutionCache(args.cache) if args.cache is not None else None
    options = SolveOptions(method=args.method, backend=args.backend,
                           num_processors=args.num_processors,
                           validate=args.validate, cache=cache,
                           batch_small=args.batch_small,
                           weights=_parse_weights(args.weights))
    if args.stream:
        if args.input is not None:
            raise ValueError("--stream reads problems from stdin; drop the "
                             "INPUT argument")
        retry = None
        if args.retries is not None or args.retry_backoff is not None \
                or args.deadline is not None:
            from .core import RetryPolicy
            defaults = RetryPolicy()
            retry = RetryPolicy(
                max_retries=args.retries if args.retries is not None
                else defaults.max_retries,
                base_delay=args.retry_backoff
                if args.retry_backoff is not None else defaults.base_delay,
                deadline=args.deadline)
        pending_errors = {}
        if args.format == "binary":
            instances = _iter_wire_frames(sys.stdin.buffer, args.task,
                                          args.on_error, pending_errors)
        else:
            instances = _iter_jsonl(sys.stdin, args.task, args.on_error,
                                    pending_errors)
        stream = solve_stream(
            instances,
            args.task, options=options, jobs=args.jobs,
            window=args.window, chunksize=args.chunksize,
            retry=retry, on_error=args.on_error)
        count = skipped = failed = 0

        def flush_errors(records) -> None:
            nonlocal skipped
            for record in records:
                print(json.dumps(record))
                skipped += 1

        for solution in stream:
            # error records for malformed lines between this solution and
            # the previous one go out first, keeping input order
            flush_errors(pending_errors.pop(
                solution.provenance["batch_index"], ()))
            if solution.backend == "error":
                # a quarantined instance (worker crash / deadline /
                # corruption survived every retry): same record shape as
                # the malformed-line errors, in the instance's slot
                print(json.dumps({
                    "error": solution.provenance.get("error"),
                    "error_kind": solution.provenance.get("error_kind"),
                    "attempts": solution.provenance.get("attempts"),
                    "batch_index": solution.provenance.get("batch_index")}))
                failed += 1
                continue
            _print_solution(solution, args.json)
            count += 1
        for index in sorted(pending_errors):    # trailing malformed lines
            flush_errors(pending_errors.pop(index))
        if cache is not None:
            print(f"cache: {cache.stats()}", file=sys.stderr)
        tail = f", skipped {skipped} malformed line(s)" if skipped else ""
        if failed:
            tail += f", quarantined {failed} instance(s)"
        print(f"solved {count} instance(s){tail}", file=sys.stderr)
        return 0
    if args.input is None:
        raise ValueError("INPUT is required unless --stream is given")
    if args.jobs is not None or args.window is not None \
            or args.chunksize != 1 or args.cache is not None \
            or args.batch_small is not None or args.on_error != "fail" \
            or args.retries is not None or args.retry_backoff is not None \
            or args.deadline is not None or args.format != "jsonl":
        raise ValueError("--jobs/--window/--chunksize/--cache/--batch-small"
                         "/--on-error/--retries/--retry-backoff/--deadline"
                         "/--format only apply to --stream")
    problem = (_parse_bits(args.input, args.task) if _takes_bits(args.task)
               else args.input)
    solution = solve(problem, args.task, options=options)
    if args.json:
        json.dump(solution.to_json_dict(), sys.stdout, indent=2)
        print()
        return 0
    print(solution.summary())
    if solution.cover is not None:
        print(render_cover(solution.cover))
    elif isinstance(solution.answer, list):
        print(" - ".join(map(str, solution.answer)))
    elif isinstance(solution.answer, dict):
        for key, value in solution.answer.items():
            print(f"  {key}: {value}")
    if solution.report is not None:
        print(solution.report)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # imported lazily: the solve/tasks commands stay free of the server
    # stack, and `repro.server` never loads unless it is asked for
    from .server import Settings, serve
    settings = Settings.from_env(
        host=args.host, port=args.port, jobs=args.jobs,
        queue_limit=args.queue_limit, cache_size=args.cache_size,
        batch_small=args.batch_small, request_timeout=args.request_timeout,
        retries=args.retries, retry_backoff=args.retry_backoff,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        log_format=args.log_format, log_level=args.log_level)
    return serve(settings)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "tasks":
        return _cmd_tasks()
    if args.command == "version":
        print(_version_line())
        return 0
    try:
        if args.command == "serve":
            return _cmd_serve(args)
        return _cmd_solve(args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
