"""Server lifecycle: boot, run, drain, exit.

:class:`ReproServer` wraps one :class:`~repro.server.app.ServerApp` plus
its listening socket, with an explicit async lifecycle (``await start()``
/ ``await stop()``) that tests, benchmarks and embedders drive directly.
:func:`serve` is the blocking production entry point behind
``python -m repro serve``: it installs SIGTERM/SIGINT handlers and runs
the graceful-shutdown sequence —

1. stop accepting connections (close the listening socket);
2. refuse newly-arriving work on live keep-alive connections (503);
3. wait up to ``shutdown_timeout`` for in-flight requests to drain;
4. close lingering connections, shut the worker pool down, flush logs.

A second signal during the drain skips straight to the hard teardown.
"""

from __future__ import annotations

import asyncio
import signal
from typing import Optional

from .app import ServerApp
from .logging_config import configure_logging, flush_logging, get_logger
from .settings import Settings

__all__ = ["ReproServer", "serve"]


class ReproServer:
    """One listening server around a :class:`ServerApp`.

    >>> server = ReproServer(Settings(port=0, jobs=1))   # doctest: +SKIP
    >>> await server.start()                             # doctest: +SKIP
    >>> server.port                                      # doctest: +SKIP
    54321
    """

    def __init__(self, settings: Optional[Settings] = None, *,
                 app: Optional[ServerApp] = None) -> None:
        self.settings = settings if settings is not None else \
            Settings.from_env()
        self.app = app if app is not None else ServerApp(self.settings)
        self.log = get_logger()
        self._server: Optional[asyncio.base_events.Server] = None

    # ------------------------------------------------------------------ #

    @property
    def port(self) -> Optional[int]:
        """The bound port (resolves ``port=0``), or ``None`` before
        :meth:`start`."""
        if self._server is None or not self._server.sockets:
            return None
        return self._server.sockets[0].getsockname()[1]

    @property
    def running(self) -> bool:
        return self._server is not None

    async def start(self) -> "ReproServer":
        """Bind the socket and start serving; returns ``self``."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self.app.handle_connection,
            self.settings.host, self.settings.port)
        self.log.info("listening", extra={
            "event": "listening", "host": self.settings.host,
            "port": self.port, "jobs": self.app.pool.jobs,
            "queue_limit": self.settings.queue_limit})
        return self

    async def stop(self, *, drain_timeout: Optional[float] = None) -> bool:
        """Graceful shutdown; returns ``True`` when fully drained."""
        if self._server is None:
            return True
        timeout = drain_timeout if drain_timeout is not None \
            else self.settings.shutdown_timeout
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        self.app.begin_drain()
        drained = await self.app.drain(timeout)
        self.log.info("drained" if drained else "drain timed out", extra={
            "event": "shutdown", "drained": drained,
            "abandoned": self.app.admitted})
        # await every connection handler, so none is left for the loop's
        # teardown to cancel: an idle one reads the close as end of input;
        # one still solving gets the drain budget once more, then is
        # cancelled
        handlers = self.app.close_connections()
        if handlers:
            _, stuck = await asyncio.wait(handlers, timeout=timeout)
            for task in stuck:
                task.cancel()
            await asyncio.gather(*stuck, return_exceptions=True)
        self.app.close()
        flush_logging()
        return drained

    async def serve_until(self, stop_event: asyncio.Event) -> bool:
        """Start, run until ``stop_event`` fires, then stop gracefully."""
        await self.start()
        await stop_event.wait()
        return await self.stop()

    async def __aenter__(self) -> "ReproServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()


async def _serve_async(settings: Settings) -> int:
    server = ReproServer(settings)
    stop_event = asyncio.Event()
    loop = asyncio.get_running_loop()

    def _request_stop(signame: str) -> None:
        if stop_event.is_set():     # second signal: abandon the drain
            server.log.warning("forced shutdown", extra={
                "event": "shutdown", "signal": signame})
            for task in asyncio.all_tasks(loop):
                task.cancel()
            return
        server.log.info("shutdown requested", extra={
            "event": "shutdown", "signal": signame})
        stop_event.set()

    for signame in ("SIGTERM", "SIGINT"):
        try:
            loop.add_signal_handler(getattr(signal, signame),
                                    _request_stop, signame)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass                    # non-Unix event loops

    drained = await server.serve_until(stop_event)
    return 0 if drained else 1


def serve(settings: Optional[Settings] = None) -> int:
    """Blocking entry point: configure logging, run until SIGTERM/SIGINT.

    Returns the process exit code (0 = clean drain).
    """
    settings = settings if settings is not None else Settings.from_env()
    configure_logging(settings)
    try:
        return asyncio.run(_serve_async(settings))
    except (KeyboardInterrupt, asyncio.CancelledError):  # pragma: no cover
        return 1
