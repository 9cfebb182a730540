"""Hosting helper: run a ``repro`` server on a background thread.

:class:`BackgroundServer` wraps :class:`~repro.server.server.ReproServer`
in a private event loop thread so synchronous code (tests, examples, small
embedders) can stand up a real served endpoint and connect to it with
``repro.connect(server.target)`` — the exact transport the parity suite
uses to prove the served backend agrees with the in-process ones.  The
loop thread belongs to the server it hosts: clients, served connections
included, run no event loop.  Production deployments still run
``repro serve`` as its own process.
"""

from __future__ import annotations

import asyncio
import threading

from repro.core.errors import ReproError
from repro.server.server import ReproServer, ServerLimits
from repro.server.service import StoreService
from repro.storage.history import VersionedStore

__all__ = ["BackgroundServer"]


class _EventLoopThread:
    """One private event loop running on a daemon thread."""

    def __init__(self, name: str) -> None:
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self.loop.run_forever, name=name, daemon=True
        )
        self._thread.start()

    def run(self, coro, timeout: float | None = None):
        """Run a coroutine on the loop, blocking the calling thread for at
        most ``timeout`` seconds."""
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout)

    def stop(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=5)
        self.loop.close()


class BackgroundServer:
    """One served endpoint over one service, on a daemon thread.

    ``source`` is a :class:`StoreService`, a :class:`VersionedStore`
    (wrapped), or a journal directory (opened as the journal's writer).
    Endpoint selection mirrors ``repro serve``: a unix-socket ``path`` or a
    TCP ``port`` (0 picks a free port).  ``limits`` are the transport's
    backpressure knobs (:class:`~repro.server.server.ServerLimits`).
    """

    def __init__(
        self,
        source,
        *,
        path: str | None = None,
        host: str = "127.0.0.1",
        port: int | None = None,
        limits: ServerLimits | None = None,
    ) -> None:
        if path is None and port is None:
            raise ReproError("BackgroundServer needs path=... or port=...")
        self.service = self._coerce_service(source)
        self._server = ReproServer(
            self.service, path=path, host=host,
            port=port if port is not None else 0, limits=limits,
        )
        self._loop = _EventLoopThread("repro-background-server")
        self._closed = False
        try:
            self._loop.run(self._server.start(), timeout=30)
        except Exception as error:  # bind failures surface to the caller
            self._loop.stop()
            raise ReproError(f"server failed to start: {error}") from error

    @staticmethod
    def _coerce_service(source) -> StoreService:
        if isinstance(source, StoreService):
            return source
        if isinstance(source, VersionedStore):
            return StoreService(source)
        return StoreService.open(source)

    @property
    def address(self) -> str:
        """Printable endpoint (``unix:…`` / ``tcp:host:port``)."""
        return self._server.address

    @property
    def target(self) -> str:
        """The :func:`repro.connect` target string for this endpoint."""
        return f"serve:{self.address}"

    @property
    def server(self) -> ReproServer:
        """The wrapped transport (shedding counters, limits)."""
        return self._server

    def shutdown(self, *, deadline: float | None = None) -> None:
        """Graceful stop: no new connections, in-flight work finishes,
        outboxes flush within ``deadline``, then the loop is released.
        Idempotent, and interchangeable with :meth:`close`."""
        if self._closed:
            return
        self._closed = True
        budget = deadline if deadline is not None else (
            self._server.limits.shutdown_deadline
        )
        try:
            self._loop.run(
                self._server.shutdown(deadline=deadline), timeout=budget + 10
            )
        finally:
            self._loop.stop()

    def close(self) -> None:
        """Stop serving and release the loop thread (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._loop.run(self._server.close(), timeout=10)
        finally:
            self._loop.stop()

    def __enter__(self) -> "BackgroundServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
