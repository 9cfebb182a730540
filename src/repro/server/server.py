"""The asyncio transport: JSON-lines over a unix socket or TCP.

``ReproServer`` accepts connections, runs each through the shared
:class:`~repro.server.protocol.Dispatcher`, and pushes subscription answer
diffs as they happen.  Each connection gets one outbox drained by a
dedicated writer task, so responses and pushes — which can be produced from
*another* connection's commit — interleave without two writers racing on
one stream.

The event loop is single-threaded, so command handling (including engine
evaluation inside a commit) runs to completion between awaits: the service
sees the same serialized access the FIFO writer queue enforces for
threaded embedders.  A commit therefore briefly blocks other connections —
the right trade at this scale, and the seam a later PR can move to a
worker pool.

**Load shedding.**  Outboxes are bounded (:class:`ServerLimits`).  When a
subscriber reads slower than the store commits and its queue crosses the
soft limit, the queued answer diffs for that subscription are *shed* and
replaced by one ``lagged`` marker; at delivery time the marker
materializes into a single coalesced push carrying the missed-revision
range and the subscription's full current answer set — bounded memory per
connection no matter how far behind the reader falls.  A connection that
overruns the hard cap anyway (a reader that stopped draining entirely) is
told why (``{"push": "closed", "retryable": true}``) and disconnected.

**Graceful shutdown.**  :meth:`ReproServer.shutdown` stops accepting,
lets in-flight commands finish (single-threaded loop: they already have),
sends every connection a ``shutdown`` push, flushes outboxes within a
deadline, then closes the sockets.  The journal needs no special
treatment — every acknowledged commit was appended synchronously inside
its writer-queue critical section.

Usage::

    service = StoreService.open("journal-dir")
    server = await ReproServer(service, path="/tmp/repro.sock").start()
    await server.serve_forever()

or, from the CLI, ``repro serve --dir journal-dir --socket /tmp/repro.sock``.
"""

from __future__ import annotations

import asyncio
import os
import stat as stat_module
import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.obs import metrics as _obs
from repro.obs import slowlog as _slowlog
from repro.server.protocol import LINE_LIMIT, ClientState, Dispatcher, decode, encode
from repro.server.service import StoreService

__all__ = ["ReproServer", "ServerLimits"]


@dataclass(frozen=True)
class ServerLimits:
    """Backpressure knobs for one :class:`ReproServer`.

    ``outbox_soft`` — queued messages per connection above which
    subscription diffs are shed into a coalesced ``lagged`` resync;
    ``outbox_hard`` — absolute per-connection queue cap: crossing it
    disconnects the client with a typed, retryable error;
    ``shutdown_deadline`` — seconds :meth:`ReproServer.shutdown` waits for
    outboxes to flush before cutting the remaining connections.
    """

    outbox_soft: int = 64
    outbox_hard: int = 1024
    shutdown_deadline: float = 5.0


class _Lagged:
    """Outbox marker: subscription ``sid`` fell behind; materialize a
    coalesced resync at delivery time."""

    __slots__ = ("sid", "from_revision")

    def __init__(self, sid: str, from_revision: int) -> None:
        self.sid = sid
        self.from_revision = from_revision


class _Kill:
    """Outbox marker: deliver one final typed error, then disconnect."""

    __slots__ = ("frame",)

    def __init__(self, reason: str) -> None:
        self.frame = {"push": "closed", "error": reason, "retryable": True}


#: Outbox sentinel: the connection is closing; drain returns after seeing it.
_CLOSE = object()

#: Commands whose service method records its own, richer slowlog entry:
#: a commit's (``StoreService._commit_programs``) or a read's
#: (``StoreService.query``).  Every other command is logged here.
_SELF_LOGGED = frozenset(("apply", "tx-commit", "query"))


class Outbox:
    """One connection's bounded, thread-safe outgoing queue.

    Producers are the dispatcher (responses, on the loop) and the
    subscription manager (pushes — possibly from a foreign thread when the
    service is shared with in-process writers), so puts take a real lock
    and wake the drain task via ``call_soon_threadsafe``.  Shedding policy
    lives here (see the module doc); delivery order is preserved for
    everything that is not shed.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, limits: ServerLimits):
        self._loop = loop
        self._limits = limits
        self._items: deque = deque()
        self._lock = threading.Lock()
        self._event = asyncio.Event()
        self._lagging: dict[str, int] = {}  # sid -> first shed revision
        self.closing = False
        self.kill_reason: str | None = None
        self.shed = 0  # diffs dropped in favour of a coalesced resync

    def put(self, message) -> None:
        with self._lock:
            if self.closing or self.kill_reason is not None:
                return
            if isinstance(message, dict) and message.get("push") == "diff":
                sid = message.get("sid")
                if sid in self._lagging:
                    # already lagging: the pending resync covers this diff
                    self.shed += 1
                    return
                if len(self._items) >= self._limits.outbox_soft:
                    self._shed_sid(sid, message)
                    self._wake()
                    return
            self._items.append(message)
            if len(self._items) > self._limits.outbox_hard:
                self.kill_reason = (
                    f"connection outbox overflowed the hard cap "
                    f"({self._limits.outbox_hard} messages queued and the "
                    f"peer is not reading); disconnecting"
                )
                self._items.append(_Kill(self.kill_reason))
            self._wake()

    def _shed_sid(self, sid: str, message: dict) -> None:
        """Replace every queued diff for ``sid`` (plus this one) with one
        lagged marker remembering the earliest shed revision."""
        first = message.get("revision")
        kept: deque = deque()
        for item in self._items:
            if (
                isinstance(item, dict)
                and item.get("push") == "diff"
                and item.get("sid") == sid
            ):
                first = min(first, item.get("revision", first))
                self.shed += 1
            else:
                kept.append(item)
        self.shed += 1  # the diff that tripped the limit is shed too
        self._items = kept
        self._lagging[sid] = first
        self._items.append(_Lagged(sid, first))

    def clear_lag(self, sid: str) -> int | None:
        """Forget the lag flag for ``sid`` (called under the subscription
        manager's lock while its resync snapshot is taken)."""
        with self._lock:
            return self._lagging.pop(sid, None)

    def close(self) -> None:
        """Stop accepting messages; the drain task finishes the backlog
        and returns.  Idempotent."""
        with self._lock:
            if self.closing:
                return
            self.closing = True
            self._items.append(_CLOSE)
            self._wake()

    def _wake(self) -> None:
        self._loop.call_soon_threadsafe(self._event.set)

    async def get(self):
        while True:
            with self._lock:
                if self._items:
                    return self._items.popleft()
                self._event.clear()
            await self._event.wait()

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)


class _Connection:
    """Bookkeeping for one live connection (registry entry)."""

    __slots__ = ("outbox", "writer", "drain_task")

    def __init__(self, outbox: Outbox, writer, drain_task) -> None:
        self.outbox = outbox
        self.writer = writer
        self.drain_task = drain_task


class ReproServer:
    """One listening endpoint over one :class:`StoreService`."""

    def __init__(
        self,
        service: StoreService,
        *,
        path: str | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        limits: ServerLimits | None = None,
    ) -> None:
        if path is None and port is None:
            raise ValueError("need a unix socket path or a TCP port")
        self.service = service
        self.dispatcher = Dispatcher(service)
        self.path = path
        self.host = host
        self.port = port
        self.limits = limits or ServerLimits()
        self.connections = 0
        self.lagged_resyncs = 0
        self.overload_disconnects = 0
        self._server: asyncio.AbstractServer | None = None
        self._live: set[_Connection] = set()
        self._handler_tasks: set[asyncio.Task] = set()
        self._draining = False

    async def start(self) -> "ReproServer":
        if self.path is not None:
            _remove_stale_socket(self.path)
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.path, limit=LINE_LIMIT
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection,
                host=self.host,
                port=self.port,
                limit=LINE_LIMIT,
            )
            self.port = self._server.sockets[0].getsockname()[1]
        return self

    @property
    def address(self) -> str:
        """Printable endpoint (the CLI banner)."""
        if self.path is not None:
            return f"unix:{self.path}"
        return f"tcp:{self.host}:{self.port}"

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def shutdown(self, *, deadline: float | None = None) -> None:
        """Graceful stop: no new connections, in-flight commands finish,
        outboxes flush within ``deadline``, sockets close, journal clean.

        Safe to call more than once; ``close()`` afterwards is a no-op.
        """
        if deadline is None:
            deadline = self.limits.shutdown_deadline
        self._draining = True
        await self._stop_listening()
        # In-flight commits: the loop is single-threaded, so every handler
        # that had started has already produced its response into an
        # outbox; threaded embedders serialize on the service's FIFO
        # writer queue, which each commit exits with the journal appended.
        live = list(self._live)
        for connection in live:
            connection.outbox.put(
                {"push": "shutdown", "reason": "server shutting down"}
            )
            connection.outbox.close()
        if live:
            _done, pending = await asyncio.wait(
                [connection.drain_task for connection in live],
                timeout=deadline,
            )
            for task in pending:  # flush deadline blown: cut them off
                task.cancel()
        for connection in live:
            _close_writer(connection.writer)
        await self._reap_handlers()

    async def close(self) -> None:
        """Abrupt stop (tests, embedders): closes the listener and cuts
        every live connection without the shutdown pleasantries."""
        self._draining = True
        await self._stop_listening()
        for connection in list(self._live):
            connection.outbox.close()
            _close_writer(connection.writer)
        await self._reap_handlers()

    async def _stop_listening(self) -> None:
        """Stop accepting, let every connection already accepted reach its
        handler (so the caller can cut it), then close the listener.

        The order matters.  asyncio wraps an accepted socket into a
        transport over the next loop iterations and attaches it to the
        *open* server; closing the server first makes that attach fail, and
        the socket is dropped unclosed — its client never sees EOF and,
        without a call timeout, waits forever.  So the listener is only
        unregistered first (connections still queued in the kernel are
        reset when it closes), the in-flight accepts get the three
        iterations they need — transport, ``connection_made``, first
        handler step — to register in ``_live``, and then the server
        closes."""
        if self._server is None:
            return
        loop = asyncio.get_running_loop()
        for sock in self._server.sockets:
            loop.remove_reader(sock.fileno())
        for _ in range(3):
            await asyncio.sleep(0)
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    async def _reap_handlers(self) -> None:
        """Wait for every handler to finish its teardown (which closes the
        socket), so by the time a stop returns no client is left attached
        to a dead server.  Stragglers past the grace period are cancelled."""
        if not self._handler_tasks:
            return
        _done, pending = await asyncio.wait(
            list(self._handler_tasks), timeout=2.0
        )
        for task in pending:
            task.cancel()

    async def _handle_connection(self, reader, writer) -> None:
        self.connections += 1
        loop = asyncio.get_running_loop()
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
            task.add_done_callback(self._handler_tasks.discard)
        outbox = Outbox(loop, self.limits)
        state = ClientState(outbox.put)
        drain_task = asyncio.ensure_future(self._drain(outbox, writer))
        connection = _Connection(outbox, writer, drain_task)
        self._live.add(connection)
        try:
            while not self._draining:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    request = decode(line)
                except Exception as error:  # malformed frame: answer, keep going
                    outbox.put({"id": None, "ok": False, "error": str(error)})
                    continue
                start = time.perf_counter()
                response = self.dispatcher.handle(request, state)
                elapsed = time.perf_counter() - start
                cmd = str(request.get("cmd", "?"))
                _obs.observe("server_command_seconds", elapsed, cmd=cmd)
                if cmd not in _SELF_LOGGED:
                    _slowlog.maybe_record("command", elapsed, detail=cmd)
                if _obs.metrics_enabled():
                    registry = _obs.registry()
                    registry.set_gauge("server_outbox_depth", len(outbox))
                    registry.set_gauge("server_connections", len(self._live))
                    registry.set_gauge(
                        "server_outbox_shed",
                        sum(c.outbox.shed for c in self._live),
                    )
                    registry.set_gauge(
                        "server_lagged_resyncs", self.lagged_resyncs
                    )
                    registry.set_gauge(
                        "server_overload_disconnects",
                        self.overload_disconnects,
                    )
                outbox.put(response)
                if outbox.kill_reason is not None:
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            self._live.discard(connection)
            self.dispatcher.close(state)
            outbox.close()  # flush everything queued, then stop
            try:
                await drain_task
            except asyncio.CancelledError:
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            except asyncio.CancelledError:
                # The loop is shutting down mid-teardown (server.close or
                # asyncio.run finalization); the transport is closed.
                pass

    def _materialize_lagged(self, marker: _Lagged, outbox: Outbox) -> dict | None:
        """Build the coalesced resync push for a shed subscription.

        Runs at delivery time, so the push carries the subscription's
        *current* answers — everything the shed diffs would have built up
        to.  The outbox lag flag is cleared inside the manager lock (see
        :meth:`SubscriptionManager.resync`), so diffs enqueued after this
        snapshot compose cleanly on top of it.
        """
        snapshot = self.service.subscriptions.resync(
            marker.sid, acknowledge=outbox.clear_lag
        )
        if snapshot is None:  # unsubscribed while lagging: nothing to say
            return None
        self.lagged_resyncs += 1
        return {
            "push": "lagged",
            "sid": snapshot["sid"],
            "query": snapshot["query"],
            "from_revision": marker.from_revision,
            "to_revision": snapshot["revision"],
            "revision": snapshot["revision"],
            "answers": snapshot["answers"],
        }

    async def _drain(self, outbox: Outbox, writer) -> None:
        """The connection's single writer: frames every queued message in
        order, returns on the close sentinel or a dead peer."""
        while True:
            message = await outbox.get()
            if message is _CLOSE:
                return
            if isinstance(message, _Lagged):
                message = self._materialize_lagged(message, outbox)
                if message is None:
                    continue
            kill = isinstance(message, _Kill)
            frame = message.frame if kill else message
            try:
                writer.write(encode(frame))
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                return
            if kill:
                self.overload_disconnects += 1
                _close_writer(writer)
                return


def _close_writer(writer) -> None:
    if not writer.is_closing():
        writer.close()


def _remove_stale_socket(path: str) -> None:
    """Unlink a leftover unix socket so a restarted server can rebind.

    A killed process leaves its socket file behind and the next bind fails
    with ``EADDRINUSE`` — exactly the crash-restart path the reconnecting
    clients depend on.  Only socket files are removed; a regular file at
    the path is someone else's and keeps its bind error.
    """
    try:
        if stat_module.S_ISSOCK(os.stat(path).st_mode):
            os.unlink(path)
    except OSError:
        pass
