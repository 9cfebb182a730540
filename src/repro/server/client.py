"""The blocking wire client of the serving subsystem.

:class:`LineClient` speaks the JSON-lines protocol over one unix-socket or
TCP link.  Until the link carries a subscription the *caller* reads: a
call writes its line, then reads lines until its own ``id``, handing any
push it meets to ``on_push``.  After the first successful ``subscribe``
one reader thread reads every line for the rest of the link's life,
handing pushes on and answers to their waiting calls — the only thread a
link ever starts.  :class:`~repro.api.wire.WireConnection` (what
``repro.connect("serve:…")`` returns) and the replication follower are
built on it.
"""

from __future__ import annotations

import itertools
import math
import queue
import select
import socket
import threading
import time

from repro.core.errors import ReproError
from repro.server.errors import (
    ConflictError,
    ConnectionClosed,
    NotPrimaryError,
    ServerBusyError,
    ServerError,
    StaleEpochError,
)
from repro.server.protocol import LINE_LIMIT, decode, encode

__all__ = ["LineClient"]

#: Bytes asked of the socket per ``recv``.
_CHUNK = 1 << 16

#: Queue sentinel: the link died.  Every push wait (present and future)
#: and every waiting call gets a :class:`ConnectionClosed` instead.
_CLOSED = object()


def _raise_for(response: dict) -> dict:
    """Turn an ``ok: false`` response back into the typed exception."""
    if response.get("ok"):
        return response
    message = response.get("error", "server error")
    if response.get("conflict"):
        raise ConflictError(
            message,
            pinned=response.get("pinned", -1),
            conflicting_index=response.get("conflicting_index", -1),
            conflicting_tag=response.get("conflicting_tag", ""),
        )
    if response.get("stale_epoch"):
        raise StaleEpochError(
            message,
            current_epoch=response.get("current_epoch", 0),
            required_epoch=response.get("required_epoch", 0),
        )
    if response.get("not_primary"):
        raise NotPrimaryError(message)
    if response.get("retryable"):
        # non-conflict but typed-retryable: the server shed load
        raise ServerBusyError(message)
    raise ServerError(message)


class NotSent(ConnectionClosed):
    """The link was found dead before the request was written: nothing
    reached the server, so any command may wait out a reconnect."""


class CallTimeout(ServerError):
    """No answer in time.  The link stays up; the late answer is dropped
    by its ``id``.  Not a :class:`ConnectionClosed`: a link that fails
    fast is never confused with one that hangs."""

    retryable = True


def _timed_out(timeout: float) -> CallTimeout:
    return CallTimeout(f"server did not answer within {timeout:g}s")


def _left(deadline: float | None) -> float | None:
    """Seconds until ``deadline`` (never negative), ``None`` for none."""
    return None if deadline is None else max(0.0, deadline - time.monotonic())


class LineClient:
    """One blocking JSON-lines link (see the module doc).

    ``on_push(message)`` receives every push, on whichever thread read it
    (by default pushes queue up for :meth:`next_push`); ``on_dead(client)``
    runs on the reader thread when a link with a reader dies.

    >>> client = LineClient.connect(path=socket_path)              # doctest: +SKIP
    >>> client.call("query", {"body": "E.sal -> S"}, timeout=5.0)  # doctest: +SKIP
    >>> push = client.next_push(timeout=1.0)                       # doctest: +SKIP
    """

    def __init__(self, sock: socket.socket, *, on_push=None, on_dead=None) -> None:
        sock.settimeout(None)  # a read with a deadline polls first
        self._sock = sock
        self._poller = select.poll()
        self._poller.register(sock, select.POLLIN)
        #: Received bytes not yet split into lines; the first ``_scanned``
        #: are known to hold no newline.
        self._buffer = bytearray()
        self._scanned = 0
        #: One exchange at a time: a caller holds it to write and, until
        #: a reader exists, to read its answer.
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._waiting: dict[int, queue.SimpleQueue] = {}
        self._pushes: queue.Queue = queue.Queue()
        self.on_push = on_push or self._pushes.put
        self.on_dead = on_dead
        self._reader: threading.Thread | None = None
        self._dead: str | None = None
        self._closed = False

    @classmethod
    def connect(
        cls, *, path: str | None = None, host: str = "127.0.0.1",
        port: int | None = None, timeout: float | None = None, **hooks,
    ) -> "LineClient":
        """Dial a unix socket ``path`` or a TCP ``host``/``port`` within
        ``timeout`` seconds; :class:`OSError` when nobody answers."""
        if path is None:
            sock = socket.create_connection((host, port), timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return cls(sock, **hooks)
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(timeout)
            sock.connect(path)
        except BaseException:
            sock.close()
            raise
        return cls(sock, **hooks)

    @property
    def alive(self) -> bool:
        """Whether the link can still carry requests; an idle link is
        checked for an EOF that already arrived."""
        if self._lock.acquire(blocking=False):
            try:
                self._take_arrived()
            except NotSent:
                pass
            finally:
                self._lock.release()
        return self._dead is None

    # -- requests ----------------------------------------------------------
    def request(
        self, cmd: str, payload: dict | None = None, *,
        timeout: float | None = None,
    ) -> dict:
        """Send one command and return its raw response dict.

        ``timeout`` bounds the wait for the link and for the answer; past
        it :class:`CallTimeout` is raised.  A link found dead before the
        write raises :class:`NotSent`, one that dies after it (or that
        takes no bytes until the deadline) :class:`ConnectionClosed`."""
        message = {"id": 0, "cmd": cmd}
        message.update(
            (key, value) for key, value in (payload or {}).items()
            if value is not None
        )
        deadline = None if timeout is None else time.monotonic() + timeout
        if not self._lock.acquire(timeout=-1 if timeout is None else _left(deadline)):
            raise _timed_out(timeout)
        try:
            self._take_arrived()
            request_id = message["id"] = next(self._ids)
            answer = self._waiting[request_id] = queue.SimpleQueue()
            try:
                self._send(encode(message), deadline)
                if self._reader is None:
                    self._pump(lambda: not answer.empty(), deadline, timeout)
                    response = answer.get_nowait()
                    if cmd == "subscribe" and response.get("ok"):
                        self._reader = threading.Thread(
                            target=self._read_forever,
                            name="repro-link-reader", daemon=True,
                        )
                        self._reader.start()
                    return response
            except BaseException:  # a dead link, or no answer in time
                self._waiting.pop(request_id, None)
                raise
        finally:
            self._lock.release()
        try:
            response = answer.get(timeout=_left(deadline))
        except queue.Empty:
            self._waiting.pop(request_id, None)
            raise _timed_out(timeout) from None
        if response is _CLOSED:
            raise ConnectionClosed(self._dead)
        return response

    def call(
        self, cmd: str, payload: dict | None = None, *,
        timeout: float | None = None,
    ) -> dict:
        """Like :meth:`request` but raising the typed error on failure."""
        return _raise_for(self.request(cmd, payload, timeout=timeout))

    def next_push(self, *, timeout: float | None = None) -> dict:
        """The next push; without a reader, the caller reads the link for
        it.  :class:`ConnectionClosed` once the link is dead or closed,
        :class:`CallTimeout` after ``timeout`` seconds."""
        deadline = None if timeout is None else time.monotonic() + timeout
        if self._reader is None and self._lock.acquire(
            timeout=-1 if timeout is None else _left(deadline)
        ):
            try:
                self._pump(
                    lambda: not self._pushes.empty(), deadline, timeout
                )
            finally:
                self._lock.release()
        try:
            message = self._pushes.get(timeout=_left(deadline))
        except queue.Empty:
            raise _timed_out(timeout) from None
        if message is _CLOSED:
            self._pushes.put(_CLOSED)  # so every other waiter wakes too
            raise ConnectionClosed(self._dead)
        return message

    # -- the byte stream ---------------------------------------------------
    def _pump(self, done, deadline, timeout) -> None:
        """Read lines until ``done()``: pushes go to ``on_push``, answers
        to the call waiting on their id (an abandoned call's is dropped)."""
        while not done():
            message = self._read_message(deadline, timeout)
            if "push" in message:
                self.on_push(message)
            elif (answer := self._waiting.pop(message.get("id"), None)) is not None:
                answer.put(message)

    def _read_message(self, deadline, timeout) -> dict:
        """The next line, decoded; only newly received bytes are scanned
        for its end, so a megabyte answer costs one pass."""
        while (end := self._buffer.find(b"\n", self._scanned)) < 0:
            if len(self._buffer) > LINE_LIMIT:
                self._die(f"connection failed: a line exceeds {LINE_LIMIT} bytes")
            self._scanned = len(self._buffer)
            self._receive(deadline, timeout)
        line = bytes(self._buffer[:end])
        del self._buffer[:end + 1]
        self._scanned = 0
        if not line.strip():
            return self._read_message(deadline, timeout)
        try:
            return decode(line)
        except ReproError as error:
            self._die(f"connection failed: {error}")
            raise ConnectionClosed(self._dead) from None

    def _receive(self, deadline, timeout) -> None:
        """Append the bytes that arrive next, waiting until ``deadline``
        at most; a timeout leaves a partial line buffered."""
        if self._dead is not None:
            raise ConnectionClosed(self._dead)
        if deadline is not None:
            wait_ms = math.ceil((deadline - time.monotonic()) * 1000)
            if wait_ms <= 0 or not self._poller.poll(wait_ms):
                raise _timed_out(timeout)
        try:
            chunk = self._sock.recv(_CHUNK)
        except OSError as error:
            self._die(f"connection failed: {error}")
            chunk = b""
        if not chunk:
            self._die("connection closed by the server")
            raise ConnectionClosed(self._dead)
        self._buffer += chunk

    def _take_arrived(self) -> None:
        """Before a write: buffer the bytes that already arrived, without
        blocking, and raise :class:`NotSent` if they end the link."""
        try:
            while (
                self._reader is None and self._dead is None
                and self._poller.poll(0)
            ):
                self._receive(None, None)
        except ConnectionClosed:
            pass
        if self._dead is not None:
            raise NotSent(self._dead)

    def _send(self, data: bytes, deadline) -> None:
        """Write ``data`` whole, waiting for room until ``deadline`` at
        most; a line cut short cannot be resumed, so past it the link
        dies."""
        view = memoryview(data)
        try:
            while view:
                try:
                    view = view[self._sock.send(view, socket.MSG_DONTWAIT):]
                except BlockingIOError:
                    room = select.poll()
                    room.register(self._sock, select.POLLOUT)
                    left = _left(deadline)
                    if not room.poll(None if left is None else math.ceil(left * 1000)):
                        raise OSError("the server took no bytes in time") from None
        except OSError as error:
            self._die(f"connection failed: {error}")
            raise ConnectionClosed(self._dead) from None

    def _read_forever(self) -> None:
        """The reader thread, once the link carries a subscription."""
        try:
            self._pump(lambda: False, None, None)
        except Exception as error:  # the link, or a push handler, failed
            self._die(f"connection failed: {error}")
        with self._lock:  # a call registering from now on sees it dead
            waiting, self._waiting = self._waiting, {}
        for answer in waiting.values():
            answer.put(_CLOSED)
        if self.on_dead is not None and not self._closed:
            self.on_dead(self)

    # -- teardown ----------------------------------------------------------
    def _die(self, reason: str) -> None:
        """Record why the link ended (the first reason wins)."""
        if self._dead is None:
            self._dead = reason
            self._pushes.put(_CLOSED)

    def close(self) -> None:
        """Wake every blocked call and push wait with
        :class:`ConnectionClosed` — a read blocked on the link, on any
        thread, wakes with EOF — join the reader (unless called from it)
        and close the socket.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._die("client closed")
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        if self._reader not in (None, threading.current_thread()):
            self._reader.join(timeout=5)
        with self._lock:
            self._sock.close()
