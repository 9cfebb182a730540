"""The asyncio wire client of the serving subsystem.

:class:`AsyncClient` speaks the JSON-lines protocol over a unix socket or
TCP: one background reader task routes responses to their awaiting callers
by ``id`` and queues pushes for :meth:`AsyncClient.next_push`.

Application code uses the connection facade —
``repro.connect("serve:/path/to.sock")`` — which drives this client from a
synchronous surface; the class itself is the building block for raw
protocol work (scripting, new transports).
"""

from __future__ import annotations

import asyncio
import itertools

from repro.server.errors import (
    ConflictError,
    ConnectionClosed,
    NotPrimaryError,
    ServerBusyError,
    ServerError,
    StaleEpochError,
)
from repro.server.protocol import LINE_LIMIT, decode, encode

__all__ = ["AsyncClient"]


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


#: Push-queue sentinel: the connection died; every ``next_push`` waiter
#: (present and future) gets a :class:`ConnectionClosed` instead of hanging.
_PUSHES_CLOSED = object()


class AsyncClient:
    """The asyncio wire client (see the module doc).

    >>> client = await AsyncClient.connect(path=socket_path)   # doctest: +SKIP
    >>> await client.call("query", body="E.sal -> S")          # doctest: +SKIP
    >>> push = await client.next_push(timeout=1.0)             # doctest: +SKIP
    """

    def __init__(self, reader, writer) -> None:
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)
        self._waiting: dict[int, asyncio.Future] = {}
        self._pushes: asyncio.Queue = asyncio.Queue()
        self._dead: str | None = None
        self._closed = False
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @property
    def alive(self) -> bool:
        """Whether the connection can still carry requests."""
        return self._dead is None and not self._closed

    @classmethod
    async def connect(
        cls,
        *,
        path: str | None = None,
        host: str = "127.0.0.1",
        port: int | None = None,
    ) -> "AsyncClient":
        if path is not None:
            reader, writer = await asyncio.open_unix_connection(
                path, limit=LINE_LIMIT
            )
        elif port is not None:
            reader, writer = await asyncio.open_connection(
                host, port, limit=LINE_LIMIT
            )
        else:
            raise ValueError("need a unix socket path or a TCP port")
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    self._dead = "connection closed by the server"
                    break
                if not line.strip():
                    continue
                message = decode(line)
                if "push" in message:
                    self._pushes.put_nowait(message)
                    continue
                future = self._waiting.pop(message.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(message)
        except asyncio.CancelledError:
            self._dead = "client closed"
        except Exception as error:
            # Any reader failure (reset peer, malformed frame, overlong
            # line) is terminal for the connection: record why, so later
            # request() calls fail fast instead of awaiting forever.
            self._dead = f"connection failed: {error}"
        finally:
            if self._dead is None:
                self._dead = "connection closed"
            for future in self._waiting.values():
                if not future.done():
                    future.set_exception(ConnectionClosed(self._dead))
            self._waiting.clear()
            # wake every pending (and future) next_push waiter: a stream
            # that will never produce again must say so, not hang
            self._pushes.put_nowait(_PUSHES_CLOSED)

    async def request(self, cmd: str, **payload) -> dict:
        """Send one command and await its raw response dict."""
        if self._dead is not None:
            raise ConnectionClosed(self._dead)
        request_id = next(self._ids)
        message = {"id": request_id, "cmd": cmd}
        message.update(
            {key: value for key, value in payload.items() if value is not None}
        )
        future = asyncio.get_event_loop().create_future()
        self._waiting[request_id] = future
        try:
            self._writer.write(encode(message))
            await self._writer.drain()
        except (ConnectionError, OSError) as error:
            stale = self._waiting.pop(request_id, None)
            if stale is not None and stale.done() and not stale.cancelled():
                stale.exception()  # read loop failed it first: observe it
            raise ConnectionClosed(f"connection failed: {error}") from None
        return await future

    async def call(self, cmd: str, **payload) -> dict:
        """Like :meth:`request` but raising the typed error on failure."""
        return _raise_for(await self.request(cmd, **payload))

    async def next_push(self, *, timeout: float | None = None) -> dict:
        """Await the next push message (subscription answer diff).

        Raises :class:`ConnectionClosed` — instead of waiting forever —
        once the connection has died or :meth:`close` was called.
        """
        if timeout is None:
            message = await self._pushes.get()
        else:
            message = await asyncio.wait_for(self._pushes.get(), timeout)
        if message is _PUSHES_CLOSED:
            # leave the sentinel in place so every other waiter wakes too
            self._pushes.put_nowait(_PUSHES_CLOSED)
            raise ConnectionClosed(self._dead or "client closed")
        return message

    def drain_pushes(self) -> list[dict]:
        """Already-received pushes, without waiting."""
        drained = []
        while not self._pushes.empty():
            message = self._pushes.get_nowait()
            if message is _PUSHES_CLOSED:
                self._pushes.put_nowait(_PUSHES_CLOSED)
                break
            drained.append(message)
        return drained

    async def close(self) -> None:
        """Tear down the connection: cancel *and await* the reader task,
        resolve pending ``next_push``/``request`` waiters with
        :class:`ConnectionClosed`, close the socket.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
