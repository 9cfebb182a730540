"""Deterministic fault injection for the journal filesystem and the wire.

The crash-recovery property suite needs to kill the process *between any
two bytes* of a journal write and then ask: does the store reload to
exactly the acknowledged prefix?  Real crashes are not schedulable, so
this module fakes them deterministically:

* :class:`FaultyFilesystem` wraps the storage layer's single I/O seam
  (:func:`repro.storage.serialize.swap_filesystem`).  A list of
  :class:`FaultSpec` rules decides, per operation and call count, whether
  to write nothing, a torn prefix, a duplicated or garbled record, raise
  ``ENOSPC``, or complete the write and *then* die — each "death" is an
  :class:`InjectedCrash`, which test code treats as the moment the
  process vanished.
* :class:`ChaosProxy` sits between a wire client and a live server and
  misbehaves on demand: drop every connection mid-request, stall the
  server→client direction (a reader that stops draining), or emit a
  half-written frame and hang up.

Both are deterministic: the same spec list against the same workload
produces the same byte-level outcome, so every crash point in a journal's
life can be enumerated and asserted in CI.
"""

from __future__ import annotations

import asyncio
import errno
import fnmatch
import os
from dataclasses import dataclass
from pathlib import Path

from repro.core.errors import ReproError
from repro.storage import serialize as _serialize

__all__ = [
    "InjectedFault",
    "InjectedCrash",
    "FaultSpec",
    "FaultyFilesystem",
    "inject_faults",
    "ChaosProxy",
]


class InjectedFault(ReproError):
    """Base class of everything the harness throws on purpose."""


class InjectedCrash(InjectedFault):
    """Simulated process death at a filesystem boundary.

    Raised *instead of returning* from an I/O call: whatever bytes the
    spec allowed are on disk, nothing after them is, and — crucially — the
    caller never gets to acknowledge the commit.
    """


_ACTIONS = (
    "crash_before",  # die before touching the file
    "crash_after",   # complete the write durably, then die (ack never sent)
    "torn",          # write the first keep_bytes bytes, then die
    "duplicate",     # write the payload twice (a crash-blind retry), then die
    "corrupt",       # write a garbled payload of the same length, then die
    "enospc",        # the disk is full: fail with OSError(ENOSPC), no crash
)


@dataclass
class FaultSpec:
    """One injection rule: fire ``action`` on the ``at``-th call of ``op``
    whose file name matches ``path_glob``.

    ``op`` is one of the filesystem seam's operations: ``"append"``
    (journal line append), ``"write"`` (atomic whole-file write: snapshots,
    save/compaction, tail repair), ``"replace"`` (the rename half of an
    atomic write), ``"unlink"`` (stale-snapshot cleanup, a follower's
    journal discard).  ``keep_bytes`` only applies to ``torn``.
    """

    op: str
    action: str = "crash_before"
    at: int = 0
    keep_bytes: int = 0
    path_glob: str = "*"

    def __post_init__(self):
        if self.action not in _ACTIONS:
            raise ReproError(
                f"unknown fault action {self.action!r}; "
                f"expected one of {', '.join(_ACTIONS)}"
            )
        if self.op not in ("append", "write", "replace", "unlink"):
            raise ReproError(f"unknown fault op {self.op!r}")


def _garble(text: str) -> str:
    """Same length, same newline structure, definitely not the same CRC."""
    body, newline, rest = text.partition("\n")
    return "#" * len(body) + newline + rest


class FaultyFilesystem(_serialize._Filesystem):
    """The storage seam double: counts calls, fires matching specs.

    ``ops`` records every call as ``(op, file_name)`` so tests can assert
    on the exact I/O sequence; ``fired`` collects the specs that went off.
    """

    def __init__(self, specs: list[FaultSpec]):
        self.specs = list(specs)
        self.ops: list[tuple[str, str]] = []
        self.fired: list[FaultSpec] = []
        self._counts: dict[str, int] = {}

    def _arm(self, op: str, path: Path) -> FaultSpec | None:
        self.ops.append((op, path.name))
        spec_hit = None
        for spec in self.specs:
            if spec in self.fired or spec.op != op:
                continue
            if not fnmatch.fnmatch(path.name, spec.path_glob):
                continue
            key = f"{id(spec)}"
            seen = self._counts.get(key, 0)
            self._counts[key] = seen + 1
            if seen == spec.at and spec_hit is None:
                spec_hit = spec
        if spec_hit is not None:
            self.fired.append(spec_hit)
        return spec_hit

    def _raw_append(self, path: Path, text: str, fsync: bool) -> None:
        super().append_text(path, text, fsync=fsync)

    def append_text(self, path, text, *, fsync=False):
        spec = self._arm("append", path)
        if spec is None:
            return self._raw_append(path, text, fsync)
        if spec.action == "crash_before":
            raise InjectedCrash(f"crash before append to {path.name}")
        if spec.action == "enospc":
            raise OSError(errno.ENOSPC, f"no space left on device (injected): {path}")
        if spec.action == "torn":
            self._raw_append(path, text[: spec.keep_bytes], fsync)
            raise InjectedCrash(
                f"crash after {spec.keep_bytes} bytes of append to {path.name}"
            )
        if spec.action == "duplicate":
            self._raw_append(path, text + text, fsync)
            raise InjectedCrash(f"crash after duplicated append to {path.name}")
        if spec.action == "corrupt":
            self._raw_append(path, _garble(text), fsync)
            raise InjectedCrash(f"crash after corrupted append to {path.name}")
        self._raw_append(path, text, True)
        raise InjectedCrash(f"crash after durable append to {path.name}")

    def write_text(self, path, text, *, fsync=False):
        spec = self._arm("write", path)
        if spec is None:
            return super().write_text(path, text, fsync=fsync)
        if spec.action == "crash_before":
            raise InjectedCrash(f"crash before write of {path.name}")
        if spec.action == "enospc":
            raise OSError(errno.ENOSPC, f"no space left on device (injected): {path}")
        if spec.action == "torn":
            # die while filling the temp file: the durable name is untouched
            temp = path.with_name(path.name + ".tmp")
            temp.write_text(text[: spec.keep_bytes], encoding="utf-8")
            raise InjectedCrash(
                f"crash after {spec.keep_bytes} bytes of temp write for {path.name}"
            )
        if spec.action == "corrupt":
            super().write_text(path, _garble(text), fsync=fsync)
            raise InjectedCrash(f"crash after corrupted write of {path.name}")
        if spec.action == "duplicate":
            super().write_text(path, text + text, fsync=fsync)
            raise InjectedCrash(f"crash after duplicated write of {path.name}")
        super().write_text(path, text, fsync=True)
        raise InjectedCrash(f"crash after durable write of {path.name}")

    def replace(self, source, target, *, fsync=False):
        spec = self._arm("replace", target)
        if spec is None:
            return super().replace(source, target, fsync=fsync)
        if spec.action == "crash_before":
            raise InjectedCrash(f"crash before rename onto {target.name}")
        super().replace(source, target, fsync=True)
        raise InjectedCrash(f"crash after rename onto {target.name}")

    def unlink(self, path):
        spec = self._arm("unlink", path)
        if spec is None:
            return super().unlink(path)
        if spec.action == "crash_before":
            raise InjectedCrash(f"crash before unlink of {path.name}")
        super().unlink(path)
        raise InjectedCrash(f"crash after unlink of {path.name}")


class inject_faults:
    """Context manager installing a :class:`FaultyFilesystem` over the
    journal I/O seam::

        with inject_faults(FaultSpec("append", "torn", keep_bytes=7)) as fs:
            with pytest.raises(SessionError):  # the crash, as a commit sees it
                service.apply(program)
        # the seam is restored even if the block raises
    """

    def __init__(self, *specs: FaultSpec):
        self.filesystem = FaultyFilesystem(list(specs))
        self._previous = None

    def __enter__(self) -> FaultyFilesystem:
        self._previous = _serialize.swap_filesystem(self.filesystem)
        return self.filesystem

    def __exit__(self, *exc_info):
        _serialize.swap_filesystem(self._previous)
        return False


class ChaosProxy:
    """A misbehaving man-in-the-middle for the JSON-lines wire protocol.

    Listens on ``listen_path`` and forwards byte streams to the real
    server at ``target_path`` until told to misbehave:

    * :meth:`drop_connections` — close every active link abruptly
      (connection drop mid-request / mid-subscription);
    * :meth:`stall` — stop forwarding server→client bytes while still
      accepting client→server traffic (a subscriber that stops reading);
    * :meth:`break_with_half_frame` — write a syntactically torn frame to
      each client and hang up (half-written frame on the wire).

    All methods are coroutine-safe on the proxy's event loop.
    """

    def __init__(self, target_path: str, listen_path: str):
        self.target_path = str(target_path)
        self.listen_path = str(listen_path)
        self._server: asyncio.AbstractServer | None = None
        self._links: set[tuple[asyncio.StreamWriter, asyncio.StreamWriter]] = set()
        self._flowing = asyncio.Event()
        self._flowing.set()
        self.connections_seen = 0

    async def start(self) -> "ChaosProxy":
        self._server = await asyncio.start_unix_server(
            self._handle, path=self.listen_path
        )
        return self

    async def _handle(self, client_reader, client_writer):
        try:
            server_reader, server_writer = await asyncio.open_unix_connection(
                self.target_path
            )
        except OSError:
            client_writer.close()
            return
        self.connections_seen += 1
        link = (client_writer, server_writer)
        self._links.add(link)

        async def pump(reader, writer, gated: bool):
            try:
                while True:
                    data = await reader.read(65536)
                    if not data:
                        break
                    if gated:
                        await self._flowing.wait()
                    writer.write(data)
                    await writer.drain()
            except (ConnectionError, asyncio.CancelledError):
                pass
            finally:
                if not writer.is_closing():
                    writer.close()

        await asyncio.gather(
            pump(client_reader, server_writer, gated=False),
            pump(server_reader, client_writer, gated=True),
        )
        self._links.discard(link)

    def stall(self, stalled: bool) -> None:
        """Freeze (or thaw) the server→client direction of every link."""
        if stalled:
            self._flowing.clear()
        else:
            self._flowing.set()

    async def drop_connections(self) -> int:
        """Abruptly close every active link; returns how many were cut."""
        cut = 0
        for client_writer, server_writer in list(self._links):
            for writer in (client_writer, server_writer):
                if not writer.is_closing():
                    writer.close()
            cut += 1
        await asyncio.sleep(0)
        return cut

    async def break_with_half_frame(self) -> int:
        """Send each client a torn frame (no trailing newline), then cut."""
        cut = 0
        for client_writer, server_writer in list(self._links):
            try:
                client_writer.write(b'{"push": "diff", "sid": "torn-')
                await client_writer.drain()
            except ConnectionError:
                pass
            client_writer.close()
            server_writer.close()
            cut += 1
        return cut

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.drop_connections()
        if os.path.exists(self.listen_path):
            os.unlink(self.listen_path)
