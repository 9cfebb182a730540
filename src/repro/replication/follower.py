"""The replica process: bootstrap, tail, heartbeat, promote.

A :class:`Follower` owns a journal directory and keeps it a
**byte-identical prefix** of a primary's:

* **Bootstrap** (``repl-sync``): fetch every durable journal line past the
  local journal's end — the primary's raw bytes, snapshot files inline —
  validate each (CRC, chain order, epoch monotonicity), append verbatim,
  and replay it through :func:`~repro.storage.serialize.apply_journal_record`.
  A local journal that exists is *continued*: torn-tail recovery
  (``load_store(repair=True)``) runs first, and the sync starts at the
  first missing index — a follower SIGKILLed mid-bootstrap resumes
  without re-downloading the snapshot.
* **Tail** (``repl-stream``): live ``repl-line`` pushes take the same
  validate → append → replay path, so local subscriptions fire exactly as
  if the commit were local.  A dropped link redials with backoff and
  resyncs from the journal's own end — the stream is always resumable
  because its cursor *is* the journal.
* **Heartbeats**: periodic pings on a side channel; after
  ``heartbeat_misses`` consecutive failures the primary is reported dead
  (``stats()["replication"]["primary_alive"]``) and, with
  ``auto_promote=True``, the follower promotes itself.
* **Promotion**: :meth:`promote` stops replication, bumps the fencing
  epoch past everything this node has seen
  (:meth:`StoreService.promote`), binds the local journal for writing,
  and best-effort fences the old primary so its zombie writes are
  rejected.  With a ``takeover`` socket path the ``on_takeover`` hook
  (installed by the CLI) additionally binds the dead primary's endpoint,
  so reconnecting clients land on the new primary transparently.
"""

from __future__ import annotations

import asyncio
import threading
import time
from pathlib import Path

from repro.api.model import RetryPolicy
from repro.api.targets import dial_endpoint
from repro.core.errors import ReproError
from repro.obs import metrics as _obs
from repro.server.client import AsyncClient
from repro.server.errors import ServerError
from repro.server.service import StoreService
from repro.storage.serialize import (
    JOURNAL_FILE,
    DurabilityOptions,
    append_journal_line,
    apply_journal_record,
    load_store,
    parse_journal_record,
    write_journal_file,
)

__all__ = ["Follower"]

#: Bootstrap may move a whole snapshot; give it a generous bound.
_SYNC_TIMEOUT = 60.0


class Follower:
    """One live read replica over a local journal directory.

    ``start()`` bootstraps, exposes :attr:`service` (serve it with
    :class:`~repro.server.server.ReproServer` or query it in-process), and
    returns once the replica is streaming.  The service carries this
    follower as its ``replication_control``, so ``repl-promote`` /
    ``repl-retarget`` reach it over the wire.
    """

    def __init__(
        self,
        directory,
        primary: str,
        *,
        durability: DurabilityOptions | None = None,
        engine=None,
        options=None,
        retry: RetryPolicy | None = None,
        heartbeat_interval: float = 1.0,
        heartbeat_misses: int = 3,
        auto_promote: bool = False,
        takeover: str | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.primary = str(primary)
        self.durability = durability
        self.retry = retry or RetryPolicy(attempts=8, base_delay=0.05,
                                          max_delay=1.0)
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_misses = heartbeat_misses
        self.auto_promote = auto_promote
        self.takeover = takeover
        #: Called with the takeover socket path after a promotion that
        #: requested one (the CLI installs a binder for the old endpoint).
        self.on_takeover = None
        self._engine = engine
        self._options = options
        self._endpoint = dial_endpoint(self.primary)
        self.service: StoreService | None = None
        #: Where the last bootstrap started (0 = full download; > 0 means
        #: the local journal was continued — no snapshot re-download).
        self.last_sync_from: int | None = None
        self.bootstrap_snapshots = 0
        self.bootstrap_rebuilds = 0
        self.primary_head = -1
        self.primary_alive = True
        self.missed_heartbeats = 0
        self.stream_resyncs = 0
        #: Monotonic clock of the last applied journal line (bootstrap or
        #: stream) — the basis of the lag-in-seconds stat: how stale this
        #: replica's newest data is while it is behind the primary.
        self._last_applied_at = time.monotonic()
        self._streaming = False
        self._closed = False
        self._promoted = False
        self._lock = threading.Lock()
        self._loop = None
        self._link_client: AsyncClient | None = None
        self._threads: list[threading.Thread] = []

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "Follower":
        """Bootstrap from the primary and begin tailing + heartbeating."""
        from repro.api.wire import _EventLoopThread  # shared loop plumbing

        self._loop = _EventLoopThread(f"repro-replica[{self.directory}]")
        try:
            store = self._bootstrap()
        except BaseException:
            self._loop.stop()
            raise
        self.service = StoreService(store, role="follower")
        self.service.replication_info = self._info
        self.service.replication_control = self
        for target in (self._tail_forever, self._heartbeat_forever):
            thread = threading.Thread(target=target, daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def close(self) -> None:
        self._closed = True
        self._kick_link()
        for thread in self._threads:
            thread.join(timeout=5)
        if self._loop is not None:
            self._loop.stop()

    @property
    def promoted(self) -> bool:
        """True once this node stopped replicating and became primary."""
        return self._promoted

    def __enter__(self) -> "Follower":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- bootstrap ---------------------------------------------------------
    def _bootstrap(self):
        store = None
        if (self.directory / JOURNAL_FILE).exists():
            # Continue a prior replica (or resume a killed bootstrap): torn
            # tails are repaired here, and the sync picks up at the first
            # missing index — the snapshot is never downloaded twice.
            try:
                store = load_store(
                    self.directory, engine=self._engine,
                    options=self._options, repair=True,
                )
            except ReproError:
                # Nothing recoverable (died before the first replicated
                # line became durable, or damage beyond tail repair).  A
                # replica's journal is derived state: rebuild it from the
                # primary rather than refuse to start.
                (self.directory / JOURNAL_FILE).unlink()
                self.bootstrap_rebuilds += 1
        from_index = len(store) if store is not None else 0
        self.last_sync_from = from_index
        response = self._call(
            "repl-sync", from_index=from_index, timeout=_SYNC_TIMEOUT
        )
        if store is None:
            self.directory.mkdir(parents=True, exist_ok=True)
            write_journal_file(
                self.directory, JOURNAL_FILE, response["header"] + "\n",
                durability=self.durability,
            )
        self.bootstrap_snapshots = sum(
            1 for entry in response["entries"] if entry.get("snapshot")
        )
        for entry in response["entries"]:
            record = self._validated(
                entry, expected=from_index, store=store
            )
            self._persist(entry)
            if store is not None:
                apply_journal_record(store, record)
            from_index += 1
        if store is None:
            store = load_store(
                self.directory, engine=self._engine, options=self._options
            )
        self.primary_head = max(
            self.primary_head, response.get("head", -1), len(store) - 1
        )
        return store

    def _validated(self, entry: dict, *, expected: int, store) -> dict:
        """The follower's gate on every received line: the journal's own
        rule (CRC, chain order, no epoch regression)."""
        epoch = store.epoch if store is not None else 0
        return parse_journal_record(entry["line"], expected=expected, epoch=epoch)

    def _persist(self, entry: dict) -> None:
        """Snapshot file first, then the verbatim line — the same
        crash-ordering ``append_revision`` uses."""
        snapshot = entry.get("snapshot")
        if snapshot:
            write_journal_file(
                self.directory, snapshot["name"], snapshot["content"],
                durability=self.durability,
            )
        append_journal_line(
            self.directory, entry["line"], durability=self.durability
        )

    # -- live tail ---------------------------------------------------------
    def _tail_forever(self) -> None:
        attempt = 0
        while not self._done():
            try:
                self._loop.run(self._stream_once())
                attempt = 0
            except Exception:
                if self._done():
                    break
                attempt = min(attempt + 1, self.retry.attempts - 1)
                self.stream_resyncs += 1
                time.sleep(self.retry.delay(attempt))
        self._streaming = False

    async def _stream_once(self) -> None:
        client = await asyncio.wait_for(
            AsyncClient.connect(**self._endpoint), self._dial_timeout()
        )
        self._link_client = client
        try:
            response = await client.call(
                "repl-stream", from_index=len(self.service.store)
            )
            self.primary_head = max(self.primary_head, response.get("head", -1))
            self._streaming = True
            while not self._done():
                push = await client.next_push()
                if push.get("push") != "repl-line":
                    continue
                self._ingest(push)
        finally:
            self._streaming = False
            self._link_client = None
            await client.close()

    def _ingest(self, entry: dict) -> None:
        with self._lock:
            if self._done():
                return
            store = self.service.store
            expected = len(store)
            index = entry.get("index")
            if not isinstance(index, int) or index < expected:
                return  # catch-up overlap with the bootstrap: already have it
            record = self._validated(entry, expected=expected, store=store)
            self._persist(entry)
            apply_journal_record(store, record)
            self.primary_head = max(self.primary_head, record["index"])
            self._last_applied_at = time.monotonic()
            _obs.inc("repl_streamed_lines_received")
            _obs.inc(
                "repl_streamed_bytes", len(str(entry.get("line", "")))
            )

    # -- heartbeats --------------------------------------------------------
    def _heartbeat_forever(self) -> None:
        while not self._done():
            time.sleep(self.heartbeat_interval)
            if self._done():
                break
            try:
                pong = self._call(
                    "ping", timeout=max(self.heartbeat_interval, 0.5) * 2
                )
                self.missed_heartbeats = 0
                self.primary_alive = True
                self.primary_head = max(
                    self.primary_head, pong.get("revision", -1)
                )
            except Exception:
                self.missed_heartbeats += 1
                _obs.inc("repl_heartbeat_misses")
                if self.missed_heartbeats >= self.heartbeat_misses:
                    self.primary_alive = False
                    if self.auto_promote and not self._promoted:
                        self.promote(takeover=self.takeover)

    # -- control surface (repl-promote / repl-retarget) --------------------
    def promote(self, *, epoch: int | None = None,
                takeover: str | None = None) -> int:
        """Stop replicating and become the writable primary (idempotent).

        The service's epoch jumps past everything this replica has seen;
        the old primary is fenced best-effort (it may be dead — that is
        usually why we are here).  ``takeover`` hands the dead primary's
        endpoint to the CLI's ``on_takeover`` binder; a repeat call never
        re-promotes or re-fences but still honors a takeover request, so
        an operator can promote first and claim the dead endpoint later.
        """
        with self._lock:
            already = self._promoted
            self._promoted = True
            if already:
                new_epoch = self.service.epoch
            else:
                new_epoch = self.service.promote(
                    epoch=epoch, journal_dir=self.directory,
                    durability=self.durability,
                )
        if not already:
            self._kick_link()
            self._fence_old_primary(new_epoch)
        takeover = takeover or self.takeover
        if takeover and self.on_takeover is not None:
            self.on_takeover(takeover)
        return new_epoch

    def retarget(self, primary: str) -> None:
        """Follow a different primary (after someone else was promoted)."""
        self.primary = str(primary)
        self._endpoint = dial_endpoint(self.primary)
        self.missed_heartbeats = 0
        self.primary_alive = True
        self._kick_link()  # the tail loop redials the new target

    def _fence_old_primary(self, epoch: int) -> None:
        """Fire-and-forget ``repl-fence`` at the old primary: if it is
        alive (network partition, not death), its next commit raises
        ``StaleEpochError`` instead of forking history."""
        async def fence() -> None:
            try:
                client = await asyncio.wait_for(
                    AsyncClient.connect(**self._endpoint), 2.0
                )
                try:
                    await asyncio.wait_for(
                        client.call("repl-fence", epoch=epoch), 2.0
                    )
                finally:
                    await client.close()
            except Exception:
                pass  # dead primaries cannot be fenced; the epoch does it

        if self._loop is not None:
            asyncio.run_coroutine_threadsafe(fence(), self._loop.loop)

    # -- plumbing ----------------------------------------------------------
    def _done(self) -> bool:
        return self._closed or self._promoted

    def _dial_timeout(self) -> float:
        return max(self.heartbeat_interval * 2, 1.0)

    def _kick_link(self) -> None:
        client = self._link_client
        if client is not None and self._loop is not None:
            asyncio.run_coroutine_threadsafe(client.close(), self._loop.loop)

    def _call(self, cmd: str, *, timeout: float = 5.0, **payload) -> dict:
        """One command to the primary over a fresh short-lived connection
        (bootstrap, heartbeats) — the tail stream has its own link."""
        async def one() -> dict:
            client = await asyncio.wait_for(
                AsyncClient.connect(**self._endpoint), timeout
            )
            try:
                return await asyncio.wait_for(
                    client.call(cmd, **payload), timeout
                )
            finally:
                await client.close()

        try:
            return self._loop.run(one(), timeout=timeout * 2 + 1)
        except (ConnectionError, OSError) as error:
            raise ServerError(
                f"cannot reach primary {self.primary}: {error}"
            ) from None

    def _info(self) -> dict:
        """The follower's extra ``stats()["replication"]`` fields."""
        local = len(self.service.store) - 1 if self.service else -1
        promoted = self._promoted
        lag = 0 if promoted else max(0, self.primary_head - local)
        return {
            "primary": self.primary,
            "lag": lag,
            "lag_seconds": (
                0.0 if lag == 0 else time.monotonic() - self._last_applied_at
            ),
            "primary_alive": None if promoted else self.primary_alive,
            "heartbeat_misses": self.missed_heartbeats,
            "streaming": self._streaming,
            "bootstrap_from": self.last_sync_from,
            "stream_resyncs": self.stream_resyncs,
        }
