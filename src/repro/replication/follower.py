"""The replica process: catch-up, tail, heartbeat, promote.

A :class:`Follower` owns a journal directory and keeps it a
**byte-identical prefix** of a primary's:

* **Attach** (``repl-stream``): dial the primary and ask for every
  durable journal line past the local journal's end.  The response is the
  catch-up batch — the primary's raw bytes, snapshot files inline — and
  the ``repl-line`` pushes after it carry each later commit.  Every line,
  batch or push, takes one path (:meth:`Follower._ingest`): validate
  (CRC, chain order, epoch monotonicity), write ahead verbatim, publish —
  so local subscriptions fire exactly as if the commit were local.  The
  follower writes its journal through one
  :class:`~repro.storage.serialize.JournalWriter`, and a local journal
  that exists is *continued*: the writer opens it first, cutting a torn
  tail, so a follower SIGKILLed mid-catch-up resumes without
  re-downloading the snapshot.  A dropped
  link redials with backoff and attaches again from the journal's own
  end — the stream is always resumable because its cursor *is* the
  journal, and a backlog of any length arrives as one response.
* **Heartbeats**: periodic pings on a side channel; after
  ``heartbeat_misses`` consecutive failures the primary is reported dead
  (``stats()["replication"]["primary_alive"]``).  Deciding to promote is
  the supervisor's job (``repro replicaset``), which picks the freshest
  follower — two followers promoting themselves would both become
  writable at the same epoch.
* **Promotion**: :meth:`promote` stops replication, bumps the fencing
  epoch past everything this node has seen
  (:meth:`StoreService.promote`), hands the service its journal writer,
  and best-effort fences the old primary so its zombie writes are
  rejected.  With a ``takeover`` socket path the ``on_takeover`` hook
  (installed by the CLI) additionally binds the dead primary's endpoint,
  so reconnecting clients land on the new primary transparently.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

from repro.api.model import RetryPolicy
from repro.api.targets import dial_endpoint
from repro.core.errors import ReproError
from repro.obs import metrics as _obs
from repro.server.client import LineClient
from repro.server.errors import ServerError
from repro.server.service import StoreService
from repro.storage.serialize import (
    JOURNAL_FILE,
    DurabilityOptions,
    JournalWriter,
    TornJournalError,
    apply_journal_record,
    load_store,
    parse_journal_record,
)

__all__ = ["Follower"]

#: A catch-up batch may move a whole snapshot; give it a generous bound.
_CATCH_UP_TIMEOUT = 60.0


class Follower:
    """One live read replica over a local journal directory.

    ``start()`` catches up, exposes :attr:`service` (serve it with
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
        retry: RetryPolicy | None = None,
        heartbeat_interval: float = 1.0,
        heartbeat_misses: int = 3,
    ) -> None:
        self.directory = Path(directory)
        self.primary = str(primary)
        #: The one writer of the local journal; the service gets it on
        #: promotion.
        self.journal = JournalWriter(self.directory, durability)
        self.retry = retry or RetryPolicy(attempts=8, base_delay=0.05,
                                          max_delay=1.0)
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_misses = heartbeat_misses
        #: Called with the takeover socket path after a promotion that
        #: requested one (the CLI installs a binder for the old endpoint).
        self.on_takeover = None
        self._endpoint = dial_endpoint(self.primary)
        self.service: StoreService | None = None
        #: The local store: ``None`` until revision 0 arrives on a fresh
        #: replica, then the store :attr:`service` serves.
        self._store = None
        #: Where the last catch-up started (0 = full download; > 0 means
        #: the local journal was continued — no snapshot re-download).
        self.last_sync_from: int | None = None
        self.bootstrap_snapshots = 0
        self.bootstrap_rebuilds = 0
        self.primary_head = -1
        self.primary_alive = True
        self.missed_heartbeats = 0
        self.stream_resyncs = 0
        #: Monotonic clock of the last applied journal line — the basis of
        #: the lag-in-seconds stat: how stale this replica's newest data is
        #: while it is behind the primary.
        self._last_applied_at = time.monotonic()
        self._streaming = False
        self._closed = False
        self._promoted = False
        self._lock = threading.Lock()
        self._link_client: LineClient | None = None
        self._threads: list[threading.Thread] = []

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "Follower":
        """Catch up with the primary and begin tailing + heartbeating."""
        self._store = self._open_journal()
        link = self._attach()
        self.service = StoreService(self._store, role="follower")
        self.service.replication_info = self._info
        self.service.replication_control = self
        for target, args in ((self._tail_forever, (link,)),
                             (self._heartbeat_forever, ())):
            thread = threading.Thread(target=target, args=args, daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def close(self) -> None:
        self._closed = True
        self._kick_link()
        for thread in self._threads:
            thread.join(timeout=5)

    @property
    def promoted(self) -> bool:
        """True once this node stopped replicating and became primary."""
        return self._promoted

    def __enter__(self) -> "Follower":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- catch-up and tail ------------------------------------------------
    def _open_journal(self):
        """The local store to continue, or ``None`` to start from scratch.

        Torn tails are repaired here, so the catch-up picks up at the first
        missing index — the snapshot is never downloaded twice.
        """
        if not (self.directory / JOURNAL_FILE).exists():
            return None
        try:
            return self.journal.open()
        except ReproError:
            # Nothing recoverable (died before the first replicated line
            # became durable, or damage beyond tail repair).  A replica's
            # journal is derived state: rebuild it from the primary rather
            # than refuse to start.
            self.journal.discard()
            self.bootstrap_rebuilds += 1
            return None

    def _attach(self) -> LineClient:
        """Dial the primary, send ``repl-stream`` from the local journal's
        end and ingest the catch-up batch it answers with; returns the
        open link, whose pushes are the lines committed since."""
        from_index = len(self._store) if self._store is not None else 0
        self.last_sync_from = from_index
        client = self._open()
        self._link_client = client  # from here on a kick wakes the reads
        try:
            batch = client.call(
                "repl-stream", {"from_index": from_index},
                timeout=_CATCH_UP_TIMEOUT,
            )
            if self._store is None:
                self.journal.start(batch["header"])
            self.bootstrap_snapshots = sum(
                1 for entry in batch["entries"] if entry.get("snapshot")
            )
            for entry in batch["entries"]:
                self._ingest(entry)
        except BaseException:
            self._link_client = None
            client.close()
            raise
        self.primary_head = max(self.primary_head, batch["head"])
        self._streaming = True
        return client

    def _ingest(self, entry: dict) -> None:
        """Validate one received line, write it ahead — as it arrived, by
        the primary's own writer — and publish its revision; on a fresh
        replica, revision 0 creates the store."""
        with self._lock:
            if self._done():
                return
            store = self._store
            record = self._validated(
                entry, expected=len(store) if store is not None else 0,
                store=store,
            )

            def write_ahead(_revisions=()):
                return self.journal.append([entry])

            if store is None:  # revision 0, snapshot and all, starts the store
                write_ahead()
                self._store = load_store(self.directory)
            else:
                apply_journal_record(store, record, journal=write_ahead)
            self.primary_head = max(self.primary_head, record["index"])
            self._last_applied_at = time.monotonic()
            _obs.inc("repl_streamed_lines_received")
            _obs.inc("repl_streamed_bytes", len(entry["line"]))

    def _validated(self, entry: dict, *, expected: int, store) -> dict:
        """The follower's gate on every received line: the journal's own
        rule (CRC, chain order, no epoch regression)."""
        epoch = store.epoch if store is not None else 0
        return parse_journal_record(entry["line"], expected=expected, epoch=epoch)

    def _tail_forever(self, link: LineClient | None) -> None:
        attempt = 0
        while not self._done():
            try:
                if link is None:
                    link = self._attach()
                    attempt = 0
                self._follow(link)
            except Exception as error:
                if self._done():
                    break
                if isinstance(error, TornJournalError):
                    self._repair_journal()
                attempt = min(attempt + 1, self.retry.attempts - 1)
                self.stream_resyncs += 1
                time.sleep(self.retry.delay(attempt))
            link = None
        self._streaming = False

    def _repair_journal(self) -> None:
        """Cut a fragment a failed append left at the end of this
        replica's journal back to its last good line — the writer's
        :meth:`~JournalWriter.open`, as when a follower starts.  The
        journal is derived data and the store in memory is unchanged, so
        the next attach continues from its end."""
        with self._lock:
            self.journal.open()

    def _follow(self, client: LineClient) -> None:
        """Ingest ``repl-line`` pushes, read off the link by this thread,
        until the link dies or replication stops; the link is closed
        either way."""
        try:
            while not self._done():
                push = client.next_push()
                if push.get("push") == "repl-line":
                    self._ingest(push)
        finally:
            self._streaming = False
            self._link_client = None
            client.close()

    # -- heartbeats --------------------------------------------------------
    def _heartbeat_forever(self) -> None:
        while not self._done():
            time.sleep(self.heartbeat_interval)
            if self._done():
                break
            try:
                timeout = max(self.heartbeat_interval, 0.5) * 2
                pong = self._request("ping", timeout)
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
                    epoch=epoch, journal=self.journal
                )
        if not already:
            self._kick_link()
            self._fence_old_primary(new_epoch)
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
        def fence() -> None:
            try:
                self._request("repl-fence", 2.0, {"epoch": epoch})
            except Exception:
                pass  # dead primaries cannot be fenced; the epoch does it

        threading.Thread(
            target=fence, name="repro-replica-fence", daemon=True
        ).start()

    # -- plumbing ----------------------------------------------------------
    def _done(self) -> bool:
        return self._closed or self._promoted

    def _dial_timeout(self) -> float:
        return max(self.heartbeat_interval * 2, 1.0)

    def _kick_link(self) -> None:
        """Cut the tail link: its blocked read wakes with EOF."""
        client = self._link_client
        if client is not None:
            client.close()

    def _open(self) -> LineClient:
        """A fresh link to the primary."""
        try:
            return LineClient.connect(
                **self._endpoint, timeout=self._dial_timeout()
            )
        except OSError as error:
            raise ServerError(
                f"cannot reach primary {self.primary}: {error}"
            ) from None

    def _request(self, cmd: str, timeout: float, payload=None) -> dict:
        """One command on a short-lived link of its own (heartbeats, the
        fence) — the tail stream has its own."""
        client = self._open()
        try:
            return client.call(cmd, payload, timeout=timeout)
        finally:
            client.close()

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
