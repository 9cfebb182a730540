"""Replicated serving: followers, promotion, epoch fencing, replica sets.

The contract under test, layer by layer:

* **storage** — the fencing epoch rides inside every journal line's CRC
  envelope, survives reload and compaction, and ``verify_journal`` flags
  an epoch that regresses mid-chain;
* **follower** — a :class:`~repro.replication.Follower` bootstraps from a
  primary and keeps its journal a **byte-identical prefix** through live
  tailing, serves reads (and read-your-writes ``min_revision`` tokens)
  while refusing writes;
* **promotion** — :meth:`Follower.promote` bumps the epoch past
  everything seen and fences the old primary, whose writes then raise the
  retryable :class:`StaleEpochError`;
* **replset** — ``repro.connect("replset:...")`` fails reads over
  immediately and follows the primary across a promotion; a mutation
  whose link died in flight is never re-sent (it may have committed),
  and every mutation carries the highest epoch the client has observed;
* **supervisor** — :class:`~repro.replication.ReplicaSet` detects a dead
  primary and promotes the freshest follower.
"""

from __future__ import annotations

import threading
import time

import pytest

import repro
from repro.api import BackgroundServer
from repro.lang.parser import parse_object_base
from repro.replication import Follower, ReplicaSet
from repro.server.errors import (
    ConnectionClosed,
    NotPrimaryError,
    SessionError,
    StaleEpochError,
)
from repro.server.service import StoreService
from repro.server.stream import attach
from repro.storage import serialize
from repro.storage.history import StoreOptions, VersionedStore
from repro.storage.serialize import (
    JOURNAL_FILE,
    DurabilityOptions,
    compact_journal,
    load_store,
    verify_journal,
)
from repro.testing import FaultSpec, inject_faults

from .test_replication_chaos import _ProxyThread

BASE = "henry.isa -> empl. henry.sal -> 250."
RAISE = "raise: mod[henry].sal -> (S, S2) <= henry.sal -> S, S2 = S + 50."

FAST = dict(heartbeat_interval=0.2)


def wait_for(predicate, *, timeout=5.0, interval=0.01, message="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {message}"
        time.sleep(interval)


@pytest.fixture()
def primary(tmp_path):
    service = StoreService.create(
        parse_object_base(BASE), tmp_path / "primary", tag="seed"
    )
    socket_path = str(tmp_path / "primary.sock")
    with BackgroundServer(service, path=socket_path) as server:
        yield service, server, tmp_path


def journal_text(directory) -> str:
    return (directory / JOURNAL_FILE).read_text()


class TestEpochInJournal:
    def test_epoch_zero_leaves_lines_unchanged(self, tmp_path):
        service = StoreService.create(
            parse_object_base(BASE), tmp_path / "j", tag="seed"
        )
        service.apply(RAISE, tag="r1")
        assert '"epoch"' not in journal_text(tmp_path / "j")

    def test_promotion_epoch_round_trips_through_reload(self, tmp_path):
        service = StoreService.create(
            parse_object_base(BASE), tmp_path / "j", tag="seed"
        )
        service.promote(epoch=7)
        service.apply(RAISE, tag="promoted-write")
        assert '"epoch": 7' in journal_text(tmp_path / "j")
        reloaded = load_store(tmp_path / "j")
        assert reloaded.epoch == 7
        assert reloaded.head.epoch == 7

    def test_epoch_survives_compaction(self, tmp_path):
        service = StoreService.create(
            parse_object_base(BASE), tmp_path / "j", tag="seed"
        )
        service.apply(RAISE, tag="r1")
        service.promote(epoch=3)
        service.apply(RAISE, tag="r2")
        compacted = compact_journal(tmp_path / "j", snapshot_interval=1)
        assert compacted.epoch == 3
        report = verify_journal(tmp_path / "j")
        assert report["ok"], report["problems"]
        assert report["max_epoch"] == 3

    def test_verify_flags_epoch_regression(self, tmp_path):
        service = StoreService.create(
            parse_object_base(BASE), tmp_path / "j", tag="seed"
        )
        service.promote(epoch=5)
        service.apply(RAISE, tag="fenced-write")
        service.apply(RAISE, tag="fenced-write-2")
        # forge a continuation stamped with an older epoch: rewrite the
        # last line's epoch and refresh its CRC (a zombie's history)
        import json

        from repro.storage.serialize import _record_crc

        journal = tmp_path / "j" / JOURNAL_FILE
        lines = journal.read_text().rstrip("\n").split("\n")
        record = json.loads(lines[-1])
        record["epoch"] = 2
        record["crc"] = _record_crc(record)
        lines[-1] = json.dumps(record, sort_keys=True)
        journal.write_text("\n".join(lines) + "\n")
        report = verify_journal(tmp_path / "j")
        assert not report["ok"]
        assert any("epoch" in p["error"] for p in report["problems"])


class TestFollower:
    def test_bootstrap_and_tail_keep_byte_identical_prefix(self, primary):
        service, server, tmp_path = primary
        conn = repro.connect(server.address)
        for i in range(4):
            conn.apply(RAISE, tag=f"pre-{i}")
        with Follower(tmp_path / "f", server.address, **FAST) as fol:
            fol.start()
            assert journal_text(tmp_path / "f") == journal_text(
                tmp_path / "primary"
            )
            conn.apply(RAISE, tag="live")
            wait_for(
                lambda: len(fol.service.store) == len(service.store),
                message="follower catch-up",
            )
            assert journal_text(tmp_path / "f") == journal_text(
                tmp_path / "primary"
            )
        conn.close()

    def test_a_restart_repairs_the_tail_under_the_followers_durability(
        self, primary, monkeypatch
    ):
        service, server, tmp_path = primary
        service.apply(RAISE, tag="r1")
        fsync = DurabilityOptions("fsync")
        with Follower(tmp_path / "f", server.address, durability=fsync,
                      **FAST) as fol:
            fol.start()
        journal = tmp_path / "f" / JOURNAL_FILE
        journal.write_bytes(journal.read_bytes() + b'{"index": 2, "ta')
        writes = []
        write_text = serialize._fs.write_text

        def recording(path, text, *, fsync=False):
            writes.append((path, fsync))
            write_text(path, text, fsync=fsync)

        monkeypatch.setattr(serialize._fs, "write_text", recording)
        with Follower(tmp_path / "f", server.address, durability=fsync,
                      **FAST) as fol:
            fol.start()
            assert fol.last_sync_from == 2  # continued, not rebuilt
        assert [flag for path, flag in writes if path == journal] == [True]
        assert journal_text(tmp_path / "f") == journal_text(tmp_path / "primary")

    def test_follower_serves_reads_and_rejects_writes(self, primary):
        service, server, tmp_path = primary
        conn = repro.connect(server.address)
        conn.apply(RAISE, tag="r1")
        with Follower(tmp_path / "f", server.address, **FAST) as fol:
            fol.start()
            fconn = repro.connect(fol.service)
            assert fconn.query("henry.sal -> S") == [{"S": 300}]
            with pytest.raises(NotPrimaryError) as error:
                fconn.apply(RAISE)
            assert error.value.retryable
            stats = fconn.stats()["replication"]
            assert stats["role"] == "follower"
            assert stats["lag"] == 0
            assert stats["primary"] == server.address
            fconn.close()
        conn.close()

    def test_min_revision_read_your_writes(self, primary):
        service, server, tmp_path = primary
        conn = repro.connect(server.address)
        with Follower(tmp_path / "f", server.address, **FAST) as fol:
            fol.start()
            fconn = repro.connect(fol.service)
            head = conn.apply(RAISE, tag="ryw")
            # the token forces the replica to wait until replication
            # reaches the writer's revision, so the read sees the write
            assert fconn.query(
                "henry.sal -> S", min_revision=head.index
            ) == [{"S": 300}]
            fconn.close()
        conn.close()

    def test_served_follower_answers_min_revision_over_the_wire(self, primary):
        service, server, tmp_path = primary
        conn = repro.connect(server.address)
        fol = Follower(tmp_path / "f", server.address, **FAST).start()
        fsock = str(tmp_path / "f.sock")
        try:
            with BackgroundServer(fol.service, path=fsock):
                head = conn.apply(RAISE, tag="ryw-wire")
                with repro.connect(f"unix:{fsock}") as fconn:
                    assert fconn.query(
                        "henry.sal -> S", min_revision=head.index
                    ) == [{"S": 300}]
        finally:
            fol.close()
            conn.close()

    def test_follower_subscription_fires_on_replicated_commit(self, primary):
        service, server, tmp_path = primary
        conn = repro.connect(server.address)
        with Follower(tmp_path / "f", server.address, **FAST) as fol:
            fol.start()
            fconn = repro.connect(fol.service)
            stream = fconn.subscribe("henry.sal -> S")
            assert stream.answers == [{"S": 250}]
            conn.apply(RAISE, tag="watched")
            delta = stream.next(timeout=5.0)
            assert delta is not None
            assert delta.added == ({"S": 300},)
            stream.close()
            fconn.close()
        conn.close()

    def test_a_started_follower_holds_its_tail_and_heartbeat_threads(
        self, primary
    ):
        service, server, tmp_path = primary
        before = set(threading.enumerate())
        with Follower(tmp_path / "f", server.address, **FAST) as fol:
            fol.start()
            conn = repro.connect(server.address)
            conn.apply(RAISE, tag="live")
            conn.close()
            wait_for(
                lambda: len(fol.service.store) == len(service.store),
                message="follower catch-up",
            )
            time.sleep(3 * FAST["heartbeat_interval"])  # a few heartbeats
            started = [t for t in threading.enumerate() if t not in before]
            assert set(started) == set(fol._threads)
            assert len(started) == 2
        assert not any(thread.is_alive() for thread in fol._threads)

    def test_primary_counts_followers(self, primary):
        service, server, tmp_path = primary
        with Follower(tmp_path / "f", server.address, **FAST) as fol:
            fol.start()
            wait_for(
                lambda: service.stats()["replication"]["followers"] == 1,
                message="follower registration",
            )
        wait_for(
            lambda: service.stats()["replication"]["followers"] == 0,
            message="follower deregistration",
        )

    def test_follower_refuses_to_append_onto_a_torn_tail(self, primary):
        """Primary and follower check the journal's last line through one
        writer: a fragment left by a failed append is refused, not glued
        onto, with the error the primary raises for the same tail.  The
        follower then repairs its own journal — derived data — and catches
        up within one resync."""
        from repro.core.errors import ReproError

        service, server, tmp_path = primary
        conn = repro.connect(server.address)
        with Follower(tmp_path / "f", server.address, **FAST) as fol:
            fol.start()
            refusals = []
            ingest = fol._ingest
            journal = tmp_path / "f" / JOURNAL_FILE

            def recording(entry):
                try:
                    ingest(entry)
                except ReproError as error:
                    # at the moment of refusal: nothing was glued on
                    refusals.append(
                        (
                            str(error),
                            journal.read_bytes() == torn,
                            len(fol.service.store) == revisions,
                        )
                    )
                    raise

            fol._ingest = recording
            with journal.open("ab") as handle:
                handle.write(b'{"index": 1, "ta')
            torn = journal.read_bytes()
            revisions = len(fol.service.store)
            resyncs = fol.stream_resyncs
            conn.apply(RAISE, tag="after-tear")
            wait_for(lambda: refusals, message="the follower's refusal")
            message, unchanged_journal, unchanged_store = refusals[0]
            assert "ends in a torn line" in message
            assert unchanged_journal and unchanged_store
            wait_for(
                lambda: len(fol.service.store) == len(service.store),
                message="the follower's catch-up after the repair",
            )
            assert fol.stream_resyncs == resyncs + 1
            assert len(refusals) == 1
            assert b'{"index": 1, "ta' not in journal.read_bytes()
        conn.close()
        primary_journal = tmp_path / "primary" / JOURNAL_FILE
        with primary_journal.open("ab") as handle:
            handle.write(b'{"index": 2, "ta')
        with pytest.raises(ReproError, match="ends in a torn line"):
            service.apply(RAISE)

    def test_follower_keeps_snapshots_bounded_like_the_primary(self, tmp_path):
        """Both nodes write through one entry writer, so a replayed
        snapshot becomes a reloadable cache entry as a committed one does."""
        service = StoreService.create(
            parse_object_base(BASE), tmp_path / "primary", tag="seed",
            options=StoreOptions(snapshot_interval=4),
        )
        with BackgroundServer(service, path=str(tmp_path / "p.sock")) as server:
            with Follower(tmp_path / "f", server.address, **FAST) as fol:
                fol.start()
                for i in range(40):
                    service.apply(RAISE, tag=f"r{i}")
                wait_for(
                    lambda: len(fol.service.store) == len(service.store),
                    message="follower catch-up",
                )
                for store in (service.store, fol.service.store):
                    resident = [
                        r.index for r in store.revisions() if r.snapshot is not None
                    ]
                    assert len(resident) <= store.options.materialize_cache == 4
                # revision 4 was evicted on both sides: it reloads from file
                assert set(fol.service.store.as_of(4)) == set(service.store.as_of(4))

    def test_follower_mirrors_the_primarys_snapshot_files(self, tmp_path):
        """A follower writes the snapshot files its entries carry and no
        others: three employees (9 facts) against raises of 3 put files on
        every other candidate, in bootstrap and live tail alike."""
        service = StoreService.create(
            parse_object_base(
                BASE + " ann.isa -> empl. ann.sal -> 1. bea.isa -> empl. bea.sal -> 1."
            ),
            tmp_path / "primary", tag="seed",
            options=StoreOptions(snapshot_interval=2),
        )
        for i in range(10):
            service.apply(RAISE, tag=f"pre{i}")

        def files(directory):
            return sorted(path.name for path in directory.glob("snap-*.json"))

        with BackgroundServer(service, path=str(tmp_path / "p.sock")) as server:
            with Follower(tmp_path / "f", server.address, **FAST) as fol:
                fol.start()
                assert fol.bootstrap_snapshots == verify_journal(
                    tmp_path / "primary"
                )["snapshots"] == 3
                for i in range(10):
                    service.apply(RAISE, tag=f"live{i}")
                wait_for(
                    lambda: len(fol.service.store) == len(service.store),
                    message="follower catch-up",
                )
                anchors = [
                    f"snap-{index:06d}.json" for index in range(0, 21, 4)
                ]
                assert files(tmp_path / "primary") == anchors
                assert files(tmp_path / "f") == anchors
                for store in (service.store, fol.service.store):
                    assert [
                        r.index for r in store.revisions() if store.has_snapshot(r.index)
                    ] == list(range(0, 21, 4))

    def test_a_failed_primary_append_never_reaches_the_follower(self, primary):
        service, server, tmp_path = primary
        with Follower(tmp_path / "f", server.address, **FAST) as fol:
            fol.start()
            wait_for(
                lambda: service.stats()["replication"]["followers"] == 1,
                message="follower registration",
            )
            service.apply(RAISE, tag="r1")
            wait_for(lambda: len(fol.service.store) == len(service.store))
            streamed = service.stats()["replication"]["streamed_lines"]
            with inject_faults(FaultSpec("append", "enospc")) as filesystem:
                with pytest.raises(SessionError, match="not committed"):
                    service.apply(RAISE, tag="lost")
            assert filesystem.ops == [("append", JOURNAL_FILE)]
            assert service.stats()["replication"]["streamed_lines"] == streamed
            service.apply(RAISE, tag="r2")
            wait_for(
                lambda: len(fol.service.store) == len(service.store),
                message="the next commit streamed",
            )
            assert [r.tag for r in fol.service.store.revisions()] == [
                "seed", "r1", "r2",
            ]
            assert journal_text(tmp_path / "f") == journal_text(
                tmp_path / "primary"
            )

    def test_hub_requires_a_journal(self):
        from repro.core.objectbase import ObjectBase
        from repro.core.errors import ReproError
        from repro.storage.history import VersionedStore

        service = StoreService(VersionedStore(ObjectBase()))
        with pytest.raises(ReproError):
            attach(service, lambda _push: None, 0)


class TestPromotionAndFencing:
    def test_promote_bumps_epoch_and_enables_writes(self, primary):
        service, server, tmp_path = primary
        conn = repro.connect(server.address)
        conn.apply(RAISE, tag="r1")
        fol = Follower(tmp_path / "f", server.address, **FAST).start()
        try:
            wait_for(lambda: len(fol.service.store) == len(service.store))
            epoch = fol.promote()
            assert epoch == 1
            assert fol.promoted
            fconn = repro.connect(fol.service)
            fconn.apply(RAISE, tag="promoted-write")
            assert '"epoch": 1' in journal_text(tmp_path / "f")
            assert fconn.query("henry.sal -> S") == [{"S": 350}]
            fconn.close()
        finally:
            fol.close()
            conn.close()

    def test_promote_is_idempotent(self, primary):
        service, server, tmp_path = primary
        fol = Follower(tmp_path / "f", server.address, **FAST).start()
        try:
            assert fol.promote() == 1
            assert fol.promote() == 1
        finally:
            fol.close()

    def test_fenced_primary_rejects_zombie_writes(self, primary):
        service, server, tmp_path = primary
        conn = repro.connect(server.address)
        fol = Follower(tmp_path / "f", server.address, **FAST).start()
        try:
            wait_for(lambda: len(fol.service.store) == len(service.store))
            new_epoch = fol.promote()
            # the fire-and-forget fence arrives over the wire; wait for it
            wait_for(
                lambda: service.stats()["replication"]["fenced_epoch"]
                >= new_epoch,
                message="old primary fenced",
            )
            with pytest.raises(StaleEpochError) as error:
                conn.apply(RAISE, tag="zombie")
            assert error.value.retryable
            assert error.value.required_epoch == new_epoch
            # no zombie line reached the old journal
            assert '"tag": "zombie"' not in journal_text(tmp_path / "primary")
        finally:
            fol.close()
            conn.close()

    def test_epoch_stamped_commits_carry_epoch_on_the_wire(self, primary):
        service, server, tmp_path = primary
        service.promote(epoch=4)
        with repro.connect(server.address) as conn:
            assert conn.call("ping")["epoch"] == 4
            response = conn.call("apply", program=RAISE, tag="stamped")
            assert response["epoch"] == 4

    def test_client_epoch_floor_rejected_below_fence(self, primary):
        service, server, tmp_path = primary
        service.fence(9)
        with repro.connect(server.address) as conn:
            with pytest.raises(StaleEpochError):
                conn.call("apply", program=RAISE, tag="stale", epoch=3)

    def test_follower_refuses_a_fenced_primarys_line(self, primary):
        """A replica that has seen epoch N never adopts a line below it:
        the validation gate, independent of the wire."""
        service, server, tmp_path = primary
        fol = Follower(tmp_path / "f", server.address, **FAST).start()
        try:
            fol.service.store.epoch = 2
            from repro.core.errors import ReproError

            service.apply(RAISE, tag="old-epoch")  # epoch 0 line
            line = journal_text(tmp_path / "primary").splitlines()[-1]
            assert '"tag": "old-epoch"' in line
            with pytest.raises(ReproError, match="refusing a fenced"):
                fol._validated(
                    {"line": line}, expected=len(fol.service.store),
                    store=fol.service.store,
                )
        finally:
            fol.close()


class TestReplicaSetConnection:
    @pytest.fixture()
    def cluster(self, primary):
        service, server, tmp_path = primary
        f1 = Follower(tmp_path / "f1", server.address, **FAST).start()
        f2 = Follower(tmp_path / "f2", server.address, **FAST).start()
        s1 = BackgroundServer(f1.service, path=str(tmp_path / "f1.sock"))
        s2 = BackgroundServer(f2.service, path=str(tmp_path / "f2.sock"))
        targets = [
            server.address,
            f"unix:{tmp_path / 'f1.sock'}",
            f"unix:{tmp_path / 'f2.sock'}",
        ]
        try:
            yield service, server, (f1, f2), (s1, s2), targets, tmp_path
        finally:
            f1.close()
            f2.close()
            s1.close()
            s2.close()

    def test_replset_reads_and_writes(self, cluster):
        service, server, followers, servers, targets, tmp_path = cluster
        conn = repro.connect("replset:" + ",".join(targets))
        revision = conn.apply(RAISE, tag="via-replset")
        assert conn.query(
            "henry.sal -> S", min_revision=revision.index
        ) == [{"S": 300}]
        assert conn.stats()["replset"]["primary"] == targets[0]
        conn.close()

    def test_replset_rejects_seed_kwargs(self):
        from repro.core.errors import ReproError

        with pytest.raises(ReproError):
            repro.connect("replset:unix:/nowhere.sock", base=BASE)
        with pytest.raises(ReproError):
            repro.connect("replset:unix:/nowhere.sock", readonly=True)

    def test_reads_fail_over_when_primary_dies(self, cluster):
        service, server, followers, servers, targets, tmp_path = cluster
        conn = repro.connect("replset:" + ",".join(targets))
        conn.apply(RAISE, tag="before-death")
        wait_for(
            lambda: all(
                len(f.service.store) == len(service.store) for f in followers
            )
        )
        server.close()  # abrupt: no shutdown pleasantries
        assert conn.query("henry.sal -> S") == [{"S": 300}]
        assert conn.reconnects >= 1
        conn.close()

    def test_mutations_follow_a_promotion(self, cluster):
        service, server, followers, servers, targets, tmp_path = cluster
        conn = repro.connect("replset:" + ",".join(targets))
        conn.apply(RAISE, tag="before")
        wait_for(
            lambda: all(
                len(f.service.store) == len(service.store) for f in followers
            )
        )
        server.close()
        followers[0].promote()
        revision = conn.apply(RAISE, tag="after-failover")
        assert conn.epoch >= 1
        assert conn.query(
            "henry.sal -> S", min_revision=revision.index
        ) == [{"S": 350}]
        conn.close()

    def test_subscription_survives_member_death(self, cluster):
        service, server, followers, servers, targets, tmp_path = cluster
        conn = repro.connect("replset:" + ",".join(targets))
        stream = conn.subscribe("henry.sal -> S")
        assert stream.answers == [{"S": 250}]
        conn.apply(RAISE, tag="first")
        delta = stream.next(timeout=5.0)
        assert delta is not None and delta.added == ({"S": 300},)
        wait_for(
            lambda: all(
                len(f.service.store) == len(service.store) for f in followers
            )
        )
        server.close()
        followers[0].promote()
        # the stream re-homes to a live member; the next commit flows
        fconn = repro.connect(followers[0].service)
        fconn.apply(RAISE, tag="after")
        deadline = time.monotonic() + 10
        folded = list(stream.answers)
        saw_final = False
        while time.monotonic() < deadline:
            delta = stream.next(timeout=0.5)
            if delta is None:
                continue
            # a lagged (coalesced) delta folds exactly like a commit diff:
            # its (added, removed) was computed against the stream's state
            folded = _fold(folded, delta)
            if folded == [{"S": 350}]:
                saw_final = True
                break
        assert saw_final, f"stream never converged: {folded}"
        assert folded == list(stream.answers)  # external fold == internal
        stream.close()
        fconn.close()
        conn.close()


def _fold(state, delta):
    rows = [row for row in state if row not in list(delta.removed)]
    rows.extend(delta.added)
    return rows


class TestOneRetryRule:
    """A replica set re-sends only what a member *refused*; a mutation
    whose link died in flight surfaces ``ConnectionClosed`` exactly as it
    does over a single endpoint, because the server may have applied it."""

    @pytest.fixture()
    def proxied(self, primary):
        service, server, tmp_path = primary
        listen = str(tmp_path / "proxy.sock")
        proxy = _ProxyThread(str(tmp_path / "primary.sock"), listen)
        try:
            yield service, server, proxy, f"unix:{listen}"
        finally:
            proxy.close()

    @staticmethod
    def _apply_while_the_link_dies(conn, service, proxy, tag):
        """Stall the responses, send one apply, cut the link once the
        server has committed it, thaw; returns what the caller saw."""
        outcome = []

        def send():
            try:
                outcome.append(conn.apply(RAISE, tag=tag))
            except Exception as error:
                outcome.append(error)

        head = len(service.store)
        proxy.loop.call_soon_threadsafe(proxy.proxy.stall, True)
        sender = threading.Thread(target=send)
        sender.start()
        wait_for(lambda: len(service.store) > head, message="the commit")
        proxy.drop_connections()
        proxy.loop.call_soon_threadsafe(proxy.proxy.stall, False)
        sender.join(timeout=30)
        assert not sender.is_alive()
        return outcome[0]

    def test_a_lost_apply_is_not_resent_on_another_path(self, proxied):
        service, server, proxy, through_proxy = proxied
        # two paths to the one primary: the proxied one is dialed first
        conn = repro.connect(f"replset:{through_proxy},{server.address}")
        try:
            conn.apply(RAISE, tag="a")
            seen = self._apply_while_the_link_dies(conn, service, proxy, "b")
            assert isinstance(seen, ConnectionClosed)
            assert seen.retryable
            assert [r.tag for r in conn.log()] == ["seed", "a", "b"]
            assert conn.query("henry.sal -> S") == [{"S": 350}]
        finally:
            conn.close()

    def test_the_next_apply_succeeds_after_a_lost_one(self, proxied):
        service, server, proxy, through_proxy = proxied
        conn = repro.connect(f"replset:{through_proxy}")
        try:
            conn.apply(RAISE, tag="a")
            seen = self._apply_while_the_link_dies(conn, service, proxy, "b")
            assert isinstance(seen, ConnectionClosed)
            assert conn.apply(RAISE, tag="c").index == 3
            assert [r.tag for r in conn.log()] == ["seed", "a", "b", "c"]
        finally:
            conn.close()

    def test_tx_commit_carries_the_observed_epoch(self, primary):
        """The promoted node is gone and the old primary was never fenced:
        a client that saw the promotion must not commit onto the zombie."""
        service, server, tmp_path = primary
        promoted = StoreService(VersionedStore(parse_object_base(BASE)))
        promoted.promote(epoch=1)
        promoted_sock = str(tmp_path / "promoted.sock")
        new_primary = BackgroundServer(promoted, path=promoted_sock)
        conn = repro.connect(f"replset:{server.address},unix:{promoted_sock}")
        try:
            conn.apply(RAISE, tag="on-the-promoted-node")
            assert conn.epoch == 1
            new_primary.close()
            wait_for(lambda: conn.ping()["pong"], message="the failover")
            transaction = conn.transaction(tag="zombie")
            transaction.stage(RAISE)
            with pytest.raises(StaleEpochError) as refusal:
                transaction.commit()
            assert refusal.value.required_epoch == 1
            assert len(service.store) == 1  # nothing reached the zombie
        finally:
            conn.close()
            new_primary.close()


class TestSupervisor:
    def test_supervisor_promotes_freshest_follower(self, primary):
        service, server, tmp_path = primary
        conn = repro.connect(server.address)
        f1 = Follower(tmp_path / "f1", server.address, **FAST).start()
        f2 = Follower(tmp_path / "f2", server.address, **FAST).start()
        s1 = BackgroundServer(f1.service, path=str(tmp_path / "f1.sock"))
        s2 = BackgroundServer(f2.service, path=str(tmp_path / "f2.sock"))
        try:
            conn.apply(RAISE, tag="r1")
            wait_for(
                lambda: len(f1.service.store) == len(service.store)
                and len(f2.service.store) == len(service.store)
            )
            supervisor = ReplicaSet(
                server.address,
                [f"unix:{tmp_path / 'f1.sock'}", f"unix:{tmp_path / 'f2.sock'}"],
                interval=0.05, misses=2,
            )
            assert supervisor.poll_once()["alive"]
            server.close()
            promoted = None
            for _ in range(20):
                state = supervisor.poll_once()
                if state["promoted"]:
                    promoted = state["promoted"]
                    break
                time.sleep(0.05)
            assert promoted is not None
            assert supervisor.epoch == 1
            assert supervisor.primary == promoted
            assert len(supervisor.followers) == 1
            # the promoted node takes writes now
            with repro.connect(promoted) as pconn:
                pconn.apply(RAISE, tag="post")
                assert pconn.stats()["replication"]["role"] == "primary"
            supervisor.close()
        finally:
            f1.close()
            f2.close()
            s1.close()
            s2.close()
            conn.close()

    def test_supervisor_needs_followers(self):
        from repro.core.errors import ReproError

        with pytest.raises(ReproError):
            ReplicaSet("unix:/p.sock", [])
