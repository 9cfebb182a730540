"""Chaos property suite: replication under degraded links and crashes.

Random commit histories stream to followers through a
:class:`~repro.testing.faults.ChaosProxy` that drops connections at
arbitrary moments, and primaries die abruptly (the server cut with no
shutdown pleasantries — the in-process equivalent of SIGKILL).  The
invariants that must hold through all of it:

* the follower's journal is always a **byte-identical prefix** of the
  primary's, no matter where the link broke;
* a follower killed mid-bootstrap resumes from its torn tail without
  re-downloading the snapshot (satellite: crash-resumable bootstrap);
* after a failover, a replica-set subscription's folded answers equal a
  fresh query — the lagged resync restores exactness;
* no acknowledged fsync-durable commit is ever lost: everything the
  primary acked before death is in the promoted follower's journal.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.api import BackgroundServer
from repro.api.hosting import _EventLoopThread
from repro.core.query import fold_answers
from repro.lang.parser import parse_object_base
from repro.replication import Follower
from repro.server.service import StoreService
from repro.storage.serialize import (
    JOURNAL_FILE,
    DurabilityOptions,
    load_store,
)
from repro.testing.faults import ChaosProxy, FaultSpec, InjectedCrash, inject_faults

BASE = "henry.isa -> empl. henry.sal -> 250."
RAISE = "raise: mod[henry].sal -> (S, S2) <= henry.sal -> S, S2 = S + 50."
CUT = "cut: mod[henry].sal -> (S, S2) <= henry.sal -> S, S2 = S - 10."
HIRE = """
    hire_isa: ins[dee].isa -> empl <= henry.isa -> empl.
    hire_sal: ins[dee].sal -> 3000 <= henry.isa -> empl.
"""
PROGRAMS = [RAISE, CUT, HIRE]

seeds = st.integers(0, 10_000)


def wait_for(predicate, *, timeout=10.0, interval=0.01, message="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {message}"
        time.sleep(interval)


def journal_text(directory) -> str:
    return (directory / JOURNAL_FILE).read_text()


class _ProxyThread:
    """A ChaosProxy on its own event loop, driveable from test code."""

    def __init__(self, target_path: str, listen_path: str) -> None:
        self._runner = _EventLoopThread("chaos-proxy")
        self.loop = self._runner.loop
        self.proxy = ChaosProxy(target_path, listen_path)
        self._runner.run(self.proxy.start(), timeout=5)

    def drop_connections(self) -> int:
        return self._runner.run(self.proxy.drop_connections(), timeout=5)

    def close(self) -> None:
        try:
            self._runner.run(self.proxy.close(), timeout=5)
        finally:
            self._runner.stop()


@settings(max_examples=5, deadline=None)
@given(seeds)
def test_follower_journal_is_byte_prefix_through_link_chaos(tmp_path_factory, seed):
    """Random commits while the follower's link drops at random points:
    whenever the follower reports catch-up, its journal bytes are exactly
    the primary's."""
    import random

    rng = random.Random(seed)
    tmp_path = tmp_path_factory.mktemp(f"chaos-{seed}")
    service = StoreService.create(
        parse_object_base(BASE), tmp_path / "primary", tag="seed"
    )
    psock = str(tmp_path / "p.sock")
    proxy_sock = str(tmp_path / "proxy.sock")
    with BackgroundServer(service, path=psock) as server:
        proxy = _ProxyThread(psock, proxy_sock)
        fol = Follower(
            tmp_path / "f", f"unix:{proxy_sock}",
            heartbeat_interval=0.1,
            retry=repro.RetryPolicy(attempts=50, base_delay=0.01,
                                    max_delay=0.05),
        ).start()
        try:
            for step in range(rng.randint(4, 10)):
                service.apply(rng.choice(PROGRAMS), tag=f"c-{step}")
                if rng.random() < 0.5:
                    proxy.drop_connections()
                if rng.random() < 0.3:
                    wait_for(
                        lambda: len(fol.service.store) == len(service.store),
                        message=f"catch-up at step {step}",
                    )
                    assert journal_text(tmp_path / "f") == journal_text(
                        tmp_path / "primary"
                    )
            wait_for(
                lambda: len(fol.service.store) == len(service.store),
                message="final catch-up",
            )
            assert journal_text(tmp_path / "f") == journal_text(
                tmp_path / "primary"
            )
        finally:
            fol.close()
            proxy.close()


class TestCrashResumableBootstrap:
    def test_bootstrap_killed_mid_stream_resumes_without_snapshot(
        self, tmp_path
    ):
        """The process dies while appending replicated lines (torn tail on
        disk); the restarted follower repairs the tail and resumes the sync
        at the first missing index — zero snapshots re-downloaded."""
        service = StoreService.create(
            parse_object_base(BASE), tmp_path / "primary", tag="seed"
        )
        for i in range(6):
            service.apply(RAISE, tag=f"pre-{i}")
        psock = str(tmp_path / "p.sock")
        with BackgroundServer(service, path=psock):
            # first attempt: die mid-append of the 4th replicated line,
            # leaving a torn tail behind (7 bytes of it)
            with inject_faults(
                FaultSpec("append", "torn", at=3, keep_bytes=7,
                          path_glob=JOURNAL_FILE)
            ):
                with pytest.raises(InjectedCrash):
                    Follower(tmp_path / "f", f"unix:{psock}").start()
            # the torn journal is on disk with 3 whole lines + a fragment
            assert (tmp_path / "f" / JOURNAL_FILE).exists()
            # second attempt: clean run resumes from the repaired tail
            fol = Follower(tmp_path / "f", f"unix:{psock}").start()
            try:
                assert fol.last_sync_from == 3, (
                    "bootstrap did not resume from the torn tail"
                )
                assert fol.bootstrap_snapshots == 0, (
                    "resume re-downloaded a snapshot"
                )
                wait_for(
                    lambda: len(fol.service.store) == len(service.store)
                )
                assert journal_text(tmp_path / "f") == journal_text(
                    tmp_path / "primary"
                )
            finally:
                fol.close()

    def test_fragment_only_journal_falls_back_to_full_bootstrap(self, tmp_path):
        """Death before the *first* replicated line became durable leaves
        nothing tail repair can save; the replica rebuilds from scratch
        instead of refusing to start."""
        service = StoreService.create(
            parse_object_base(BASE), tmp_path / "primary", tag="seed"
        )
        service.apply(RAISE, tag="r1")
        psock = str(tmp_path / "p.sock")
        with BackgroundServer(service, path=psock):
            with inject_faults(
                FaultSpec("append", "torn", at=0, keep_bytes=5,
                          path_glob=JOURNAL_FILE)
            ):
                with pytest.raises(InjectedCrash):
                    Follower(tmp_path / "f", f"unix:{psock}").start()
            fol = Follower(tmp_path / "f", f"unix:{psock}").start()
            try:
                assert fol.bootstrap_rebuilds == 1
                assert fol.last_sync_from == 0
                wait_for(
                    lambda: len(fol.service.store) == len(service.store)
                )
                assert journal_text(tmp_path / "f") == journal_text(
                    tmp_path / "primary"
                )
            finally:
                fol.close()

    def test_unrecoverable_journal_is_discarded_through_the_seam(self, tmp_path):
        """The discard of a journal that holds nothing recoverable goes
        through the storage seam (so a crash can land there) and takes the
        old snapshot files with it."""
        service = StoreService.create(
            parse_object_base(BASE), tmp_path / "primary", tag="seed"
        )
        service.apply(RAISE, tag="r1")
        replica = tmp_path / "f"
        replica.mkdir()
        (replica / JOURNAL_FILE).write_text("not a journal\n")
        (replica / "snap-000007.json").write_text("{}")
        psock = str(tmp_path / "p.sock")
        with BackgroundServer(service, path=psock):
            with inject_faults(FaultSpec("unlink", "crash_before")):
                with pytest.raises(InjectedCrash):
                    Follower(replica, f"unix:{psock}").start()
            assert (replica / JOURNAL_FILE).read_text() == "not a journal\n"
            fol = Follower(replica, f"unix:{psock}").start()
            try:
                assert fol.bootstrap_rebuilds == 1
                wait_for(
                    lambda: len(fol.service.store) == len(service.store)
                )
                written = {
                    path.name for path in (tmp_path / "primary").glob("snap-*.json")
                }
                left = {path.name for path in replica.glob("snap-*.json")}
                assert "snap-000007.json" not in left and left <= written
                assert journal_text(replica) == journal_text(tmp_path / "primary")
            finally:
                fol.close()

    @settings(max_examples=8, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 60))
    def test_any_torn_point_resumes_cleanly(
        self, tmp_path_factory, crash_line, keep_bytes
    ):
        """Hypothesis sweeps the crash point: whichever replicated line the
        death tears, the resumed bootstrap never re-fetches the snapshot
        and converges to byte-identical journals."""
        tmp_path = tmp_path_factory.mktemp(f"torn-{crash_line}-{keep_bytes}")
        service = StoreService.create(
            parse_object_base(BASE), tmp_path / "primary", tag="seed"
        )
        for i in range(5):
            service.apply(RAISE if i % 2 else CUT, tag=f"pre-{i}")
        psock = str(tmp_path / "p.sock")
        with BackgroundServer(service, path=psock):
            with inject_faults(
                FaultSpec("append", "torn", at=crash_line,
                          keep_bytes=keep_bytes, path_glob=JOURNAL_FILE)
            ):
                with pytest.raises(InjectedCrash):
                    Follower(tmp_path / "f", f"unix:{psock}").start()
            fol = Follower(tmp_path / "f", f"unix:{psock}").start()
            try:
                assert fol.bootstrap_snapshots == 0
                assert fol.last_sync_from >= crash_line
                wait_for(
                    lambda: len(fol.service.store) == len(service.store)
                )
                assert journal_text(tmp_path / "f") == journal_text(
                    tmp_path / "primary"
                )
                # and the journal replays to a consistent store
                reloaded = load_store(tmp_path / "f")
                assert len(reloaded) == len(service.store)
            finally:
                fol.close()


@settings(max_examples=4, deadline=None)
@given(seeds)
def test_no_acked_durable_commit_lost_across_failover(tmp_path_factory, seed):
    """Every commit the fsync-durable primary acknowledged before dying is
    present (byte-identical) in the promoted follower's journal, and the
    folded subscription state equals a fresh query afterwards."""
    import random

    rng = random.Random(seed)
    tmp_path = tmp_path_factory.mktemp(f"failover-{seed}")
    service = StoreService.create(
        parse_object_base(BASE), tmp_path / "primary", tag="seed",
        durability=DurabilityOptions(mode="fsync"),
    )
    psock = str(tmp_path / "p.sock")
    server = BackgroundServer(service, path=psock)
    fol = Follower(
        tmp_path / "f", f"unix:{psock}", heartbeat_interval=0.1,
        durability=DurabilityOptions(mode="fsync"),
    ).start()
    fconn = repro.connect(fol.service)
    stream = fconn.subscribe("E.sal -> S")
    folded = list(stream.answers)
    try:
        acked = []
        for step in range(rng.randint(3, 8)):
            revision = service.apply(rng.choice(PROGRAMS), tag=f"c-{step}")
            acked.append(revision.revision.index)
        wait_for(lambda: len(fol.service.store) == len(service.store))
        acked_text = journal_text(tmp_path / "primary")
        server.close()  # dies with every ack already durable

        fol.promote()
        # the acked history survives as a byte prefix of the new primary's
        promoted_text = journal_text(tmp_path / "f")
        assert promoted_text.startswith(acked_text)
        assert len(fol.service.store) - 1 >= max(acked)

        # life goes on at the promoted primary; the subscription (served
        # by the follower's own subscription manager) keeps its exactness
        fconn.apply(RAISE, tag="after-failover")
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            delta = stream.next(timeout=0.2)
            if delta is None:
                if folded == fconn.query("E.sal -> S"):
                    break
                continue
            if delta.lagged:
                folded = list(delta.answers)
            else:
                folded = fold_answers(
                    folded,
                    [dict(row) for row in delta.added],
                    [dict(row) for row in delta.removed],
                )
        assert sorted(folded, key=str) == sorted(
            fconn.query("E.sal -> S"), key=str
        )
    finally:
        stream.close()
        fconn.close()
        fol.close()
        server.close()
