"""Merged ``cluster:`` live queries and the one read-your-writes wait.

A ``cluster:`` subscription is folded on the consumer's ``next()`` from
its shards' pushes, so the router starts no thread of its own; it stays exact across a shard
restart (the shard's ``lagged`` resync becomes one merged resync) and ends
when a shard is gone for good.  A ``min_revision`` token the head never
reaches fails the same way on every backend: one deadline
(``repro.api.connection.READ_YOUR_WRITES_WAIT``) and one refusal text.
"""

from __future__ import annotations

import threading
import time

import pytest

import repro
from repro.api import BackgroundServer, RetryPolicy, ServerBusyError
from repro.api import connection as connection_module
from repro.cluster import LocalCluster, shard_for
from repro.core.query import fold_answers
from repro.core.terms import Oid
from repro.lang.parser import parse_object_base
from repro.server.service import StoreService
from repro.storage.history import VersionedStore

# henry -> shard 0; phil, mary -> shard 1 (asserted below).
BASE = """
    phil.isa -> empl.   phil.sal -> 4000.
    mary.isa -> empl.   mary.sal -> 3900.
    henry.isa -> empl.  henry.sal -> 4200.
"""
BODY = "E.isa -> empl, E.sal -> S"
RAISE_HENRY = "raise_henry: mod[henry].sal -> (S, S2) <= henry.sal -> S, S2 = S + 25."
RAISE_PHIL = "raise_phil: mod[phil].sal -> (S, S2) <= phil.sal -> S, S2 = S + 25."


def test_host_placement_assumed_by_this_suite():
    assert shard_for(Oid("henry"), 2) == 0
    assert shard_for(Oid("phil"), 2) == 1


def test_merged_subscribe_adds_no_pump_thread():
    """The router folds shard pushes in ``next()``: a merged subscribe
    starts only the one reader each shard link starts with its first
    subscription, and a second subscribe starts none."""
    with LocalCluster(BASE, shards=2) as cluster:
        with repro.connect(cluster.target) as conn:
            conn.query(BODY)  # opens both shard links and the scatter pool
            before = threading.active_count()
            stream = conn.subscribe(BODY)
            assert threading.active_count() == before + 2  # one per shard
            second = conn.subscribe(BODY)
            assert threading.active_count() == before + 2
            conn.apply(RAISE_HENRY, tag="raise")
            assert stream.next(timeout=5.0) is not None
            assert stream.answers == conn.query(BODY)
            assert second.next(timeout=5.0) is not None
            second.close()
            stream.close()


def test_merged_stream_stays_exact_across_a_shard_restart(tmp_path):
    retry = RetryPolicy(attempts=40, base_delay=0.05, max_delay=0.2)
    with LocalCluster(BASE, shards=2, directory=tmp_path) as cluster:
        with repro.connect(cluster.target, retry=retry) as conn:
            stream = conn.subscribe(BODY)
            folded = list(stream.answers)
            path = cluster.servers[1].address.removeprefix("unix:")
            cluster.servers[1].close()
            conn.apply(RAISE_HENRY, tag="while-down")
            cluster.servers[1] = BackgroundServer(
                StoreService.open(
                    tmp_path / "shard-1", shard_id=1, shard_count=2
                ),
                path=path,
            )
            conn.apply(RAISE_PHIL, tag="after-restart")
            for _ in range(2):
                delta = stream.next(timeout=10.0)
                assert delta is not None, "expected one delta per commit"
                folded = fold_answers(folded, delta.added, delta.removed)
            assert folded == conn.query(BODY)
            assert stream.answers == folded
            router = conn.stats()["cluster"]["router"]
            assert stream.revision == router["revision"] == 2
            assert stream.next(timeout=0.25) is None


def test_merged_stream_ends_when_a_shard_is_gone_for_good():
    retry = RetryPolicy(attempts=1, base_delay=0.01)
    with LocalCluster(BASE, shards=2) as cluster:
        with repro.connect(cluster.target, retry=retry) as conn:
            stream = conn.subscribe(BODY)
            cluster.servers[1].close()
            assert stream.next(timeout=5.0) is None
            assert stream.closed


def test_unsatisfiable_token_fails_alike_on_every_backend(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(connection_module, "READ_YOUR_WRITES_WAIT", 0.2)
    store = VersionedStore(parse_object_base(BASE), tag="initial")
    with BackgroundServer(store, path=str(tmp_path / "one.sock")) as server, \
            LocalCluster(BASE, shards=2) as cluster:
        messages = []
        for target in ("memory:", server.target, cluster.target):
            base = BASE if target == "memory:" else None
            with repro.connect(target, base=base) as conn:
                conn.apply(RAISE_HENRY, tag="one")
                conn.apply(RAISE_PHIL, tag="two")
                token = conn.head.index + 5
                started = time.monotonic()
                with pytest.raises(ServerBusyError) as refusal:
                    conn.query(BODY, min_revision=token)
                assert time.monotonic() - started < 2.0, target
                assert refusal.value.retryable
                messages.append(str(refusal.value))
    assert messages[0] == (
        "read-your-writes token not satisfied: the head is at revision 2, "
        "the read demands 7 — retry shortly"
    )
    assert messages == [messages[0]] * 3
