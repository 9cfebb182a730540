"""What a served connection costs in threads.

A call on a :class:`~repro.api.wire.WireConnection` is made on the
caller's own thread, so a connection without a live subscription starts
no thread at all; its first subscription starts the link's one reader.
"""

from __future__ import annotations

import sys
import threading

import repro
from repro.api import BackgroundServer
from repro.lang.parser import parse_object_base
from repro.storage.history import VersionedStore

BASE = "henry.isa -> empl. henry.sal -> 250. bob.isa -> empl. bob.sal -> 300."
SALARIES = "E.isa -> empl, E.sal -> S"
RAISE = "r: mod[henry].sal -> (S, S2) <= henry.sal -> S, S2 = S + 50."


def _started_since(before: set) -> list[threading.Thread]:
    return [thread for thread in threading.enumerate() if thread not in before]


def test_a_connection_without_subscriptions_starts_no_thread(tmp_path):
    store = VersionedStore(parse_object_base(BASE))
    with BackgroundServer(store, path=str(tmp_path / "s.sock")) as server:
        before = set(threading.enumerate())
        with repro.connect(server.target) as conn:
            assert _started_since(before) == []
            conn.ping()
            conn.query(SALARIES)
            conn.apply(RAISE, tag="raise")
            with conn.transaction(tag="tx") as tx:
                tx.query(SALARIES)
                tx.stage(RAISE)
            assert _started_since(before) == []

            stream = conn.subscribe(SALARIES)
            readers = _started_since(before)
            assert [thread.name for thread in readers] == ["repro-link-reader"]
            second = conn.subscribe("E.sal -> S")
            assert _started_since(before) == readers
            conn.apply(RAISE, tag="pushed")
            assert stream.next(timeout=5.0) is not None
            assert second.next(timeout=5.0) is not None
        # closing the connection joins its reader
        assert _started_since(before) == []


def test_concurrent_callers_on_one_link_each_get_their_own_answer(tmp_path):
    """More callers than cores share one link, with and without a reader
    thread, under a short switch interval: every answer reaches the call
    that asked for it, and no commit is lost or doubled."""
    base = " ".join(f"e{i}.isa -> empl. e{i}.sal -> {i}." for i in range(8))
    store = VersionedStore(parse_object_base(base))
    interval = sys.getswitchinterval()
    with BackgroundServer(store, path=str(tmp_path / "s.sock")) as server:
        with repro.connect(server.target) as conn:
            failures: list = []

            def work(worker: int) -> None:
                try:
                    for round_ in range(15):
                        rows = conn.query(f"e{worker}.sal -> S")
                        assert rows == [{"S": worker}], (worker, rows)
                        if round_ % 5 == 0:
                            conn.apply(
                                f"w{worker}: mod[e{worker}].isa -> "
                                f"(empl, empl) <= e{worker}.isa -> empl.",
                                tag=f"w{worker}-{round_}",
                            )
                except Exception as error:  # reported below
                    failures.append(error)

            sys.setswitchinterval(1e-6)
            try:
                for subscribed in (False, True):
                    if subscribed:
                        conn.subscribe(SALARIES)
                    threads = [
                        threading.Thread(target=work, args=(worker,))
                        for worker in range(8)
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=30)
                    assert not any(thread.is_alive() for thread in threads)
            finally:
                sys.setswitchinterval(interval)
            assert failures == []
            assert conn.head.index == 2 * 8 * 3
