"""Degradation-under-load and teardown tests for the asyncio transport.

Covers the PR-6 server contracts: bounded outboxes that shed slow
subscribers into one coalesced ``lagged`` resync, hard-cap disconnects
with a typed retryable error, graceful shutdown that drains outboxes, and
connection teardown (vanishing clients release their sessions and
subscriptions; duplicate unsubscribes are harmless).

The pipelining trick: the server loop is single-threaded and its handler
only yields when the read buffer runs dry, so N requests written in one
frame batch are processed back-to-back — pushes for another connection
pile into its outbox faster than its drain task can run, which is exactly
the backlog the shedding policy exists for.
"""

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.api.hosting import BackgroundServer
from repro.core.query import fold_answers
from repro.server import (
    ConnectionClosed,
    LineClient,
    ReproServer,
    ServerLimits,
    StoreService,
)
from repro.server.client import CallTimeout
from repro.server.protocol import encode
from repro.server.server import Outbox
from repro.storage import VersionedStore
from repro.workloads import paper_example_base

SALARIES = "E.isa -> empl, E.sal -> S"
RAISE_PHIL = "r: mod[phil].sal -> (S, S2) <= phil.sal -> S, S2 = S + 100."


def run(coroutine):
    return asyncio.run(coroutine)


def _served(socket_path, limits=None):
    service = StoreService(VersionedStore(paper_example_base()))
    return BackgroundServer(service, path=socket_path, limits=limits)


def _wait_until_unsubscribed(service) -> None:
    for _ in range(100):
        if len(service.subscriptions) == 0:
            return
        time.sleep(0.01)


@pytest.fixture()
def socket_path(tmp_path):
    return str(tmp_path / "repro.sock")


def _fold(state, push):
    """Fold one push message the way a client must: diffs compose, a
    lagged resync replaces."""
    if push.get("push") == "diff":
        return fold_answers(state, push["added"], push["removed"])
    if push.get("push") == "lagged":
        return list(push["answers"])
    return state


@pytest.fixture()
def idle_loop():
    """A live (not running) loop: Outbox wakeups post to it harmlessly."""
    loop = asyncio.new_event_loop()
    yield loop
    loop.close()


class TestOutboxShedding:
    """Unit tests of the bounded queue's policy, no sockets involved."""

    @staticmethod
    def _outbox(loop, *, soft=2, hard=10):
        return Outbox(loop, ServerLimits(outbox_soft=soft, outbox_hard=hard))

    @staticmethod
    def _diff(sid, revision):
        return {"push": "diff", "sid": sid, "revision": revision,
                "added": [], "removed": []}

    def test_diffs_over_the_soft_limit_coalesce_into_one_marker(self, idle_loop):
        outbox = self._outbox(idle_loop, soft=2)
        outbox.put(self._diff("q1", 1))
        outbox.put(self._diff("q1", 2))
        assert len(outbox) == 2 and outbox.shed == 0
        outbox.put(self._diff("q1", 3))  # trips the soft limit
        # both queued diffs and the new one are shed into one marker
        assert outbox.shed == 3
        assert len(outbox) == 1
        marker = outbox._items[0]
        assert marker.sid == "q1" and marker.from_revision == 1

    def test_lagging_sid_swallows_further_diffs_until_acknowledged(self, idle_loop):
        outbox = self._outbox(idle_loop, soft=2)
        outbox.put(self._diff("q1", 1))
        outbox.put(self._diff("q1", 2))
        outbox.put(self._diff("q1", 3))  # sheds all q1 diffs into the marker
        assert len(outbox) == 1 and outbox.shed == 3
        outbox.put(self._diff("q1", 4))  # covered by the pending resync
        assert outbox.shed == 4
        assert len(outbox) == 1  # still just the marker
        assert outbox.clear_lag("q1") == 1  # earliest shed revision
        outbox.put(self._diff("q1", 5))  # post-resync diffs flow again
        assert len(outbox) == 2

    def test_soft_limit_only_sheds_the_guilty_sid(self, idle_loop):
        outbox = self._outbox(idle_loop, soft=2)
        outbox.put({"id": 1, "ok": True})
        outbox.put(self._diff("q2", 1))
        outbox.put(self._diff("q1", 2))  # trips; only q1 diffs shed
        kept_kinds = [
            item.get("push") if isinstance(item, dict) else type(item).__name__
            for item in outbox._items
        ]
        assert kept_kinds == [None, "diff", "_Lagged"]

    def test_hard_cap_kills_with_a_typed_reason(self, idle_loop):
        outbox = self._outbox(idle_loop, soft=50, hard=3)
        for index in range(4):
            outbox.put({"id": index, "ok": True})
        assert outbox.kill_reason is not None
        assert "hard cap" in outbox.kill_reason
        # one kill marker, then the outbox goes deaf
        outbox.put({"id": 99, "ok": True})
        assert len(outbox) == 5  # 4 responses + the kill marker


class TestSlowSubscriberDegradation:
    def test_slow_subscriber_gets_coalesced_resync(self, socket_path):
        """A subscriber that cannot keep up is shed to one ``lagged`` push;
        folding it lands on exactly the fresh answers (bounded memory, no
        lost updates)."""
        commits = 8

        limits = ServerLimits(outbox_soft=1, outbox_hard=64)
        with _served(socket_path, limits) as served:
            watcher = LineClient.connect(path=socket_path)
            subscribed = watcher.call("subscribe", {"body": SALARIES})

            # pipeline every apply in one write: the handler processes them
            # without yielding, so the watcher's outbox backs up and sheds
            writer = socket.socket(socket.AF_UNIX)
            writer.connect(socket_path)
            writer.sendall(b"".join(
                encode({"id": index, "cmd": "apply", "program": RAISE_PHIL,
                        "tag": f"raise-{index}"})
                for index in range(commits)
            ))

            state = list(subscribed["answers"])
            lagged = []
            revision = subscribed["revision"]
            while revision < commits:
                push = watcher.next_push(timeout=5.0)
                state = _fold(state, push)
                if push.get("push") == "lagged":
                    lagged.append(push)
                    revision = push["to_revision"]
                else:
                    revision = push["revision"]
            fresh = watcher.call("query", {"body": SALARIES})["answers"]
            server = served.server
            resyncs, disconnects = (
                server.lagged_resyncs, server.overload_disconnects
            )
            writer.close()
            watcher.close()

        assert state == fresh
        assert lagged, "the backlog never coalesced into a lagged resync"
        assert resyncs >= 1 and disconnects == 0
        for push in lagged:
            assert push["from_revision"] <= push["to_revision"]
            assert push["sid"] and push["query"]

    def test_hard_cap_disconnects_with_typed_error(self, socket_path):
        """A connection whose outbox overflows the hard cap receives one
        ``{"push": "closed", retryable: true}`` and is cut off."""

        async def scenario():
            service = StoreService(VersionedStore(paper_example_base()))
            limits = ServerLimits(outbox_soft=1000, outbox_hard=3)
            server = await ReproServer(
                service, path=socket_path, limits=limits
            ).start()
            reader, writer = await asyncio.open_unix_connection(socket_path)
            writer.write(
                b"".join(
                    encode({"id": index, "cmd": "ping"}) for index in range(10)
                )
            )
            await writer.drain()
            closed = None
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=5.0)
                if not line:
                    break  # server cut the connection
                frame = json.loads(line)
                if frame.get("push") == "closed":
                    closed = frame
            disconnects = server.overload_disconnects
            writer.close()
            await server.close()
            return closed, disconnects

        closed, disconnects = run(scenario())
        assert closed is not None
        assert closed["retryable"] is True
        assert "hard cap" in closed["error"]
        assert disconnects == 1


class TestGracefulShutdown:
    def test_shutdown_flushes_outboxes_and_says_goodbye(self, socket_path):
        served = _served(socket_path)
        client = LineClient.connect(path=socket_path)
        client.call("subscribe", {"body": SALARIES})
        served.shutdown(deadline=5.0)
        push = client.next_push(timeout=5.0)
        # the link then dies; further requests fail fast and typed
        with pytest.raises(ConnectionClosed):
            client.call("ping", timeout=5.0)
            client.call("ping", timeout=5.0)
        client.close()

        assert push["push"] == "shutdown"
        assert "shut" in push["reason"]

    def test_shutdown_refuses_new_connections(self, socket_path):
        async def scenario():
            service = StoreService(VersionedStore(paper_example_base()))
            server = await ReproServer(service, path=socket_path).start()
            await server.shutdown(deadline=1.0)
            try:
                reader, writer = await asyncio.open_unix_connection(socket_path)
            except (ConnectionError, OSError):
                return "refused"
            # accepted by a lingering socket: the link must be dead anyway
            writer.write(encode({"id": 1, "cmd": "ping"}))
            try:
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), timeout=2.0)
            except (ConnectionError, OSError):
                return "refused"
            finally:
                writer.close()
            return "answered" if line else "refused"

        assert run(scenario()) == "refused"


class TestConnectionTeardown:
    def test_vanishing_client_releases_session_and_subscription(
        self, socket_path
    ):
        """A client that disappears mid-transaction must not leak its MVCC
        session or its subscriptions — and must not block later writers."""

        with _served(socket_path) as served:
            service = served.service
            ghost = LineClient.connect(path=socket_path)
            session = ghost.call("tx-begin")["session"]
            ghost.call("tx-stage", {"session": session, "program": RAISE_PHIL})
            ghost.call("subscribe", {"body": SALARIES})
            assert len(service.subscriptions) == 1
            # vanish without tx-abort/unsubscribe/goodbye
            ghost.close()

            survivor = LineClient.connect(path=socket_path)
            _wait_until_unsubscribed(service)
            applied = survivor.call(
                "apply", {"program": RAISE_PHIL, "tag": "after-ghost"}
            )
            subscriptions = len(service.subscriptions)
            head = survivor.call("query", {"body": "phil.sal -> S"})["answers"]
            survivor.close()

        assert subscriptions == 0  # the ghost's live query is gone
        assert applied["revision"] == 1  # the staged-but-dead tx never landed
        assert head == [{"S": 4100}]

    def test_duplicate_unsubscribe_is_harmless(self, socket_path):
        with _served(socket_path):
            client = LineClient.connect(path=socket_path)
            other = LineClient.connect(path=socket_path)
            sid = client.call("subscribe", {"body": SALARIES})["sid"]
            first = client.call("unsubscribe", {"sid": sid})
            second = client.call("unsubscribe", {"sid": sid})
            foreign = other.call("unsubscribe", {"sid": sid})
            alive = client.call("ping")["pong"]
            client.close()
            other.close()

        assert first["removed"] is True
        assert second["removed"] is False
        assert foreign["removed"] is False  # never someone else's sid
        assert alive is True

    def test_subscribe_then_disconnect_race(self, socket_path):
        """Subscribing and dropping the link while commits are in flight
        must neither crash the server nor leak the subscription."""

        with _served(socket_path) as served:
            service = served.service
            writer_client = LineClient.connect(path=socket_path)

            def churn():
                for index in range(5):
                    writer_client.call(
                        "apply", {"program": RAISE_PHIL, "tag": f"race-{index}"}
                    )

            def flicker():
                for _ in range(5):
                    flaky = LineClient.connect(path=socket_path)
                    flaky.call("subscribe", {"body": SALARIES})
                    flaky.close()

            churner = threading.Thread(target=churn)
            churner.start()
            flicker()
            churner.join()
            _wait_until_unsubscribed(service)
            remaining = len(service.subscriptions)
            head = writer_client.call("query", {"body": "phil.sal -> S"})[
                "answers"
            ]
            writer_client.close()

        assert remaining == 0
        assert head == [{"S": 4500}]


class _SilentPeer:
    """A unix-socket peer that answers a ``subscribe`` (when asked to) and
    nothing else, so a later call blocks until the client is closed."""

    def __init__(self, path: str) -> None:
        self._listener = socket.socket(socket.AF_UNIX)
        self._listener.bind(path)
        self._listener.listen(1)
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        peer, _ = self._listener.accept()
        with peer:
            for line in peer.makefile("rb"):
                message = json.loads(line)
                if message["cmd"] == "subscribe":
                    peer.sendall(encode({
                        "id": message["id"], "ok": True, "sid": "s1",
                        "query": "", "revision": 0, "answers": [],
                    }))

    def close(self) -> None:
        self._listener.close()


class TestLineClientClose:
    def test_close_wakes_pending_push_waiters(self, socket_path):
        with _served(socket_path):
            client = LineClient.connect(path=socket_path)
            outcome = []

            def wait_for_push():
                try:
                    client.next_push()
                except ConnectionClosed:
                    outcome.append("closed")
                else:
                    outcome.append("returned")

            waiter = threading.Thread(target=wait_for_push, daemon=True)
            waiter.start()
            time.sleep(0.05)  # let the waiter block
            client.close()
            waiter.join(timeout=5.0)

        assert outcome == ["closed"]

    @pytest.mark.parametrize("subscribed", [False, True],
                             ids=["caller-reads", "reader-thread"])
    def test_close_wakes_a_call_blocked_on_another_thread(
        self, socket_path, subscribed
    ):
        peer = _SilentPeer(socket_path)
        try:
            client = LineClient.connect(path=socket_path)
            if subscribed:
                client.call("subscribe", {"body": SALARIES}, timeout=5.0)
            outcome = []

            def blocked_call():
                try:
                    client.call("ping")
                except ConnectionClosed:
                    outcome.append("closed")
                else:
                    outcome.append("answered")

            caller = threading.Thread(target=blocked_call, daemon=True)
            caller.start()
            time.sleep(0.05)  # let the call block on its answer
            client.close()
            caller.join(timeout=5.0)
        finally:
            peer.close()

        assert outcome == ["closed"]

    def test_a_call_timeout_is_not_a_closed_link(self, socket_path):
        """A silent server times the call out; that is not a dead link,
        so a test that expects a fast typed close cannot pass on a hang."""
        peer = _SilentPeer(socket_path)
        try:
            client = LineClient.connect(path=socket_path)
            with pytest.raises(CallTimeout) as caught:
                client.call("ping", timeout=0.2)
            assert not isinstance(caught.value, ConnectionClosed)
            assert caught.value.retryable
            assert client.alive  # the link stays up for the next call
            client.close()
        finally:
            peer.close()

    def test_close_is_idempotent_and_kills_pending_requests(self, socket_path):
        with _served(socket_path):
            client = LineClient.connect(path=socket_path)
            client.close()
            client.close()  # second close must be a no-op
            try:
                client.request("ping")
            except ConnectionClosed:
                outcome = "closed"
            else:
                outcome = "answered"

        assert outcome == "closed"

    def test_server_death_fails_pending_request_waiters(self, socket_path):
        served = _served(socket_path)
        client = LineClient.connect(path=socket_path)
        assert client.alive
        # one round-trip first, so the server has fully adopted the
        # connection before we cut it (close only cuts adopted links)
        assert client.call("ping")["pong"] is True
        served.close()
        try:
            client.call("ping", timeout=5.0)
        except ConnectionClosed:
            outcome = "closed"
        else:  # pragma: no cover - would be the bug
            outcome = "answered"
        alive = client.alive
        client.close()

        assert outcome == "closed"
        assert alive is False
