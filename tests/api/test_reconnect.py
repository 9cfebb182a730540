"""Reconnecting clients: ``repro.connect(..., retry=RetryPolicy(...))``.

The PR-6 client contract: a served connection under a retry policy
survives the server being killed and restarted — safe requests are
re-issued transparently, mutations surface the retryable
:class:`ConnectionClosed` instead of being blindly replayed, and
subscription streams are re-established with one coalesced ``lagged``
delta so folding stays exact across the outage.  The chaos-proxy tests
drive the same machinery through wire faults (torn frames, stalls,
drops) instead of a clean restart.
"""

import time

import pytest

import repro
from repro.api import (
    BackgroundServer,
    ConnectionClosed,
    RetryPolicy,
    ServerError,
)
from repro.api.wire import _EventLoopThread
from repro.core.errors import ReproError
from repro.testing import ChaosProxy

BASE = """
henry.isa -> empl.  henry.sal -> 250.
bob.isa -> empl.    bob.sal -> 300.
"""
SALARIES = "E.isa -> empl, E.sal -> S"
RAISE_HENRY = "r: mod[henry].sal -> (S, S2) <= henry.sal -> S, S2 = S + 50."

#: Patient enough for a restart inside the backoff window, fast in tests.
POLICY = RetryPolicy(attempts=40, base_delay=0.02, max_delay=0.25, jitter=0.25)


@pytest.fixture()
def journal_dir(tmp_path):
    directory = tmp_path / "journal"
    repro.connect(directory, base=BASE).close()
    return directory


@pytest.fixture()
def socket_path(tmp_path):
    return str(tmp_path / "repro.sock")


def _link_down(conn):
    client = conn._client  # may be None mid-redial
    return client is None or not client.alive


def _wait_for(predicate, *, timeout=10.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.4, jitter=0.0)
        delays = [policy.delay(attempt) for attempt in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.4, 0.4]

    def test_jitter_spreads_the_herd(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=1.0, jitter=0.5)
        low = policy.delay(0, rng=lambda: 0.0)
        high = policy.delay(0, rng=lambda: 1.0)
        assert low == pytest.approx(0.5) and high == pytest.approx(1.5)

    def test_invalid_policies_are_rejected(self):
        with pytest.raises(ReproError):
            RetryPolicy(attempts=0)
        with pytest.raises(ReproError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ReproError):
            RetryPolicy(base_delay=-1.0)

    def test_retry_is_refused_on_targets_without_a_link(self):
        with pytest.raises(ReproError, match="retry="):
            repro.connect("memory:", base=BASE, retry=RetryPolicy())


class TestServerRestart:
    def test_safe_requests_survive_a_restart(self, journal_dir, socket_path):
        server = BackgroundServer(journal_dir, path=socket_path)
        conn = repro.connect(server.target, retry=POLICY)
        try:
            before = conn.query(SALARIES)
            server.close()  # the moral equivalent of SIGKILL
            _wait_for(
                lambda: _link_down(conn), message="client to see the drop"
            )
            server = BackgroundServer(journal_dir, path=socket_path)
            # a safe request rides the reconnect transparently
            assert conn.query(SALARIES) == before
            assert conn.reconnects >= 1
            assert conn.ping()["pong"] is True
        finally:
            conn.close()
            server.close()

    def test_mutations_are_not_replayed_across_the_drop(
        self, journal_dir, socket_path
    ):
        server = BackgroundServer(journal_dir, path=socket_path)
        conn = repro.connect(server.target, retry=POLICY)
        try:
            head_before = conn.head.index
            server.close()
            _wait_for(
                lambda: _link_down(conn), message="client to see the drop"
            )
            with pytest.raises(ConnectionClosed) as caught:
                conn.apply(RAISE_HENRY, tag="lost")
            assert caught.value.retryable is True
            server = BackgroundServer(journal_dir, path=socket_path)
            conn.ping()  # safe traffic restores the link
            assert conn.head.index == head_before  # nothing double-applied
            revision = conn.apply(RAISE_HENRY, tag="retried-by-caller")
            assert revision.index == head_before + 1
        finally:
            conn.close()
            server.close()

    def test_subscription_stream_survives_restart_with_lagged_delta(
        self, journal_dir, socket_path
    ):
        """Kill the server mid-subscription, change the store offline,
        restart: the stream must deliver one coalesced lagged delta and
        its folded answers must equal a fresh query at every step."""
        server = BackgroundServer(journal_dir, path=socket_path)
        conn = repro.connect(server.target, retry=POLICY)
        try:
            stream = conn.subscribe(SALARIES)
            assert stream.answers == conn.query(SALARIES)

            conn.apply(RAISE_HENRY, tag="before-crash")
            delta = stream.next(timeout=10.0)
            assert delta is not None and not delta.lagged
            assert stream.answers == conn.query(SALARIES)

            server.close()  # crash...
            offline = repro.connect(journal_dir)  # ...history moves on
            offline.apply(RAISE_HENRY, tag="offline-1")
            offline.apply(RAISE_HENRY, tag="offline-2")
            expected = offline.query(SALARIES)
            head = offline.head.index
            offline.close()
            server = BackgroundServer(journal_dir, path=socket_path)

            catchup = stream.next(timeout=15.0)
            assert catchup is not None and catchup.lagged is True
            assert stream.answers == expected
            assert stream.revision == head
            assert catchup.added and catchup.removed  # the offline raises

            # and the stream keeps streaming normal diffs afterwards
            conn.apply(RAISE_HENRY, tag="after-restart")
            delta = stream.next(timeout=10.0)
            assert delta is not None and delta.lagged is False
            assert stream.answers == conn.query(SALARIES)
            assert conn.reconnects >= 1
        finally:
            conn.close()
            server.close()

    def test_quiet_outage_produces_no_spurious_delta(
        self, journal_dir, socket_path
    ):
        """A restart during which nothing changed must not wake the
        consumer: the resync diff is empty and is swallowed."""
        server = BackgroundServer(journal_dir, path=socket_path)
        conn = repro.connect(server.target, retry=POLICY)
        try:
            stream = conn.subscribe(SALARIES)
            server.close()
            _wait_for(
                lambda: _link_down(conn), message="client to see the drop"
            )
            server = BackgroundServer(journal_dir, path=socket_path)
            conn.ping()  # force the reconnect to complete
            assert stream.next(timeout=1.0) is None  # nothing to report
            # but the stream is live: a real commit still arrives
            conn.apply(RAISE_HENRY, tag="after-quiet-restart")
            delta = stream.next(timeout=10.0)
            assert delta is not None
            assert stream.answers == conn.query(SALARIES)
        finally:
            conn.close()
            server.close()

    def test_without_retry_the_connection_dies_loudly(
        self, journal_dir, socket_path
    ):
        server = BackgroundServer(journal_dir, path=socket_path)
        conn = repro.connect(server.target)  # no retry policy
        try:
            stream = conn.subscribe(SALARIES)
            server.close()
            # the stream terminates instead of hanging its consumer
            _wait_for(lambda: stream.closed, message="stream termination")
            assert stream.next(timeout=0.5) is None
            with pytest.raises(ServerError):
                conn.query(SALARIES)
        finally:
            conn.close()
            server.close()

    def test_retry_exhaustion_is_a_typed_error(self, journal_dir, socket_path):
        server = BackgroundServer(journal_dir, path=socket_path)
        conn = repro.connect(
            server.target,
            retry=RetryPolicy(attempts=2, base_delay=0.01, max_delay=0.02),
        )
        try:
            server.close()  # and never comes back
            with pytest.raises(ConnectionClosed):
                conn.query(SALARIES)
        finally:
            conn.close()
            server.close()


def test_a_connection_racing_the_stop_still_sees_eof(journal_dir, socket_path):
    """Regression for the tier-1 hang: a client whose ``connect()`` the
    kernel completed in the same loop iteration as ``close()`` used to be
    accepted and then dropped with its socket left open — no EOF, so a
    call without a timeout waited forever.  Every such connection must be
    cut (EOF or reset) by the time ``close()`` returns."""
    import socket

    for _ in range(30):
        server = BackgroundServer(journal_dir, path=socket_path)
        racer = socket.socket(socket.AF_UNIX)
        racer.connect(socket_path)  # in the backlog; maybe accepted, maybe not
        server.close()
        racer.settimeout(5.0)  # a hang fails here instead of stalling tier-1
        try:
            assert racer.recv(1) == b""
        except ConnectionResetError:
            pass
        finally:
            racer.close()


class _ProxyHarness:
    """Drives a :class:`ChaosProxy` from synchronous test code."""

    def __init__(self, target_path: str, listen_path: str) -> None:
        self.loop = _EventLoopThread("chaos-proxy")
        self.proxy = ChaosProxy(target_path, listen_path)
        self.loop.run(self.proxy.start(), timeout=10)

    def stall(self, stalled: bool) -> None:
        async def flip():
            self.proxy.stall(stalled)

        self.loop.run(flip(), timeout=5)

    def break_half_frame(self) -> int:
        return self.loop.run(self.proxy.break_with_half_frame(), timeout=5)

    def drop(self) -> int:
        return self.loop.run(self.proxy.drop_connections(), timeout=5)

    def close(self) -> None:
        try:
            self.loop.run(self.proxy.close(), timeout=5)
        finally:
            self.loop.stop()


class TestWireFaults:
    @pytest.fixture()
    def stack(self, tmp_path, journal_dir):
        """server <- proxy <- connection-with-retry, torn down in order."""
        server = BackgroundServer(journal_dir, path=str(tmp_path / "real.sock"))
        proxy = _ProxyHarness(
            str(tmp_path / "real.sock"), str(tmp_path / "proxy.sock")
        )
        conn = repro.connect(
            f"serve:unix:{tmp_path / 'proxy.sock'}", retry=POLICY
        )
        yield server, proxy, conn
        conn.close()
        proxy.close()
        server.close()

    def test_half_written_frame_triggers_clean_reconnect(self, stack):
        server, proxy, conn = stack
        stream = conn.subscribe(SALARIES)
        assert proxy.break_half_frame() >= 1
        # the torn frame must not be interpreted; the link redials and
        # both plain requests and the stream keep working
        assert conn.query(SALARIES) == stream.answers
        conn.apply(RAISE_HENRY, tag="after-torn-frame")
        delta = stream.next(timeout=10.0)
        assert delta is not None
        assert stream.answers == conn.query(SALARIES)
        assert conn.reconnects >= 1

    def test_dropped_connection_mid_request_recovers(self, stack):
        server, proxy, conn = stack
        before = conn.query(SALARIES)
        assert proxy.drop() >= 1
        assert conn.query(SALARIES) == before
        assert conn.reconnects >= 1

    def test_stalled_reader_times_out_then_recovers(
        self, tmp_path, journal_dir
    ):
        server = BackgroundServer(journal_dir, path=str(tmp_path / "real.sock"))
        proxy = _ProxyHarness(
            str(tmp_path / "real.sock"), str(tmp_path / "proxy.sock")
        )
        conn = repro.connect(
            f"serve:unix:{tmp_path / 'proxy.sock'}", call_timeout=0.5
        )
        try:
            assert conn.ping()["pong"] is True
            proxy.stall(True)
            with pytest.raises(ServerError, match="did not answer"):
                conn.query(SALARIES)
            proxy.stall(False)
            # the link survived the stall; no reconnect was needed
            assert conn.query(SALARIES)
        finally:
            conn.close()
            proxy.close()
            server.close()


class TestStreamFolding:
    """The stream's own answer folding — uniform across backends."""

    def test_local_stream_folds_answers(self):
        conn = repro.connect("memory:", base=BASE)
        try:
            stream = conn.subscribe(SALARIES)
            seed = list(stream.answers)
            conn.apply(RAISE_HENRY, tag="fold-1")
            conn.apply(RAISE_HENRY, tag="fold-2")
            first = stream.next(timeout=5.0)
            assert first is not None and stream.answers != seed
            second = stream.next(timeout=5.0)
            assert second is not None
            assert stream.answers == conn.query(SALARIES)
            assert stream.revision == conn.head.index
        finally:
            conn.close()
