"""The JSON-lines protocol without a socket.

The ``protocol_client`` fixture drives the :class:`Dispatcher` +
:class:`ClientState` pair the asyncio server builds per connection, so
these tests cover the protocol semantics of the served transport; the
socket-level behaviour is covered by ``test_server_asyncio.py``.
"""

import pytest

from repro.core.errors import ReproError
from repro.core.query import decode_answers
from repro.server import ConflictError, ServerError, StoreService
from repro.server.protocol import PROTOCOL_VERSION, ClientState, Dispatcher, decode, encode
from repro.storage import VersionedStore
from repro.workloads import paper_example_base

RAISE_PHIL = "r: mod[phil].sal -> (S, S2) <= phil.sal -> S, S2 = S + 100."
ADD_BOSS = "b: ins[joe].boss -> phil <= phil.isa -> empl."


@pytest.fixture()
def service():
    return StoreService(VersionedStore(paper_example_base(), tag="initial"))


@pytest.fixture()
def client(service, protocol_client):
    return protocol_client(service)


class TestFraming:
    def test_encode_decode_round_trip(self):
        message = {"id": 7, "cmd": "query", "body": "E.sal -> S"}
        assert decode(encode(message)) == message
        assert encode(message).endswith(b"\n")

    def test_decode_rejects_garbage(self):
        with pytest.raises(ReproError):
            decode(b"{not json\n")
        with pytest.raises(ReproError):
            decode(b'"a bare string"\n')


class TestCommands:
    def test_ping(self, client):
        response = client.call("ping")
        assert response["pong"] is True
        assert response["protocol"] == PROTOCOL_VERSION

    def test_unknown_command(self, client):
        response = client.request("warp")
        assert response["ok"] is False
        assert "unknown command" in response["error"]

    def test_missing_field(self, client):
        response = client.request("query")
        assert response["ok"] is False
        assert "'body'" in response["error"]

    def test_type_malformed_requests_get_error_responses(self, client):
        # valid JSON, wrong types: must answer ok:false, never raise out
        # of the dispatcher (which would kill a wire connection)
        for request in (
            {"cmd": "apply", "program": 123},
            {"cmd": "query", "body": ["not", "text"]},
            {"cmd": ["unhashable"]},
            {"cmd": "tx-query", "session": {"weird": 1}, "body": "E.sal -> S"},
            {"cmd": "as-of", "revision": {"t": 1}},
        ):
            response = client.dispatcher.handle(
                dict(request, id=1), client.state
            )
            assert response["ok"] is False, request
        assert client.call("ping")["pong"] is True  # connection state intact

    def test_apply_and_query(self, client):
        applied = client.call("apply", program=RAISE_PHIL, tag="raise")
        assert applied["revision"] == 1
        assert applied["tag"] == "raise"
        assert applied["added"] == 1 and applied["removed"] == 1
        answers = client.call("query", body="phil.sal -> S")["answers"]
        assert decode_answers(answers) == [{"S": 4100}]

    def test_log_and_as_of(self, client):
        client.call("apply", program=RAISE_PHIL, tag="raise")
        log = client.call("log")["revisions"]
        assert [entry["tag"] for entry in log] == ["initial", "raise"]
        assert log[0]["snapshot"] is True
        assert "phil.sal -> 4000." in client.call("as-of", revision="initial")["facts"]
        assert "phil.sal -> 4100." in client.call("as-of", revision=1)["facts"]
        with pytest.raises(ServerError):
            client.call("as-of", revision="nope")

    def test_prepare_and_stats(self, client):
        # the wire `prepare` command is gone with the registry it fed
        with pytest.raises(ServerError, match="unknown command 'prepare'"):
            client.call("prepare", body="E.sal -> S", name="sals")
        client.call("query", body="E.sal -> S")
        stats = client.call("stats")["stats"]
        assert stats["revisions"] == 1
        assert stats["prepared"] == {}  # kept for the frozen benchmark
        assert stats["caches"]["query.prepared"]["maxsize"] == 256

    def test_id_echo(self, client):
        response = client.request("ping")
        assert response["id"] == 1
        assert client.request("ping")["id"] == 2


class TestTransactions:
    def test_full_lifecycle(self, client):
        session = client.call("tx-begin")["session"]
        read = client.call("tx-query", session=session, body="phil.sal -> S")
        assert decode_answers(read["answers"]) == [{"S": 4000}]
        staged = client.call("tx-stage", session=session, program=RAISE_PHIL)
        assert staged["staged"] == 1
        committed = client.call("tx-commit", session=session, tag="mine")
        assert committed["revision"] == 1
        [revision] = committed["revisions"]
        assert revision["index"] == 1 and revision["tag"] == "mine"
        assert revision["added"] == 1 and revision["removed"] == 1
        assert revision["snapshot"] is False
        # the session is gone from the connection after commit
        response = client.request("tx-commit", session=session)
        assert response["ok"] is False and "unknown session" in response["error"]

    def test_conflict_response_carries_metadata(self, service, protocol_client):
        reader = protocol_client(service)
        writer = protocol_client(service)
        session = reader.call("tx-begin")["session"]
        reader.call("tx-query", session=session, body="phil.sal -> S")
        writer.call("apply", program=RAISE_PHIL, tag="sneaky")
        reader.call("tx-stage", session=session, program=ADD_BOSS)
        response = reader.request("tx-commit", session=session, tag="mine")
        assert response["ok"] is False
        assert response["conflict"] is True
        assert response["pinned"] == 0
        assert response["conflicting_index"] == 1
        assert response["conflicting_tag"] == "sneaky"
        # the typed exception comes back through call()
        retry = reader.call("tx-begin")["session"]
        reader.call("tx-query", session=retry, body="phil.sal -> S")
        writer.call("apply", program=RAISE_PHIL, tag="again")
        reader.call("tx-stage", session=retry, program=ADD_BOSS)
        with pytest.raises(ConflictError) as excinfo:
            reader.call("tx-commit", session=retry)
        assert excinfo.value.conflicting_tag == "again"

    def test_abort(self, client):
        session = client.call("tx-begin")["session"]
        client.call("tx-stage", session=session, program=RAISE_PHIL)
        assert client.call("tx-abort", session=session)["aborted"] is True
        # nothing committed
        assert client.call("log")["revisions"][-1]["index"] == 0

    def test_sessions_are_per_connection(self, service, protocol_client):
        one = protocol_client(service)
        two = protocol_client(service)
        session = one.call("tx-begin")["session"]
        response = two.request("tx-query", session=session, body="E.sal -> S")
        assert response["ok"] is False
        assert "unknown session" in response["error"]


class TestPushesAndTeardown:
    def test_pushes_reach_only_the_subscribed_connection(
        self, service, protocol_client
    ):
        subscribed = protocol_client(service)
        other = protocol_client(service)
        subscribed.call("subscribe", body="E.sal -> S")
        other.call("apply", program=RAISE_PHIL, tag="raise")
        pushes = subscribed.pushes()
        assert len(pushes) == 1 and pushes[0]["tag"] == "raise"
        assert other.pushes() == []

    def test_unsubscribe_via_protocol(self, client):
        sid = client.call("subscribe", body="E.sal -> S")["sid"]
        assert client.call("unsubscribe", sid=sid)["removed"] is True
        client.call("apply", program=RAISE_PHIL)
        assert client.pushes() == []

    def test_unsubscribe_cannot_touch_other_connections(
        self, service, protocol_client
    ):
        subscribed = protocol_client(service)
        intruder = protocol_client(service)
        sid = subscribed.call("subscribe", body="E.sal -> S")["sid"]
        assert intruder.call("unsubscribe", sid=sid)["removed"] is False
        intruder.call("apply", program=RAISE_PHIL, tag="still-pushed")
        assert [p["tag"] for p in subscribed.pushes()] == ["still-pushed"]

    def test_close_aborts_sessions_and_unsubscribes(self, service, client):
        client.call("tx-begin")
        client.call("subscribe", body="E.sal -> S")
        assert len(service.subscriptions) == 1
        client.close()
        assert len(service.subscriptions) == 0
        with pytest.raises(ServerError):
            client.call("ping")


class TestDispatcherDirect:
    def test_error_payloads_do_not_leak_exceptions(self, service):
        dispatcher = Dispatcher(service)
        state = ClientState(lambda message: None)
        response = dispatcher.handle({"cmd": "apply", "program": "not a program"}, state)
        assert response["ok"] is False
        assert response["id"] is None
