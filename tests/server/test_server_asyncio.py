"""End-to-end asyncio transport tests, including the acceptance-criteria
differential: concurrent optimistic commits through the server leave a
journal byte-identical to the same programs applied sequentially in the
server's commit order, and wire subscription streams fold to fresh store
queries at every revision.  The server runs on a background loop thread
(:class:`~repro.api.hosting.BackgroundServer`); clients are blocking
:class:`~repro.server.client.LineClient` links.
"""

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api.hosting import BackgroundServer
from repro.core.query import fold_answers
from repro.lang.parser import parse_program, prepare_query
from repro.server import ConflictError, LineClient, ReproServer, StoreService
from repro.storage import VersionedStore, load_store
from repro.storage.serialize import JOURNAL_FILE
from repro.workloads import paper_example_base

SALARIES = "E.isa -> empl, E.sal -> S"
RAISE_PHIL = "r: mod[phil].sal -> (S, S2) <= phil.sal -> S, S2 = S + 100."


def run(coroutine):
    return asyncio.run(coroutine)


@pytest.fixture()
def socket_path(tmp_path):
    return str(tmp_path / "repro.sock")


def _served(socket_path, service=None):
    if service is None:
        service = StoreService(VersionedStore(paper_example_base()))
    return BackgroundServer(service, path=socket_path)


class TestWireBasics:
    def test_ping_query_apply(self, socket_path):
        with _served(socket_path):
            client = LineClient.connect(path=socket_path)
            assert client.call("ping")["pong"] is True
            applied = client.call("apply", {"program": RAISE_PHIL, "tag": "raise"})
            assert applied["revision"] == 1
            answers = client.call("query", {"body": "phil.sal -> S"})["answers"]
            client.close()

        assert answers == [{"S": 4100}]

    def test_subscription_push_crosses_connections(self, socket_path):
        with _served(socket_path):
            watcher = LineClient.connect(path=socket_path)
            writer = LineClient.connect(path=socket_path)
            subscribed = watcher.call("subscribe", {"body": SALARIES})
            writer.call("apply", {"program": RAISE_PHIL, "tag": "raise"})
            push = watcher.next_push(timeout=5.0)
            watcher.close()
            writer.close()

        assert subscribed["answers"] == [
            {"E": "bob", "S": 4200}, {"E": "phil", "S": 4000},
        ]
        assert push["tag"] == "raise"
        assert push["added"] == [{"E": "phil", "S": 4100}]
        assert push["removed"] == [{"E": "phil", "S": 4000}]

    def test_malformed_line_gets_an_error_response(self, socket_path):
        async def scenario():
            service = StoreService(VersionedStore(paper_example_base()))
            server = await ReproServer(service, path=socket_path).start()
            reader, writer = await asyncio.open_unix_connection(socket_path)
            writer.write(b"this is not json\n")
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), timeout=5.0)
            writer.close()
            await writer.wait_closed()
            await server.close()
            return line

        import json

        response = json.loads(run(scenario()))
        assert response["ok"] is False
        assert "malformed" in response["error"]

    def test_disconnect_cleans_up_sessions_and_subscriptions(self, socket_path):
        with _served(socket_path) as server:
            service = server.service
            client = LineClient.connect(path=socket_path)
            client.call("subscribe", {"body": SALARIES})
            client.call("tx-begin")
            assert len(service.subscriptions) == 1
            client.close()
            # give the server loop a tick to observe EOF and tear down
            for _ in range(50):
                if len(service.subscriptions) == 0:
                    break
                time.sleep(0.01)
            count = len(service.subscriptions)

        assert count == 0


class TestSerializedConcurrentCommits:
    """The acceptance differential (see the module docstring)."""

    N_CLIENTS = 5
    COMMITS_PER_CLIENT = 3

    def test_concurrent_commits_replay_byte_identical(self, tmp_path):
        socket_path = str(tmp_path / "repro.sock")
        served_dir = tmp_path / "served"
        sequential_dir = tmp_path / "sequential"

        def client_program(client_index: int, step: int) -> str:
            # Every client repeatedly raises the same object's salary, so
            # concurrent sessions genuinely collide on the sal fact key
            # and exercise conflict + retry; the program text is unique
            # per (client, step) via the rule name.
            return (
                f"c{client_index}s{step}: mod[phil].sal -> (S, S2) <= "
                f"phil.sal -> S, S2 = S + {client_index + 1}."
            )

        def run_client(client_index: int):
            client = LineClient.connect(path=socket_path)
            for step in range(self.COMMITS_PER_CLIENT):
                program = client_program(client_index, step)
                tag = f"c{client_index}-{step}"
                for _attempt in range(50):
                    session = client.call("tx-begin")["session"]
                    client.call(
                        "tx-query", {"session": session, "body": "phil.sal -> S"}
                    )
                    client.call(
                        "tx-stage", {"session": session, "program": program}
                    )
                    try:
                        client.call("tx-commit", {"session": session, "tag": tag})
                        break
                    except ConflictError:
                        time.sleep(0)  # yield, then retry
                else:  # pragma: no cover - fails the test
                    raise AssertionError("commit never succeeded")
            client.close()

        service = StoreService.create(
            paper_example_base(), served_dir, tag="initial"
        )
        with _served(socket_path, service):
            with ThreadPoolExecutor(max_workers=self.N_CLIENTS) as pool:
                for done in [
                    pool.submit(run_client, index)
                    for index in range(self.N_CLIENTS)
                ]:
                    done.result()
            log = _one_shot(socket_path, "log")["revisions"]
        committed = log[1:]  # skip the initial revision
        assert len(committed) == self.N_CLIENTS * self.COMMITS_PER_CLIENT

        # Sequential replay: the same programs, applied in the server's
        # commit order by one in-process writer.
        sequential = StoreService.create(
            paper_example_base(), sequential_dir, tag="initial"
        )
        for entry in committed:
            client_index, step = (
                int(part) for part in entry["tag"][1:].split("-")
            )
            program = parse_program(client_program(client_index, step))
            sequential.apply(program, tag=entry["tag"])

        served_journal = (served_dir / JOURNAL_FILE).read_bytes()
        sequential_journal = (sequential_dir / JOURNAL_FILE).read_bytes()
        assert served_journal == sequential_journal

        # and the replayed stores agree fact-for-fact at every revision
        served_store = load_store(served_dir)
        sequential_store = load_store(sequential_dir)
        for index in range(len(served_store)):
            assert set(served_store.base_at(index)) == set(
                sequential_store.base_at(index)
            )

    def test_wire_subscription_stream_folds_to_fresh_queries(self, tmp_path):
        socket_path = str(tmp_path / "repro.sock")

        with _served(socket_path) as server:
            watcher = LineClient.connect(path=socket_path)
            writer = LineClient.connect(path=socket_path)
            subscribed = watcher.call("subscribe", {"body": SALARIES})
            pushes = []
            for step in range(4):
                writer.call(
                    "apply", {"program": RAISE_PHIL, "tag": f"raise-{step}"}
                )
                pushes.append(watcher.next_push(timeout=5.0))
            watcher.close()
            writer.close()
        store, state = server.service.store, subscribed["answers"]
        prepared = prepare_query(SALARIES)
        for push in pushes:
            state = fold_answers(state, push["added"], push["removed"])
            assert state == prepared.run(store.base_at(push["revision"]))
        assert state == prepared.run(store.current)


def _one_shot(socket_path: str, cmd: str, payload=None) -> dict:
    client = LineClient.connect(path=socket_path)
    try:
        return client.call(cmd, payload)
    finally:
        client.close()
