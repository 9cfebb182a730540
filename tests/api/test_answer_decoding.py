"""Satellite regression: every client surface returns *decoded* answers.

``PreparedQuery.run`` emits canonical fresh rows (keys in sorted variable
order, rows in ``answer_sort_key`` order), so the in-process connection
returns them as they are; the wire client decodes on receipt
(``decode_answers``) to undo the JSON artefacts.  Either way the caller
gets rows that match ``repro.query`` exactly and may mutate them.
"""

import json

import pytest

import repro
from repro.api import BackgroundServer
from repro.core.query import answer_sort_key, decode_answer, decode_answers
from repro.server.service import StoreService
from repro.storage import VersionedStore

BASE = """
    phil.isa -> empl.   phil.sal -> 4000.
    bob.isa -> empl.    bob.sal -> 4200.
    v7.isa -> widget.   v7.label -> seven.
"""
QUERY = "E.isa -> empl, E.sal -> S"


@pytest.fixture()
def service():
    return StoreService(VersionedStore(repro.parse_object_base(BASE)))


class TestLocalClientDecoding:
    def test_matches_repro_query_exactly(self, service, protocol_client):
        client = protocol_client(service)
        received = decode_answers(client.call("query", body=QUERY)["answers"])
        expected = repro.query(service.store.current, QUERY)
        assert received == expected

    def test_rows_are_fresh_copies_not_the_live_memo(
        self, service, protocol_client
    ):
        client = protocol_client(service)
        first = decode_answers(client.call("query", body=QUERY)["answers"])
        first[0]["S"] = "corrupted"
        first.pop()
        second = decode_answers(client.call("query", body=QUERY)["answers"])
        assert second == repro.query(service.store.current, QUERY)

    def test_tx_query_matches_repro_query(self, service, protocol_client):
        client = protocol_client(service)
        session = client.call("tx-begin")["session"]
        response = client.call("tx-query", session=session, body=QUERY)
        received = decode_answers(response["answers"])
        client.call("tx-abort", session=session)
        assert received == repro.query(service.store.current, QUERY)


class TestWireDecoding:
    def test_served_answers_match_repro_query(self, service, tmp_path):
        socket_path = str(tmp_path / "decode.sock")
        with BackgroundServer(service, path=socket_path):
            with repro.connect(f"serve:{socket_path}") as conn:
                received = conn.query(QUERY)
                with conn.transaction() as tx:
                    tx_received = tx.query(QUERY)
        expected = repro.query(service.store.current, QUERY)
        assert received == expected
        assert tx_received == expected

    def test_mixed_value_types_survive_the_wire(self, service, tmp_path):
        # int results and symbolic results of one variable sort and decode
        # identically over the wire (the type-ranked answer order)
        body = "X.isa -> T"
        socket_path = str(tmp_path / "mixed.sock")
        with BackgroundServer(service, path=socket_path):
            with repro.connect(f"serve:{socket_path}") as conn:
                assert conn.query(body) == repro.query(
                    service.store.current, body
                )


    def test_in_process_rows_render_exactly_like_wire_rows(
        self, service, tmp_path
    ):
        # Z binds before A, so slot order is not alphabetical: only rows
        # built in sorted key order repr like decoded wire rows.
        body = "Z.isa -> empl, Z.sal -> A"
        socket_path = str(tmp_path / "order.sock")
        with BackgroundServer(service, path=socket_path):
            with repro.connect(f"serve:{socket_path}") as conn:
                wire = conn.query(body)
                with conn.transaction() as tx:
                    tx_wire = tx.query(body)
        assert [list(row) for row in wire] == [["A", "Z"], ["A", "Z"]]
        assert repr(service.query(body)) == repr(wire)
        assert repr(service.store.query(body)) == repr(wire)
        with repro.connect("memory:", base=BASE) as conn:
            assert repr(conn.query(body)) == repr(wire)
            with conn.transaction() as tx:
                assert repr(tx.query(body)) == repr(tx_wire) == repr(wire)


class TestCanonicalForm:
    def test_decode_answer_sorts_binding_keys(self):
        row = {"S": 4000, "E": "phil"}
        assert list(decode_answer(row)) == ["E", "S"]
        assert json.dumps(decode_answer(row)) == '{"E": "phil", "S": 4000}'

    def test_decode_answers_restores_canonical_order(self):
        rows = [{"E": "zed"}, {"E": "abe"}]
        decoded = decode_answers(rows)
        assert decoded == sorted(decoded, key=answer_sort_key)
        assert decoded[0] == {"E": "abe"}

    def test_json_artifacts_are_undone(self):
        assert decode_answer({"X": [1, 2]}) == {"X": (1, 2)}

    def test_non_dict_rows_are_protocol_errors(self):
        with pytest.raises(repro.ReproError, match="malformed answer row"):
            decode_answer(["not", "a", "row"])

    def test_facade_answers_are_canonical_on_every_backend(self):
        with repro.connect("memory:", base=BASE) as conn:
            rows = conn.query(QUERY)
        assert [list(row) for row in rows] == [["E", "S"], ["E", "S"]]
        assert rows == sorted(rows, key=answer_sort_key)

    def test_memory_rows_belong_to_the_caller(self):
        with repro.connect("memory:", base=BASE) as conn:
            first = conn.query(QUERY)
            expected = [dict(row) for row in first]
            first[0]["S"] = "corrupted"
            first.pop()
            assert conn.query(QUERY) == expected
