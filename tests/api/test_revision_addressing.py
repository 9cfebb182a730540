"""Satellite: one revision-addressing scheme, one set of error messages.

Tags and indexes (including the digit-string index form CLIs and wire
payloads produce) resolve identically on the store itself, the in-process
clients, and the wire — and a bad reference fails with the *same message*
everywhere.
"""

import pytest

import repro
from repro.api import BackgroundServer
from repro.core.errors import ReproError
from repro.lang.pretty import format_object_base
from repro.server.errors import ServerError
from repro.server.service import StoreService
from repro.storage import VersionedStore, resolve_revision_ref

BASE = "phil.isa -> empl. phil.sal -> 4000."
RAISE = "raise: mod[phil].sal -> (S, S2) <= phil.sal -> S, S2 = S + 100."


class TestResolveRevisionRef:
    @pytest.mark.parametrize(
        ("reference", "resolved"),
        [
            (0, 0), (7, 7), (-1, -1),
            ("0", 0), ("42", 42), ("-3", -3),
            ("initial", "initial"), ("raise-q1", "raise-q1"),
            ("r2", "r2"),  # digits inside a tag stay a tag
            ("--2", "--2"),  # one sign at most: not an index, fails as a tag
            ("-", "-"),
        ],
    )
    def test_forms(self, reference, resolved):
        assert resolve_revision_ref(reference) == resolved

    def test_booleans_are_not_indexes(self):
        with pytest.raises(ReproError):
            resolve_revision_ref(True)


class TestStoreAddressing:
    @pytest.fixture()
    def store(self):
        store = VersionedStore(repro.parse_object_base(BASE), tag="day0")
        store.apply(repro.parse_program(RAISE), tag="raised")
        return store

    def test_digit_strings_address_by_index(self, store):
        assert frozenset(store.as_of("1")) == frozenset(store.as_of(1))
        assert frozenset(store.as_of("0")) == frozenset(store.as_of("day0"))

    def test_diff_accepts_every_form(self, store):
        assert store.diff("0", "1") == store.diff("day0", "raised")


class TestUniformErrorMessages:
    """The same bad reference produces the same message on every surface."""

    PROBES = {
        "nope": "no revision tagged 'nope'",
        "99": "no revision 99",
        "-1": "no revision -1",
    }

    @pytest.fixture()
    def service(self):
        return StoreService(VersionedStore(repro.parse_object_base(BASE)))

    def _message_from_store(self, service, reference):
        with pytest.raises(ReproError) as info:
            service.store.as_of(resolve_revision_ref(reference))
        return str(info.value)

    def test_store_and_local_client_agree(self, service, protocol_client):
        client = protocol_client(service)
        for reference, expected in self.PROBES.items():
            assert self._message_from_store(service, reference) == expected
            with pytest.raises(ServerError) as info:
                client.call("as-of", revision=reference)
            assert str(info.value) == expected

    def test_wire_agrees(self, service, tmp_path):
        socket_path = str(tmp_path / "refs.sock")
        with BackgroundServer(service, path=socket_path):
            with repro.connect(f"serve:{socket_path}") as conn:
                for reference, expected in self.PROBES.items():
                    with pytest.raises(ReproError) as info:
                        conn.as_of(reference)
                    assert str(info.value) == expected
                with pytest.raises(ReproError, match="no revision 99"):
                    conn.diff(0, 99)


class TestFacadeAddressing:
    def test_every_form_reaches_the_same_base(self, tmp_path):
        directory = tmp_path / "store"
        with repro.connect(directory, base=BASE, tag="day0") as conn:
            conn.apply(RAISE, tag="raised")
            texts = {
                format_object_base(conn.as_of(reference))
                for reference in (1, "1", "raised")
            }
            assert len(texts) == 1
