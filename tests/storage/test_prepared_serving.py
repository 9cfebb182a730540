"""Tests for ``VersionedStore.query``: evaluated on demand against the
head, so it equals the reference at every revision and hands out rows the
caller owns."""

import pytest

from repro import parse_object_base, parse_program
from repro.lang.parser import parse_body
from repro.storage import VersionedStore
from repro.testing.reference import query_reference

TEXTS = ("E.sal -> S", "E.boss -> B", "M.pos -> mgr")


@pytest.fixture()
def store():
    return VersionedStore(
        parse_object_base(
            """
            phil.isa -> empl.   phil.pos -> mgr.   phil.sal -> 4000.
            bob.isa -> empl.    bob.sal -> 4200.   bob.boss -> phil.
            """
        )
    )


RAISE = parse_program(
    "raise: mod[E].sal -> (S, S2) <= E.isa -> empl, E.sal -> S, S2 = S * 1.1."
)


def _assert_matches_reference(store):
    head = store.base_at(len(store) - 1)
    for text in TEXTS:
        assert store.query(text) == query_reference(parse_body(text), head), text


def test_query_returns_rows_the_caller_may_mutate(store):
    first = store.query("E.sal -> S")
    expected = [dict(row) for row in first]
    first[0]["S"] = -1
    first.clear()
    assert store.query("E.sal -> S") == expected


def test_unregistered_query_registers_on_first_use(store):
    """The one cache of the read path is body shape -> compiled query,
    shared by every store of the process: a first use compiles, a repeat
    is a hit."""
    from repro.core.caches import cache_stats

    text = "E.isa -> empl, E.first_use_probe -> R"
    before = cache_stats()["query.prepared"]
    assert store.query(text) == store.query(text) == []
    after = cache_stats()["query.prepared"]
    assert after["misses"] == before["misses"] + 1
    assert after["hits"] == before["hits"] + 1


def test_rollback_revalidates(store):
    initial = store.query("E.sal -> S")
    store.apply(RAISE, tag="raise")
    assert store.query("E.sal -> S") != initial
    _assert_matches_reference(store)
    store.rollback_to(0, tag="undo")
    assert store.query("E.sal -> S") == initial
    _assert_matches_reference(store)


def test_serving_stays_correct_over_a_chain(store):
    """Differential check across a revision chain: ``store.query`` equals
    the reference evaluation of the head after every apply."""
    for round_index in range(4):
        _assert_matches_reference(store)
        store.apply(RAISE, tag=f"round{round_index}")
    _assert_matches_reference(store)
