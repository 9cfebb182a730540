"""Unit tests for the partitioning layer: stable host placement, base
splitting, program-host extraction and read-scope classification."""

from __future__ import annotations

import pytest

import repro
from repro.cluster import (
    program_hosts,
    query_scope,
    shard_for,
    shard_of_fact,
    split_base,
)
from repro.core.errors import TermError
from repro.core.facts import Fact
from repro.core.terms import Oid, Var
from repro.lang.parser import prepare_query
from repro.server.service import StoreService

BASE = repro.parse_object_base(
    "phil.isa -> empl. phil.sal -> 4000. "
    "mary.isa -> empl. mary.sal -> 3900. "
    "henry.isa -> empl. henry.sal -> 4200."
)


def _scope(body: str, count: int = 2):
    return query_scope(prepare_query(body).body, count)


def test_shard_for_is_stable_across_processes():
    # crc32-based, NOT the salted builtin hash(): these placements are
    # load-bearing for on-disk cluster layouts and must never drift.
    assert shard_for(Oid("phil"), 2) == 1
    assert shard_for(Oid("henry"), 2) == 0
    assert shard_for(Oid(7), 2) == shard_for(Oid(7), 2)
    assert shard_for(Oid("phil"), 1) == 0
    for count in (1, 2, 4, 8):
        assert 0 <= shard_for(Oid("anyone"), count) < count


def test_split_base_partitions_by_host_and_loses_nothing():
    pieces = split_base(BASE, 2)
    assert len(pieces) == 2
    merged = {fact for piece in pieces for fact in piece}
    assert merged == set(BASE)
    for index, piece in enumerate(pieces):
        for fact in piece:
            assert shard_of_fact(fact, 2) == index


def test_shard_of_fact_rejects_variable_roots():
    pattern = Fact(Var("E"), "isa", (), Oid("empl"))
    with pytest.raises(TermError, match="no ground object identity"):
        shard_of_fact(pattern, 2)


def test_program_hosts_ground_and_variable():
    ground = StoreService.coerce_program(
        "raise: mod[phil].sal -> (S, S2) <= phil.sal -> S, S2 = S + 1."
    )
    assert program_hosts(ground) == frozenset({Oid("phil")})

    multi = StoreService.coerce_program(
        "hire: ins[dee].isa -> empl <= phil.isa -> empl."
    )
    assert program_hosts(multi) == frozenset({Oid("dee"), Oid("phil")})

    variable = StoreService.coerce_program(
        "raise: mod[E].sal -> (S, S2) <= E.isa -> empl, E.sal -> S, "
        "S2 = S + 1."
    )
    assert program_hosts(variable) is None


def test_query_scope_classification():
    # ground single host -> that shard alone
    kind, shard = _scope("phil.sal -> S")
    assert (kind, shard) == ("single", 1)
    # ground hosts on different shards -> gather (cross-shard join)
    kind, shard = _scope("phil.sal -> S, henry.sal -> T")
    assert (kind, shard) == ("gather", None)
    # one variable root, no ground roots -> scatter (shard-local eval)
    kind, shard = _scope("E.isa -> empl, E.sal -> S")
    assert (kind, shard) == ("scatter", None)
    # two distinct variable roots -> a potential cross-host join: gather
    kind, shard = _scope("E.boss -> B, B.sal -> S")
    assert (kind, shard) == ("gather", None)
    # no version literals at all (pure builtins) -> shard 0 by convention
    kind, shard = _scope("S = 1 + 1")
    assert (kind, shard) == ("single", 0)
    # classification is count-independent for variable roots; the router
    # short-circuits the fan-out machinery itself when count == 1
    kind, shard = _scope("E.isa -> empl, E.sal -> S", count=1)
    assert (kind, shard) == ("scatter", None)
    kind, shard = _scope("phil.sal -> S, henry.sal -> T", count=1)
    assert (kind, shard) == ("single", 0)


def test_update_terms_are_routed_by_their_target_root():
    # An update-term reads the versions of its target's object, which live
    # with that object: its root counts like a version-term host's.
    program = StoreService.coerce_program(
        "r: ins[mod(bob)].flag -> yes <= bob.sal -> S, "
        "not del[mod(bob)].isa -> empl."
    )
    assert program_hosts(program) == frozenset({Oid("bob")})
    assert _scope("ins[bob].sal -> S") == ("single", shard_for(Oid("bob"), 2))
    assert _scope("X.isa -> empl, ins[X].sal -> S") == ("scatter", None)
    # a host variable joined with a ground update-term target: gather
    assert _scope("X.isa -> empl, ins[bob].sal -> S") == ("gather", None)
    assert _scope("X.isa -> empl, not ins[bob].sal -> 10") == ("gather", None)
