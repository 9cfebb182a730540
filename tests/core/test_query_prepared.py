"""Tests for the query layer: prepared queries, index-driven plans, and
the deterministic answer ordering (including the mixed-type regression)."""

import pytest

from repro import parse_body, parse_object_base
from repro.core.plans import GENERATE, compile_plan
from repro.core.query import (
    PreparedQuery,
    prepare_query,
    query_literals,
    sorted_answers,
)
from repro.core.terms import Var
from repro.testing.reference import query_reference


@pytest.fixture()
def base():
    return parse_object_base(
        """
        phil.isa -> empl.   phil.pos -> mgr.    phil.sal -> 4000.
        bob.isa -> empl.    bob.sal -> 4200.    bob.boss -> phil.
        eve.isa -> empl.    eve.sal -> 3100.    eve.boss -> phil.
        """
    )


# ----------------------------------------------------------------------
# the mixed-type sort regression (satellite fix)
# ----------------------------------------------------------------------


def test_query_literals_sorts_heterogeneous_answers(base):
    """``badge`` is int-valued for one employee and str-valued for another;
    sorting the answers used to raise ``TypeError: '<' not supported``."""
    hetero = parse_object_base(
        """
        phil.badge -> 17.
        bob.badge -> blue.
        eve.badge -> 4.
        """
    )
    answers = query_literals(hetero, parse_body("E.badge -> B"))
    assert {(a["E"], a["B"]) for a in answers} == {
        ("phil", 17),
        ("bob", "blue"),
        ("eve", 4),
    }
    # numeric values sort numerically and before strings
    assert [a["B"] for a in answers] == [4, 17, "blue"]
    # and the order is a pure function of the answer set
    assert answers == query_literals(hetero, parse_body("E.badge -> B"))


def test_numeric_answers_sort_numerically_not_lexicographically():
    base = parse_object_base("e.n -> 900.  e.n -> 10000.  e.n -> 2000.")
    answers = query_literals(base, parse_body("e.n -> S"))
    assert [a["S"] for a in answers] == [900, 2000, 10000]


def test_sorted_answers_dedupe():
    left, right = Var("X"), Var("Y")
    from repro.core.terms import Oid

    rows = [{left: Oid(1), right: Oid("a")}, {left: Oid(1), right: Oid("a")}]
    assert len(sorted_answers(rows, dedupe=True)) == 1
    assert len(sorted_answers(rows)) == 2


# ----------------------------------------------------------------------
# prepared queries
# ----------------------------------------------------------------------


def test_prepared_query_matches_per_call_and_reference(base):
    text = "E.isa -> empl, E.sal -> S"
    prepared = prepare_query(text)
    per_call = query_literals(base, parse_body(text))
    assert prepared.run(base) == per_call
    assert query_reference(prepared.body, base) == per_call
    assert len(per_call) == 3


def test_prepare_query_is_idempotent_and_hashable(base):
    first = prepare_query("E.sal -> S")
    again = prepare_query(first)
    assert again is first
    assert prepare_query("E.sal -> S") is first  # text -> compiled, cached
    other = prepare_query("E.sal -> S", name="renamed")
    assert other == first and hash(other) == hash(first)
    assert (first.name, other.name) == ("E.sal -> S", "renamed")
    assert prepare_query(parse_body("E.sal -> S")) == first


def test_prepared_query_with_constants_uses_arg_index(base):
    """A query with an unbound host but a constant result column must plan
    a secondary-index access path, and still answer correctly."""
    body = parse_body("E.isa -> empl, E.boss -> phil")
    plan = compile_plan(body)
    generate_steps = [s for s in plan.steps if s.action == GENERATE]
    assert generate_steps and all(s.index_cols for s in generate_steps)
    assert -1 in generate_steps[0].index_cols  # the constant result column
    answers = PreparedQuery(body).run(base)
    assert {a["E"] for a in answers} == {"bob", "eve"}


def test_indexed_and_dynamic_matchers_agree_on_join(base):
    prepared = prepare_query(
        "E.isa -> empl, E.boss -> B, E.sal -> SE, B.sal -> SB, SE < SB"
    )
    assert prepared.run(base) == query_reference(prepared.body, base)
    assert {a["E"] for a in prepared.run(base)} == {"eve"}


def test_signature_detects_relevant_and_irrelevant_deltas(base):
    from repro.core.facts import Fact
    from repro.core.objectbase import Delta
    from repro.core.terms import Oid

    prepared = prepare_query("E.boss -> B")
    relevant = Delta()
    relevant.record([Fact(Oid("amy"), "boss", (), Oid("phil"))], [])
    irrelevant = Delta()
    irrelevant.record([Fact(Oid("amy"), "sal", (), Oid(3000))], [])
    assert prepared.signature.affected_by(relevant)
    assert not prepared.signature.affected_by(irrelevant)
