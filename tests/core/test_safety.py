"""Unit tests for the [Ull88]-style safety check."""

import pytest

from repro import parse_rule
from repro.core.errors import SafetyError
from repro.core.safety import check_rule_safety, is_safe, limited_variables
from repro.core.terms import Var


def test_paper_rules_are_safe():
    for text in (
        "mod[E].sal -> (S, S2) <= E.isa -> empl, E.sal -> S, S2 = S * 1.1.",
        "del[mod(E)].* <= mod(E).isa -> empl / boss -> B / sal -> SE, "
        "mod(B).sal -> SB, SE > SB.",
        "ins[mod(E)].isa -> hpe <= mod(E).sal -> S, S > 4500, "
        "not del[mod(E)].isa -> empl.",
        "ins[X].anc -> P <= ins(X).isa -> person / anc -> A, "
        "A.isa -> person / parents -> P.",
    ):
        check_rule_safety(parse_rule(text))


def test_head_variable_not_limited():
    rule = parse_rule("ins[X].m -> Y <= X.a -> B.")
    with pytest.raises(SafetyError) as excinfo:
        check_rule_safety(rule)
    assert "Y" in excinfo.value.unlimited


def test_negated_only_variable_not_limited():
    rule = parse_rule("ins[X].m -> 1 <= X.a -> B, not X.c -> C.")
    with pytest.raises(SafetyError) as excinfo:
        check_rule_safety(rule)
    assert excinfo.value.unlimited == ("C",)


def test_comparison_only_variable_not_limited():
    rule = parse_rule("ins[X].m -> 1 <= X.a -> B, S > 10.")
    assert not is_safe(rule)


def test_equality_chain_limits():
    rule = parse_rule("ins[X].m -> T <= X.a -> S, S2 = S * 2, T = S2 + 1.")
    assert is_safe(rule)
    limited = limited_variables(rule.body)
    assert {Var("X"), Var("S"), Var("S2"), Var("T")} <= limited


def test_equality_between_unlimited_does_not_limit():
    rule = parse_rule("ins[X].m -> A <= X.a -> S, A = B.")
    with pytest.raises(SafetyError) as excinfo:
        check_rule_safety(rule)
    assert set(excinfo.value.unlimited) == {"A", "B"}


def test_positive_update_term_limits():
    # body update-terms are checked against the base, so they limit
    rule = parse_rule("ins[X].m -> S2 <= mod[X].sal -> (S, S2).")
    assert is_safe(rule)


def test_unsafe_fact_head():
    rule = parse_rule("ins[X].m -> 1.")
    with pytest.raises(SafetyError):
        check_rule_safety(rule)


def test_ground_fact_is_safe():
    check_rule_safety(parse_rule("ins[o].m -> 1."))
