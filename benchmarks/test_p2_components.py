"""P2 (added) — component checks.

The moving parts the other experiments compose: the rule matcher,
one T_P application, parsing, the storage layer's revision chain, and the
serialization round-trips.
"""

import pytest

from repro import parse_program
from repro.core.consequence import tp_step
from repro.core.grounding import match_rule
from repro.lang.parser import parse_object_base
from repro.lang.pretty import format_object_base
from repro.storage import VersionedStore, dump_base_json, load_base_json
from repro.workloads import (
    enterprise_base,
    paper_example_program,
    salary_raise_program,
)

RAISE_RULE = salary_raise_program()[0]


def test_p2_matcher():
    base = enterprise_base(n_employees=200, seed=22)
    bindings = list(match_rule(RAISE_RULE, base))
    assert len(bindings) == 200


def test_p2_single_tp_application():
    base = enterprise_base(n_employees=200, seed=22)
    rules = list(salary_raise_program())
    step = tp_step(rules, base)
    assert len(step.new_states) == 200


def test_p2_parse_program():
    from repro.workloads.enterprise import _PAPER_PROGRAM

    program = parse_program(_PAPER_PROGRAM)
    assert len(program) == 4


def test_p2_parse_object_base():
    text = format_object_base(enterprise_base(n_employees=200, seed=22))
    base = parse_object_base(text)
    assert len(base.objects()) == 200


def test_p2_store_revision_chain():
    base = enterprise_base(n_employees=50, seed=22)
    program = salary_raise_program()

    def three_rounds():
        store = VersionedStore(base)
        for quarter in range(3):
            store.apply(program, tag=f"q{quarter}")
        return store

    store = three_rounds()
    assert len(store) == 4


def test_p2_json_round_trip():
    base = enterprise_base(n_employees=100, seed=22)
    loaded = load_base_json(dump_base_json(base))
    assert loaded == base
