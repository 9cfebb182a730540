"""E16 — §2.4 LOCO comparison: update by inheritance with overriding.

Paper expectation: in LOCO "updates are controlled by the inheritance
mechanism of the language.  However updates cannot be defined by rules;
instead again in a 'manual' way new rules have to be introduced into the
isa-hierarchy."
Measured: the n-employee salary raise done the LOCO way (one hand-made
instance per employee, n hierarchy insertions, n per-instance derivations)
next to the paper's single rule over all employees — the manual-update tax
as a function of n.
"""

import pytest

from repro import UpdateEngine, parse_object_base, parse_program, query
from repro.baselines import LocoHierarchy, LocoObject
from repro.baselines.logres import LogresRule
from repro.datalog import DatalogEngine
from repro.datalog.ast import DatalogLiteral, PredicateAtom
from repro.core.terms import Oid

A = DatalogEngine.atom


def _plus(head: PredicateAtom) -> LogresRule:
    return LogresRule(head, (), True)


def _build_hierarchy(n: int) -> LocoHierarchy:
    hierarchy = LocoHierarchy()
    hierarchy.add(LocoObject("employee", (), (_plus(A("status", "active")),)))
    for i in range(n):
        hierarchy.add(
            LocoObject(f"e{i}", ("employee",), (_plus(A("sal", 1000 + i)),))
        )
    return hierarchy


@pytest.mark.parametrize("n", [10, 50])
def test_e16_loco_manual_instances(n):
    def loco_raise():
        hierarchy = _build_hierarchy(n)
        states = []
        for i in range(n):
            instance = hierarchy.update_instance(
                f"e{i}", (_plus(A("sal", 1100 + i)),)
            )
            states.append(hierarchy.state_of(instance.name))
        return states

    states = loco_raise()
    for i, state in enumerate(states):
        assert DatalogEngine.query(state, "sal", (None,)) == [(1100 + i,)]
        assert DatalogEngine.query(state, "status", (None,)) == [("active",)]


@pytest.mark.parametrize("n", [10, 50])
def test_e16_versioned_single_rule(engine, n):
    base = parse_object_base(
        "\n".join(f"e{i}.isa -> empl. e{i}.sal -> {1000 + i}." for i in range(n))
    )
    program = parse_program(
        "raise: mod[E].sal -> (S, S2) <= E.isa -> empl, E.sal -> S, "
        "S2 = S + 100."
    )

    result = engine.apply(program, base)

    salaries = {a["E"]: a["S"] for a in query(result.new_base, "E.sal -> S")}
    assert salaries == {f"e{i}": 1100 + i for i in range(n)}
