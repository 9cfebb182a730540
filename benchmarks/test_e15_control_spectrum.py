"""E15 — the full §2.4 control spectrum, plus the termination contrast.

Paper expectation (§2.4): update needs control; the alternatives are
implicit resolution strategies (top-down, not reproduced — the paper is a
bottom-up approach), explicit user control (RDL1 networks), module order
(Logres, E11), or nothing (E6).  The paper's versioning derives the control
from the rules themselves.  §2.1 adds the termination contrast: version
identities exclude update loops structurally, while Datalog-with-deletions
semantics ([AV91]) admits two-line oscillators.
Measured: the enterprise update under an RDL-style network (correct and
miswired), and the oscillator detection cost in the deltalog baseline next
to the versioned engine terminating on the analogous program.
"""

import pytest

from repro import UpdateEngine, parse_object_base, parse_program
from repro.baselines import (
    DeltalogProgram,
    NonTerminationError,
    Once,
    RdlProgram,
    Saturate,
    Seq,
    object_base_to_database,
)
from repro.baselines.logres import LogresRule, enterprise_modules
from repro.datalog import Database, DatalogEngine
from repro.datalog.ast import DatalogLiteral as L
from repro.workloads import paper_example_base

A = DatalogEngine.atom


def _network(order):
    modules = {m.name: m.rules for m in enterprise_modules().modules}
    return RdlProgram(Seq(tuple(Saturate(modules[name]) for name in order)))


def test_e15_rdl_intended_network():
    db = object_base_to_database(paper_example_base(bob_salary=4100))
    program = _network(["raise", "fire", "hpe"])

    result = program.run(db)

    salaries = dict(DatalogEngine.query(result, "sal", (None, None)))
    assert salaries["bob"] == pytest.approx(4510.0)


def test_e15_rdl_miswired_network():
    db = object_base_to_database(paper_example_base(bob_salary=4100))
    program = _network(["fire", "raise", "hpe"])

    result = program.run(db)

    salaries = dict(DatalogEngine.query(result, "sal", (None, None)))
    assert "bob" not in salaries  # explicit control, explicitly wrong


def test_e15_deltalog_oscillator_detection():
    program = DeltalogProgram(
        [
            LogresRule(A("p", "X"), (L(A("q", "X")), L(A("p", "X"), False)), True, "on"),
            LogresRule(A("p", "X"), (L(A("p", "X")),), False, "off"),
        ]
    )
    edb = Database.from_tuples([("q", "a")])

    def detect():
        with pytest.raises(NonTerminationError) as excinfo:
            program.run(edb)
        return excinfo.value.cycle_length

    assert detect() == 2


def test_e15_versioned_analogue_terminates(engine):
    base = parse_object_base("a.q -> yes.")
    program = parse_program(
        """
        on:  ins[X].p -> yes <= X.q -> yes.
        off: del[ins(X)].p -> yes <= ins(X).p -> yes.
        """
    )

    outcome = engine.evaluate(program, base)
    assert outcome.iterations <= 5  # structural termination, no oscillation
