"""E2 — Figure 2: the enterprise update-process, exact version structure.

Paper expectation (Figure 2 + Section 2.3): stratification
{rule1,rule2} < {rule3} < {rule4}; phil ⇒ mod(phil)[$4600] ⇒
ins(mod(phil))[+hpe]; bob ⇒ mod(bob)[$4620] ⇒ del(mod(bob))[fired];
ob' = {phil: empl, hpe, mgr, $4600}.
Measured: the full apply() pipeline on the literal 2-object base, and on
generated enterprises keeping the same rule shapes.
"""

import pytest

from repro import Oid, UpdateEngine, query
from repro.core.terms import UpdateKind, wrap
from repro.workloads import (
    enterprise_base,
    enterprise_update_program,
    paper_example_base,
    paper_example_program,
)

INS, DEL, MOD = UpdateKind.INSERT, UpdateKind.DELETE, UpdateKind.MODIFY


def test_e2_figure2_literal(engine):
    base = paper_example_base()
    program = paper_example_program()

    result = engine.apply(program, base)

    assert result.stratification.names() == [
        ["rule1", "rule2"], ["rule3"], ["rule4"],
    ]
    assert result.final_versions[Oid("phil")] == wrap(INS, wrap(MOD, Oid("phil")))
    assert result.final_versions[Oid("bob")] == wrap(DEL, wrap(MOD, Oid("bob")))
    assert query(result.result_base, "mod(phil).sal -> S") == [{"S": 4600.0}]
    assert query(result.result_base, "mod(bob).sal -> S") == [{"S": 4620.0}]
    assert query(result.new_base, "phil.isa -> hpe") == [{}]
    assert query(result.new_base, "bob.isa -> X") == []


def test_e2_figure2_trace():
    """Full tracing + snapshots (the Figure-2 renderer)."""
    tracing = UpdateEngine(collect_trace=True, collect_snapshots=True)
    base = paper_example_base()
    program = paper_example_program()

    result = tracing.apply(program, base)

    text = result.trace.render(objects=(Oid("phil"), Oid("bob")))
    assert "mod(phil): " in text and "del(mod(bob)): " in text


@pytest.mark.parametrize("n_employees", [25, 100])
def test_e2_enterprise_scaled(engine, n_employees):
    base = enterprise_base(n_employees=n_employees, overpaid_ratio=0.2, seed=3)
    program = enterprise_update_program(hpe_threshold=4000)

    result = engine.apply(program, base)

    # rule 3 compares *post-raise* salaries: predict the fired set exactly
    managers = {str(a["E"]) for a in query(base, "E.pos -> mgr")}
    salaries = {str(a["E"]): a["S"] for a in query(base, "E.sal -> S")}

    def raised(name: str) -> float:
        return salaries[name] * 1.1 + (200 if name in managers else 0)

    expected_fired = {
        str(a["E"])
        for a in query(base, "E.boss -> B")
        if raised(str(a["E"])) > raised(str(a["B"]))
    }
    survivors = {str(a["E"]) for a in query(result.new_base, "E.isa -> empl")}
    assert survivors == set(salaries) - expected_fired
    for answer in query(result.new_base, "E.isa -> hpe"):
        salary = query(result.new_base, f"{answer['E']}.sal -> S")[0]["S"]
        assert salary > 4000
