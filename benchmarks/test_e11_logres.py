"""E11 — Section 2.4: Logres-style modules vs automatic version control.

Paper expectation: Logres gives the user "a flexible, however 'manual'
means for control" — the module order is the user's responsibility.  With
the intended order (raise, fire, hpe) the result matches the versioned
engine; swapping fire before raise reproduces the unintended base of E6.
Measured: module execution under both orders, and the versioned engine on
the same (converted) data for a like-for-like timing comparison.
"""

import pytest

from repro import UpdateEngine, query
from repro.baselines import object_base_to_database
from repro.baselines.logres import enterprise_modules
from repro.datalog import DatalogEngine
from repro.workloads import paper_example_base, paper_example_program


@pytest.fixture(scope="module")
def variant_base():
    return paper_example_base(bob_salary=4100)


def test_e11_intended_order(variant_base):
    program = enterprise_modules()
    db = object_base_to_database(variant_base)

    result = program.run(db)

    salaries = dict(DatalogEngine.query(result, "sal", (None, None)))
    assert salaries["phil"] == pytest.approx(4600.0)
    assert salaries["bob"] == pytest.approx(4510.0)
    hpe = {row[0] for row in DatalogEngine.query(result, "isa", (None, "hpe"))}
    assert hpe == {"phil", "bob"}


def test_e11_wrong_order(variant_base):
    program = enterprise_modules().reordered(["fire", "raise", "hpe"])
    db = object_base_to_database(variant_base)

    result = program.run(db)

    # the manual-control hazard: bob is gone, although the intended update
    # (raise first) would have kept him
    salaries = dict(DatalogEngine.query(result, "sal", (None, None)))
    assert set(salaries) == {"phil"}


def test_e11_versioned_reference(engine, variant_base):
    program = paper_example_program()

    result = engine.apply(program, variant_base)

    salaries = {a["E"]: a["S"] for a in query(result.new_base, "E.sal -> S")}
    assert salaries == {
        "phil": pytest.approx(4600.0),
        "bob": pytest.approx(4510.0),
    }


def test_e11_intended_order_agrees_with_versioned(engine, variant_base):
    versioned = engine.apply(paper_example_program(), variant_base)
    logres = enterprise_modules().run(object_base_to_database(variant_base))

    versioned_salaries = {
        a["E"]: a["S"] for a in query(versioned.new_base, "E.sal -> S")
    }
    logres_salaries = {
        name: value
        for name, value in DatalogEngine.query(logres, "sal", (None, None))
    }
    assert versioned_salaries == pytest.approx(logres_salaries)
