"""E6 — Section 2.4: update = logic + control.

Paper expectation: on the bob-at-$4100 variant, "without imposing control
by the structure of the VIDs, firing employees before raising salaries
could have led to a different unintended updated object-base."  The
versioned engine keeps bob (post-raise he earns less than his boss); the
single-time-step semantics fires him against the original salaries and
misses the hpe classification.
Measured: both semantics on the literal variant and on scaled enterprises;
the assertion block pins the divergence.
"""

import pytest

from repro import query
from repro.baselines import naive_one_step_update
from repro.workloads import (
    enterprise_base,
    enterprise_update_program,
    paper_example_base,
    paper_example_program,
)


def test_e6_versioned_semantics(engine):
    base = paper_example_base(bob_salary=4100)
    program = paper_example_program()

    result = engine.apply(program, base)

    employees = {a["E"] for a in query(result.new_base, "E.isa -> empl")}
    hpe = {a["E"] for a in query(result.new_base, "E.isa -> hpe")}
    assert employees == {"phil", "bob"}   # nobody fired
    assert hpe == {"phil", "bob"}         # both high-paid after the raise


def test_e6_naive_semantics():
    base = paper_example_base(bob_salary=4100)
    program = paper_example_program()

    result = naive_one_step_update(program, base)

    employees = {a["E"] for a in query(result.new_base, "E.isa -> empl")}
    assert employees == {"phil"}                       # bob wrongly fired
    assert query(result.new_base, "E.isa -> hpe") == []  # hpe missed


@pytest.mark.parametrize("n_employees", [25, 100])
def test_e6_divergence_scales(engine, n_employees):
    """The two semantics keep diverging on generated enterprises."""
    base = enterprise_base(n_employees=n_employees, overpaid_ratio=0.3, seed=6)
    program = enterprise_update_program(hpe_threshold=4000)

    def both():
        versioned = engine.apply(program, base).new_base
        naive = naive_one_step_update(program, base).new_base
        return versioned, naive

    versioned, naive = both()
    versioned_employees = {a["E"] for a in query(versioned, "E.isa -> empl")}
    naive_employees = {a["E"] for a in query(naive, "E.isa -> empl")}
    # one-step semantics fires against pre-raise salaries: strictly more
    # (or at least different) firings than the intended semantics
    assert naive_employees != versioned_employees
    assert len(naive_employees) <= len(versioned_employees)
