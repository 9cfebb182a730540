"""E1 — Section 2.1: the salary raise terminates and applies exactly once.

Paper expectation: the intuitive one-rule raise is a terminating update and
every employee is raised exactly once (versions prevent update loops).
Measured: evaluation time as the employee count grows; the assertion block
verifies the exactly-once semantics at every size.
"""

import pytest

from repro import query
from repro.workloads import enterprise_base, salary_raise_program


@pytest.mark.parametrize("n_employees", [10, 50, 200])
def test_e1_salary_raise_exactly_once(engine, n_employees):
    base = enterprise_base(n_employees=n_employees, seed=1)
    program = salary_raise_program()
    before = {a["E"]: a["S"] for a in query(base, "E.isa -> empl, E.sal -> S")}

    result = engine.apply(program, base)

    after = {a["E"]: a["S"] for a in query(result.new_base, "E.isa -> empl, E.sal -> S")}
    assert set(after) == set(before)
    for name, old_salary in before.items():
        # exactly once: 1.1x, never 1.21x
        assert after[name] == pytest.approx(old_salary * 1.1)


def test_e1_termination_iterations(engine):
    """The rule only sees OID-hosted employees, so the stratum converges in
    one productive round plus the fixpoint round — independent of size."""
    for n_employees in (10, 100, 400):
        base = enterprise_base(n_employees=n_employees, seed=2)
        outcome = engine.evaluate(salary_raise_program(), base)
        assert outcome.iterations == 2
