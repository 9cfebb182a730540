"""E3 — Section 2.3 example 2: hypothetical reasoning via versions.

Paper expectation: the what-if raise is performed on mod(e) and revised on
mod(mod(e)) ("for each employee e the mod(mod(e))-version is identical to
the e-version"); rules 3/4 judge richness on the intermediate version;
footnote 3's stratification is {r1} < {r2} < {r3} < {r4}.
Measured: the full what-if pipeline over growing employee counts.
"""

import random

import pytest

from repro import parse_object_base, query
from repro.workloads import hypothetical_base, hypothetical_program


def _scaled_base(n_employees: int, seed: int = 0):
    rng = random.Random(seed)
    lines = ["peter.isa -> empl.  peter.sal -> 100.  peter.factor -> 3."]
    for i in range(n_employees - 1):
        lines.append(
            f"e{i}.isa -> empl. e{i}.sal -> {rng.randint(50, 120)}. "
            f"e{i}.factor -> {rng.choice([1, 2])}."
        )
    return parse_object_base("\n".join(lines))


def test_e3_paper_scenario(engine):
    base = hypothetical_base()
    program = hypothetical_program()

    result = engine.apply(program, base)

    assert result.stratification.names() == [
        ["rule1"], ["rule2"], ["rule3"], ["rule4"],
    ]
    assert query(result.new_base, "peter.richest -> V") == [{"V": "yes"}]
    # the hypothetical raise left no trace on the final salaries
    assert {a["S"] for a in query(result.new_base, "peter.sal -> S")} == {100}


@pytest.mark.parametrize("n_employees", [10, 50])
def test_e3_scaled(engine, n_employees):
    base = _scaled_base(n_employees)
    program = hypothetical_program()

    result = engine.apply(program, base)

    # peter's factor 3 on salary 100 beats everyone's max 120 * 2
    assert query(result.new_base, "peter.richest -> V") == [{"V": "yes"}]
    # every employee's salary is reverted to the original
    outcome_salaries = {
        a["E"]: a["S"] for a in query(result.new_base, "E.sal -> S")
    }
    original_salaries = {a["E"]: a["S"] for a in query(base, "E.sal -> S")}
    assert outcome_salaries == original_salaries


def test_e3_revision_identity(engine):
    """mod(mod(e)) state == e state, per the paper's exact phrasing."""
    outcome = engine.evaluate(hypothetical_program(), hypothetical_base())
    for person in ("peter", "anna"):
        original = query(outcome.result_base, f"{person}.sal -> S")
        reverted = query(outcome.result_base, f"mod(mod({person})).sal -> S")
        assert original == reverted
