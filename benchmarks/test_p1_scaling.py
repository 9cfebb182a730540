"""P1 (added) — end-to-end scaling of the update engine.

The paper makes no performance claims; this sweep documents the
reproduction's own behaviour: apply() cost versus base size for the full
enterprise program (three strata, all three update kinds), and versus the
number of rules at fixed base size.
"""

import pytest

from repro import query
from repro.lang.parser import parse_program
from repro.workloads import enterprise_base, enterprise_update_program


#: ``(added, removed)`` facts of the sweep's update, by base size.
SWEEP_DELTAS = {25: (26, 44), 100: (126, 147), 400: (455, 628)}


@pytest.mark.parametrize("n_employees", [25, 100, 400])
def test_p1_base_size_sweep(engine, n_employees):
    base = enterprise_base(n_employees=n_employees, overpaid_ratio=0.1, seed=21)
    program = enterprise_update_program(hpe_threshold=4000)

    result = engine.apply(program, base)
    assert len(result.new_base) > 0
    assert result.iterations == 6
    assert (len(result.added), len(result.removed)) == SWEEP_DELTAS[n_employees]


@pytest.mark.parametrize("n_rules", [2, 8, 32])
def test_p1_rule_count_sweep(engine, n_rules):
    """Independent single-stratum insert rules at fixed base size."""
    base = enterprise_base(n_employees=100, seed=21)
    lines = [
        f"r{i}: ins[E].tag{i} -> yes <= E.isa -> empl, E.sal -> S, S > {1000 + i}."
        for i in range(n_rules)
    ]
    program = parse_program("\n".join(lines))

    result = engine.apply(program, base)
    assert query(result.new_base, "E.tag0 -> yes")
