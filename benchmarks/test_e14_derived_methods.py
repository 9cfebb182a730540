"""E14 — Section 6 generalisation: derived methods ("derived objects").

Paper expectation: "we did not consider derived objects ... We do not see
any principal problems to generalize our approach in this direction."
The generalisation implemented in :mod:`repro.ext.derived` keeps derived
methods as views — recomputed before every T_P application, never stored,
never copied.
Measured: (a) the live-view engine against a baseline that materialises
the view once into stored facts (the stale-copy design the view semantics
avoids); (b) the cost of view recomputation as base size grows; (c) the
correctness anchor: between-strata updates see fresh view states.
"""

import pytest

from repro import UpdateEngine, query
from repro.ext.derived import DerivedUpdateEngine, materialize, parse_derived_program
from repro.lang.parser import parse_program
from repro.workloads import enterprise_base

VIEWS = parse_derived_program(
    "senior: ?W.senior -> yes <= ?W.sal -> S, S > 4000."
)

CUT = parse_program(
    """
    cut:   mod[E].sal -> (S, S2) <= E.senior -> yes, E.sal -> S,
           S2 = S - 500.
    check: ins[mod(E)].still_senior -> yes <= mod(E).senior -> yes.
    """
)


@pytest.mark.parametrize("n_employees", [25, 100])
def test_e14_live_view_engine(n_employees):
    base = enterprise_base(n_employees=n_employees, seed=14)
    engine = DerivedUpdateEngine(VIEWS)

    result = engine.apply(CUT, base)

    # correctness anchor: `check` runs after `cut` and must see the view
    # over the *reduced* salaries — only those above 4500 pre-cut remain
    before = {a["E"]: a["S"] for a in query(base, "E.sal -> S")}
    still = {a["E"] for a in query(result.new_base, "E.still_senior -> yes")}
    expected = {name for name, sal in before.items() if sal - 500 > 4000 and sal > 4000}
    assert still == expected


@pytest.mark.parametrize("n_employees", [25, 100])
def test_e14_stale_copy_baseline(n_employees):
    """The ablation: materialise the view once into stored facts and run
    the plain engine — faster, but the `check` stratum then reads *stale*
    senior flags (copied along by the frame rule)."""
    base = enterprise_base(n_employees=n_employees, seed=14)
    plain = UpdateEngine()

    def stale_run():
        frozen = materialize(base, VIEWS)
        return plain.apply(CUT, frozen)

    result = stale_run()

    before = {a["E"]: a["S"] for a in query(base, "E.sal -> S")}
    still = {a["E"] for a in query(result.new_base, "E.still_senior -> yes")}
    stale = {name for name, sal in before.items() if sal > 4000}
    assert still == stale  # everyone pre-cut senior — including wrong ones


@pytest.mark.parametrize("n_employees", [50, 200, 800])
def test_e14_materialisation_cost(n_employees):
    base = enterprise_base(n_employees=n_employees, seed=14)
    enriched = materialize(base, VIEWS)
    assert enriched.facts_by_method("senior", 0)
