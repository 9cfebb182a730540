"""P3 (added) — analysis tooling costs.

The lint pass (repro.analysis), the schema-evolution report
(repro.ext.schema) and the Figure-1 chain renderer are development-loop
tools; they must stay cheap relative to evaluation.
"""

import pytest

from repro import UpdateEngine
from repro.analysis import lint_program
from repro.core.trace import render_version_chains
from repro.ext.schema import class_signatures, schema_delta
from repro.workloads import (
    enterprise_base,
    paper_example_program,
)
from repro.workloads.synthetic import version_chain_program


def test_p3_lint_paper_program():
    program = paper_example_program()
    findings = lint_program(program)
    assert findings == []


@pytest.mark.parametrize("k", [8, 16])
def test_p3_lint_chain_program(k):
    program = version_chain_program(k)
    findings = lint_program(program)
    assert all(f.code != "L001" for f in findings)


@pytest.mark.parametrize("n_employees", [100, 400])
def test_p3_class_signatures(n_employees):
    base = enterprise_base(n_employees=n_employees, seed=31)
    signatures = class_signatures(base)
    from repro.core.terms import Oid

    assert signatures[Oid("empl")].mandatory >= {("sal", 0)}


def test_p3_schema_delta_figure2(engine):
    from repro.workloads import paper_example_base

    base = paper_example_base()
    new_base = engine.apply(paper_example_program(), base).new_base
    delta = schema_delta(base, new_base)
    assert not delta.is_empty()


def test_p3_chain_rendering(engine):
    from repro.workloads.synthetic import random_object_base

    base = random_object_base(n_objects=20, seed=31)
    outcome = engine.evaluate(version_chain_program(6), base)
    text = render_version_chains(outcome.result_base)
    assert "=>" in text
