"""E9 — Section 2.1: "for safe rules only a finite number of new versions
can be derived during evaluation".

Paper expectation: safe rules bound the functor depth of derivable VIDs by
the deepest head pattern, so versions number at most #objects x (depth+1)
and evaluation terminates without any guard.
Measured: version counts and time as head depth and object count sweep.
"""

import pytest

from repro import UpdateEngine
from repro.core.terms import depth
from repro.workloads.synthetic import random_object_base, version_chain_program


@pytest.mark.parametrize("k", [2, 6, 12])
def test_e9_versions_bounded_by_head_depth(engine, k):
    base = random_object_base(n_objects=5, seed=9)
    program = version_chain_program(k)

    outcome = engine.evaluate(program, base)

    versions = outcome.result_base.existing_versions()
    n_objects = len(base.objects())
    assert all(depth(v) <= k for v in versions)
    assert len(versions) == n_objects * (k + 1)


@pytest.mark.parametrize("n_objects", [5, 20, 80])
def test_e9_versions_linear_in_objects(engine, n_objects):
    base = random_object_base(n_objects=n_objects, seed=9)
    program = version_chain_program(4)

    outcome = engine.evaluate(program, base)
    assert len(outcome.result_base.existing_versions()) == n_objects * 5


def test_e9_no_guard_needed(engine):
    """Termination holds with the iteration cap effectively disabled."""
    from repro.core.evaluation import EvaluationOptions, evaluate

    base = random_object_base(n_objects=10, seed=9)
    program = version_chain_program(6)
    outcome = evaluate(
        program, base, EvaluationOptions(max_iterations_per_stratum=10**9)
    )
    assert outcome.iterations < 100
