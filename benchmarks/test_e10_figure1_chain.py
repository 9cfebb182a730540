"""E10 — Figure 1: k consecutive groups of basic updates.

Paper expectation (Figure 1 + Section 2.2): performing k groups of updates
of types α_1 ... α_k on an object o materialises the chain
α_k(...α_1(o)...); the final version is taken over into ob'.
Measured: evaluation time versus chain depth k — one stratum per group, so
cost grows roughly linearly in k at fixed base size.
"""

import pytest

from repro import UpdateEngine
from repro.core.terms import depth, object_of
from repro.workloads.synthetic import random_object_base, version_chain_program


@pytest.mark.parametrize("k", [1, 4, 8, 16])
def test_e10_chain_depth(engine, k):
    base = random_object_base(n_objects=5, seed=10)
    program = version_chain_program(k)

    result = engine.apply(program, base)

    for owner, final in result.final_versions.items():
        assert object_of(final) == owner
        assert depth(final) == k
    # the final version's state survived into ob'
    for obj in base.objects():
        tags = result.new_base.facts_by_host_method(obj, "tag", 0)
        assert len(tags) == 1  # the undeletable counter is still there


def test_e10_strata_equal_groups(engine):
    """One stratum per update group — the Figure 1 timeline, literally."""
    base = random_object_base(n_objects=2, seed=10)
    for k in (3, 7, 11):
        outcome = engine.evaluate(version_chain_program(k), base)
        assert len(outcome.stratification) == k
