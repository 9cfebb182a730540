"""E4 — Section 2.3 example 3: recursive updates (ancestors).

Paper expectation: the two recursive ins-rules form a single stratum and
compute the set-valued anc method — the transitive closure of parents.
Measured: evaluation time against generation depth and fanout; every answer
is verified against an independent graph traversal.
"""

import pytest

from repro import query
from repro.workloads import ancestors_program, genealogy_base, true_ancestors


@pytest.mark.parametrize(
    "generations,per_generation",
    [(3, 6), (5, 6), (7, 6), (5, 12)],
    ids=["shallow", "medium", "deep", "wide"],
)
def test_e4_ancestors(engine, generations, per_generation):
    base = genealogy_base(
        generations=generations, per_generation=per_generation, seed=4
    )
    program = ancestors_program()

    result = engine.apply(program, base)

    assert len(result.stratification) == 1  # single recursive stratum
    truth = true_ancestors(base)
    computed: dict[str, set[str]] = {person: set() for person in truth}
    for answer in query(result.new_base, "X.anc -> P"):
        computed[str(answer["X"])].add(str(answer["P"]))
    assert computed == truth


def test_e4_iterations_track_depth(engine):
    """Fixpoint rounds grow with ancestry depth, not with base size."""
    shallow = engine.evaluate(
        ancestors_program(), genealogy_base(generations=3, per_generation=10, seed=5)
    )
    deep = engine.evaluate(
        ancestors_program(), genealogy_base(generations=8, per_generation=3, seed=5)
    )
    assert deep.iterations > shallow.iterations
