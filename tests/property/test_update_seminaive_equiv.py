"""Differential property test: the semi-naive update engine == the naive one.

The engine (delta-driven rule skipping, seeded matching and compiled join
plans) must be observationally identical to the reference evaluator
(:func:`repro.testing.reference.evaluate_reference`: full re-match with the
dynamic chooser every iteration): same ``result(P)``, same final versions,
same iteration count, same *sets* of fired rule instances per stratum, same
linearity verdicts and error classes.  The module-docstring guarantee of
:mod:`repro.core.grounding` ("access paths can only affect speed, never
semantics") extends to deltas.

Randomized programs cover all three update kinds, negation, built-ins,
``del[v].*``, single-stratum recursion and deep version chains
(:func:`repro.workloads.synthetic.random_update_program`), plus deliberately
non-linear programs whose error behaviour must also coincide.  The
brute-force active-domain matcher cross-checks the planned join engine on
the same random rules.
"""

from hypothesis import given, settings, strategies as st

from repro.core.errors import ReproError
from repro.core.evaluation import EvaluationOptions, evaluate
from repro.core.grounding import match_rule
from repro.testing.reference import evaluate_reference, match_rule_bruteforce
from repro.workloads.synthetic import random_object_base, random_update_program

seeds = st.integers(0, 1_000_000_000)

TRACED = EvaluationOptions(collect_trace=True)


def _base_for(seed: int):
    return random_object_base(
        n_objects=6 + seed % 5,
        facts_per_object=3,
        numeric_ratio=0.6,
        seed=seed,
    )


def _run(evaluator, program, base, options):
    try:
        return evaluator(program, base, options), None
    except ReproError as error:
        return None, type(error)


def _fired_sets(trace):
    return [
        {(f.rule_name, str(f.head), f.binding) for i in s.iterations for f in i.fired}
        for s in trace.strata
    ]


@settings(max_examples=200, deadline=None)
@given(seeds)
def test_semi_naive_equals_naive_on_random_programs(seed):
    """Acceptance property: identical result bases, fired-instance sets and
    linearity verdicts on randomized programs (200 examples)."""
    program = random_update_program(seed=seed, allow_nonlinear=True)
    base = _base_for(seed)

    fast, fast_error = _run(evaluate, program, base, TRACED)
    naive, naive_error = _run(evaluate_reference, program, base, TRACED)

    assert fast_error == naive_error
    if fast is None:
        return
    assert fast.result_base == naive.result_base
    assert fast.final_versions == naive.final_versions
    assert fast.iterations == naive.iterations
    assert _fired_sets(fast.trace) == _fired_sets(naive.trace)


@settings(max_examples=200, deadline=None)
@given(seeds)
def test_semi_naive_equals_naive_without_linearity_check(seed):
    """Same comparison with the Section 5 check off, so even non-linear
    programs run to completion and their full result bases must agree."""
    program = random_update_program(seed=seed, allow_nonlinear=True)
    base = _base_for(seed)
    unchecked = EvaluationOptions(check_linearity=False)

    fast, fast_error = _run(evaluate, program, base, unchecked)
    naive, naive_error = _run(evaluate_reference, program, base, unchecked)

    assert fast_error == naive_error
    if fast is not None:
        assert fast.result_base == naive.result_base


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_planned_matcher_agrees_with_bruteforce(seed):
    """The precompiled-plan matcher equals the active-domain brute force on
    the random rules (small rules only — brute force is exponential)."""
    program = random_update_program(seed=seed, allow_nonlinear=True)
    base = _base_for(seed % 100)  # small domains keep brute force feasible
    checked = 0
    for rule in program:
        enumerable = [v for v in rule.variables]
        if len(enumerable) > 2 or len(base.oid_universe()) > 30:
            continue
        fast = {frozenset(b.items()) for b in match_rule(rule, base)}
        brute = {frozenset(b.items()) for b in match_rule_bruteforce(rule, base)}
        assert fast == brute, f"rule {rule.name}: {fast} != {brute}"
        checked += 1
