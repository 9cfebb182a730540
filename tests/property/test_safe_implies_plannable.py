"""Safe ⇒ plannable: the engine has one execution path and no fallback, so
every rule the safety check accepts must have a full join plan and a seeded
plan at every seed position — and compile.  (An unsafe body fails where its
plan is built with a typed error; ``tests/core/test_plans.py`` pins that.)
The Datalog substrate makes the same promise with its one matcher.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.atoms import VersionAtom
from repro.core.codegen import compiled_rule
from repro.core.errors import EvaluationError, SafetyError
from repro.core.plans import rule_plan
from repro.core.safety import is_safe
from repro.datalog.ast import DatalogRule
from repro.datalog.evaluation import _compile_plan, match_datalog_rule
from repro.datalog.parser import parse_datalog_program
from repro.workloads import (
    ancestors_program,
    enterprise_update_program,
    hypothetical_program,
    paper_example_program,
    salary_raise_program,
    targeted_raise_program,
)
from repro.workloads.synthetic import (
    random_datalog_chain_program,
    random_edge_database,
    random_insert_program,
    random_update_program,
    version_chain_program,
)


def assert_plannable(rule):
    body_vars = frozenset().union(*(literal.variables for literal in rule.body))
    plans = rule_plan(rule)
    compiled = compiled_rule(rule)
    assert {step.literal for step in plans.full_plan.steps} == set(rule.body)
    assert set(compiled.full.slots) == body_vars
    for position, literal in enumerate(rule.body):
        if not (literal.positive and isinstance(literal.atom, VersionAtom)):
            continue  # only positive version-terms are seed literals
        seed_plan = plans.seed_plan(position)
        rest = set(rule.body[:position] + rule.body[position + 1:])
        assert {step.literal for step in seed_plan.steps} == rest
        _matcher, seeded = compiled.seeded(position)
        assert set(seeded.slots) == body_vars


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 1_000_000_000))
def test_every_safe_random_rule_has_a_full_and_every_seed_plan(seed):
    for rule in random_update_program(seed=seed, allow_nonlinear=True):
        if is_safe(rule):
            assert_plannable(rule)


@pytest.mark.parametrize(
    "program",
    [
        paper_example_program(),
        salary_raise_program(),
        targeted_raise_program("bob"),
        hypothetical_program(),
        enterprise_update_program(),
        ancestors_program(),
        random_insert_program(seed=3),
        version_chain_program(6),
    ],
    ids=lambda program: program.name,
)
def test_every_workload_rule_has_a_full_and_every_seed_plan(program):
    for rule in program:
        assert is_safe(rule), rule.name
        assert_plannable(rule)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 1_000_000_000))
def test_every_safe_datalog_rule_has_a_plan_in_any_body_order(seed):
    rng = random.Random(seed)
    program = random_datalog_chain_program(
        n_idb=rng.randint(1, 4), negated_tail=True, seed=seed
    )
    for rule in program:
        body = list(rule.body)
        rng.shuffle(body)  # safety ignores literal order; so must planning
        shuffled = DatalogRule(rule.head, tuple(body), rule.name)
        shuffled.check_safety()
        plan = _compile_plan(shuffled.body)
        assert plan is not None
        assert sorted(step[0] for step in plan) == list(range(len(body)))


def test_an_unsafe_datalog_body_is_a_typed_error_naming_the_rule():
    [rule] = parse_datalog_program("lonely(X) <= not edge(X, Y).")
    with pytest.raises(SafetyError):
        rule.check_safety()
    with pytest.raises(EvaluationError, match="rule 'r1'.*unsafe"):
        list(match_datalog_rule(rule, random_edge_database(seed=1)))
