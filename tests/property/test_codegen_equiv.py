"""Differential property test: compiled execution == the interpreted reference.

The codegen'd, set-at-a-time executor (:mod:`repro.core.codegen` — the
engine's one execution path) must be observationally identical to the
interpreted, naive, dynamic-ordering reference evaluator
(:mod:`repro.testing.reference`): same ``result(P)``, same final versions,
same iteration count, same *sets* of fired rule instances per stratum, same
linearity verdicts, same error behaviour.  Randomized programs cover all
three update kinds, negation, built-ins, ``del[v].*``, recursion and deep
version chains — the same generator the semi-naive equivalence suite uses —
so the compiled closures face every body shape the planner can produce.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.codegen import compiled_body, match_rule_compiled
from repro.core.consequence import apply_tp, tp_step
from repro.core.errors import EvaluationError, ReproError
from repro.core.evaluation import EvaluationOptions, evaluate
from repro.core.facts import Fact
from repro.core.grounding import _body_plan
from repro.core.stratification import stratify
from repro.core.terms import Oid
from repro.lang.parser import parse_program
from repro.testing.reference import (
    evaluate_reference,
    match_rule_dynamic,
    reference_step,
)
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


def _run(evaluator, program, base):
    try:
        return evaluator(program, base, TRACED), None
    except ReproError as error:
        return None, type(error)


def _fired_sets(trace):
    return [
        {(f.rule_name, str(f.head), f.binding) for i in s.iterations for f in i.fired}
        for s in trace.strata
    ]


@settings(max_examples=200, deadline=None)
@given(seeds)
def test_compiled_equals_interpreted_and_naive(seed):
    """Acceptance property: identical result bases, final versions,
    iteration counts, fired-instance sets and linearity verdicts between
    the engine and the reference (200 examples)."""
    program = random_update_program(seed=seed, allow_nonlinear=True)
    base = _base_for(seed)

    compiled, compiled_error = _run(evaluate, program, base)
    reference, reference_error = _run(evaluate_reference, program, base)

    assert compiled_error == reference_error
    if compiled is None:
        return
    assert compiled.result_base == reference.result_base
    assert compiled.final_versions == reference.final_versions
    assert compiled.iterations == reference.iterations
    assert _fired_sets(compiled.trace) == _fired_sets(reference.trace)


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_fired_count_metrics_agree_across_execution_paths(seed):
    """Observability reports what happened: with metrics on, the per-rule
    ``engine_rule_fired`` counters equal the fired instances in the engine's
    own trace, and sit between the distinct and the total fired instances
    of the reference's trace (the semi-naive engine re-fires an instance
    only when it re-matches the rule in full; the naive reference re-fires
    every instance on every iteration)."""
    from collections import Counter

    from repro.obs import metrics

    program = random_update_program(seed=seed, allow_nonlinear=True)
    base = _base_for(seed)

    def fired_by_rule(trace):
        return [
            (fired.rule_name, str(fired.head), fired.binding)
            for stratum in trace.strata
            for iteration in stratum.iterations
            for fired in iteration.fired
        ]

    metrics.enable_metrics(True)
    try:
        metrics.registry().reset()
        engine, engine_error = _run(evaluate, program, base)
        entry = metrics.registry().snapshot().get("engine_rule_fired")
        counters = dict(entry["series"]) if entry else {}
    finally:
        metrics.registry().reset()
        metrics.enable_metrics(None)
    reference, reference_error = _run(evaluate_reference, program, base)
    assert engine_error == reference_error
    if engine is None:
        return  # a run that raised stops each side mid-count
    own = Counter(f"rule={name}" for name, _, _ in fired_by_rule(engine.trace))
    assert counters == dict(own)
    fired = fired_by_rule(reference.trace)
    total = Counter(f"rule={name}" for name, _, _ in fired)
    distinct = Counter(f"rule={name}" for name, _, _ in set(fired))
    assert set(counters) == set(total)
    for rule, count in counters.items():
        assert distinct[rule] <= count <= total[rule]


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_compiled_matcher_agrees_with_interpreted_per_rule(seed):
    """Rule-matcher level: the compiled closure's bindings equal the
    interpreted dynamic matcher's for every random rule — as a set *and* in
    count, so the dedup contract (keys only when more than one generator)
    yields each binding exactly once."""
    program = random_update_program(seed=seed, allow_nonlinear=True)
    base = _base_for(seed)
    for rule in program:
        compiled = match_rule_compiled(rule, base)
        interpreted = list(match_rule_dynamic(rule, base))
        assert len(compiled) == len(interpreted)
        fast = {frozenset(b.items()) for b in compiled}
        slow = {frozenset(b.items()) for b in interpreted}
        assert fast == slow, f"rule {rule.name}: {fast} != {slow}"


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_compiled_body_slots_cover_plan_key_vars(seed):
    """Structural invariant behind the dedup contract: a compiled body's
    slot layout covers exactly the plan's ``key_vars`` (all body variables
    in ``var_sort_key`` order), and its dedup-key slots read them back in
    that exact order."""
    from repro.core.plans import var_sort_key

    program = random_update_program(seed=seed, allow_nonlinear=True)
    for rule in program:
        body = compiled_body(tuple(rule.body))
        plan = _body_plan(tuple(rule.body))
        assert tuple(body.slots[i] for i in body.key_slots) == plan.key_vars
        assert tuple(sorted(body.slots, key=var_sort_key)) == plan.key_vars
        assert body.generator_count == plan.generator_count


# ----------------------------------------------------------------------
# T¹ itself: the compiled head side against the literal step 1
# ----------------------------------------------------------------------


def _assert_same_step(rules, base, **options):
    """``tp_step`` and the reference's literal step derive the same ``T¹``
    (table for table, with and without ``collect_fired``), the same fired
    instances and — steps 2 + 3 — the same recomputed states.  Returns the
    engine's step."""
    reference = reference_step(rules, base, **options)
    quiet = tp_step(rules, base, **options)
    traced = tp_step(rules, base, collect_fired=True, **options)
    for step in (quiet, traced):
        assert step.pending.inserts == reference.pending.inserts
        assert step.pending.deletes == reference.pending.deletes
        assert step.pending.modifies == reference.pending.modifies
        assert step.copies == reference.copies
        assert step.new_states == reference.new_states
    assert quiet.fired == []
    assert len(traced.fired) == len(set(traced.fired))
    assert set(traced.fired) == set(reference.fired)
    return quiet


@settings(max_examples=200, deadline=None)
@given(seeds)
def test_tp_step_derives_the_reference_t1(seed):
    """Over the 200 random programs, along the whole fixpoint of every
    stratum: each full ``tp_step`` equals the reference step on the base
    the engine's own ``apply_tp`` produced so far."""
    program = random_update_program(seed=seed, allow_nonlinear=True)
    working = _base_for(seed).fork()
    for stratum in stratify(program):
        for _iteration in range(12):
            step = _assert_same_step(stratum, working)
            if not apply_tp(working, step):
                break


HEAD_CASES = """
    wipe:  del[X].* <= X.color -> C.
    deep:  del[mod(X)].* <= X.size -> S, S > 500.
    drop:  del[X].link -> Y <= X.link -> Y, Y.size -> S.
    shift: mod[X].size -> (S, S2) <= X.size -> S, S2 = S + 1.
    same:  mod[X].size -> (S, S) <= X.size -> S, X.color -> C.
    tag:   ins[mod(X)].tag -> C <= X.color -> C.
    fixed: ins[o0].seen -> X <= X.link -> o0.
    miss:  del[X].link -> o1 <= X.color -> C.
    guess: mod[X].size -> (S, 0) <= X.color -> C, Y.size -> S.
    late:  del[ins(X)].size -> S <= Y.size -> S, X.color -> C.
"""


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_every_head_shape_derives_the_reference_t1(seed):
    """``del[v].*`` (on an existing and on a skipped level), ``del``/``mod``
    heads that are true for some rows and false for others (the body does
    not pin the old fact), a ``mod`` keeping its value, a ground target —
    each applied twice, so the second step edits active versions."""
    rules = parse_program(HEAD_CASES)
    working = _base_for(seed).fork()
    for _iteration in range(2):
        apply_tp(working, _assert_same_step(rules, working))


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_match_base_superset_derives_the_reference_t1(seed):
    """As :mod:`repro.ext.derived` calls it: bodies and head truth read a
    superset carrying view facts, ``del[v].*`` expands against — and states
    are copied from — the stored base alone."""
    base = _base_for(seed)
    overlay = base.fork()
    for host in sorted(base.objects(), key=str)[::2]:
        overlay.add(Fact(host, "rich", (), Oid("yes")))
        overlay.add(Fact(host, "vsize", (), Oid(7)))
    rules = parse_program(
        """
        v1: del[X].* <= X.rich -> yes.
        v2: mod[X].vsize -> (S, S2) <= X.vsize -> S, S2 = S * 2.
        v3: del[X].rich -> yes <= X.rich -> yes, X.color -> C.
        v4: ins[X].seen -> S <= X.vsize -> S.
        """
    )
    _assert_same_step(rules, base.fork(), match_base=overlay)


def test_create_missing_objects_derives_the_reference_t1():
    base = _base_for(3)
    rules = parse_program("g: ins[ghost].t -> X <= X.color -> C.")
    for create in (False, True):
        step = _assert_same_step(rules, base.fork(), create_missing_objects=create)
        assert step.copies == 1


def test_unsafe_head_raises_on_the_first_row_only():
    """With the safety check off a head variable the body never binds is an
    ``EvaluationError`` as soon as one row matches — and nothing at all
    when none does, in the engine as in the reference."""
    base = _base_for(3)
    unsafe = parse_program("u: ins[X].t -> Y <= X.color -> C.")
    for step in (tp_step, reference_step):
        with pytest.raises(EvaluationError, match="'u'.*non-ground head"):
            step(unsafe, base)
    silent = parse_program("u: ins[X].t -> Y <= X.nothing -> C.")
    assert _assert_same_step(silent, base).is_empty()
