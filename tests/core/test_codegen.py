"""Unit tests for the codegen'd, set-at-a-time join executor.

The differential property suite (``tests/property/test_codegen_equiv.py``)
establishes compiled == reference on randomized programs; these tests pin
the deterministic contracts — slot layout and dedup keys against
``var_sort_key``, the paper workloads end to end, the prepared-query path,
and the cache-registry surface.
"""

from repro.core import caches
from repro.core.caches import cache_stats
from repro.core.codegen import _STATS, compiled_body, compiled_rule
from repro.core.engine import UpdateEngine
from repro.core.evaluation import EvaluationOptions, evaluate
from repro.core.facts import Fact
from repro.core.grounding import match_rule
from repro.core.objectbase import Delta, ObjectBase
from repro.core.plans import compile_plan, var_sort_key
from repro.core.query import PreparedQuery
from repro.core.terms import Oid, intern_oid
from repro.lang.parser import parse_body, parse_program, prepare_query
from repro.lang.pretty import format_program
from repro.testing.reference import (
    evaluate_reference,
    match_body_dynamic,
    match_rule_dynamic,
    query_reference,
)
from repro.workloads.enterprise import (
    enterprise_base,
    enterprise_update_program,
    hypothetical_base,
    hypothetical_program,
    paper_example_base,
    paper_example_program,
)
from repro.workloads.genealogy import ancestors_program, genealogy_base


def _fired_sets(trace):
    return [
        {(f.rule_name, str(f.head), f.binding) for i in s.iterations for f in i.fired}
        for s in trace.strata
    ]


def _workloads():
    return [
        (paper_example_program(), paper_example_base()),
        (paper_example_program(), paper_example_base(bob_salary=4100)),
        (hypothetical_program(), hypothetical_base()),
        (
            enterprise_update_program(hpe_threshold=4000),
            enterprise_base(n_employees=40, overpaid_ratio=0.2, seed=7),
        ),
    ]


# ----------------------------------------------------------------------
# end-to-end parity on the paper workloads
# ----------------------------------------------------------------------


def test_compiled_execution_matches_interpreted_on_paper_workloads():
    """Full evaluations (multi-stratum, update atoms in bodies, negation,
    seeded delta iterations) agree between the compiled engine and the
    interpreted reference: result base, fired-instance sets, linearity
    verdicts."""
    traced = EvaluationOptions(collect_trace=True)
    for program, base in _workloads():
        fast = evaluate(program, base, traced)
        slow = evaluate_reference(program, base, traced)
        assert fast.result_base == slow.result_base
        assert fast.final_versions == slow.final_versions
        assert fast.iterations == slow.iterations
        assert _fired_sets(fast.trace) == _fired_sets(slow.trace)


def test_compiled_matcher_matches_interpreted_per_rule():
    for program, base in _workloads():
        for rule in program:
            compiled = list(match_rule(rule, base))
            interpreted = list(match_rule_dynamic(rule, base))
            assert len(compiled) == len(interpreted)
            assert {frozenset(b.items()) for b in compiled} == {
                frozenset(b.items()) for b in interpreted
            }


# ----------------------------------------------------------------------
# slot layout and dedup keys
# ----------------------------------------------------------------------


def test_slot_layout_and_dedup_keys_agree_with_var_sort_key():
    """The dedup contract: a compiled body's key slots read back exactly
    the plan's ``key_vars`` — every body variable in ``var_sort_key``
    order — and the slot tuple is a permutation of them."""
    for program, _base in _workloads():
        for rule in program:
            body = compiled_body(tuple(rule.body))
            plan = compile_plan(tuple(rule.body))
            assert tuple(body.slots[i] for i in body.key_slots) == plan.key_vars
            assert tuple(sorted(body.slots, key=var_sort_key)) == plan.key_vars
            assert body.generator_count == plan.generator_count


def test_key_getter_small_arities():
    """The 0-ary and 1-ary dedup-key special cases (plain ``itemgetter``
    would return a scalar for one slot and is unavailable for zero)."""
    base = paper_example_base()

    ground = compiled_body(parse_body("phil.isa -> empl"))
    assert ground.key_slots == ()
    assert ground.key_getter(()) == ()
    assert ground.bindings(base) == [{}]

    single = compiled_body(parse_body("E.isa -> empl"))
    assert len(single.key_slots) == 1
    row = next(iter(single.fn(base, [()])))
    assert single.key_getter(row) == (row[single.key_slots[0]],)
    assert len(single.bindings(base)) == 2  # phil and bob


def test_compiled_body_is_cached():
    body = parse_body("E.isa -> empl, E.sal -> S")
    assert compiled_body(body) is compiled_body(tuple(body))


# ----------------------------------------------------------------------
# the prepared-query path
# ----------------------------------------------------------------------


def test_prepared_query_uses_compiled_executor():
    query = PreparedQuery(parse_body("E.isa -> empl, E.sal -> S"))
    assert query.compiled is compiled_body(query.body)
    base = enterprise_base(n_employees=30, overpaid_ratio=0.1, seed=3)
    assert query.run(base) == query_reference(query.body, base)


def test_match_body_prefers_compiled_and_agrees():
    from repro.core.grounding import match_body

    body = parse_body("E.isa -> empl, E.boss -> B, E.sal -> SE, B.sal -> SB, SE > SB")
    base = enterprise_base(n_employees=30, overpaid_ratio=0.3, seed=3)
    via_match_body = {frozenset(b.items()) for b in match_body(body, base)}
    dynamic = {frozenset(b.items()) for b in match_body_dynamic(body, base)}
    assert via_match_body == dynamic


# ----------------------------------------------------------------------
# the cache-registry surface
# ----------------------------------------------------------------------


def test_codegen_caches_registered():
    compiled_rule(paper_example_program().rules[0])  # ensure at least one entry
    stats = cache_stats()
    for name in ("codegen.rule", "codegen.body", "codegen.backend"):
        assert name in stats, f"{name} missing from cache_stats()"
    assert stats["codegen.rule"]["size"] >= 1
    backend = stats["codegen.backend"]
    assert backend["bodies_compiled"] >= 1
    assert {"seed_matchers_compiled", "batch_steps", "loop_steps"} <= set(backend)


def test_each_body_and_seeded_variant_compiles_once_per_process():
    """A rule's executors live on its one cached ``CompiledRule`` and a
    query's seeded variants on its ``PreparedQuery``: running them again,
    from a fresh engine or on the same delta, compiles nothing."""
    caches.clear_caches()
    program = ancestors_program()
    base = genealogy_base(generations=4, per_generation=3, seed=1)
    before = dict(_STATS)
    result = UpdateEngine().apply(program, base)
    # the recursive rule takes the SEED path
    assert _STATS["seed_matchers_compiled"] > before["seed_matchers_compiled"]
    warm = dict(_STATS)
    assert UpdateEngine().apply(program, base).new_base == result.new_base
    for counter in ("bodies_compiled", "seed_matchers_compiled"):
        assert _STATS[counter] == warm[counter], counter

    query = PreparedQuery(parse_body("X.anc -> A, A.isa -> person"))
    delta = Delta()
    delta.record(result.added, result.removed)
    gained, lost = delta.added_index(), delta.removed_index()
    first = query.delta_answers(gained, lost, result.new_base)
    assert first
    warm = dict(_STATS)
    assert query.delta_answers(gained, lost, result.new_base) == first
    for counter in ("bodies_compiled", "seed_matchers_compiled"):
        assert _STATS[counter] == warm[counter], counter

    # A text that differs only in its constants binds the shape's
    # executors, seeded variants included: the program and the query
    # with ``person`` renamed compile nothing more.
    text = format_program(program)
    shaped = parse_program(text)
    UpdateEngine().apply(shaped, base)
    prepare_query("X.anc -> A, A.isa -> person").delta_answers(
        gained, lost, result.new_base
    )
    warm = dict(_STATS)
    renamed = parse_program(text.replace("person", "human"))
    human = intern_oid("human")
    renamed_base = ObjectBase.from_fact_set(
        {
            Fact(f.host, f.method, f.args, human if f.result == Oid("person") else f.result)
            for f in base
        }
    )
    renamed_result = UpdateEngine().apply(renamed, renamed_base)
    reference = evaluate_reference(renamed, renamed_base)
    assert renamed_result.result_base == reference.result_base
    renamed_query = prepare_query("X.anc -> A, A.isa -> human")
    assert renamed_query.delta_answers(gained, lost, result.new_base) == []
    assert renamed_query.delta_answers(gained, lost, renamed_result.new_base) == [
        dict(row) for row in first
    ]
    for counter in ("bodies_compiled", "seed_matchers_compiled"):
        assert _STATS[counter] == warm[counter], counter


def test_generated_source_is_inspectable():
    body = compiled_body(parse_body("E.isa -> empl, E.sal -> S"))
    assert "def _run(base, rows):" in body.source
