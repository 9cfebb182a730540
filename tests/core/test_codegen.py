"""Unit tests for the codegen'd, set-at-a-time join executor.

The differential property suite (``tests/property/test_codegen_equiv.py``)
establishes compiled == reference on randomized programs; these tests pin
the deterministic contracts — slot layout and dedup keys against
``var_sort_key``, the paper workloads end to end, the prepared-query path,
and the cache-registry surface.
"""

import pytest

from repro.core import caches
from repro.core.atoms import BuiltinAtom, Literal, UpdateAtom, VersionAtom
from repro.core.caches import cache_stats
from repro.core.codegen import _STATS, compiled_body, compiled_rule
from repro.core.engine import UpdateEngine
from repro.core.errors import ReproError, TermError
from repro.core.evaluation import EvaluationOptions, evaluate
from repro.core.exprs import BinOp
from repro.core.facts import Fact
from repro.core.grounding import match_rule
from repro.core.objectbase import Delta, ObjectBase
from repro.core.plans import compile_plan, var_sort_key
from repro.core.query import PreparedQuery
from repro.core.rules import UpdateProgram, UpdateRule, map_constants
from repro.core.terms import Oid, UpdateKind, Var, VersionVar, intern_oid
from repro.lang.parser import parse_body, parse_object_base, parse_program, prepare_query
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
# built-in semantics on the compiled path
# ----------------------------------------------------------------------

_NUMBERS = parse_object_base(
    "six.n -> 6.  seven.n -> 7.  sym.n -> phil.  one.n -> 1.  onef.n -> 1.0."
)
_W, _X = VersionVar("W"), Var("X")
_VERSIONS = parse_object_base("six.n -> 6.  mod(six).n -> 7.")
_SCANNED = Literal(VersionAtom(_W, "n", (), Var("N")))

#: ``(body, base, expected)``: a body is query text or a literal tuple
#: (version variables have no concrete syntax in built-ins); ``expected`` is
#: the typed answer rows (``repr`` keeps ``3`` apart from ``3.0``) or the
#: error type both paths raise.
_BUILTIN_CASES = [
    ("six.n -> N, X = N / 2", _NUMBERS, [[("N", "6"), ("X", "3")]]),
    ("seven.n -> N, X = N / 2", _NUMBERS, [[("N", "7"), ("X", "3.5")]]),
    ("six.n -> N, X = N / 0", _NUMBERS, []),
    ("six.n -> N, N / 0 > 1", _NUMBERS, []),
    ("six.n -> N, not N / 0 > 1", _NUMBERS, []),
    ("sym.n -> N, X = N + 1", _NUMBERS, []),
    ("sym.n -> N, N + 1 > 0", _NUMBERS, []),
    ("sym.n -> N, not N + 1 > 0", _NUMBERS, []),
    ("sym.n -> N, N < 5", _NUMBERS, []),
    ("sym.n -> N, not N < 5", _NUMBERS, []),
    # a binder: N takes 1.0, and one.n -> 1.0 holds because 1 = 1.0
    ("one.n -> N, N = 1.0", _NUMBERS, [[("N", "1.0")]]),
    ("one.n -> N, onef.n -> M, N + 0 = M + 0", _NUMBERS, [[("M", "1.0"), ("N", "1")]]),
    ("one.n -> N, onef.n -> M, N + 0 != M + 0", _NUMBERS, []),
    ("one.n -> N, not N = 1.0", _NUMBERS, []),
    ("onef.n -> N, N != 1", _NUMBERS, []),
    ("onef.n -> N, not N != 1", _NUMBERS, [[("N", "1.0")]]),
    ("six.n -> N, X = -N", _NUMBERS, [[("N", "6"), ("X", "-6")]]),
    ("six.n -> N, -N < 0 - 5", _NUMBERS, [[("N", "6")]]),
    # ?W ranges over six and mod(six): a VID operand fails a binder's
    # candidate and is a TermError in a ground filter
    ((_SCANNED, Literal(BuiltinAtom("=", _X, BinOp("+", _W, Oid(1))))), _VERSIONS, []),
    (
        (_SCANNED, Literal(BuiltinAtom("=", _X, _W))),
        _VERSIONS,
        [[("N", "6"), ("W", "'six'"), ("X", "'six'")]],
    ),
    ((_SCANNED, Literal(BuiltinAtom("!=", _W, intern_oid("bob")))), _VERSIONS, TermError),
]


def _typed_answers(answers):
    return [sorted((name, repr(value)) for name, value in a.items()) for a in answers]


def _outcome(run):
    try:
        return run()
    except ReproError as error:
        return type(error)


@pytest.mark.parametrize("body, base, expected", _BUILTIN_CASES)
def test_builtin_semantics_agree_with_the_reference(body, base, expected):
    """Exact division, division by zero, symbolic operands under both
    polarities, ``1`` against ``1.0``, unary minus and version-variable
    operands give the reference's answers — with the same numeric types —
    in a query body and in a rule body."""
    query = prepare_query(body) if isinstance(body, str) else PreparedQuery(body)
    literals = query.body
    compiled = _outcome(lambda: _typed_answers(query.run(base)))
    reference = _outcome(lambda: _typed_answers(query_reference(literals, base)))
    assert compiled == reference == expected

    # the head records the alphabetically last plain variable of the body
    last = max(v.name for lit in literals for v in lit.variables if type(v) is Var)
    head = UpdateAtom(UpdateKind.INSERT, intern_oid("hit"), "got", (), Var(last))
    program = UpdateProgram([UpdateRule(head, literals, "case")])

    def result(evaluator):
        return sorted(repr(fact) for fact in evaluator(program, base).result_base)

    assert _outcome(lambda: result(evaluate)) == _outcome(
        lambda: result(evaluate_reference)
    )
    if isinstance(expected, list):
        got = sorted(fact for fact in result(evaluate) if "'got'" in fact)
        assert got == sorted(
            {
                f"Fact(VersionId(ins, Oid('hit')), 'got', (), Oid({value}))"
                for row in expected
                for name, value in row
                if name == last
            }
        )


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


class _Fresh(dict):
    """Maps every OID it meets to a fresh one of the same kind."""

    def __missing__(self, oid: Oid) -> Oid:
        value = oid.value
        fresh = self[oid] = intern_oid(
            value + 1 if isinstance(value, (int, float)) else f"{value}_fresh"
        )
        return fresh


_RAISE = "raise: mod[emp7].sal -> (S, S2) <= emp7.sal -> S, S2 = S + 1."


@pytest.mark.parametrize(
    "rule",
    [*parse_program(_RAISE), *enterprise_update_program(hpe_threshold=4500)],
    ids=lambda rule: rule.name,
)
def test_binding_a_shape_maps_its_nodes_and_rebuilds_nothing_else(rule):
    """Binding a rule to other constants swaps in ``map_constants`` of the
    AST nodes its functions hold — the built-ins' operands, rule4's
    update-term, ground terms — and leaves every other global as it is:
    no step is rebuilt per bind."""
    constants = _Fresh()
    instance = map_constants(rule, constants)
    template = compiled_rule(rule)
    bound = template.bind(instance, constants)
    seeds = [
        position
        for position, literal in enumerate(rule.body)
        if literal.positive and isinstance(literal.atom, VersionAtom)
    ]
    assert template.full.rebinds
    pairs = [(template.full, bound.full)]
    for position in seeds:
        pairs += zip(template.seeded(position), bound.seeded(position))
    for shape, instance_body in pairs:
        rebinds = dict(shape.rebinds)
        before, after = shape.fn.__globals__, instance_body.fn.__globals__
        assert before.keys() == after.keys()
        changed = {label for label in before if after[label] is not before[label]}
        assert changed <= rebinds.keys()
        for label, node in rebinds.items():
            assert after[label] == map_constants(node, constants)
            assert node == before[label]


def test_generated_source_is_inspectable():
    body = compiled_body(parse_body("E.isa -> empl, E.sal -> S"))
    assert "def _run(base, rows):" in body.source
