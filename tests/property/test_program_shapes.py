"""Differential property test: a program bound from its shape == the
reference engine on a fresh parse.

A random program (:func:`repro.workloads.synthetic.random_update_program`,
rendered by :func:`repro.lang.pretty.format_program`) is parsed, then a
sibling whose constants are consistently renamed — each to another of its
class, equal ones alike and distinct ones apart, symbols to OIDs of the
base.  The sibling's parse must hit the first one's shape, equal an
uncached parse, and evaluate exactly as the reference evaluator
(:mod:`repro.testing.reference`) says: ``result(P)``, final versions,
iterations, fired instances and the stratification.  Each rule body, as a
query, gets the same check against ``query_reference``.

Programs and bodies built as ASTs get the same checks through the compile
cache of :mod:`repro.core.codegen`: a sibling renamed as an AST binds its
shape's artifact, which must equal an uncached compile of the sibling and
agree with the reference.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core import caches
from repro.core.codegen import CompiledRule, _compile_body, compiled_body
from repro.core.errors import ReproError
from repro.core.evaluation import EvaluationOptions, compile_program, evaluate
from repro.core.plans import compile_plan
from repro.core.query import query_literals
from repro.core.rules import UpdateProgram, abstract_constants, map_constants
from repro.core.terms import Oid, intern_oid
from repro.lang.parser import _parse_literals, _Parser, parse_program, prepare_query
from repro.lang.pretty import format_literal, format_program
from repro.testing.reference import evaluate_reference, query_reference
from repro.workloads.synthetic import random_object_base, random_update_program

seeds = st.integers(0, 1_000_000_000)

TRACED = EvaluationOptions(collect_trace=True)


def _base_for(seed: int):
    return random_object_base(
        n_objects=6 + seed % 5, facts_per_object=3, numeric_ratio=0.6, seed=seed
    )


class _Collect(dict):
    def __missing__(self, oid):
        self[oid] = oid
        return oid


def _renaming(node, base, rng: random.Random) -> dict:
    """A class-keeping, injective renaming of ``node``'s OIDs: numbers to
    other numbers of their type and sign, symbols to OIDs of ``base``."""
    collected = _Collect()
    for item in node:
        map_constants(item, collected)
    symbols = sorted(
        {str(oid) for oid in base.oid_universe() if isinstance(oid.value, str)}
    )
    used: set = set()
    renaming = {}
    for oid in collected:
        while True:
            if isinstance(oid.value, int):
                value = rng.randint(1, 5000) * (-1 if oid.value < 0 else 1)
            elif isinstance(oid.value, float):
                value = rng.randint(1, 5000) / 8 * (-1 if oid.value < 0 else 1)
            else:
                value = rng.choice(symbols + [f"k{rng.randint(0, 99)}"])
            if value not in used:
                break
        used.add(value)
        renaming[oid] = intern_oid(value)
    return renaming


def _fired_sets(trace):
    return [
        {(f.rule_name, str(f.head), f.binding) for i in s.iterations for f in i.fired}
        for s in trace.strata
    ]


def _run(evaluator, program, base):
    try:
        return evaluator(program, base, TRACED), None
    except ReproError as error:
        return None, type(error)


@settings(max_examples=120, deadline=None)
@given(seeds)
def test_a_renamed_program_binds_its_shape_and_matches_the_reference(seed):
    base = _base_for(seed)
    program = random_update_program(seed=seed, allow_nonlinear=True)
    first = parse_program(format_program(program))
    assert first.compiled is not None
    renaming = _renaming(first.rules, base, random.Random(seed))
    text = format_program(
        [map_constants(rule, renaming) for rule in first.rules]  # type: ignore[arg-type]
    )
    before = caches.cache_stats()["program.shapes"]["hits"]
    sibling = parse_program(text)
    assert caches.cache_stats()["program.shapes"]["hits"] == before + 1
    assert sibling.rules == _Parser(text).parse_program("program").rules

    fast, fast_error = _run(evaluate, sibling, base)
    naive, naive_error = _run(evaluate_reference, sibling, base)
    assert fast_error == naive_error
    if fast is None:
        return
    assert fast.result_base == naive.result_base
    assert fast.final_versions == naive.final_versions
    assert fast.iterations == naive.iterations
    assert _fired_sets(fast.trace) == _fired_sets(naive.trace)
    assert fast.stratification == naive.stratification
    assert fast.stratification.explain() == naive.stratification.explain()


@settings(max_examples=120, deadline=None)
@given(seeds)
def test_a_renamed_query_binds_its_shape_and_matches_the_reference(seed):
    base = _base_for(seed)
    program = random_update_program(seed=seed)
    rng = random.Random(seed)
    for rule in program:
        text = ", ".join(format_literal(literal) for literal in rule.body)
        if not text:
            continue
        try:
            prepare_query(text)
        except ReproError:
            continue  # a body only its head makes safe
        literals = _parse_literals(_Parser(text))
        renaming = _renaming(literals, base, rng)
        renamed = ", ".join(
            format_literal(map_constants(literal, renaming)) for literal in literals
        )
        before = caches.cache_stats()["query.prepared"]["hits"]
        prepared = prepare_query(renamed)
        assert caches.cache_stats()["query.prepared"]["hits"] == before + 1
        fresh = _parse_literals(_Parser(renamed))
        assert prepared.body == fresh
        assert prepared.run(base) == query_reference(fresh, base)


def test_renaming_keeps_classes_apart():
    """The helper's own contract: integers stay integers, symbols stay
    symbols, and distinct OIDs stay distinct."""
    base = _base_for(1)
    literals = _parse_literals(_Parser("X.size -> 3, X.link -> o1, Y.size -> 4"))
    renaming = _renaming(literals, base, random.Random(0))
    assert {type(oid.value) for oid in renaming} == {
        type(new.value) for new in renaming.values()
    }
    assert len(set(renaming.values())) == len(renaming)
    assert Oid(3) in renaming


def _shaped(nodes) -> int:
    """How many of ``nodes`` a shape can key (no ``1`` / ``1.0`` pair)."""
    count = 0
    for node in nodes:
        _key, values = abstract_constants(node)
        count += len(set(values)) == len(values)
    return count


def _same_executor(bound, fresh, base) -> None:
    """A bound executor is an uncached compile: the same generated text
    and slots, globals holding equal AST nodes, and the same rows."""
    assert bound.source == fresh.source
    assert bound.slots == fresh.slots
    assert dict(bound.rebinds) == dict(fresh.rebinds)
    assert sorted(map(repr, bound.fn(base, [()]))) == sorted(
        map(repr, fresh.fn(base, [()]))
    )


@settings(max_examples=120, deadline=None)
@given(seeds)
def test_an_ast_built_sibling_program_binds_its_shape_and_matches_the_reference(seed):
    base = _base_for(seed)
    program = random_update_program(seed=seed, allow_nonlinear=True)
    try:
        compile_program(program)
    except ReproError:
        return
    renaming = _renaming(program.rules, base, random.Random(seed))
    sibling = UpdateProgram([map_constants(rule, renaming) for rule in program])
    before = caches.cache_stats()["codegen.shapes"]["hits"]
    fast, fast_error = _run(evaluate, sibling, base)
    naive, naive_error = _run(evaluate_reference, sibling, base)
    assert fast_error == naive_error
    if fast is None:
        return
    hits = caches.cache_stats()["codegen.shapes"]["hits"] - before
    assert hits == _shaped(sibling.rules)
    assert fast.result_base == naive.result_base
    assert fast.final_versions == naive.final_versions
    assert fast.iterations == naive.iterations
    assert _fired_sets(fast.trace) == _fired_sets(naive.trace)
    assert fast.stratification == naive.stratification
    for stratum in sibling.compiled.strata:
        for bound in stratum:
            fresh = CompiledRule(bound.rule)
            assert bound.signature == fresh.signature
            _same_executor(bound.full, fresh.full, base)


@settings(max_examples=120, deadline=None)
@given(seeds)
def test_an_ast_built_sibling_body_binds_its_shape_and_matches_the_reference(seed):
    base = _base_for(seed)
    program = random_update_program(seed=seed)
    rng = random.Random(seed)
    for rule in program:
        if not rule.body:
            continue
        try:
            compiled_body(rule.body)
        except ReproError:
            continue  # a body only its head makes safe
        sibling = map_constants(rule.body, _renaming(rule.body, base, rng))
        before = caches.cache_stats()["codegen.shapes"]["hits"]
        assert query_literals(base, sibling) == query_reference(sibling, base)
        hits = caches.cache_stats()["codegen.shapes"]["hits"] - before
        assert hits == _shaped([sibling])
        fresh = _compile_body(compile_plan(sibling), (), "<body>")
        _same_executor(compiled_body(sibling), fresh, base)
