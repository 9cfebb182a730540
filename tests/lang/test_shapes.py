"""Program and query shapes: a text that differs from a known one only in
its constants is neither tokenized, parsed, stratified nor compiled — its
constants are bound into the shape's AST and artifact."""

import random
import sys
import threading

import pytest

import repro
from repro.core import caches
from repro.core import evaluation as evaluation_module
from repro.core.codegen import _STATS
from repro.core.errors import EvaluationError
from repro.core.query import PreparedQuery
from repro.core.rules import UpdateProgram
from repro.core.terms import Oid
from repro.lang.errors import ParseError
from repro.lang.lexer import LITERAL_PATTERN, tokenize
from repro.lang.parser import (
    _parse_literals,
    _Parser,
    parse_body,
    parse_program,
    prepare_query,
)
from repro.server import StoreService
from repro.storage import VersionedStore
from repro.testing.reference import query_reference
from repro.workloads import enterprise_base


def _raise(i: int) -> str:
    return f"raise: mod[emp{i}].sal -> (S, S2) <= emp{i}.sal -> S, S2 = S + 1."


def _shape_stats() -> dict:
    return caches.cache_stats()["program.shapes"]


@pytest.fixture()
def cold():
    caches.clear_caches()
    yield
    caches.clear_caches()


def test_fifty_raises_compile_one_body_and_stratify_once(cold, monkeypatch):
    calls = []
    stratify = evaluation_module.stratify

    def counted(program, **kwargs):
        calls.append(program)
        return stratify(program, **kwargs)

    monkeypatch.setattr(evaluation_module, "stratify", counted)
    service = StoreService(VersionedStore(enterprise_base(n_employees=100, seed=3)))
    before = _STATS["bodies_compiled"]
    for i in range(50):
        service.apply(_raise(i), tag=f"r{i}")
    assert _STATS["bodies_compiled"] - before == 1
    assert len(calls) == 1
    # every raise landed on its own employee
    for i in (0, 17, 49):
        answers = service.query(f"emp{i}.sal -> S")
        reference = query_reference(
            parse_body(f"emp{i}.sal -> S"), service.store.base_at(0)
        )
        assert answers == [{"S": reference[0]["S"] + 1}]


def test_fifty_point_queries_compile_one_body(cold):
    base = enterprise_base(n_employees=100, seed=3)
    before = _STATS["bodies_compiled"]
    for i in range(50):
        text = f"emp{i}.sal -> S, emp{i}.boss -> B"
        assert prepare_query(text).run(base) == query_reference(parse_body(text), base)
    assert _STATS["bodies_compiled"] - before == 1
    stats = caches.cache_stats()["query.prepared"]
    assert (stats["hits"], stats["misses"]) == (49, 1)


def test_fifty_point_reads_through_repro_query_compile_one_body(cold):
    base = enterprise_base(n_employees=200, seed=3)
    before = _STATS["bodies_compiled"]
    for i in range(50):
        text = f"emp{i}.sal -> S, emp{i}.boss -> B"
        assert repro.query(base, text) == query_reference(parse_body(text), base)
    assert _STATS["bodies_compiled"] - before <= 1


def test_repro_query_keeps_its_error_types():
    base = enterprise_base(n_employees=10, seed=3)
    with pytest.raises(ParseError):
        repro.query(base, "E.sal ->")
    with pytest.raises(EvaluationError, match="unsafe"):
        repro.query(base, "E.sal -> S, S > T")


def test_a_hit_equals_a_fresh_parse(cold):
    first = parse_program(_raise(1), "one")
    second = parse_program(_raise(2), "two")
    assert _shape_stats()["hits"] == 1
    fresh = _Parser(_raise(2)).parse_program("two")
    assert second.rules == fresh.rules
    assert second.name == "two"
    assert second.compiled.stratification.strata == ((second.rules[0],),)
    assert second.compiled.strata[0][0].rule is second.rules[0]
    assert first.compiled.strata[0][0].rule is first.rules[0]
    # the generated text is the shape's, its constants are this program's
    assert second.compiled.strata[0][0].full.source == first.compiled.strata[0][0].full.source


def test_the_artifact_survives_renaming_the_program(cold):
    program = parse_program(_raise(3))
    assert UpdateProgram(program, "raise").compiled is program.compiled


def test_comments_and_whitespace_are_part_of_the_key(cold):
    parse_program(_raise(1))
    parse_program(_raise(2) + "  % a note")
    parse_program(_raise(3) + "  % a note")  # the one hit
    parse_program(_raise(4) + "  % another note")
    parse_program(_raise(5).replace(" <= ", "  <=  "))
    stats = _shape_stats()
    assert (stats["hits"], stats["misses"]) == (1, 4)


def test_keywords_variables_and_literal_kinds_split_shapes(cold):
    texts = [
        "r: ins[a].p -> 1 <= a.q -> X.",
        "r: ins[a].p -> X <= a.q -> X.",   # variable, not an OID
        "r: ins[a].p -> 'x' <= a.q -> X.",  # string, not a number
        "r: ins[a].p -> 1.5 <= a.q -> X.",  # decimal, not an integer
        "r: ins[a].p -> -1 <= a.q -> X.",  # negated number
        "r: del[a].p -> 1 <= a.p -> 1.",    # another keyword
    ]
    for text in texts:
        parse_program(text)
    assert _shape_stats()["hits"] == 0
    for text in texts:  # each again, with other constants of its classes
        renamed = (
            text.replace("[a]", "[b]").replace("a.", "b.")
            .replace("1.5", "2.5").replace("'x'", "'y'").replace("1", "7")
        )
        program = parse_program(renamed)
        assert program.rules == _Parser(renamed).parse_program("program").rules
    assert _shape_stats()["hits"] == len(texts)


def test_a_keyword_read_as_an_oid_is_a_parameter(cold):
    parse_program("r: ins[x].p -> mod <= x.q -> mod.")
    program = parse_program("r: ins[x].p -> mod <= x.q -> mod.")
    assert program.rules[0].head.result == Oid("mod")
    assert _shape_stats()["hits"] == 1


def test_equal_integer_and_decimal_constants_are_never_templated(cold):
    parse_program("r: ins[a].p -> 1 <= a.q -> 1.0.")
    program = parse_program("r: ins[a].p -> 2 <= a.q -> 2.0.")
    assert _shape_stats()["hits"] == 0
    head, body = program.rules[0].head, program.rules[0].body[0].atom
    assert type(head.result.value) is int and type(body.result.value) is float


def test_a_program_that_does_not_compile_creates_no_shape(cold):
    text = "r: ins[a].q -> 1 <= not ins(a).p -> 1."
    for _ in range(2):
        program = parse_program(text)
        assert program.compiled is None
    assert _shape_stats() == {"hits": 0, "misses": 2, "size": 0, "maxsize": 256}


def test_query_names_stay_the_text(cold):
    first = prepare_query("emp1.sal -> S")
    second = prepare_query("emp2.sal -> S")
    named = prepare_query("emp2.sal -> S", name="mine")
    assert (first.name, second.name, named.name) == (
        "emp1.sal -> S", "emp2.sal -> S", "mine"
    )
    assert prepare_query("emp1.sal -> S") is first


def test_a_named_first_call_keeps_the_shape_named_by_its_text(cold, monkeypatch):
    """The shape's prepared query is named by its text, whoever prepared it
    first; another name gets a view that shares the compiled executor and
    the seeded variants, and nothing is planned or compiled again."""
    text = "E.sal -> S"
    named = prepare_query(text, name="salaries")
    built = []
    init = PreparedQuery.__init__
    monkeypatch.setattr(
        PreparedQuery, "__init__", lambda self, *a, **k: built.append(1) or init(self, *a, **k)
    )
    first = prepare_query(text)
    assert prepare_query(text) is first
    again = prepare_query(text, name="salaries")
    assert (named.name, first.name, again.name) == ("salaries", text, "salaries")
    assert named.compiled is first.compiled is again.compiled
    assert named._seeded_at(0) is first._seeded_at(0) is again._seeded_at(0)
    assert built == []


def test_a_shape_prepared_from_another_text_is_named_by_its_own(cold):
    """The template of a shape built by ``parse_body`` names its prepared
    query, even when another text of the shape prepares it first."""
    parse_body("emp1.sal -> S")
    other = prepare_query("emp2.sal -> S")
    first = prepare_query("emp1.sal -> S")
    assert prepare_query("emp1.sal -> S") is first
    assert (first.name, other.name) == ("emp1.sal -> S", "emp2.sal -> S")


def test_parse_body_binds_the_shape(cold):
    first = parse_body("E.sal -> S, S > 4000, E.boss -> joe")
    text = "E.sal -> S, S > 4100, E.boss -> ann"
    second = parse_body(text)
    assert second == _parse_literals(_Parser(text))
    assert [str(lit) for lit in first] == ["E.sal -> S", "S > 4000", "E.boss -> joe"]
    assert caches.cache_stats()["query.prepared"]["size"] == 1


def test_threads_share_the_shapes(cold):
    """Eight threads parse and prepare texts of two shapes at once, with a
    short switch interval: every result equals a fresh parse and no lookup
    goes uncounted."""
    texts = [_raise(i) for i in range(200)]
    queries = [f"emp{i}.sal -> S" for i in range(200)]
    failures = []

    def work(offset: int) -> None:
        for i in range(offset, 200, 8):
            program = parse_program(texts[i])
            if program.rules != _Parser(texts[i]).parse_program("program").rules:
                failures.append(texts[i])
            if prepare_query(queries[i]).body != parse_body(queries[i]):
                failures.append(queries[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    for name in ("program.shapes", "query.prepared"):
        stats = caches.cache_stats()[name]
        assert stats["hits"] + stats["misses"] == 200, name


_ALPHABET = list("abXY_z09 .\n\t-><=:!?,^/@*+()[]~%#'\"é;") + [
    "->", "<=", "1.5", "emp12", "mod", "'q q'", "not",
]


def test_the_split_cuts_where_the_lexer_does():
    """Tokenizing a text and splitting it on literals agree: every literal
    token is a slot, in order, and the other slots are comments."""
    rng = random.Random(11)
    for _ in range(3000):
        text = "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(0, 30)))
        try:
            tokens = tokenize(text)
        except Exception:
            continue
        slots = LITERAL_PATTERN.split(text)[1::2]
        literals = [t for t in tokens if t.type in ("IDENT", "NUMBER", "STRING")]
        code = [s for s in slots if s[0] not in "%#"]
        assert [t.value for t in literals] == [
            s[1:-1] if s[0] in "'\"" else s for s in code
        ], text
