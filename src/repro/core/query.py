"""A query API over object bases, with a compile-once form.

The paper's language derives updates, not queries, but inspecting states —
"which salary does ``mod(phil)`` have?" — is what its examples do in prose.
This module exposes the rule matcher for that purpose: a query is a
conjunction of body literals, answered by the substitutions that satisfy it.
It takes literals only; text is the parser's business, one layer up::

    from repro import query                       # parses, then answers
    query(base, "E.isa -> empl, E.sal -> S")
    # -> [{'E': 'bob', 'S': 4200}, {'E': 'phil', 'S': 4000}]

:class:`PreparedQuery` is the compile-once form: the join plan (literal
ordering *and* secondary-index column selection) is built and compiled a
single time and every execution runs that function against whatever base it
is given — answers are never kept across updates.
:func:`repro.lang.parser.prepare_query` builds one from text and keeps the
one cache of the read path, *body shape → compiled query*: a text that
differs from a known one only in its constants gets the known query bound
to its own (:meth:`PreparedQuery.bind`).  The query's
:class:`~repro.core.plans.QuerySignature` is what sessions and
subscriptions test a commit's exact ``(added, removed)`` delta against, and
:meth:`PreparedQuery.delta_answers` is how a subscription learns what that
delta did to its answers without re-running the body.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.atoms import Literal
from repro.core.codegen import Constants, compile_seeded, compiled_body
from repro.core.grounding import match_body
from repro.core.objectbase import ObjectBase
from repro.core.plans import body_signature, seed_facts
from repro.core.rules import abstract_constants
from repro.core.terms import Oid, Var

__all__ = [
    "PreparedQuery",
    "query_literals",
    "sorted_answers",
    "answer_sort_key",
    "decode_answer",
    "decode_answers",
    "diff_answers",
    "fold_answers",
    "result_value",
    "method_results",
]

#: Formatted answer rows: variable name -> plain Python value.
Answer = dict[str, object]


def _format_binding(binding: dict[Var, object]) -> Answer:
    """Bindings as plain ``{name: value}`` dicts.  Version variables
    (``?W``) bind whole VIDs; those come back as their concrete-syntax
    string (``"mod(joe)"``) since there is no plain value."""
    return {
        var.name: value.value if isinstance(value, Oid) else str(value)
        for var, value in binding.items()
    }


def _item_key(item: tuple[str, object]) -> tuple:
    """Totally ordered key for one ``(name, value)`` binding: numbers sort
    numerically among themselves and before everything else; any other
    value sorts by its text.  Never compares raw values of different types,
    so answers mixing ``int`` and ``str`` for the same variable (legal —
    OIDs carry either) no longer raise ``TypeError``."""
    name, value = item
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (name, 1, value)
    return (name, 2, str(value))


def _answer_sort_key(answer: Answer) -> tuple:
    """A total order over answer rows: each row is keyed by its
    :func:`_item_key`-ranked bindings in variable order."""
    return tuple(_item_key(item) for item in sorted(answer.items()))


def answer_sort_key(answer: Answer) -> tuple:
    """The public total order over answer rows (see :func:`_answer_sort_key`).

    This key is the identity the serving layer uses for answer *sets*: two
    answers are the same row iff their keys are equal, and every answer list
    the query layer hands out is sorted by it.  Exposed so diff/fold stay
    consistent with the ordering of :func:`sorted_answers` forever.
    """
    return _answer_sort_key(answer)


def diff_answers(
    old: Sequence[Answer], new: Sequence[Answer]
) -> tuple[list[Answer], list[Answer]]:
    """``(added, removed)`` answer rows between two sorted answer lists.

    A subscription stream that lagged diffs the answers it holds
    (``old``) against the server's snapshot (``new``); the property suites
    diff fresh queries of two revisions.  Both outputs come back in
    :func:`answer_sort_key` order, so a stream of diffs is replayable
    deterministically (see :func:`fold_answers`).
    """
    old_keyed = [(_answer_sort_key(answer), answer) for answer in old]
    new_keyed = [(_answer_sort_key(answer), answer) for answer in new]
    old_keys = {key for key, _answer in old_keyed}
    new_keys = {key for key, _answer in new_keyed}
    added = [answer for key, answer in new_keyed if key not in old_keys]
    removed = [answer for key, answer in old_keyed if key not in new_keys]
    return added, removed


def fold_answers(
    answers: Sequence[Answer],
    added: Sequence[Answer],
    removed: Sequence[Answer],
) -> list[Answer]:
    """Apply one ``(added, removed)`` answer diff to a sorted answer list.

    The client-side inverse of :func:`diff_answers`: folding every diff of a
    subscription stream over its initial answer set reproduces the full
    answer set at each revision (the differential test of the serving
    subsystem asserts exactly this against fresh store queries).
    """
    removed_keys = {_answer_sort_key(answer) for answer in removed}
    folded = [a for a in answers if _answer_sort_key(a) not in removed_keys]
    folded.extend(added)
    folded.sort(key=_answer_sort_key)
    return folded


def decode_answer(row) -> Answer:
    """One received answer row in canonical form.

    The canonical form is what :func:`query_literals` produces — plain
    ``{name: value}`` dicts whose values are OID payloads (``str``/``int``/
    ``float``) or concrete-syntax VID strings — with the bindings keyed in
    sorted variable order, so two equal rows always render identically
    (``repr``, ``json.dumps``) no matter which backend produced them.

    This is the *decode on receipt* step of the wire client: a row that
    crossed the JSON wire (or is shared with a subscription's held state)
    becomes a fresh, canonical dict the caller may mutate freely.  JSON
    artifacts are undone (lists become tuples); a non-dict row is rejected
    as a protocol error.
    """
    from repro.core.errors import ReproError

    if not isinstance(row, dict):
        raise ReproError(f"malformed answer row {row!r}: expected an object")
    return {
        str(name): _decode_value(value)
        for name, value in sorted(row.items(), key=lambda item: str(item[0]))
    }


def _decode_value(value):
    if isinstance(value, list):
        return tuple(_decode_value(item) for item in value)
    return value


def decode_answers(rows) -> list[Answer]:
    """Decode a received answer list into canonical rows in canonical order.

    Output is value-equal to what :func:`query_literals` returns for the
    same query — the regression contract of the unified connection API: the
    same query answered over the wire, through an in-process dispatcher, or
    straight off a :class:`~repro.storage.history.VersionedStore` decodes to
    the *same* list.
    """
    answers = [decode_answer(row) for row in rows]
    answers.sort(key=_answer_sort_key)
    return answers


def sorted_answers(bindings: Iterable[dict[Var, object]]) -> list[Answer]:
    """Format raw matcher bindings and sort them into the deterministic
    answer order (shared by the update-language and Datalog query layers)."""
    answers = [_format_binding(binding) for binding in bindings]
    answers.sort(key=_answer_sort_key)
    return answers


class PreparedQuery:
    """A conjunctive query compiled once and executable many times.

    Construction compiles the body's :class:`~repro.core.plans.JoinPlan`
    (literal order + index-column selection) into its executor — raising
    :class:`~repro.core.errors.EvaluationError` naming the query when the
    body is unsafe — and derives its
    :class:`~repro.core.plans.QuerySignature` (which method keys and host
    shapes can change the answers).  ``run`` executes against any base;
    :meth:`delta_answers` evaluates the body from one side of a commit's
    delta, through one seeded variant per version-term (built lazily, as a
    rule's are).

    Instances are safe to share across stores and threads.  Equality and
    hash are by body (constants by type too), so queries that differ only
    in ``name`` share one evaluation wherever they key a dict.
    """

    __slots__ = (
        "body", "compiled", "signature", "name",
        "_hash", "_columns", "_seeded", "_shape", "_constants", "_abstract",
    )

    def __init__(
        self, literals: Sequence[Literal], *, name: str = "<prepared>"
    ) -> None:
        self.body = tuple(literals)
        # The shared cached compile (the same entry match_body uses at run
        # time), kept on the query so a long-lived prepared query never
        # recompiles on cache eviction.
        self.compiled = compiled_body(self.body, name)
        self.signature = body_signature(self.body)
        self.name = name
        self._hash = hash(self.body)
        # Row keys in sorted variable order: what decode_answer produces.
        self._columns = sorted(self.compiled.slots, key=lambda var: var.name)
        self._seeded: dict[int, tuple] = {}
        self._shape: PreparedQuery | None = None
        self._constants: Constants | None = None
        self._abstract: tuple | None = None

    def bind(
        self, literals: Sequence[Literal], constants: Constants, *, name: str
    ) -> "PreparedQuery":
        """The prepared query of ``literals`` — this body with its OIDs
        mapped through ``constants`` — named ``name``, without planning or
        compiling: the signature and plan do not depend on the constants,
        and the executors are rebound
        (:meth:`~repro.core.codegen.CompiledBody.bind`)."""
        bound = object.__new__(PreparedQuery)
        bound.body = tuple(literals)
        bound.compiled = self.compiled.bind(constants)
        bound.signature = self.signature
        bound.name = name
        bound._hash = hash(bound.body)
        bound._columns = self._columns
        bound._seeded = {}
        bound._shape = self
        bound._constants = constants
        bound._abstract = None
        return bound

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, PreparedQuery):
            return NotImplemented
        # Bodies equal with ``1`` against ``1.0`` differ once abstracted (the
        # placeholders carry the type); a query abstracts its body once.
        if self._abstract is None:
            self._abstract = abstract_constants(self.body)
        if other._abstract is None:
            other._abstract = abstract_constants(other.body)
        return self._abstract == other._abstract

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PreparedQuery({self.name!r}, {len(self.body)} literals)"

    def bindings(self, base: ObjectBase) -> list[dict[Var, object]]:
        """Raw variable bindings (fresh dicts, unordered)."""
        return self.compiled.bindings(base)

    def run(self, base: ObjectBase) -> list[Answer]:
        """Canonical answers against ``base``: fresh rows keyed in sorted
        variable order, sorted by :func:`answer_sort_key` — already what
        :func:`decode_answers` would make of them."""
        columns = self._columns
        answers = [
            {
                var.name: v.value if isinstance(v := binding[var], Oid) else str(v)
                for var in columns
            }
            for binding in self.compiled.bindings(base)
        ]
        answers.sort(key=_answer_sort_key)
        return answers

    def delta_answers(self, gained, lost, base: ObjectBase) -> list[Answer]:
        """The rows ``diff_answers(run(b), run(base))`` adds, sorted by
        :func:`answer_sort_key`, where ``gained`` and ``lost`` are the two
        sides of the exact delta from ``b`` to ``base`` (indexed as
        :meth:`~repro.core.objectbase.Delta.added_index`).  Swap the sides
        and pass ``b`` as ``base`` for the rows it removes.

        A positive version-term seeds its variant with its facts in
        ``gained``, a negated one with those in ``lost``; the rest of the
        body runs on ``base``.  Safety binds a negated literal's variables
        elsewhere, so a row grounds to one set of facts, and ``not L`` needs
        no re-check: a ``lost`` fact is absent from ``base``.  Update-terms
        are not seeded (subscriptions refuse them).
        """
        keyed: dict[tuple, Answer] = {}
        signature = self.signature
        for position, *_ in signature.seeds:
            index = gained if self.body[position].positive else lost
            facts = seed_facts(index, signature, position)
            if not facts:
                continue
            matcher, body, columns = self._seeded_at(position)
            for row in body.fn(base, matcher.fn(facts)):
                answer = {
                    name: v.value if isinstance(v := row[slot], Oid) else str(v)
                    for name, slot in columns
                }
                keyed.setdefault(_answer_sort_key(answer), answer)
        return [keyed[key] for key in sorted(keyed)]

    def _seeded_at(self, position: int) -> tuple:
        """``(seed_matcher, compiled_body, columns)`` of the variant seeded
        at ``position``; a query bound from a text shape binds the shape's."""
        try:
            return self._seeded[position]
        except KeyError:
            if self._shape is None:
                matcher, body = compile_seeded(self.body, position, "<body>")
                columns = tuple(
                    (var.name, body.slots.index(var)) for var in self._columns
                )
            else:
                matcher, body, columns = self._shape._seeded_at(position)
                matcher = matcher.bind(self._constants)
                body = body.bind(self._constants)
            entry = self._seeded[position] = (matcher, body, columns)
            return entry


def query_literals(
    base: ObjectBase, literals: Sequence[Literal]
) -> list[Answer]:
    """Answer a conjunctive query; bindings as plain ``{name: value}`` dicts,
    sorted for stable output (total order even for answers mixing ``int``
    and ``str`` values of the same variable).
    """
    return sorted_answers(match_body(tuple(literals), base))


def method_results(base: ObjectBase, host, method: str, args: Iterable = ()) -> set:
    """The result set of ``host.method@args`` — plain Python values.

    Methods are set-valued when the base holds several applications with the
    same host/method/arguments (Section 2.1), hence a set.
    """
    host_term = host if not isinstance(host, (str, int, float)) else Oid(host)
    arg_terms = tuple(Oid(a) if isinstance(a, (str, int, float)) else a for a in args)
    return {
        fact.result.value
        for fact in base.facts_by_host_method(host_term, method, len(arg_terms))
        if fact.args == arg_terms
    }


def result_value(base: ObjectBase, host, method: str, args: Iterable = ()):
    """The unique result of a method application, or ``None``.

    Raises ``ValueError`` when the method is set-valued at this host —
    callers that expect a function-like method should hear about it.
    """
    values = method_results(base, host, method, args)
    if not values:
        return None
    if len(values) > 1:
        raise ValueError(
            f"{host}.{method} is set-valued here ({sorted(map(str, values))}); "
            f"use method_results()"
        )
    return next(iter(values))
