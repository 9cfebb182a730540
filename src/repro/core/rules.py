"""Update-rules and update-programs (Section 2.1).

An update-rule is ``H <= B1 ^ ... ^ Bk`` where ``H`` is an update-term and
each ``Bi`` is a positive or negated atom.  A rule with an empty body is an
update-fact.  A set of update-rules forms an update-program; its evaluation
is the update-process.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from repro.core.atoms import BuiltinAtom, Literal, UpdateAtom, VersionAtom
from repro.core.errors import ProgramError
from repro.core.exprs import BinOp, Neg
from repro.core.terms import Oid, Term, Var, VersionId, VersionVar, intern_oid

__all__ = ["UpdateRule", "UpdateProgram", "abstract_constants", "map_constants"]


@dataclass(frozen=True)
class UpdateRule:
    """A single update-rule with an optional human-readable name.

    The name is used in error messages, stratification reports and traces;
    unnamed rules get positional names (``rule3``) from the program.
    """

    head: UpdateAtom
    body: tuple[Literal, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.head, UpdateAtom):
            raise ProgramError(
                f"rule heads must be update-terms (Section 2.1), got "
                f"{type(self.head).__name__}"
            )

    # -- structural helpers --------------------------------------------------
    @cached_property
    def variables(self) -> frozenset[Var]:
        """All variables of the rule (cached — rules are immutable and the
        matcher, safety checker and planner all ask repeatedly)."""
        names = set(self.head.variables)
        for literal in self.body:
            names |= literal.variables
        return frozenset(names)

    def substitute(self, binding) -> "UpdateRule":
        """A (possibly ground) instance of this rule."""
        return UpdateRule(
            self.head.substitute(binding),
            tuple(literal.substitute(binding) for literal in self.body),
            self.name,
        )

    def body_version_id_terms(self) -> Iterator[tuple[Term, bool]]:
        """Yield ``(version-id-term, positive)`` for every body atom.

        Update-terms contribute their *created* version ``α(V)`` — Section 4
        prescribes replacing every ``[V]`` by ``(V)`` before deriving the
        stratification — and version-terms contribute their host.
        """
        for literal in self.body:
            atom = literal.atom
            if isinstance(atom, VersionAtom):
                yield atom.host, literal.positive
            elif isinstance(atom, UpdateAtom):
                yield atom.new_version(), literal.positive

    def head_version_id_term(self) -> VersionId:
        """The head's created version ``α(V)`` (after the ``[V] → (V)``
        replacement of Section 4)."""
        return self.head.new_version()

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        body = " ^ ".join(str(lit) for lit in self.body)
        return f"{self.head} <= {body}."


class UpdateProgram:
    """An ordered collection of update-rules.

    Order is only used for naming and display; the semantics (Sections 3-5)
    depends on the rule *set* and the derived stratification.
    """

    def __init__(self, rules: Iterable[UpdateRule], name: str = "program"):
        self.name = name
        #: The program's :class:`~repro.core.evaluation.CompiledProgram` when
        #: one travels with it — a parsed text's, or the program's this one
        #: is re-wrapped from (``UpdateProgram(parsed, name)``) — else None.
        self.compiled = getattr(rules, "compiled", None)
        named: list[UpdateRule] = []
        seen: set[str] = set()
        for index, rule in enumerate(rules, start=1):
            rule_name = rule.name or f"rule{index}"
            if rule_name in seen:
                raise ProgramError(f"duplicate rule name {rule_name!r}")
            seen.add(rule_name)
            if rule.name != rule_name:
                rule = UpdateRule(rule.head, rule.body, rule_name)
            named.append(rule)
        self.rules: tuple[UpdateRule, ...] = tuple(named)

    def __iter__(self) -> Iterator[UpdateRule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __getitem__(self, index: int) -> UpdateRule:
        return self.rules[index]

    @property
    def variables(self) -> frozenset[Var]:
        names: set[Var] = set()
        for rule in self.rules:
            names |= rule.variables
        return frozenset(names)

    def __str__(self) -> str:
        return "\n".join(str(rule) for rule in self.rules)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UpdateProgram({self.name!r}, {len(self.rules)} rules)"


def map_constants(node, constants: Mapping[Oid, Oid]):
    """``node`` — a term, expression, atom, literal or rule, or a tuple of
    them (a body) — with every OID replaced by its image in ``constants``,
    which must hold them all.

    Subtrees without an OID come back as the same objects.  This is how
    one compiled shape is instantiated for a text or an AST that differs
    from it only in its constants (:mod:`repro.lang.shapes`,
    :func:`abstract_constants`).
    """
    return _MAP[node.__class__](node, constants)


def abstract_constants(node) -> tuple:
    """``(key, values)``: ``node`` with each constant replaced by a
    placeholder numbered in order of first occurrence and typed by its
    value (str / int / float), and the interned constants in that order.
    ``map_constants`` over ``dict(zip(values, other_values))`` turns a node
    into another of its key — unless two of its constants compare equal
    (``1`` and ``1.0``), which no OID mapping tells apart."""
    numbering = _Numbering()
    key = map_constants(node, numbering)
    return key, tuple([intern_oid(value) for _type, value in numbering])


class _Numbering(dict):
    """Each constant, by type and value, to its placeholder."""

    def __getitem__(self, oid: Oid) -> Oid:
        exact = (oid.value.__class__, oid.value)
        placeholder = self.get(exact)
        if placeholder is None:
            placeholder = self[exact] = Oid(f"#{len(self)}:{exact[0].__name__}")
        return placeholder


def _map_version_id(term: VersionId, constants) -> VersionId:
    base = _MAP[term.base.__class__](term.base, constants)
    return term if base is term.base else VersionId(term.kind, base)


def _map_all(items: tuple, constants) -> tuple:
    mapped = tuple([_MAP[item.__class__](item, constants) for item in items])
    for new, old in zip(mapped, items):
        if new is not old:
            return mapped
    return items


def _map_version_atom(atom: VersionAtom, constants) -> VersionAtom:
    host = map_constants(atom.host, constants)
    args = _map_all(atom.args, constants)
    result = map_constants(atom.result, constants)
    if host is atom.host and args is atom.args and result is atom.result:
        return atom
    return VersionAtom(host, atom.method, args, result)


def _map_update_atom(atom: UpdateAtom, constants) -> UpdateAtom:
    target = map_constants(atom.target, constants)
    args = _map_all(atom.args, constants)
    result = None if atom.result is None else map_constants(atom.result, constants)
    result2 = None if atom.result2 is None else map_constants(atom.result2, constants)
    if (
        target is atom.target
        and args is atom.args
        and result is atom.result
        and result2 is atom.result2
    ):
        return atom
    return UpdateAtom(
        atom.kind, target, atom.method, args, result, result2, atom.delete_all
    )


def _map_builtin(atom: BuiltinAtom, constants) -> BuiltinAtom:
    left = map_constants(atom.left, constants)
    right = map_constants(atom.right, constants)
    if left is atom.left and right is atom.right:
        return atom
    return BuiltinAtom(atom.op, left, right)


def _map_binop(expr: BinOp, constants) -> BinOp:
    left = map_constants(expr.left, constants)
    right = map_constants(expr.right, constants)
    if left is expr.left and right is expr.right:
        return expr
    return BinOp(expr.op, left, right)


def _map_neg(expr: Neg, constants) -> Neg:
    operand = map_constants(expr.operand, constants)
    return expr if operand is expr.operand else Neg(operand)


def _map_literal(literal: Literal, constants) -> Literal:
    atom = map_constants(literal.atom, constants)
    return literal if atom is literal.atom else Literal(atom, literal.positive)


def _map_rule(rule: UpdateRule, constants) -> UpdateRule:
    head = map_constants(rule.head, constants)
    body = _map_all(rule.body, constants)
    if head is rule.head and body is rule.body:
        return rule
    return UpdateRule(head, body, rule.name)


def _same(node, _constants):
    return node


_MAP = {
    Oid: lambda oid, constants: constants[oid],
    Var: _same,
    VersionVar: _same,
    VersionId: _map_version_id,
    BinOp: _map_binop,
    Neg: _map_neg,
    VersionAtom: _map_version_atom,
    UpdateAtom: _map_update_atom,
    BuiltinAtom: _map_builtin,
    Literal: _map_literal,
    UpdateRule: _map_rule,
    tuple: _map_all,
    str: _same,  # a method name or text among the parts of a node
}
