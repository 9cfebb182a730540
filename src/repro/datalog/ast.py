"""AST of the Datalog substrate: predicate atoms, rules, programs.

Flat first-order Datalog with negation and built-ins.  Constants and
variables reuse the core term model (:class:`~repro.core.terms.Oid`,
:class:`~repro.core.terms.Var`); comparisons reuse
:class:`~repro.core.atoms.BuiltinAtom`, so ``S2 = S * 1.1`` works here just
as in update-rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from repro.core.atoms import BuiltinAtom
from repro.core.errors import ProgramError, SafetyError, TermError
from repro.core.safety import limited_variables
from repro.core.substitution import resolve
from repro.core.terms import Oid, Var

__all__ = [
    "PredicateAtom",
    "DatalogLiteral",
    "DatalogRule",
    "DatalogProgram",
    "body_literal",
]

#: Datalog terms are flat: constants or variables.
DlTerm = Union[Oid, Var]


@dataclass(frozen=True, slots=True)
class PredicateAtom:
    """``name(arg1, ..., argk)`` with flat arguments."""

    name: str
    args: tuple[DlTerm, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise TermError("predicate name must be non-empty")
        for arg in self.args:
            if not isinstance(arg, (Oid, Var)):
                raise TermError(
                    f"Datalog arguments are flat terms, got {arg!r}"
                )

    @property
    def key(self) -> tuple[str, int]:
        """Index key ``(name, arity)`` — Datalog's predicate identity."""
        return (self.name, len(self.args))

    @property
    def variables(self) -> frozenset[Var]:
        return frozenset(a for a in self.args if isinstance(a, Var))

    def is_ground(self) -> bool:
        return all(isinstance(a, Oid) for a in self.args)

    def substitute(self, binding) -> "PredicateAtom":
        return PredicateAtom(
            self.name,
            tuple(
                resolve(a, binding) if isinstance(a, Var) else a for a in self.args
            ),
        )

    def to_tuple(self) -> tuple[Oid, ...]:
        if not self.is_ground():
            raise TermError(f"atom {self} is not ground")
        return self.args  # type: ignore[return-value]

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.name}({inner})"


@dataclass(frozen=True, slots=True)
class DatalogLiteral:
    """A positive or negated body element: predicate atom or built-in."""

    atom: Union[PredicateAtom, BuiltinAtom]
    positive: bool = True

    @property
    def variables(self) -> frozenset[Var]:
        if isinstance(self.atom, PredicateAtom):
            return self.atom.variables
        return self.atom.variables

    def substitute(self, binding) -> "DatalogLiteral":
        return DatalogLiteral(self.atom.substitute(binding), self.positive)

    def __str__(self) -> str:
        text = str(self.atom)
        return text if self.positive else f"not {text}"


def body_literal(atom, positive: bool = True) -> DatalogLiteral:
    """Convenience constructor used by programmatic rule builders."""
    return DatalogLiteral(atom, positive)


@dataclass(frozen=True)
class DatalogRule:
    """``head :- body.`` — a safe Datalog rule.

    Safety is :mod:`repro.core.safety`'s: every variable must occur in a
    positive predicate atom or be bound through ``=`` chains.
    """

    head: PredicateAtom
    body: tuple[DatalogLiteral, ...] = ()
    name: str = ""

    @property
    def variables(self) -> frozenset[Var]:
        names = set(self.head.variables)
        for literal in self.body:
            names |= literal.variables
        return frozenset(names)

    def check_safety(self) -> None:
        unlimited = self.variables - limited_variables(self.body)
        if unlimited:
            raise SafetyError(
                self.name or str(self), tuple(sorted(v.name for v in unlimited))
            )

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(str(b) for b in self.body)}."


class DatalogProgram:
    """An ordered set of rules with unique names (order is display-only)."""

    def __init__(self, rules: Iterable[DatalogRule], name: str = "datalog"):
        self.name = name
        named: list[DatalogRule] = []
        seen: set[str] = set()
        for index, rule in enumerate(rules, start=1):
            rule_name = rule.name or f"r{index}"
            if rule_name in seen:
                raise ProgramError(f"duplicate rule name {rule_name!r}")
            seen.add(rule_name)
            if rule.name != rule_name:
                rule = DatalogRule(rule.head, rule.body, rule_name)
            named.append(rule)
        self.rules: tuple[DatalogRule, ...] = tuple(named)

    def __iter__(self) -> Iterator[DatalogRule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def check_safety(self) -> None:
        for rule in self.rules:
            rule.check_safety()

    def idb_predicates(self) -> frozenset[tuple[str, int]]:
        """Predicates defined by some rule head."""
        return frozenset(rule.head.key for rule in self.rules)

    def __str__(self) -> str:
        return "\n".join(str(rule) for rule in self.rules)
