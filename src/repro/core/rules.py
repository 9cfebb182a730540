"""Update-rules and update-programs (Section 2.1).

An update-rule is ``H <= B1 ^ ... ^ Bk`` where ``H`` is an update-term and
each ``Bi`` is a positive or negated atom.  A rule with an empty body is an
update-fact.  A set of update-rules forms an update-program; its evaluation
is the update-process.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from repro.core.atoms import Literal, UpdateAtom, VersionAtom
from repro.core.errors import ProgramError
from repro.core.terms import Term, Var, VersionId

__all__ = ["UpdateRule", "UpdateProgram"]


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
