"""Derived methods — the "derived objects" generalisation of Section 6.

The paper restricts itself to base methods ("we do not consider derived
objects ... We do not see any principal problems to generalize our approach
in this direction").  This module supplies the generalisation:

* a **derived rule** has a *version-term* head::

      senior: X.senior -> yes <= X.sal -> S, S > 4000.

  and defines a method by deduction instead of storage;
* derived methods are **views**: they are materialised on demand, never
  stored, never copied into new versions (a copied ``senior`` flag would go
  stale the moment the underlying ``sal`` changes), and never updatable —
  an update-program whose head targets a derived method is rejected;
* derived rules may use other derived methods, recursively, with stratified
  negation among derived methods (method-level stratification, exactly the
  Datalog construction the update language adapts at the version level, by
  the same graph pass, :func:`repro.core.stratification.levels`);
* a head variable must be limited by the body, as
  :func:`repro.core.safety.limited_variables` decides for update-rules;
* during an update-process the view is recomputed before every ``T_P``
  application, so rule bodies always see derived facts consistent with the
  current version states — including on freshly created versions.  This is
  the core fixpoint itself, :func:`repro.core.evaluation.evaluate`, with
  the materialisation as its ``overlay``: one ``T_P`` loop, so tracing,
  the linearity check and every evaluation option behave as without views.

A view whose head host is a plain variable (``X.senior -> yes``) attaches
to *objects* only — variables range over ``O`` (docs/DESIGN.md D2).  For a
**version-transparent** view, compose with the other Section 6 extension
and use a version variable::

    senior: ?W.senior -> yes <= ?W.sal -> S, S > 4000.

Now ``mod(phil).senior`` is derivable from ``mod(phil)``'s state, so update
rules in later strata can test derived properties of intermediate versions.

:class:`DerivedUpdateEngine` is the :class:`~repro.core.engine.UpdateEngine`
that runs it; standalone materialisation is :func:`materialize`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.atoms import Literal, VersionAtom
from repro.core.engine import UpdateEngine
from repro.core.errors import EvaluationLimitError, ProgramError
from repro.core.evaluation import EvaluationOutcome, evaluate
from repro.core.facts import EXISTS
from repro.core.grounding import match_body
from repro.core.objectbase import ObjectBase
from repro.core.rules import UpdateProgram
from repro.core.safety import limited_variables
from repro.core.stratification import levels
from repro.lang.parser import parse_derived_rules

__all__ = [
    "DerivedRule",
    "DerivedProgram",
    "parse_derived_program",
    "materialize",
    "DerivedUpdateEngine",
]


@dataclass(frozen=True)
class DerivedRule:
    """One view definition: a version-term head over a body of literals."""

    head: VersionAtom
    body: tuple[Literal, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if self.head.method == EXISTS:
            raise ProgramError("the system method 'exists' cannot be derived")
        unlimited = self.head.variables - limited_variables(self.body)
        if unlimited:
            names = ", ".join(sorted(v.name for v in unlimited))
            raise ProgramError(
                f"derived rule {self.name or self.head}: head variable(s) "
                f"{names} are not limited by the positive body"
            )

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} <= {' ^ '.join(str(b) for b in self.body)}."


class DerivedProgram:
    """A set of derived rules with a method-level stratification.

    The derived methods (head method names) must be disjoint from the base
    methods of any object base the program is materialised over — checked
    at materialisation time.
    """

    def __init__(self, rules: Iterable[DerivedRule], name: str = "views"):
        self.name = name
        named: list[DerivedRule] = []
        seen: set[str] = set()
        for index, rule in enumerate(rules, start=1):
            rule_name = rule.name or f"view{index}"
            if rule_name in seen:
                raise ProgramError(f"duplicate derived-rule name {rule_name!r}")
            seen.add(rule_name)
            if rule.name != rule_name:
                rule = DerivedRule(rule.head, rule.body, rule_name)
            named.append(rule)
        self.rules: tuple[DerivedRule, ...] = tuple(named)
        self.derived_methods: frozenset[str] = frozenset(
            rule.head.method for rule in self.rules
        )
        self._strata = self._stratify()

    def __iter__(self):
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def _stratify(self) -> tuple[tuple[DerivedRule, ...], ...]:
        """Stratify by derived-method name (negation edges strict)."""
        edges = [
            (literal.atom.method, rule.head.method, not literal.positive)
            for rule in self.rules
            for literal in rule.body
            if isinstance(literal.atom, VersionAtom)
            and literal.atom.method in self.derived_methods
        ]

        def describe(lower: str, upper: str, cycle: tuple[str, ...]) -> str:
            return (
                f"derived method {upper!r} depends negatively on itself "
                f"through {lower!r}"
            )

        method_level = levels(
            [rule.head.method for rule in self.rules], edges, describe
        )
        strata: list[list[DerivedRule]] = [
            [] for _ in range(max(method_level.values(), default=-1) + 1)
        ]
        for rule in self.rules:
            strata[method_level[rule.head.method]].append(rule)
        return tuple(tuple(stratum) for stratum in strata)

    def check_disjoint(self, base: ObjectBase) -> None:
        """Reject bases that *store* facts under a derived method name."""
        for fact in base:
            if fact.method in self.derived_methods:
                raise ProgramError(
                    f"base stores {fact} but {fact.method!r} is a derived "
                    f"method — derived methods are views, never stored"
                )

    def check_not_updated(self, program: UpdateProgram) -> None:
        """Reject update-programs that try to update a derived method."""
        for rule in program:
            if rule.head.method in self.derived_methods:
                raise ProgramError(
                    f"rule {rule.name!r} updates derived method "
                    f"{rule.head.method!r}; derived methods are defined by "
                    f"rules and cannot be updated (the paper's base-method "
                    f"restriction, §2.1)"
                )


def parse_derived_program(text: str, name: str = "views") -> DerivedProgram:
    """Parse derived rules from concrete syntax (version-term heads)."""
    return DerivedProgram(
        [DerivedRule(head, body, rule_name)
         for head, body, rule_name in parse_derived_rules(text)],
        name,
    )


def materialize(
    base: ObjectBase,
    views: DerivedProgram,
    *,
    max_iterations: int = 10_000,
) -> ObjectBase:
    """The base enriched with all derivable view facts (a fresh copy).

    Evaluates the derived strata bottom-up to a fixpoint with the same
    matcher as the update engine; the input base is not modified.
    """
    views.check_disjoint(base)
    enriched = base.copy()
    for stratum_index, stratum in enumerate(views._strata):
        for _round in range(max_iterations):
            changed = False
            for rule in stratum:
                # Materialise the bindings before mutating: the matcher
                # iterates the live indexes of ``enriched``.
                derived = [
                    rule.head.substitute(binding).to_fact()
                    for binding in match_body(
                        rule.body, enriched, rule_name=rule.name
                    )
                ]
                for fact in derived:
                    changed |= enriched.add(fact)
            if not changed:
                break
        else:
            raise EvaluationLimitError(stratum_index, max_iterations)
    return enriched


class DerivedUpdateEngine(UpdateEngine):
    """An :class:`~repro.core.engine.UpdateEngine` whose rule bodies can
    read derived methods.

    It runs the one ``T_P`` loop of :func:`repro.core.evaluation.evaluate`
    with the view materialisation as its ``overlay``: before every ``T_P``
    application the views are recomputed over the current version states,
    passed to step 1 as the *match base*, and discarded — steps 2/3 copy
    from the pure base, so view facts are never stored or copied into
    versions (and a ``del[v].*`` cannot delete them).  Options,
    :meth:`compile`, :meth:`apply` and :meth:`with_options` are the base
    engine's.
    """

    def __init__(self, views: DerivedProgram, **option_overrides):
        super().__init__(**option_overrides)
        self.views = views

    def evaluate(
        self, program: UpdateProgram, base: ObjectBase
    ) -> EvaluationOutcome:
        """Compute ``result(P)`` with rule bodies reading the views."""
        self.views.check_not_updated(program)
        self.compile(program)  # an invalid program fails before the base is read
        self.views.check_disjoint(base)
        return evaluate(program, base, self.options, overlay=self.view)

    def view(self, base: ObjectBase) -> ObjectBase:
        """Materialise the views over any base (e.g. an ``ob'``)."""
        return materialize(base, self.views)
