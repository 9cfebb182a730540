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
  Datalog construction the update language adapts at the version level);
* during an update-process the view is recomputed before every ``T_P``
  application, so rule bodies always see derived facts consistent with the
  current version states — including on freshly created versions.

A view whose head host is a plain variable (``X.senior -> yes``) attaches
to *objects* only — variables range over ``O`` (DESIGN.md D2).  For a
**version-transparent** view, compose with the other Section 6 extension
and use a version variable::

    senior: ?W.senior -> yes <= ?W.sal -> S, S > 4000.

Now ``mod(phil).senior`` is derivable from ``mod(phil)``'s state, so update
rules in later strata can test derived properties of intermediate versions.

:class:`DerivedUpdateEngine` packages the interleaving; standalone
materialisation is :func:`materialize`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import networkx as nx

from repro.core.atoms import BuiltinAtom, Literal, UpdateAtom, VersionAtom
from repro.core.consequence import apply_tp, tp_step
from repro.core.engine import UpdateResult, update_result
from repro.core.errors import (
    EvaluationLimitError,
    ProgramError,
    StratificationError,
)
from repro.core.evaluation import EvaluationOptions
from repro.core.facts import EXISTS
from repro.core.grounding import match_body
from repro.core.linearity import LinearityTracker
from repro.core.objectbase import ObjectBase
from repro.core.rules import UpdateProgram
from repro.core.safety import check_program_safety
from repro.core.stratification import stratify
from repro.core.trace import EvaluationTrace
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
        unlimited = self.head.variables - _limited(self.body)
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


def _limited(body: tuple[Literal, ...]):
    from repro.core.exprs import expr_variables

    limited = set()
    equalities = []
    for literal in body:
        if not literal.positive:
            continue
        atom = literal.atom
        if isinstance(atom, (VersionAtom, UpdateAtom)):
            limited |= atom.variables
        elif isinstance(atom, BuiltinAtom) and atom.op == "=":
            equalities.append(atom)
    changed = True
    while changed:
        changed = False
        for eq in equalities:
            for target, source in ((eq.left, eq.right), (eq.right, eq.left)):
                from repro.core.terms import Var

                if (
                    isinstance(target, Var)
                    and target not in limited
                    and expr_variables(source) <= limited
                ):
                    limited.add(target)
                    changed = True
    return limited


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
        graph = nx.DiGraph()
        for method in self.derived_methods:
            graph.add_node(method)
        for rule in self.rules:
            for literal in rule.body:
                atom = literal.atom
                if not isinstance(atom, VersionAtom):
                    continue
                if atom.method not in self.derived_methods:
                    continue
                strict = not literal.positive
                edge = (atom.method, rule.head.method)
                if graph.has_edge(*edge):
                    graph[edge[0]][edge[1]]["strict"] |= strict
                else:
                    graph.add_edge(*edge, strict=strict)

        condensation = nx.condensation(graph)
        component_of = condensation.graph["mapping"]
        for lower, upper, data in graph.edges(data=True):
            if data["strict"] and component_of[lower] == component_of[upper]:
                raise StratificationError(
                    f"derived method {upper!r} depends negatively on itself "
                    f"through {lower!r}"
                )
        strict_between: dict[tuple[int, int], bool] = {}
        for lower, upper, data in graph.edges(data=True):
            key = (component_of[lower], component_of[upper])
            strict_between[key] = strict_between.get(key, False) or data["strict"]
        level: dict[int, int] = {}
        for component in nx.topological_sort(condensation):
            best = 0
            for predecessor in condensation.predecessors(component):
                step = 1 if strict_between.get((predecessor, component)) else 0
                best = max(best, level[predecessor] + step)
            level[component] = best
        method_level = {m: level[component_of[m]] for m in self.derived_methods}
        max_level = max(method_level.values(), default=0)
        buckets: list[list[DerivedRule]] = [[] for _ in range(max_level + 1)]
        for rule in self.rules:
            buckets[method_level[rule.head.method]].append(rule)
        return tuple(tuple(bucket) for bucket in buckets if bucket)

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
    for stratum in views._strata:
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
            raise EvaluationLimitError(0, max_iterations)
    return enriched


class DerivedUpdateEngine:
    """An update engine whose rule bodies can read derived methods.

    Before every ``T_P`` application the view overlay is recomputed over
    the current version states, passed to step 1 as the *match base*, and
    discarded — steps 2/3 copy from the pure base, so view facts are never
    stored or copied into versions (and a ``del[v].*`` cannot delete them).
    """

    def __init__(self, views: DerivedProgram, **option_overrides):
        self.views = views
        self.options = EvaluationOptions(**option_overrides)

    def evaluate(self, program: UpdateProgram, base: ObjectBase):
        options = self.options
        self.views.check_not_updated(program)
        if options.check_safety:
            check_program_safety(program)
        stratification = stratify(program)

        working = base.copy()
        working.ensure_exists()
        self.views.check_disjoint(working)

        tracker = LinearityTracker()
        if options.check_linearity:
            tracker.seed_from(working)

        iterations = 0
        for stratum_index, stratum in enumerate(stratification):
            while True:
                iterations += 1
                if iterations > options.max_iterations_per_stratum * len(
                    stratification
                ):
                    raise EvaluationLimitError(
                        stratum_index, options.max_iterations_per_stratum
                    )
                overlay = materialize(working, self.views)
                step = tp_step(
                    stratum,
                    working,
                    match_base=overlay,
                    create_missing_objects=options.create_missing_objects,
                )
                fresh = [
                    version
                    for version in step.new_versions
                    if not working.version_exists(version)
                    and not working.state_of(version)
                ]
                changed = apply_tp(working, step)
                if options.check_linearity:
                    for version in sorted(fresh, key=str):
                        tracker.observe(version)
                if not changed:
                    break

        from repro.core.evaluation import EvaluationOutcome

        finals = tracker.latest if options.check_linearity else {}
        return EvaluationOutcome(
            working, stratification, EvaluationTrace(), finals, iterations
        )

    def apply(self, program: UpdateProgram, base: ObjectBase) -> UpdateResult:
        """Full pipeline; ``result.new_base`` is the pure ``ob'`` — call
        :meth:`view` on it to see the derived methods of the new state."""
        return update_result(base, self.evaluate(program, base))

    def view(self, base: ObjectBase) -> ObjectBase:
        """Materialise the views over any base (e.g. an ``ob'``)."""
        return materialize(base, self.views)
