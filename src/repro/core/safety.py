"""Rule safety in the sense of [Ull88] (required by Section 2.1).

The paper requires safe rules: although rules are ∀-quantified over the set
``O`` of all OIDs, evaluation must only ever consider finitely many
instantiations.  A rule is *safe* when every variable is **limited**:

* variables occurring in a positive version-term or positive update-term of
  the body are limited (they are matched against the finite object base) —
  as are those of a positive predicate atom of a Datalog rule;
* a variable ``X`` is limited by a positive built-in ``X = e`` (or ``e = X``)
  once every variable of ``e`` is limited;

and every variable of the rule — head variables, variables of negated
literals and of comparisons — must be limited.  Safety also guarantees the
paper's finiteness claim: head version-id-terms have fixed functor depth, so
a safe program can only derive finitely many new versions.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.atoms import BuiltinAtom, Literal
from repro.core.errors import SafetyError
from repro.core.exprs import expr_variables
from repro.core.rules import UpdateProgram, UpdateRule
from repro.core.terms import Var

__all__ = ["limited_variables", "check_rule_safety", "check_program_safety", "is_safe"]


def limited_variables(body: Iterable[Literal]) -> frozenset[Var]:
    """The limited variables of a rule body (see module docstring).

    One definition for every rule language: update-rules, derived-method
    rules (:mod:`repro.ext.derived`) and Datalog rules, whose
    :class:`~repro.datalog.ast.DatalogLiteral` has the same ``atom`` /
    ``positive`` shape.  In each, a positive atom that is not a built-in is
    matched against a finite base.
    """
    limited: set[Var] = set()
    equalities: list[BuiltinAtom] = []
    for literal in body:
        atom = literal.atom
        if not literal.positive:
            continue
        if not isinstance(atom, BuiltinAtom):
            limited |= atom.variables
        elif atom.op == "=":
            equalities.append(atom)

    # Propagate through '=' chains to a fixpoint, e.g. S' = S * 1.1 limits S'
    # once S is limited, and T = S' + 1 then limits T.
    changed = True
    while changed:
        changed = False
        for eq in equalities:
            for target, source in ((eq.left, eq.right), (eq.right, eq.left)):
                if (
                    isinstance(target, Var)
                    and target not in limited
                    and expr_variables(source) <= limited
                ):
                    limited.add(target)
                    changed = True
    return frozenset(limited)


def check_rule_safety(rule: UpdateRule) -> None:
    """Raise :class:`SafetyError` when ``rule`` is unsafe."""
    unlimited = rule.variables - limited_variables(rule.body)
    if unlimited:
        raise SafetyError(
            rule.name or str(rule), tuple(sorted(v.name for v in unlimited))
        )


def is_safe(rule: UpdateRule) -> bool:
    """Predicate form of :func:`check_rule_safety`."""
    return not (rule.variables - limited_variables(rule.body))


def check_program_safety(program: UpdateProgram) -> None:
    """Raise on the first unsafe rule of ``program``."""
    for rule in program:
        check_rule_safety(rule)
