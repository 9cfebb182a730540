"""Lint: static diagnostics for update-programs.

Checks (each with a stable code, used by tests and the CLI):

* ``L001 unsatisfiable-version-read`` — a positive body literal mentions a
  version shape (depth > 0) that no rule head can produce; unless the
  initial base already stores version-hosted facts (unusual), the literal
  can never hold and the rule never fires.
* ``L002 update-never-performed`` — a body update-term tests a transition
  (``del[mod(E)].m -> r``) that no rule head with a unifying target and the
  same kind ever performs; positively it never holds, negatively it always
  holds.
* ``L003 singleton-variable`` — a variable occurring exactly once (the
  classic typo catcher; bind it or name it ``_``-style deliberately).
* ``L004 noop-modify`` — a modify head with syntactically identical old and
  new result: the state never changes, though the ``mod(v)`` version is
  still created (the body-side ``(r, r)`` test is meaningful; the head-side
  one is usually a mistake).
* ``L005 linearity-risk`` — two rules perform updates of *different* kinds
  on unifiable targets: if both fire for the same object the Section 5
  run-time check will reject the result (the paper's own
  ``mod[o].m -> (a,b)`` / ``del[o].m -> a`` example).

Lint never changes semantics; it is advisory (severity WARNING) except for
L001/L002 which are strong hints (severity ERROR-adjacent ``SUSPICIOUS``).
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass

from repro.core.atoms import BuiltinAtom, UpdateAtom, VersionAtom
from repro.core.rules import UpdateProgram, UpdateRule
from repro.core.terms import (
    Term,
    UpdateKind,
    Var,
    VersionVar,
    depth,
    subterms,
)
from repro.core.unification import rename_apart, unifiable

__all__ = ["Severity", "Finding", "lint_program"]


class Severity(enum.Enum):
    WARNING = "warning"
    SUSPICIOUS = "suspicious"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Finding:
    """One diagnostic."""

    code: str
    rule: str
    severity: Severity
    message: str

    def __str__(self) -> str:
        return f"{self.code} [{self.severity.value}] {self.rule}: {self.message}"


def _unifies(left: Term, right: Term) -> bool:
    return unifiable(rename_apart(left, "L"), rename_apart(right, "R"))


def lint_program(program: UpdateProgram) -> list[Finding]:
    """Run all checks; findings in rule order, stable within a rule."""
    findings: list[Finding] = []
    head_versions = [(rule, rule.head_version_id_term()) for rule in program]

    for rule in program:
        findings.extend(_check_version_reads(rule, head_versions))
        findings.extend(_check_update_terms(rule, program))
        findings.extend(_check_singleton_variables(rule))
        findings.extend(_check_noop_modify(rule))
    findings.extend(_check_linearity_risk(program))
    return findings


def _producible(body_term: Term, head_versions) -> bool:
    """Can any rule head create a version unifying with ``body_term``?"""
    return any(_unifies(head, body_term) for _rule, head in head_versions)


def _check_version_reads(rule: UpdateRule, head_versions) -> list[Finding]:
    findings = []
    for literal in rule.body:
        atom = literal.atom
        if not isinstance(atom, VersionAtom) or not literal.positive:
            continue
        host = atom.host
        if depth(host) == 0:
            continue  # reads the initial object: always satisfiable
        if any(isinstance(s, VersionVar) for s in subterms(host)):
            continue  # version variables read whatever exists
        if not _producible(host, head_versions):
            findings.append(
                Finding(
                    "L001",
                    rule.name,
                    Severity.SUSPICIOUS,
                    f"body reads version {host} but no rule head can create "
                    f"a unifying version; the literal can only match "
                    f"pre-existing version facts",
                )
            )
    return findings


def _check_update_terms(rule: UpdateRule, program: UpdateProgram) -> list[Finding]:
    findings = []
    for literal in rule.body:
        atom = literal.atom
        if not isinstance(atom, UpdateAtom):
            continue
        performed = any(
            other.head.kind is atom.kind
            and _unifies(other.head.target, atom.target)
            for other in program
        )
        if not performed:
            polarity = "can never hold" if literal.positive else "always holds"
            findings.append(
                Finding(
                    "L002",
                    rule.name,
                    Severity.SUSPICIOUS,
                    f"body tests {atom.kind.value}[{atom.target}] but no rule "
                    f"performs a {atom.kind.value}-update on a unifying "
                    f"target; the literal {polarity}",
                )
            )
    return findings


def _check_singleton_variables(rule: UpdateRule) -> list[Finding]:
    counts: Counter[Var] = Counter()

    def walk_term(term: Term) -> None:
        for sub in subterms(term):
            if isinstance(sub, Var):
                counts[sub] += 1

    def walk_expr(expr) -> None:
        from repro.core.exprs import BinOp, Neg

        if isinstance(expr, Var):
            counts[expr] += 1
        elif isinstance(expr, BinOp):
            walk_expr(expr.left)
            walk_expr(expr.right)
        elif isinstance(expr, Neg):
            walk_expr(expr.operand)

    atoms = [rule.head] + [lit.atom for lit in rule.body]
    for atom in atoms:
        if isinstance(atom, VersionAtom):
            walk_term(atom.host)
            for arg in atom.args:
                walk_term(arg)
            walk_term(atom.result)
        elif isinstance(atom, UpdateAtom):
            walk_term(atom.target)
            for arg in atom.args:
                walk_term(arg)
            if atom.result is not None:
                walk_term(atom.result)
            if atom.result2 is not None:
                walk_term(atom.result2)
        elif isinstance(atom, BuiltinAtom):
            walk_expr(atom.left)
            walk_expr(atom.right)

    return [
        Finding(
            "L003",
            rule.name,
            Severity.WARNING,
            f"variable {var} occurs only once (typo?)",
        )
        for var, count in sorted(counts.items(), key=lambda kv: kv[0].name)
        if count == 1 and not var.name.startswith("_")
    ]


def _check_noop_modify(rule: UpdateRule) -> list[Finding]:
    head = rule.head
    if head.kind is UpdateKind.MODIFY and head.result == head.result2:
        return [
            Finding(
                "L004",
                rule.name,
                Severity.WARNING,
                f"modify head {head} keeps the value unchanged; the mod(v) "
                f"version is still created but its state equals the copy",
            )
        ]
    return []


def _check_linearity_risk(program: UpdateProgram) -> list[Finding]:
    findings = []
    rules = list(program)
    for i, first in enumerate(rules):
        for second in rules[i + 1 :]:
            if first.head.kind is second.head.kind:
                continue
            if not _unifies(first.head.target, second.head.target):
                continue
            if _guarded_against(first, second) or _guarded_against(second, first):
                # the paper's own idiom: rule 4 inserts on mod(E) only
                # under "not del[mod(E)].isa -> empl" — the guard makes the
                # two updates mutually exclusive per object
                continue
            findings.append(
                Finding(
                    "L005",
                    first.name,
                    Severity.WARNING,
                    f"performs a {first.head.kind.value}-update while "
                    f"{second.name} performs a "
                    f"{second.head.kind.value}-update on a unifiable "
                    f"target {second.head.target}; if both fire for one "
                    f"object the Section 5 linearity check will reject "
                    f"the result",
                )
            )
    return findings


def _guarded_against(guarded: UpdateRule, other: UpdateRule) -> bool:
    """True when ``guarded``'s body negates an update-term of ``other``'s
    kind on a target unifying ``other``'s — the mutual-exclusion guard."""
    for literal in guarded.body:
        atom = literal.atom
        if (
            not literal.positive
            and isinstance(atom, UpdateAtom)
            and atom.kind is other.head.kind
            and _unifies(atom.target, other.head.target)
        ):
            return True
    return False
