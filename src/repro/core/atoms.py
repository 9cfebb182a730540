"""Atoms and literals of the update language (Section 2.1).

An atom is one of

* a **version-term** ``V.m@A1,...,Ak -> R`` — refers to a version and asks
  for a property of its state (:class:`VersionAtom`);
* an **update-term** ``ins[V].m->R`` / ``del[V].m->R`` / ``mod[V].m->(R,R')``
  — in a rule head it *initiates* the state transition ``V ⇒ α(V)``, in a
  rule body it *tests* whether that transition has occurred
  (:class:`UpdateAtom`);
* a **built-in** comparison between arithmetic expressions
  (:class:`BuiltinAtom`).

Bodies consist of positive or negated atoms (:class:`Literal`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.core.errors import ProgramError, TermError
from repro.core.exprs import Expr, expr_variables
from repro.core.facts import EXISTS, Fact
from repro.core.substitution import apply_term, resolve
from repro.core.terms import (
    Oid,
    Term,
    UpdateKind,
    Var,
    VersionId,
    VersionVar,
    is_object_id_term,
    is_version_id_term,
    variables_of,
    wrap,
)

__all__ = [
    "VersionAtom",
    "UpdateAtom",
    "BuiltinAtom",
    "Atom",
    "Literal",
    "COMPARISON_OPS",
]

#: Comparison operators of built-in atoms.  ``=`` doubles as a binding
#: primitive when one side is a single unbound variable.
COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")


def _check_object_id_terms(items, what: str) -> None:
    for item in items:
        if not is_object_id_term(item) or isinstance(item, VersionVar):
            raise TermError(
                f"{what} must be object-id-terms (footnote 1 of the paper: "
                f"versions are not allowed on argument/result positions), "
                f"got {item}"
            )


@dataclass(frozen=True, slots=True)
class VersionAtom:
    """A version-term ``host.method@args -> result``.

    ``host`` is a version-id-term (possibly with a variable innermost);
    ``args`` and ``result`` are object-id-terms.
    """

    host: Term
    method: str
    args: tuple[Term, ...]
    result: Term

    def __post_init__(self) -> None:
        if not is_version_id_term(self.host):
            raise TermError(f"atom host must be a version-id-term, got {self.host}")
        if not self.method:
            raise TermError("method name must be non-empty")
        _check_object_id_terms(self.args, "method arguments")
        _check_object_id_terms((self.result,), "method results")

    # -- structural helpers -------------------------------------------------
    @property
    def variables(self) -> frozenset[Var]:
        names = set(variables_of(self.host))
        for arg in self.args:
            names |= variables_of(arg)
        names |= variables_of(self.result)
        return frozenset(names)

    def is_ground(self) -> bool:
        return not self.variables

    def substitute(self, binding) -> "VersionAtom":
        return VersionAtom(
            apply_term(self.host, binding),
            self.method,
            tuple(apply_term(a, binding) for a in self.args),
            apply_term(self.result, binding),
        )

    def to_fact(self) -> Fact:
        """Convert a ground version-atom to an object-base fact."""
        if not self.is_ground():
            raise TermError(f"atom {self} is not ground")
        return Fact(self.host, self.method, self.args, self.result)  # type: ignore[arg-type]

    def __str__(self) -> str:
        arg_str = f"@{','.join(str(a) for a in self.args)}" if self.args else ""
        return f"{self.host}.{self.method}{arg_str} -> {self.result}"


@dataclass(frozen=True, slots=True)
class UpdateAtom:
    """An update-term ``kind[target].method@args -> result`` (Section 2.1).

    * ``kind`` is one of ins/del/mod.
    * ``target`` is the version-id-term the update is applied **to**; the
      resulting version is ``kind(target)`` (:meth:`new_version`).
    * For ``mod`` both ``result`` (the old value) and ``result2`` (the new
      value) are present.
    * ``delete_all`` models the paper's ``del[v].`` shorthand — "delete all
      method-applications of the respective version"; it is only legal in
      rule heads and carries no method.
    """

    kind: UpdateKind
    target: Term
    method: str | None
    args: tuple[Term, ...] = ()
    result: Term | None = None
    result2: Term | None = None
    delete_all: bool = False

    def __post_init__(self) -> None:
        if not is_version_id_term(self.target):
            raise TermError(
                f"update target must be a version-id-term, got {self.target}"
            )
        if self.delete_all:
            if self.kind is not UpdateKind.DELETE:
                raise ProgramError("the delete-all form exists only for del[..]")
            if self.method is not None or self.args or self.result is not None:
                raise ProgramError("del[v].* carries no method application")
            return
        if not self.method:
            raise TermError("update-term needs a method name")
        if self.method == EXISTS:
            raise ProgramError(
                "the system method 'exists' cannot be updated (Section 3)"
            )
        _check_object_id_terms(self.args, "method arguments")
        if self.result is None:
            raise TermError("update-term needs a result term")
        _check_object_id_terms((self.result,), "method results")
        if self.kind is UpdateKind.MODIFY:
            if self.result2 is None:
                raise TermError("mod[..].m -> (r, r') needs both results")
            _check_object_id_terms((self.result2,), "method results")
        elif self.result2 is not None:
            raise TermError("only mod[..] carries a second result")

    # -- structural helpers -------------------------------------------------
    def new_version(self) -> VersionId:
        """The version-id-term ``kind(target)`` created by this update."""
        return wrap(self.kind, self.target)

    @property
    def variables(self) -> frozenset[Var]:
        names = set(variables_of(self.target))
        for arg in self.args:
            names |= variables_of(arg)
        if self.result is not None:
            names |= variables_of(self.result)
        if self.result2 is not None:
            names |= variables_of(self.result2)
        return frozenset(names)

    def is_ground(self) -> bool:
        return not self.variables

    def substitute(self, binding) -> "UpdateAtom":
        return UpdateAtom(
            self.kind,
            apply_term(self.target, binding),
            self.method,
            tuple(apply_term(a, binding) for a in self.args),
            None if self.result is None else apply_term(self.result, binding),
            None if self.result2 is None else apply_term(self.result2, binding),
            self.delete_all,
        )

    def __str__(self) -> str:
        if self.delete_all:
            return f"{self.kind.value}[{self.target}].*"
        arg_str = f"@{','.join(str(a) for a in self.args)}" if self.args else ""
        if self.kind is UpdateKind.MODIFY:
            return (
                f"{self.kind.value}[{self.target}].{self.method}{arg_str} -> "
                f"({self.result}, {self.result2})"
            )
        return f"{self.kind.value}[{self.target}].{self.method}{arg_str} -> {self.result}"


@dataclass(frozen=True, slots=True)
class BuiltinAtom:
    """A comparison between arithmetic expressions, e.g. ``S' = S * 1.1``."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise TermError(f"unknown comparison operator {self.op!r}")

    @property
    def variables(self) -> frozenset[Var]:
        return expr_variables(self.left) | expr_variables(self.right)

    def is_ground(self) -> bool:
        return not self.variables

    def substitute(self, binding) -> "BuiltinAtom":
        return BuiltinAtom(
            self.op,
            _substitute_expr(self.left, binding),
            _substitute_expr(self.right, binding),
        )

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


def _substitute_expr(expr: Expr, binding) -> Expr:
    from repro.core.exprs import BinOp, Neg  # local to avoid import cycle noise

    if isinstance(expr, Var):
        value = resolve(expr, binding)
        return value if isinstance(value, (Oid, Var)) else expr
    if isinstance(expr, BinOp):
        return BinOp(
            expr.op,
            _substitute_expr(expr.left, binding),
            _substitute_expr(expr.right, binding),
        )
    if isinstance(expr, Neg):
        return Neg(_substitute_expr(expr.operand, binding))
    return expr


#: Any atom of the language.
Atom = Union[VersionAtom, UpdateAtom, BuiltinAtom]


@dataclass(frozen=True, slots=True)
class Literal:
    """A positive or negated atom occurring in a rule body."""

    atom: Atom
    positive: bool = True

    @property
    def variables(self) -> frozenset[Var]:
        return self.atom.variables

    def is_ground(self) -> bool:
        return self.atom.is_ground()

    def substitute(self, binding) -> "Literal":
        return Literal(self.atom.substitute(binding), self.positive)

    def negate(self) -> "Literal":
        return Literal(self.atom, not self.positive)

    def __str__(self) -> str:
        return str(self.atom) if self.positive else f"not {self.atom}"
