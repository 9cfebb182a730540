"""Arithmetic expressions for built-in atoms.

The paper's rules use arithmetic on value OIDs, e.g. ``S' = S * 1.1 + 200``
in the salary-raise rules of Section 2.3.  An expression is a term (variable
or OID) or an arithmetic combination of expressions.  Expressions evaluate to
*numeric OIDs*; applying an operator to a symbolic OID raises
:class:`~repro.core.errors.BuiltinError` (caught and reported by the
evaluator with the offending rule).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from repro.core.errors import BuiltinError, TermError
from repro.core.substitution import resolve
from repro.core.terms import Oid, Term, Var, VersionId

__all__ = ["Expr", "BinOp", "Neg", "expr_variables", "evaluate_expr", "ARITH_OPS"]

#: Arithmetic operators supported in expressions.
ARITH_OPS = ("+", "-", "*", "/")


@dataclass(frozen=True, slots=True)
class BinOp:
    """A binary arithmetic node ``left op right`` with ``op ∈ + - * /``."""

    op: str
    left: "Expr"
    right: "Expr"

    def __post_init__(self) -> None:
        if self.op not in ARITH_OPS:
            raise TermError(f"unknown arithmetic operator {self.op!r}")

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True, slots=True)
class Neg:
    """Unary minus."""

    operand: "Expr"

    def __str__(self) -> str:
        return f"-({self.operand})"


#: An expression: a term (Oid / Var) or an arithmetic combination.
Expr = Union[Oid, Var, BinOp, Neg]


def expr_variables(expr: Expr) -> frozenset[Var]:
    """All variables occurring in ``expr``."""
    if isinstance(expr, Var):
        return frozenset((expr,))
    if isinstance(expr, BinOp):
        return expr_variables(expr.left) | expr_variables(expr.right)
    if isinstance(expr, Neg):
        return expr_variables(expr.operand)
    return frozenset()


def _numeric(value: Oid, context: str) -> int | float:
    if not isinstance(value, Oid) or not value.is_numeric:
        raise BuiltinError(
            f"arithmetic {context} needs a numeric OID, got {value}"
        )
    return value.value  # type: ignore[return-value]


def evaluate_expr(expr: Expr, binding: Mapping[Var, Term]) -> Oid:
    """Evaluate ``expr`` under ``binding`` to an OID.

    Raises :class:`BuiltinError` when a variable is unbound, when an operand
    is non-numeric in an arithmetic context, or on division by zero.  A bare
    bound variable or OID evaluates to itself (it need not be numeric — the
    built-in ``=`` also compares symbolic OIDs).
    """
    if isinstance(expr, Oid):
        return expr
    if isinstance(expr, Var):
        value = resolve(expr, binding)
        if isinstance(value, Oid):
            return value
        if isinstance(value, VersionId):  # pragma: no cover - out of sort
            raise BuiltinError(f"variable {expr} bound to a version identity")
        raise BuiltinError(f"variable {expr} is unbound in a built-in atom")
    if isinstance(expr, Neg):
        inner = _numeric(evaluate_expr(expr.operand, binding), "negation")
        return Oid(-inner)
    if isinstance(expr, BinOp):
        left = _numeric(evaluate_expr(expr.left, binding), f"operand of {expr.op}")
        right = _numeric(evaluate_expr(expr.right, binding), f"operand of {expr.op}")
        if expr.op == "+":
            return Oid(left + right)
        if expr.op == "-":
            return Oid(left - right)
        if expr.op == "*":
            return Oid(left * right)
        if right == 0:
            raise BuiltinError("division by zero in a built-in atom")
        value = left / right
        # Keep integer arithmetic exact: 6 / 2 is the OID 3, not 3.0.
        if isinstance(left, int) and isinstance(right, int) and left % right == 0:
            return Oid(left // right)
        return Oid(value)
    raise TermError(f"not an expression: {expr!r}")  # pragma: no cover
