"""Substitutions: finite mappings from variables to object-id-terms.

Because the language is sorted (variables denote objects, docs/DESIGN.md D2), a
binding always maps a :class:`~repro.core.terms.Var` to an
:class:`~repro.core.terms.Oid` or to another :class:`~repro.core.terms.Var` —
never to a compound version-id-term.  This keeps substitutions idempotent
after path compression and makes the occurs check unnecessary.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.core.errors import TermError
from repro.core.terms import Oid, Term, Var, VersionId, VersionVar

__all__ = ["Substitution", "apply_term", "resolve"]


def _binding_allowed(var: Var, value: Term) -> bool:
    """Plain variables take object-id-terms; version variables (the
    Section 6 extension) may also take proper version-id-terms."""
    if isinstance(value, VersionId):
        return isinstance(var, VersionVar)
    return isinstance(value, (Oid, Var))


def resolve(term: Term, binding: Mapping[Var, Term]) -> Term:
    """Follow variable-to-variable links in ``binding`` starting at ``term``.

    Returns the final representative: an OID, an unbound variable, or the
    input itself when it is not a variable.
    """
    seen = 0
    while isinstance(term, Var) and term in binding:
        term = binding[term]
        seen += 1
        if seen > len(binding):  # pragma: no cover - defensive
            raise TermError("cyclic variable binding")
    return term


def apply_term(term: Term, binding: Mapping[Var, Term]) -> Term:
    """Apply ``binding`` to ``term``, rebuilding functor structure.

    ``apply_term(mod(E), {E: phil}) == mod(phil)``.
    """
    if isinstance(term, VersionId):
        base = apply_term(term.base, binding)
        if base is term.base:
            return term
        return VersionId(term.kind, base)
    if isinstance(term, Var):
        value = resolve(term, binding)
        if isinstance(value, VersionId) and value is not term:
            # A version variable's value may itself contain bound variables.
            return apply_term(value, binding)
        return value
    return term


class Substitution:
    """An immutable substitution with cheap functional extension.

    The matcher threads plain dicts internally for speed; this class is the
    public, value-semantics view used by the unification API and by tests.
    """

    __slots__ = ("_binding",)

    def __init__(self, binding: Mapping[Var, Term] | None = None):
        items: dict[Var, Term] = {}
        if binding:
            for var, value in binding.items():
                if not isinstance(var, Var):
                    raise TermError(f"substitution keys must be variables, got {var!r}")
                if not _binding_allowed(var, value):
                    raise TermError(
                        "substitution values must be object-id-terms "
                        f"(sorted unification, docs/DESIGN.md D2), got {value!r}"
                    )
                items[var] = value
        self._binding = items

    # -- mapping protocol -------------------------------------------------
    def __contains__(self, var: Var) -> bool:
        return var in self._binding

    def __getitem__(self, var: Var) -> Term:
        return self._binding[var]

    def get(self, var: Var, default: Term | None = None) -> Term | None:
        return self._binding.get(var, default)

    def __len__(self) -> int:
        return len(self._binding)

    def __iter__(self) -> Iterator[Var]:
        return iter(self._binding)

    def items(self):
        return self._binding.items()

    # -- operations --------------------------------------------------------
    def bind(self, var: Var, value: Term) -> "Substitution":
        """Return a new substitution extended with ``var -> value``."""
        if not _binding_allowed(var, value):
            raise TermError(
                f"cannot bind {var} to {value}: variables range over OIDs only"
            )
        extended = dict(self._binding)
        extended[var] = value
        return Substitution(extended)

    def apply(self, term: Term) -> Term:
        """Apply this substitution to a term."""
        return apply_term(term, self._binding)

    def compose(self, other: "Substitution") -> "Substitution":
        """The substitution equivalent to applying ``self`` then ``other``."""
        merged: dict[Var, Term] = {
            var: resolve(apply_term(value, other._binding), other._binding)
            for var, value in self._binding.items()
        }
        for var, value in other._binding.items():
            merged.setdefault(var, value)
        return Substitution(merged)

    # -- value semantics -----------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Substitution):
            return NotImplemented
        return self._binding == other._binding

    def __hash__(self) -> int:
        return hash(frozenset(self._binding.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{v}->{t}" for v, t in sorted(
            self._binding.items(), key=lambda item: item[0].name
        ))
        return f"{{{inner}}}"
