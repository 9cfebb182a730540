"""Sorted unification of version-id-terms (docs/DESIGN.md D2).

Stratification conditions (a)-(d) of Section 4 ask whether one rule's head
version-id-term "unifies with a subterm of" another rule's version-id-term.
The unification used there — and by the rule matcher — is *sorted*: variables
are quantified over the set ``O`` of object identities, so a variable may be
bound to an OID or to another variable, but never to a proper
version-id-term.

This sort discipline is semantically load-bearing:

* ``mod(E)`` does **not** unify with the bare variable ``X`` — so the
  recursive ancestor program of Section 2.3 forms a single stratum;
* ``E`` does **not** unify with ``mod(peter)`` — so rule 1 of the
  hypothetical-reasoning example sits strictly below rule 2 exactly as
  footnote 3 of the paper requires.
"""

from __future__ import annotations

from repro.core.substitution import Substitution, resolve
from repro.core.terms import Oid, Term, Var, VersionId, VersionVar, subterms

__all__ = ["unify_terms", "unify", "unifiable", "rename_apart", "match_term"]


def unify_terms(
    left: Term, right: Term, binding: dict[Var, Term] | None = None
) -> dict[Var, Term] | None:
    """Unify two version-id-terms under the sort discipline.

    Returns the (possibly extended) binding dict on success, ``None`` on
    failure.  The input ``binding`` is never mutated on failure; on success a
    new dict is returned.
    """
    work = dict(binding) if binding else {}
    if _unify_into(left, right, work):
        return work
    return None


def _unify_into(left: Term, right: Term, binding: dict[Var, Term]) -> bool:
    left = resolve(left, binding)
    right = resolve(right, binding)
    if left == right:
        return True
    if isinstance(left, Var):
        return _bind(left, right, binding)
    if isinstance(right, Var):
        return _bind(right, left, binding)
    if isinstance(left, VersionId) and isinstance(right, VersionId):
        if left.kind is not right.kind:
            return False
        return _unify_into(left.base, right.base, binding)
    # Oid vs Oid with different values, or Oid vs VersionId: no unifier.
    return False


def _bind(var: Var, value: Term, binding: dict[Var, Term]) -> bool:
    """Bind ``var`` to ``value`` if the sort discipline allows it."""
    if isinstance(value, VersionId):
        if not isinstance(var, VersionVar):
            # Variables range over O: a proper version-id-term is out of sort.
            return False
        # Occurs check — only version variables can reach compound values.
        if any(sub == var for sub in subterms(value)):
            return False
    binding[var] = value
    return True


def unify(left: Term, right: Term) -> Substitution | None:
    """Public wrapper returning a :class:`Substitution` (or ``None``)."""
    result = unify_terms(left, right)
    if result is None:
        return None
    # Normalise var->var chains so the substitution is idempotent.
    flat = {var: resolve(var, result) for var in result}
    return Substitution(flat)


def unifiable(left: Term, right: Term) -> bool:
    """True when the two terms have a (sorted) unifier.

    Rule-level checks must treat the two rules' variables as disjoint:
    rename each side apart (:func:`rename_apart`) before calling this.
    """
    return unify_terms(left, right) is not None


def rename_apart(term: Term, tag: str) -> Term:
    """``term`` with every variable renamed by ``tag``, so terms of two
    rules renamed with different tags share no variable.

    Preserves the variable class: a renamed :class:`VersionVar` must keep
    its any-VID unification behaviour.  A renamed term's subterms are its
    subterms renamed, in the same order."""
    if isinstance(term, VersionId):
        return VersionId(term.kind, rename_apart(term.base, tag))
    if isinstance(term, Var):
        return type(term)(f"{term.name}${tag}")
    return term


def match_term(
    pattern: Term, ground: Term, binding: dict[Var, Term] | None = None
) -> dict[Var, Term] | None:
    """One-way matching of a (possibly non-ground) pattern against a VID.

    Used by the evaluation engine: the ground side comes from the object
    base, so bindings flow only from pattern variables to ground OIDs.  A
    pattern variable matches an :class:`Oid` only — matching ``X`` against
    ``mod(phil)`` fails, which is precisely why the salary-raise rule of
    Section 2.1 fires once per employee and never on updated versions.

    Returns the extended binding dict, or ``None`` when the match fails.
    The input binding is not mutated; when the pattern binds nothing new the
    input dict itself is returned (callers extend bindings copy-on-write, so
    the matcher avoids one dict copy per candidate fact — by far its most
    frequent operation).
    """
    node_p, node_g = pattern, ground
    while True:
        if isinstance(node_p, VersionId):
            if not isinstance(node_g, VersionId) or node_p.kind is not node_g.kind:
                return None
            node_p, node_g = node_p.base, node_g.base
            continue
        if isinstance(node_p, Var):
            if binding is not None:
                bound = binding.get(node_p)
                if bound is not None:
                    return binding if bound == node_g else None
            if not isinstance(node_g, Oid) and not isinstance(node_p, VersionVar):
                return None  # out of sort: plain variables take OIDs only
            work = dict(binding) if binding is not None else {}
            work[node_p] = node_g
            return work
        # pattern node is an Oid
        if node_p == node_g:
            return binding if binding is not None else {}
        return None
