"""The Section 3 matching primitives behind step 1 of the ``T_P`` operator.

A rule body is matched by a join over its literals: ground literals act as
*filters*, a positive built-in ``X = e`` whose right-hand side is computable
acts as a *binder*, a positive version-term or update-term acts as a
*generator* drawing candidate facts from the object base indexes, and
negated literals and comparisons wait until they are ground.  The order is
fixed once per body as a :class:`~repro.core.plans.JoinPlan` and compiled to
a set-at-a-time function by :mod:`repro.core.codegen`; :func:`match_rule` and
:func:`match_body` run that executor.

What lives here is what the paper defines exactly once and every executor
shares: the truth of a ground literal (:func:`_check_ground`), the equality
binder (:func:`_bind_equality`) and the index-driven candidate generators
for version- and update-terms (:func:`_generate`).  Update-term candidates
are re-verified against the authoritative truth functions of
:mod:`repro.core.truth`, so the access paths can only affect speed, never
semantics.  The independent reference matchers (dynamic chooser, brute
force) that the differential suites compare against live in
:mod:`repro.testing.reference`.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.atoms import BuiltinAtom, Literal, UpdateAtom, VersionAtom
from repro.core.errors import BuiltinError, EvaluationError
from repro.core.exprs import evaluate_expr, expr_variables
from repro.core.facts import Fact
from repro.core.objectbase import ObjectBase
from repro.core.rules import UpdateRule
from repro.core.substitution import apply_term
from repro.core.terms import (
    Oid,
    Term,
    UpdateKind,
    Var,
    is_ground,
)
from repro.core.truth import literal_true
from repro.core.unification import match_term

__all__ = ["match_rule", "match_body"]

Binding = dict[Var, Oid]


def match_rule(rule: UpdateRule, base: ObjectBase) -> Iterator[Binding]:
    """Yield every substitution making the body of ``rule`` true in ``base``.

    Substitutions are restricted to the rule's variables and yielded at most
    once each.  Built-in type errors (e.g. arithmetic on a symbolic OID)
    fail the candidate instead of raising (docs/DESIGN.md D6).  Yielded dicts are
    fresh per answer and safe to keep.
    """
    from repro.core.codegen import compiled_rule  # codegen sits above

    return iter(compiled_rule(rule).full.bindings(base))


def match_body(
    body: tuple[Literal, ...],
    base: ObjectBase,
    *,
    rule_name: str = "<body>",
) -> Iterator[Binding]:
    """Like :func:`match_rule` for a bare body (used by the query API).
    An unsafe body raises :class:`~repro.core.errors.EvaluationError`
    naming ``rule_name``."""
    from repro.core.codegen import compiled_body  # codegen sits above

    return iter(compiled_body(tuple(body), rule_name).bindings(base))


# ----------------------------------------------------------------------
# evaluation of ground literals
# ----------------------------------------------------------------------


def _check_ground(literal: Literal, binding: Binding, base: ObjectBase) -> bool:
    atom = literal.atom
    if isinstance(atom, VersionAtom):
        # Hot path: definition 1 of Section 3 is plain fact membership, so
        # build the fact directly instead of substituting the atom (the
        # constructor validation dominated the matcher profile).  The
        # authoritative form lives in truth.version_atom_true.
        pattern = atom.host
        if type(pattern) is Var:
            host = binding.get(pattern, pattern)
        else:
            host = apply_term(pattern, binding)
        args = tuple(
            binding[a] if isinstance(a, Var) else a for a in atom.args
        )
        result = binding[atom.result] if isinstance(atom.result, Var) else atom.result
        present = Fact(host, atom.method, args, result) in base
        return present if literal.positive else not present
    try:
        return literal_true(base, literal.substitute(binding))
    except BuiltinError:
        # Type-mismatched built-ins fail the candidate regardless of
        # polarity (docs/DESIGN.md D6) instead of aborting the evaluation.
        return False


def _bind_equality(atom: BuiltinAtom, binding: Binding) -> Binding | None:
    """Bind the unbound side of ``X = e``; ``None`` when the candidate dies."""
    for target, source in ((atom.left, atom.right), (atom.right, atom.left)):
        if (
            isinstance(target, Var)
            and target not in binding
            and all(v in binding for v in expr_variables(source))
        ):
            try:
                value = evaluate_expr(source, binding)
            except BuiltinError:
                return None
            extension = dict(binding)
            extension[target] = value
            return extension
    return None  # not actually ready; should not happen


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------


def _generate(
    literal: Literal,
    binding: Binding,
    base: ObjectBase,
    index_cols: tuple[int, ...] = (),
) -> Iterator[Binding]:
    atom = literal.atom
    if isinstance(atom, VersionAtom):
        yield from _generate_version_atom(atom, binding, base, index_cols)
    elif isinstance(atom, UpdateAtom):
        yield from _generate_update_atom(atom, binding, base, index_cols)
    else:  # pragma: no cover - selection never sends builtins here
        raise EvaluationError(f"cannot generate bindings from {atom}")


def _match_application(
    atom_args: tuple[Term, ...],
    atom_result: Term | None,
    fact: Fact,
    binding: Binding,
) -> Binding | None:
    """Match argument and result patterns of an atom against a fact."""
    work = binding
    for pattern, value in zip(atom_args, fact.args):
        work = _match_position(pattern, value, work)
        if work is None:
            return None
    if atom_result is not None:
        work = _match_position(atom_result, fact.result, work)
    return work


def _match_position(pattern: Term, value: Oid, binding: Binding) -> Binding | None:
    if isinstance(pattern, Var):
        bound = binding.get(pattern)
        if bound is None:
            extension = dict(binding)
            extension[pattern] = value
            return extension
        return binding if bound == value else None
    return binding if pattern == value else None


def _host_candidates(
    pattern: Term,
    binding: Binding,
    method: str,
    arity: int,
    base: ObjectBase,
    index_cols: tuple[int, ...] = (),
    atom=None,
):
    """Facts possibly matching ``pattern.method@...`` under ``binding``.

    Access-path order: the ``(host, method)`` index when the host is bound;
    otherwise the smallest argument/result-column bucket among the
    plan-selected ``index_cols`` (see
    :class:`~repro.core.plans.PlanStep.index_cols`); a full
    ``(method, arity)`` scan only when nothing is bound.  Returns the live
    index sets (no defensive copy — the matcher never mutates the base
    while a search is in flight)."""
    if type(pattern) is Var:
        # Matcher bindings map plain variables straight to ground OIDs, so
        # the generic term rewriting can be skipped on the hottest shape.
        concrete = binding.get(pattern)
        if concrete is not None:
            return base.iter_facts_by_host_method(concrete, method, arity)
    else:
        concrete = apply_term(pattern, binding)
        if is_ground(concrete):
            return base.iter_facts_by_host_method(concrete, method, arity)
    if index_cols and atom is not None:
        best = None
        for column in index_cols:
            term = atom.result if column < 0 else atom.args[column]
            value = binding.get(term) if type(term) is Var else term
            if value is None:
                continue  # dynamic callers may pass partially bound columns
            bucket = base.iter_facts_by_arg(method, arity, column, value)
            if not bucket:
                # A bound column with an empty bucket rules out every
                # candidate: the generator can prune the whole branch.
                return ()
            if best is None or len(bucket) < len(best):
                best = bucket
        if best is not None:
            return best
    return base.iter_facts_by_method(method, arity)


def _generate_version_atom(
    atom: VersionAtom,
    binding: Binding,
    base: ObjectBase,
    index_cols: tuple[int, ...] = (),
) -> Iterator[Binding]:
    candidates = _host_candidates(
        atom.host, binding, atom.method, len(atom.args), base, index_cols, atom
    )
    for fact in candidates:
        host_binding = match_term(atom.host, fact.host, binding)
        if host_binding is None:
            continue
        full = _match_application(atom.args, atom.result, fact, host_binding)
        if full is not None:
            yield full


def _generate_update_atom(
    atom: UpdateAtom,
    binding: Binding,
    base: ObjectBase,
    index_cols: tuple[int, ...] = (),
) -> Iterator[Binding]:
    """Generate candidate bindings for a positive body update-term.

    The truth conditions of Section 3 (definition 3) guide the access paths;
    the caller re-verifies each candidate, so these only need to be complete,
    not exact.
    """
    assert atom.method is not None and atom.result is not None
    arity = len(atom.args)

    if atom.kind is UpdateKind.INSERT:
        # true iff ins(v).m -> r ∈ I: a plain indexed lookup.
        new_pattern = atom.new_version()
        for fact in _host_candidates(
            new_pattern, binding, atom.method, arity, base, index_cols, atom
        ):
            host_binding = match_term(new_pattern, fact.host, binding)
            if host_binding is None:
                continue
            full = _match_application(atom.args, atom.result, fact, host_binding)
            if full is not None:
                yield full
        return

    # del / mod: the transition target must be an *existing* version
    # kind(v); enumerate those from the exists map, then read the old value
    # from v* and (for mod) the new value from the new version's state.
    # When the transition host is already bound the exists map has exactly
    # one candidate — probe it directly instead of scanning every version
    # (the same fast path the INSERT branch gets from its host index).
    new_pattern = atom.new_version()
    concrete = apply_term(new_pattern, binding)
    if is_ground(concrete):
        versions: Iterable[Term] = (
            (concrete,) if base.version_exists(concrete) else ()
        )
    else:
        versions = base.iter_existing_versions()
    for version in versions:
        host_binding = match_term(new_pattern, version, binding)
        if host_binding is None:
            continue
        target = apply_term(atom.target, host_binding)
        v_star = base.v_star(target)
        if v_star is None:
            continue
        for old_fact in base.iter_facts_by_host_method(v_star, atom.method, arity):
            old_binding = _match_application(
                atom.args, atom.result, old_fact, host_binding
            )
            if old_binding is None:
                continue
            if atom.kind is UpdateKind.DELETE:
                yield old_binding
                continue
            # MODIFY: bind the new value from the state of mod(v).
            assert atom.result2 is not None
            result2 = (
                old_binding.get(atom.result2)
                if isinstance(atom.result2, Var)
                else atom.result2
            )
            if result2 is not None:
                yield old_binding  # result2 already pinned; verification decides
                continue
            for new_fact in base.iter_facts_by_host_method(version, atom.method, arity):
                if new_fact.args != old_fact.args:
                    continue
                extension = _match_position(atom.result2, new_fact.result, old_binding)
                if extension is not None:
                    yield extension
