"""The reference evaluator — the differential oracle for the engine.

The engine (:func:`repro.core.evaluation.evaluate`) runs ``T_P`` one way:
semi-naive, over plan-compiled rule bodies.  This module reads Section 3
and 4 of the paper literally instead, sharing as little with the engine as
the definitions allow, so the property suites can assert ``engine ==
reference``:

* :func:`evaluate_reference` is the **naive fixpoint** — every rule of a
  stratum is re-matched against the whole base on every iteration, by the
  **dynamic chooser** (:func:`match_rule_dynamic`: the next literal is
  picked at each search node from the variables bound there — no plans, no
  generated code, no deltas); each head is substituted, tested with
  :func:`~repro.core.truth.update_atom_true_in_head` and recorded
  (:func:`reference_step`), then every relevant version's state is copied
  whole, edited fact by fact and substituted with ``replace_state_diff`` —
  steps 2 + 3 of ``T_P`` as the paper words them;
* :func:`query_reference` answers a conjunctive body the same way;
* :func:`match_rule_bruteforce` enumerates the active domain — the paper's
  "∀-quantified over O" — for matcher-level tests on small bases.

Shared with the engine is only what the paper defines once: the truth of a
ground literal and the candidate generators (:mod:`repro.core.grounding`,
:mod:`repro.core.truth`), the ``T¹`` and fired-instance containers
(:class:`~repro.core.consequence.PendingUpdates`,
:class:`~repro.core.consequence.FiredInstance`) and the incremental
linearity check.  The new object base ``ob'`` of a reference run is
:func:`repro.core.newbase.build_new_base` over the outcome.

Nothing under ``repro`` outside :mod:`repro.testing` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

from repro.core.atoms import BuiltinAtom, Literal, UpdateAtom, VersionAtom
from repro.core.consequence import FiredInstance, PendingUpdates
from repro.core.errors import EvaluationError, EvaluationLimitError, VersionDepthError
from repro.core.evaluation import (
    EvaluationOptions,
    EvaluationOutcome,
    _reject_version_vars_in_heads,
)
from repro.core.exprs import expr_variables
from repro.core.facts import EXISTS, Fact, exists_fact
from repro.core.grounding import _bind_equality, _check_ground, _generate
from repro.core.linearity import LinearityTracker
from repro.core.objectbase import ObjectBase
from repro.core.query import Answer, sorted_answers
from repro.core.rules import UpdateProgram, UpdateRule
from repro.core.safety import check_program_safety
from repro.core.stratification import stratify
from repro.core.terms import Oid, Term, UpdateKind, Var, VersionId, depth
from repro.core.trace import EvaluationTrace, IterationRecord
from repro.core.truth import update_atom_true_in_head

__all__ = [
    "evaluate_reference",
    "reference_step",
    "query_reference",
    "match_rule_dynamic",
    "match_body_dynamic",
    "match_rule_bruteforce",
]

Binding = dict[Var, Oid]


# ----------------------------------------------------------------------
# the naive fixpoint
# ----------------------------------------------------------------------


def evaluate_reference(
    program: UpdateProgram,
    base: ObjectBase,
    options: EvaluationOptions | None = None,
) -> EvaluationOutcome:
    """``result(P)`` by the naive fixpoint, with the same outcome contract
    as :func:`repro.core.evaluation.evaluate`: result base, final versions,
    iteration count, linearity verdict and error classes are comparable
    one to one.  The trace (fired instances per iteration) is always
    recorded; snapshots never are.
    """
    options = options or EvaluationOptions()
    _reject_version_vars_in_heads(program)
    check_program_safety(program)
    stratification = stratify(program)

    plain = options.check_linearity and base.is_plain()
    working = base.fork()
    tracker = LinearityTracker()
    if not plain:
        working.ensure_exists()
        if options.check_linearity:
            tracker.seed_from(working)

    trace = EvaluationTrace()
    total_iterations = 0
    for stratum_index, stratum in enumerate(stratification):
        record = trace.open_stratum(
            stratum_index, tuple(rule.name for rule in stratum)
        )
        iteration = 0
        while True:
            iteration += 1
            total_iterations += 1
            if iteration > options.max_iterations_per_stratum:
                raise EvaluationLimitError(
                    stratum_index, options.max_iterations_per_stratum
                )
            step = reference_step(
                stratum,
                working,
                create_missing_objects=options.create_missing_objects,
            )
            if options.max_version_depth is not None:
                for version in step.new_versions:
                    if depth(version) > options.max_version_depth:
                        raise VersionDepthError(
                            stratum_index, options.max_version_depth, version
                        )
            fresh = sorted(
                (
                    version
                    for version in step.new_versions
                    if not working.version_exists(version)
                    and not working.state_of(version)
                ),
                key=str,
            )
            changed = _substitute(working, step)
            if options.check_linearity:
                for version in fresh:
                    tracker.observe(version)
            record.iterations.append(
                IterationRecord(
                    iteration, tuple(step.fired), tuple(fresh), changed, step.copies
                )
            )
            if not changed:
                break

    tracked = tracker.latest if options.check_linearity else {}
    return EvaluationOutcome(
        working, stratification, trace, tracked, total_iterations, plain
    )


@dataclass
class _ReferenceStep:
    """One literal ``T_P`` application: ``T¹`` (``pending``), the complete
    recomputed state of every relevant version, the fired instances, and
    the number of states step 2 created from ``v*``."""

    pending: PendingUpdates
    new_states: dict[VersionId, set[Fact]]
    fired: list[FiredInstance]
    copies: int

    @property
    def new_versions(self) -> set[VersionId]:
        return set(self.new_states)


def reference_step(
    rules: Sequence[UpdateRule],
    base: ObjectBase,
    *,
    match_base: ObjectBase | None = None,
    create_missing_objects: bool = False,
) -> _ReferenceStep:
    """One ``T_P`` application read literally.  Step 1: every rule against
    the whole base (``match_base``, when given, for matching and head
    truth), every head substituted and tested.  Steps 2 + 3: the state of
    every relevant version copied from ``base`` and edited."""
    reading = base if match_base is None else match_base
    pending = PendingUpdates()
    fired: list[FiredInstance] = []
    for rule in rules:
        for binding in match_rule_dynamic(rule, reading):
            head = rule.head.substitute(binding)
            if not head.is_ground():
                raise EvaluationError(
                    f"rule {rule.name!r} produced a non-ground head {head}; "
                    f"the rule is unsafe"
                )
            if not update_atom_true_in_head(reading, head):
                continue
            fired.append(
                FiredInstance(
                    rule.name,
                    head,
                    tuple(
                        (var.name, value)
                        for var, value in sorted(
                            binding.items(), key=lambda kv: kv[0].name
                        )
                    ),
                )
            )
            updates = _expand_delete_all(base, head) if head.delete_all else (head,)
            for update in updates:
                pending.add(update)

    new_states: dict[VersionId, set[Fact]] = {}
    copies = 0
    for version in pending.relevant_versions():
        copied, was_copy = _copy_state(base, version, create_missing_objects)
        copies += int(was_copy)
        new_states[version] = _apply_updates(version, copied, pending)
    return _ReferenceStep(pending, new_states, fired, copies)


def _substitute(base: ObjectBase, step: _ReferenceStep) -> bool:
    """Substitute the recomputed states into ``base`` (docs/DESIGN.md D1); True
    when the base changed."""
    changed = False
    for version, state in step.new_states.items():
        added, removed = base.replace_state_diff(version, state)
        changed = changed or bool(added or removed)
    return changed


def _expand_delete_all(base: ObjectBase, head: UpdateAtom) -> list[UpdateAtom]:
    """Expand ``del[v].*`` into one delete per method-application of ``v*``
    (the ``exists`` bookkeeping is never deleted)."""
    v_star = base.v_star(head.target)
    if v_star is None:  # head truth already required applications to exist
        return []
    return [
        UpdateAtom(
            UpdateKind.DELETE,
            head.target,
            fact.method,
            fact.args,
            fact.result,
        )
        for fact in base.iter_state_of(v_star)
        if fact.method != EXISTS
    ]


def _copy_state(
    base: ObjectBase, version: VersionId, create_missing_objects: bool
) -> tuple[set[Fact], bool]:
    """Step 2: the prepared (copied) state for a relevant version.

    Active versions (already materialised — they have state in ``I``) are
    copied from themselves; fresh versions take the applications of ``v*``
    as defaults, re-hosted onto the new VID.  Returns ``(state, was_fresh_copy)``.
    """
    existing = base.iter_state_of(version)
    if existing:
        return set(existing), False
    v_star = base.v_star(version.base)
    if v_star is None:
        state: set[Fact] = set()
        if create_missing_objects:
            state.add(exists_fact(version))
        return state, True
    return (
        {
            Fact(version, fact.method, fact.args, fact.result)
            for fact in base.iter_state_of(v_star)
        },
        True,
    )


def _apply_updates(
    version: VersionId, state: set[Fact], pending: PendingUpdates
) -> set[Fact]:
    """Step 3: edit the copied state according to ``T¹``."""
    kind = version.kind
    if kind is UpdateKind.INSERT:
        additions = pending.inserts.get(version, ())
        for method, args, result in additions:
            state.add(Fact(version, method, args, result))
        return state
    if kind is UpdateKind.DELETE:
        removals = pending.deletes.get(version, ())
        for method, args, result in removals:
            state.discard(Fact(version, method, args, result))
        return state
    # MODIFY
    slots = pending.modifies.get(version, {})
    for (method, args, old_result) in slots:
        state.discard(Fact(version, method, args, old_result))
    for (method, args, _old), new_results in slots.items():
        for new_result in new_results:
            state.add(Fact(version, method, args, new_result))
    return state


def query_reference(body: Sequence[Literal], base: ObjectBase) -> list[Answer]:
    """The answers to a conjunctive body by the dynamic chooser, in the
    output contract of :meth:`repro.core.query.PreparedQuery.run`."""
    return sorted_answers(match_body_dynamic(tuple(body), base))


# ----------------------------------------------------------------------
# dynamic reference matcher
# ----------------------------------------------------------------------


#: A body literal paired with its (precomputed) variable set — computing
#: ``atom.variables`` per search step dominated the matcher's profile.
_AnnotatedLiteral = tuple[Literal, frozenset[Var]]


def match_rule_dynamic(rule: UpdateRule, base: ObjectBase) -> Iterator[Binding]:
    """The per-node dynamic-ordering matcher: the next literal is chosen
    afresh at every search node from what is bound there."""
    return match_body_dynamic(rule.body, base, rule_name=rule.name)


def match_body_dynamic(
    body: tuple[Literal, ...],
    base: ObjectBase,
    *,
    rule_name: str = "<body>",
) -> Iterator[Binding]:
    seen: set[frozenset] = set()
    annotated = [(literal, literal.variables) for literal in body]
    for binding in _search(annotated, {}, base, rule_name):
        key = frozenset(binding.items())
        if key not in seen:
            seen.add(key)
            yield dict(binding)


def _search(
    remaining: list[_AnnotatedLiteral],
    binding: Binding,
    base: ObjectBase,
    rule_name: str,
) -> Iterator[Binding]:
    if not remaining:
        yield binding
        return

    index = _choose_literal(remaining, binding, base)
    if index is None:
        raise EvaluationError(
            f"rule {rule_name!r}: no literal is evaluable under the current "
            f"binding — the rule is unsafe (this should have been caught by "
            f"the safety check)"
        )
    literal, variables = remaining[index]
    rest = remaining[:index] + remaining[index + 1 :]

    if _is_ground_under(variables, binding):
        if _check_ground(literal, binding, base):
            yield from _search(rest, binding, base, rule_name)
        return

    atom = literal.atom
    if isinstance(atom, BuiltinAtom):
        extension = _bind_equality(atom, binding)
        if extension is not None:
            yield from _search(rest, extension, base, rule_name)
        return

    for extension in _generate(literal, binding, base):
        # Re-verify the now-ground literal with the authoritative semantics.
        if _check_ground(literal, extension, base):
            yield from _search(rest, extension, base, rule_name)


# ----------------------------------------------------------------------
# literal selection
# ----------------------------------------------------------------------


def _is_ground_under(variables: frozenset[Var], binding: Binding) -> bool:
    return all(v in binding for v in variables)


def _choose_literal(
    remaining: list[_AnnotatedLiteral], binding: Binding, base: ObjectBase
) -> int | None:
    """Pick the next literal: filters, then binders, then the most
    constrained generator.  Returns ``None`` when stuck (unsafe rule)."""
    best_generator: int | None = None
    best_score = float("-inf")
    for i, (literal, variables) in enumerate(remaining):
        if _is_ground_under(variables, binding):
            return i  # a filter: evaluate immediately
        atom = literal.atom
        if isinstance(atom, BuiltinAtom):
            if literal.positive and atom.op == "=" and _equality_ready(atom, binding):
                return i  # a binder
            continue  # comparisons wait until ground
        if not literal.positive:
            continue  # negations wait until ground
        score = _generator_score(atom, variables, binding)
        if score > best_score:
            best_score = score
            best_generator = i
    return best_generator


def _equality_ready(atom: BuiltinAtom, binding: Binding) -> bool:
    for target, source in ((atom.left, atom.right), (atom.right, atom.left)):
        if (
            isinstance(target, Var)
            and target not in binding
            and all(v in binding for v in expr_variables(source))
        ):
            return True
    return False


def _generator_score(atom, variables: frozenset[Var], binding: Binding) -> int:
    """Heuristic: prefer generators with more already-bound variables and
    with a ground host (host-indexed lookup beats a method scan)."""
    bound = sum(1 for v in variables if v in binding)
    host = atom.host if isinstance(atom, VersionAtom) else atom.target
    host_ground = all(v in binding for v in _term_vars(host))
    kind_penalty = 0
    if isinstance(atom, UpdateAtom):
        kind_penalty = 1  # update-term generators scan the version map
    return bound * 4 + (2 if host_ground else 0) - kind_penalty


def _term_vars(term: Term):
    while isinstance(term, VersionId):
        term = term.base
    return (term,) if isinstance(term, Var) else ()


# ----------------------------------------------------------------------
# brute-force reference
# ----------------------------------------------------------------------


def match_rule_bruteforce(rule: UpdateRule, base: ObjectBase) -> list[Binding]:
    """Enumerate the active domain — the paper's "∀-quantified over O" read
    literally.  Exponential; only for differential tests on small bases.

    The active domain is the OIDs of the base plus the OIDs mentioned by the
    rule itself.  For rules whose built-ins *compute* new values (``S' = S *
    1.1``), equation binding is applied on top of domain enumeration for the
    remaining variables.
    """
    domain = set(base.oid_universe())
    domain |= _rule_constants(rule)

    # Variables bindable only through '=' must not be domain-enumerated.
    computed = _computed_variables(rule)
    enumerated = sorted(rule.variables - computed, key=lambda v: v.name)
    results: list[Binding] = []
    for values in product(sorted(domain, key=str), repeat=len(enumerated)):
        binding: Binding = dict(zip(enumerated, values))
        full = _solve_computed(rule, binding)
        if full is None:
            continue
        if all(_check_ground(lit, full, base) for lit in rule.body):
            results.append(full)
    return results


def _rule_constants(rule: UpdateRule) -> set[Oid]:
    constants: set[Oid] = set()

    def walk_term(term: Term) -> None:
        while isinstance(term, VersionId):
            term = term.base
        if isinstance(term, Oid):
            constants.add(term)

    def walk_expr(expr) -> None:
        from repro.core.exprs import BinOp, Neg

        if isinstance(expr, Oid):
            constants.add(expr)
        elif isinstance(expr, BinOp):
            walk_expr(expr.left)
            walk_expr(expr.right)
        elif isinstance(expr, Neg):
            walk_expr(expr.operand)

    atoms = [lit.atom for lit in rule.body] + [rule.head]
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
    return constants


def _computed_variables(rule: UpdateRule) -> frozenset[Var]:
    """Variables that only '=' built-ins can bind (not in any positive
    version-/update-term)."""
    from_facts: set[Var] = set()
    for literal in rule.body:
        if literal.positive and isinstance(literal.atom, (VersionAtom, UpdateAtom)):
            from_facts |= literal.atom.variables
    return frozenset(rule.variables - from_facts)


def _solve_computed(rule: UpdateRule, binding: Binding) -> Binding | None:
    """Bind computed variables through '=' chains; None if impossible."""
    work = dict(binding)
    pending = [
        lit.atom
        for lit in rule.body
        if lit.positive
        and isinstance(lit.atom, BuiltinAtom)
        and lit.atom.op == "="
    ]
    progress = True
    while pending and progress:
        progress = False
        for eq in list(pending):
            extension = _bind_equality(eq, work)
            if extension is not None and extension != work:
                work = extension
                pending.remove(eq)
                progress = True
            elif all(v in work for v in eq.variables):
                pending.remove(eq)
                progress = True
    if any(v not in work for v in rule.variables):
        return None
    return work
