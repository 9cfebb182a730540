"""Precompiled join plans and the rule dependency index.

Two pieces of static analysis turn the naive ``T_P`` loop of
:mod:`repro.core.evaluation` into a semi-naive, delta-driven one:

**Join plans.**  The dynamic literal chooser of the reference evaluator
(:mod:`repro.testing.reference`) re-ranks the remaining body literals at
*every* search node.  Its decisions, however, depend only on *which
variables are bound* — never on what they are bound to: a literal is a
filter iff its variables are a subset of the bound set, an equality is a
binder iff its unbound side is a single fresh variable whose other side is
fully bound, and the generator score counts bound variables and checks host
groundness.  The bound set after any prefix of choices is itself statically
determined, so the entire choice sequence can be replayed once per
``(body, seed)`` pair and cached as a :class:`JoinPlan`, which
:mod:`repro.core.codegen` compiles into the executor.  When the simulation
gets stuck — an unsafe body, which the safety checker rejects unless it was
switched off — there is no plan and :func:`compile_plan` raises a typed
:class:`~repro.core.errors.EvaluationError` naming the rule.

**Rule dependency signatures.**  After the first ``T_P`` application of a
stratum, a rule can only derive a *new* head-true ground instance if some
truth it reads changed.  :class:`RuleSignature` enumerates, per rule, the
``(method, arity)`` keys and host *shapes* (:func:`repro.core.terms.kind_chain`)
through which added or removed facts can newly enable the rule:

* a positive version-term becomes true only through an **added** fact of its
  key and shape — these are the *seed* literals of delta-restricted
  grounding;
* a negated version-term becomes true only through a **removed** fact;
* body update-terms (either polarity) mix presence and absence conditions
  over the new version, ``v*`` and the ``exists`` map, so any matching
  added *or* removed fact forces a full re-match;
* a ``del``/``mod`` head becomes true through facts added to ``v*`` (head
  truth, Section 3 definition 2), and the ``del[v].*`` form reads every
  method of ``v*`` and is re-matched whenever anything in a matching shape
  was added.

:func:`classify` folds a signature against a :class:`~repro.core.objectbase.Delta`
into one of three modes — skip the rule, re-match it only from the delta
facts matching its seed literals, or re-match it in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable

from repro.core.atoms import BuiltinAtom, Literal, UpdateAtom, VersionAtom
from repro.core.caches import register_lru_cache
from repro.core.errors import EvaluationError
from repro.core.exprs import expr_variables
from repro.core.facts import EXISTS, Fact
from repro.core.terms import (
    Oid,
    Term,
    UpdateKind,
    Var,
    VersionId,
    VersionVar,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.objectbase import Delta
    from repro.core.rules import UpdateRule

__all__ = [
    "FILTER",
    "BINDER",
    "GENERATE",
    "PlanStep",
    "JoinPlan",
    "compile_plan",
    "compile_seed_plan",
    "RuleSignature",
    "QuerySignature",
    "body_signature",
    "program_signature",
    "RulePlan",
    "rule_plan",
    "classify",
    "SKIP",
    "SEED",
    "FULL",
]

MethodKey = tuple[str, int]
Shape = tuple[str, ...]

#: Plan step actions.
FILTER, BINDER, GENERATE = 0, 1, 2

#: Classification of a rule against an iteration's delta.
SKIP, SEED, FULL = "skip", "seed", "full"


@dataclass(frozen=True)
class PlanStep:
    """One precompiled search step: evaluate ``literal`` as ``action``.

    ``verify`` marks generate steps whose candidates must be re-checked
    against the authoritative truth functions.  Version-term generators are
    *exact* — the candidate fact comes from the base's own index and the
    pattern matched every position of it, so the substituted atom is the
    fact itself and membership holds by construction; re-verification is
    skipped for them.  Update-term generators only approximate definition 3
    of Section 3 and keep the re-check.

    ``index_cols`` is the generator's *access-path metadata*, chosen at
    plan-compile time: the argument columns (``0 .. arity-1``; ``-1`` is
    the result position) that are statically known to be bound — a constant
    of the atom, or a variable bound by an earlier step or the seed — when
    this step runs.  The runtime generator prefers the host index (when the
    host is bound), then the smallest of these per-column hash buckets
    (:meth:`~repro.core.objectbase.ObjectBase.iter_facts_by_arg`), and only
    falls back to the full ``(method, arity)`` scan when nothing is bound.
    """

    literal: Literal
    variables: frozenset[Var]
    action: int
    verify: bool = True
    index_cols: tuple[int, ...] = ()


@dataclass(frozen=True)
class JoinPlan:
    """A static literal ordering for one body under a fixed seed binding.

    ``key_vars`` is the deterministic variable order used for duplicate
    elimination of complete bindings; ``generator_count`` lets the matcher
    skip deduplication entirely when at most one generator step exists (two
    distinct generated facts can never produce the same binding, so
    duplicates are impossible).
    """

    steps: tuple[PlanStep, ...]
    generator_count: int
    key_vars: tuple[Var, ...]


def _term_var(term: Term) -> Var | None:
    while isinstance(term, VersionId):
        term = term.base
    return term if isinstance(term, Var) else None


def var_sort_key(var: Var) -> tuple[str, str]:
    """Deterministic variable order for dedup keys.  The class name breaks
    ties between a ``Var`` and a ``VersionVar`` of the same name (distinct
    variables with equal names and hashes), so every plan of the same body
    agrees on the key order."""
    return (var.name, var.__class__.__name__)


def _binder_target(atom: BuiltinAtom, bound: set[Var]) -> Var | None:
    """The variable an ``X = e`` built-in would bind under ``bound`` —
    mirrors the reference chooser's ``_equality_ready`` direction order
    exactly."""
    for target, source in ((atom.left, atom.right), (atom.right, atom.left)):
        if (
            isinstance(target, Var)
            and target not in bound
            and all(v in bound for v in expr_variables(source))
        ):
            return target
    return None


def _static_generator_score(atom, variables: frozenset[Var], bound: set[Var]) -> int:
    """The reference chooser's ``_generator_score`` with the binding
    replaced by the statically known bound-variable set (they agree by
    construction)."""
    bound_count = sum(1 for v in variables if v in bound)
    host = atom.host if isinstance(atom, VersionAtom) else atom.target
    host_var = _term_var(host)
    host_ground = host_var is None or host_var in bound
    penalty = 1 if isinstance(atom, UpdateAtom) else 0
    return bound_count * 4 + (2 if host_ground else 0) - penalty


def compile_plan(
    body: tuple[Literal, ...],
    seed_vars: Iterable[Var] = (),
    *,
    name: str = "<body>",
) -> JoinPlan:
    """Replay the dynamic chooser over ``body`` starting from ``seed_vars``
    bound.  Raises :class:`~repro.core.errors.EvaluationError` naming the
    rule or query ``name`` when the simulation gets stuck (unsafe body)."""
    remaining: list[tuple[Literal, frozenset[Var]]] = [
        (literal, literal.variables) for literal in body
    ]
    bound: set[Var] = set(seed_vars)
    key_vars: set[Var] = set(bound)
    for _, variables in remaining:
        key_vars |= variables
    steps: list[PlanStep] = []
    generators = 0
    while remaining:
        choice = _choose_static(remaining, bound)
        if choice is None:
            raise EvaluationError(
                f"rule {name!r}: no literal is evaluable under the current "
                f"binding — the rule is unsafe (this should have been caught by "
                f"the safety check)"
            )
        index, action, binds = choice
        literal, variables = remaining.pop(index)
        verify = action != GENERATE or not isinstance(literal.atom, VersionAtom)
        index_cols = (
            _bound_columns(literal.atom, bound) if action == GENERATE else ()
        )
        steps.append(PlanStep(literal, variables, action, verify, index_cols))
        bound |= binds
        if action == GENERATE:
            generators += 1
    # key_vars covers all literals, and every bound variable belongs to
    # some literal, so the sorted order is a stable dedup key shared by all
    # plans of the same body (seeded and full alike).
    order = tuple(sorted(key_vars, key=var_sort_key))
    return JoinPlan(tuple(steps), generators, order)


def _bound_columns(atom, bound: set[Var]) -> tuple[int, ...]:
    """The argument/result columns of a generator atom that are statically
    bound when the step runs (constants count) — the candidate secondary
    access paths.  Only atoms whose generator reads a straight fact index
    qualify: version-terms, and ``ins`` update-terms (whose truth is plain
    membership on the ``ins(v)`` host); ``del``/``mod`` generators walk the
    exists map instead and get no column metadata.
    """
    if isinstance(atom, VersionAtom):
        args, result = atom.args, atom.result
    elif (
        isinstance(atom, UpdateAtom)
        and atom.kind is UpdateKind.INSERT
        and not atom.delete_all
    ):
        args, result = atom.args, atom.result
    else:
        return ()
    columns = [
        position
        for position, arg in enumerate(args)
        if isinstance(arg, Oid) or (isinstance(arg, Var) and arg in bound)
    ]
    if isinstance(result, Oid) or (isinstance(result, Var) and result in bound):
        columns.append(-1)
    return tuple(columns)


def _choose_static(
    remaining: list[tuple[Literal, frozenset[Var]]], bound: set[Var]
) -> tuple[int, int, frozenset[Var]] | None:
    best: tuple[int, frozenset[Var]] | None = None
    best_score = float("-inf")
    for i, (literal, variables) in enumerate(remaining):
        if variables <= bound:
            return i, FILTER, frozenset()
        atom = literal.atom
        if isinstance(atom, BuiltinAtom):
            if literal.positive and atom.op == "=":
                target = _binder_target(atom, bound)
                if target is not None:
                    return i, BINDER, frozenset((target,))
            continue
        if not literal.positive:
            continue
        score = _static_generator_score(atom, variables, bound)
        if score > best_score:
            best_score = score
            best = (i, variables)
    if best is None:
        return None
    index, variables = best
    return index, GENERATE, frozenset(variables - bound)


# ----------------------------------------------------------------------
# rule dependency signatures
# ----------------------------------------------------------------------

#: A trigger ``(key, shape_prefix, exact)``: it matches a changed fact when
#: the fact's ``(method, arity)`` equals ``key`` (``None`` = any key) and
#: the fact's host shape equals the prefix (``exact``) or starts with it
#: (version-variable patterns, which reach hosts of any depth).
Trigger = tuple[MethodKey | None, Shape, bool]

#: A seed ``(body position, key, shape_prefix, exact)`` for a positive
#: version-term literal.
Seed = tuple[int, MethodKey, Shape, bool]


def _pattern_shape(term: Term) -> tuple[Shape, bool]:
    kinds: list[str] = []
    while isinstance(term, VersionId):
        kinds.append(term.kind.value)
        term = term.base
    return tuple(kinds), not isinstance(term, VersionVar)


def _v_star_triggers(keys: Iterable[MethodKey | None], target: Term) -> list[Trigger]:
    """Triggers for facts readable through ``v*(target)`` — every suffix
    shape of the target pattern (``v*`` is a subterm of the ground VID)."""
    prefix, exact = _pattern_shape(target)
    triggers: list[Trigger] = []
    if not exact:
        # A version variable reaches hosts of any shape: one wildcard.
        return [(key, (), False) for key in keys]
    for i in range(len(prefix) + 1):
        for key in keys:
            triggers.append((key, prefix[i:], True))
    return triggers


def _body_covers_head_truth(rule: "UpdateRule") -> bool:
    """True when a positive body version-term pins exactly the fact the
    ``del``/``mod`` head's truth condition reads (same target term, method,
    arguments and old result) — e.g. the paper's rule 1: body
    ``E.sal -> S`` covers head ``mod[E].sal -> (S, S2)``."""
    head = rule.head
    for literal in rule.body:
        atom = literal.atom
        if (
            literal.positive
            and isinstance(atom, VersionAtom)
            and atom.host == head.target
            and atom.method == head.method
            and atom.args == head.args
            and atom.result == head.result
        ):
            return True
    return False


@dataclass(frozen=True)
class RuleSignature:
    """What a rule reads, keyed for the dependency check (see module doc)."""

    seeds: tuple[Seed, ...]
    added_triggers: tuple[Trigger, ...]
    removed_triggers: tuple[Trigger, ...]


def rule_signature(rule: "UpdateRule") -> RuleSignature:
    seeds: list[Seed] = []
    added: list[Trigger] = []
    removed: list[Trigger] = []

    for position, literal in enumerate(rule.body):
        atom = literal.atom
        if isinstance(atom, VersionAtom):
            key = (atom.method, len(atom.args))
            prefix, exact = _pattern_shape(atom.host)
            if literal.positive:
                seeds.append((position, key, prefix, exact))
            else:
                removed.append((key, prefix, exact))
        elif isinstance(atom, UpdateAtom):
            key = (atom.method, len(atom.args))
            prefix, exact = _pattern_shape(atom.target)
            new_shape: Trigger = (key, (atom.kind.value, *prefix), exact)
            exists_new: Trigger = ((EXISTS, 0), (atom.kind.value, *prefix), exact)
            triggers = [new_shape, exists_new]
            triggers += _v_star_triggers([key, (EXISTS, 0)], atom.target)
            # Update-term truth mixes presence and absence conditions
            # (Section 3, definition 3), so either direction of change can
            # newly enable the literal, whichever its polarity.
            added.extend(triggers)
            removed.extend(triggers)

    head = rule.head
    if head.delete_all:
        # ``del[v].*`` reads every method-application of ``v*``: any added
        # fact in a matching shape changes head truth or the expansion.
        added.extend(_v_star_triggers([None], head.target))
    elif head.kind is not UpdateKind.INSERT:
        key = (head.method, len(head.args))
        triggers = _v_star_triggers([key, (EXISTS, 0)], head.target)
        prefix, exact = _pattern_shape(head.target)
        if exact and _body_covers_head_truth(rule):
            # Head truth (definition 2) asks for ``v*(t).m@a -> r``; when an
            # identical positive body literal pins the same fact on ``t``
            # itself, an added fact at ``t``'s own shape can only create a
            # *new body binding* (seeded/classified elsewhere), never flip
            # the head of an existing one — unless ``v*`` sits at a deeper
            # subterm, whose shapes stay triggered below.
            triggers = [
                t for t in triggers if t != (key, prefix, True)
            ]
        added.extend(triggers)

    return RuleSignature(tuple(seeds), tuple(dict.fromkeys(added)), tuple(dict.fromkeys(removed)))


@dataclass(frozen=True)
class QuerySignature:
    """What a conjunctive *query* body reads, keyed for sessions and
    subscriptions.

    Unlike :class:`RuleSignature` there is no head: an answer set can
    change whenever any fact a body literal reads — positively or under
    negation — is added *or* removed, so one trigger list is checked
    against both directions of a :class:`~repro.core.objectbase.Delta`.  A
    delta that fires no trigger provably leaves the answers untouched,
    which is what lets a session keep its read footprint valid and a
    subscription skip a commit without evaluating anything.

    ``seeds`` has the :attr:`RuleSignature.seeds` layout — one entry per
    positive version-term literal of a body — so :func:`seed_facts` picks a
    delta's facts for a seeded evaluation of the body; a program's
    signature has none.
    """

    triggers: tuple[Trigger, ...]
    seeds: tuple[Seed, ...] = ()

    def affected_by(self, delta: "Delta") -> bool:
        """True when ``delta`` may change the query's answers."""
        added_index = delta.added_index()
        added_shapes = delta.added_shapes()
        removed_index = delta.removed_index()
        removed_shapes = delta.removed_shapes()
        for trigger in self.triggers:
            if _trigger_fires(trigger, added_index, added_shapes):
                return True
            if _trigger_fires(trigger, removed_index, removed_shapes):
                return True
        return False


def program_signature(program) -> QuerySignature:
    """The read footprint of a whole :class:`~repro.core.rules.UpdateProgram`,
    as one symmetric :class:`QuerySignature`.

    This is the *transaction-validation* view of a program: the union, over
    its rules, of every trigger through which a changed fact could alter
    what the program derives — body reads (either polarity), seed literals,
    and the head-truth reads of ``del``/``mod`` heads (all already
    enumerated by :func:`rule_signature`).  Unlike :func:`classify`, which
    asks the semi-naive question ("can this iteration's delta produce *new*
    head instances?"), a validator must treat added and removed facts
    symmetrically: a removed fact that a positive body literal matched can
    change the outcome just as an added one can.  The optimistic-commit
    protocol of :mod:`repro.server.service` intersects this signature with
    the deltas committed since a transaction's pinned revision.
    """
    triggers: list[Trigger] = []
    for rule in program:
        signature = rule_signature(rule)
        triggers.extend(signature.added_triggers)
        triggers.extend(signature.removed_triggers)
        for _position, key, prefix, exact in signature.seeds:
            triggers.append((key, prefix, exact))
        # Seed literals are only "added" triggers in the semi-naive sense;
        # symmetric validation also needs them against removals, which the
        # single trigger list of QuerySignature.affected_by provides.
    return QuerySignature(tuple(dict.fromkeys(triggers)))


def body_signature(body: tuple[Literal, ...]) -> QuerySignature:
    """The :class:`QuerySignature` of a bare conjunctive body."""
    triggers: list[Trigger] = []
    seeds: list[Seed] = []
    for position, literal in enumerate(body):
        atom = literal.atom
        if isinstance(atom, VersionAtom):
            key = (atom.method, len(atom.args))
            prefix, exact = _pattern_shape(atom.host)
            triggers.append((key, prefix, exact))
            if literal.positive:
                seeds.append((position, key, prefix, exact))
        elif isinstance(atom, UpdateAtom):
            key = (atom.method, len(atom.args)) if atom.method else None
            prefix, exact = _pattern_shape(atom.target)
            triggers.append((key, (atom.kind.value, *prefix), exact))
            triggers.append(((EXISTS, 0), (atom.kind.value, *prefix), exact))
            triggers.extend(_v_star_triggers([key, (EXISTS, 0)], atom.target))
        # Built-ins read no facts: no trigger.
    return QuerySignature(tuple(dict.fromkeys(triggers)), tuple(seeds))


class RulePlan:
    """Everything precompiled for one rule: its dependency signature, the
    full-body join plan, and (lazily) one plan per seed literal."""

    __slots__ = ("rule", "signature", "full_plan", "_seed_plans")

    def __init__(self, rule: "UpdateRule"):
        self.rule = rule
        self.signature = rule_signature(rule)
        self.full_plan = compile_plan(rule.body, name=rule.name)
        self._seed_plans: dict[int, JoinPlan] = {}

    def seed_plan(self, position: int) -> JoinPlan:
        """The rule's :func:`compile_seed_plan` at ``position``."""
        try:
            return self._seed_plans[position]
        except KeyError:
            plan = compile_seed_plan(self.rule.body, position, self.rule.name)
            self._seed_plans[position] = plan
            return plan


def compile_seed_plan(
    body: tuple[Literal, ...], position: int, name: str = "<body>"
) -> JoinPlan:
    """The plan for ``body`` minus the seed literal at ``position``,
    compiled with the seed literal's variables already bound."""
    rest = tuple(literal for index, literal in enumerate(body) if index != position)
    return compile_plan(rest, body[position].variables, name=name)


@lru_cache(maxsize=4096)
def rule_plan(rule: "UpdateRule") -> RulePlan:
    """The cached :class:`RulePlan` for ``rule`` (rules are frozen values,
    so plans survive across iterations, strata and evaluations)."""
    return RulePlan(rule)


register_lru_cache("plans.rule_plan", rule_plan)


# ----------------------------------------------------------------------
# delta classification
# ----------------------------------------------------------------------


def _shapes_match(shapes, prefix: Shape, exact: bool) -> bool:
    if exact:
        return prefix in shapes
    n = len(prefix)
    if n == 0:
        return bool(shapes)
    return any(s[:n] == prefix for s in shapes)


def _trigger_fires(trigger: Trigger, index, all_shapes) -> bool:
    key, prefix, exact = trigger
    if key is None:
        return _shapes_match(all_shapes, prefix, exact)
    shapes = index.get(key)
    if not shapes:
        return False
    return _shapes_match(shapes, prefix, exact)


def classify(
    signature: RuleSignature, delta: "Delta"
) -> tuple[str, tuple[int, ...]]:
    """Fold ``signature`` against ``delta``: ``(FULL, ())``, ``(SKIP, ())``
    or ``(SEED, seed_positions)`` with the body positions whose seed
    literals match at least one added fact."""
    added_index = delta.added_index()
    removed_index = delta.removed_index()
    added_shapes = delta.added_shapes()
    for trigger in signature.added_triggers:
        if _trigger_fires(trigger, added_index, added_shapes):
            return FULL, ()
    removed_shapes = delta.removed_shapes()
    for trigger in signature.removed_triggers:
        if _trigger_fires(trigger, removed_index, removed_shapes):
            return FULL, ()
    positions = tuple(
        position
        for position, key, prefix, exact in signature.seeds
        if (buckets := added_index.get(key)) and _shapes_match(buckets, prefix, exact)
    )
    if positions:
        return SEED, positions
    return SKIP, ()


def seed_facts(
    delta: "Delta", signature: RuleSignature | QuerySignature, position: int
) -> list[Fact]:
    """The added facts a seed literal at ``position`` can match, by key and
    host shape."""
    for pos, key, prefix, exact in signature.seeds:
        if pos != position:
            continue
        buckets = delta.added_index().get(key)
        if not buckets:
            return []
        if exact:
            return buckets.get(prefix, [])
        n = len(prefix)
        facts: list[Fact] = []
        for shape, bucket in buckets.items():
            if shape[:n] == prefix:
                facts.extend(bucket)
        return facts
    return []
