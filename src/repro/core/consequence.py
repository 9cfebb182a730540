"""The immediate consequence operator ``T_P`` — Section 3, 3-step procedure.

Step 1 derives the set ``T¹_P(I)`` of ground update-terms whose rule bodies
*and heads* are true w.r.t. ``I`` (head truth matters: a delete is only
allowed when the to-be-deleted information exists).

Step 2 prepares, by copying from ``I``, a state for every *relevant* new
version ``α(v)``: an **active** version (one that already exists) is copied
from its own current state; a relevant-but-not-active version is created by
taking the method-applications of ``v*`` as defaults.  This lazy copy is the
paper's answer to the frame problem (footnote 4): only the objects being
updated are copied, never the whole base.

Step 3 performs the updates on the copies:

* ``ins(v)`` gets the copied state plus the inserted applications;
* ``del(v)`` gets the copied state minus the deleted applications;
* ``mod(v)`` gets the copied state with modified applications replaced by
  their new values.

``T_P(I)`` is the family of recomputed states; iteration substitutes them
into ``I`` (state replacement, DESIGN.md D1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.atoms import UpdateAtom
from repro.core.codegen import match_rule_compiled, match_rule_seeded_compiled
from repro.core.errors import EvaluationError
from repro.core.facts import EXISTS, Fact, exists_fact
from repro.core.objectbase import Delta, ObjectBase
from repro.obs import metrics as _obs
from repro.core.plans import SEED, SKIP, classify, rule_plan
from repro.core.rules import UpdateRule
from repro.core.terms import Oid, UpdateKind, VersionId
from repro.core.truth import update_atom_true_in_head

__all__ = ["FiredInstance", "PendingUpdates", "TPResult", "tp_step", "apply_tp"]

#: A method application ``(method, args, result)`` — the host-independent
#: payload that step 2 copies and step 3 edits.
Application = tuple[str, tuple[Oid, ...], Oid]


@dataclass(frozen=True)
class FiredInstance:
    """One ground rule instance that contributed to ``T¹_P(I)`` (for traces)."""

    rule_name: str
    head: UpdateAtom
    binding: tuple[tuple[str, Oid], ...]

    def __str__(self) -> str:
        bound = ", ".join(f"{name}={value}" for name, value in self.binding)
        return f"{self.rule_name}[{bound}] fired: {self.head}"


@dataclass
class PendingUpdates:
    """``T¹_P(I)`` grouped by the new version it creates.

    ``inserts``/``deletes`` map ``α(v)`` to the applications inserted into /
    deleted from the copy; ``modifies`` maps ``mod(v)`` to
    ``(method, args, old_result) -> {new results}`` (set-valued: several
    modify-updates of the same old value all contribute, matching the last
    clause of step 3).
    """

    inserts: dict[VersionId, set[Application]] = field(default_factory=dict)
    deletes: dict[VersionId, set[Application]] = field(default_factory=dict)
    modifies: dict[VersionId, dict[Application, set[Oid]]] = field(default_factory=dict)

    def relevant_versions(self) -> set[VersionId]:
        """Every ``α(v)`` some update in ``T¹`` targets (paper: *relevant*)."""
        return set(self.inserts) | set(self.deletes) | set(self.modifies)

    def add(self, head: UpdateAtom) -> None:
        """Record one ground, head-true, non-delete-all update-term."""
        new_version = head.new_version()
        application: Application = (head.method, head.args, head.result)  # type: ignore[assignment]
        if head.kind is UpdateKind.INSERT:
            self.inserts.setdefault(new_version, set()).add(application)
        elif head.kind is UpdateKind.DELETE:
            self.deletes.setdefault(new_version, set()).add(application)
        else:
            assert head.result2 is not None
            slot = self.modifies.setdefault(new_version, {})
            slot.setdefault(application, set()).add(head.result2)  # type: ignore[arg-type]

    def is_empty(self) -> bool:
        return not (self.inserts or self.deletes or self.modifies)

    def total_updates(self) -> int:
        return (
            sum(len(v) for v in self.inserts.values())
            + sum(len(v) for v in self.deletes.values())
            + sum(len(rs) for slot in self.modifies.values() for rs in slot.values())
        )


@dataclass
class TPResult:
    """The outcome of one ``T_P`` application.

    ``new_states`` maps every relevant version to its complete recomputed
    state (a set of facts hosted on that version); ``fired`` records the rule
    instances for tracing; ``copies`` counts the relevant-but-not-active
    versions created in step 2 (the frame-problem copy cost of footnote 4).
    """

    pending: PendingUpdates
    new_states: dict[VersionId, set[Fact]]
    fired: list[FiredInstance]
    copies: int

    @property
    def new_versions(self) -> set[VersionId]:
        return set(self.new_states)

    def is_empty(self) -> bool:
        return not self.new_states


def tp_step(
    rules: Iterable[UpdateRule],
    base: ObjectBase,
    *,
    match_base: ObjectBase | None = None,
    create_missing_objects: bool = False,
    collect_fired: bool = False,
    delta: Delta | None = None,
) -> TPResult:
    """One application of ``T_P`` for the given rules against ``base``.

    ``create_missing_objects`` controls the edge the paper leaves open: an
    insert whose target has no existing subterm (``v* = None``) creates a
    brand-new object when True, and contributes an ``exists``-less orphan
    state when False (strict reading).  See DESIGN.md D3.

    ``match_base`` — when given, step 1 (body matching and head truth) runs
    against it instead of ``base``, while steps 2/3 still copy from
    ``base``.  The derived-methods extension (:mod:`repro.ext.derived`)
    passes a superset of ``base`` enriched with view facts here, so rules
    can *read* derived methods without the copies ever *storing* them.

    ``delta`` — the structured change of the previous ``apply_tp`` on the
    same stratum.  When given (and ``match_base`` is not in play — view
    overlays are recomputed wholesale, so their deltas are not tracked),
    step 1 runs semi-naively: each rule is classified against the delta by
    its dependency signature and is skipped, re-matched only from the new
    facts its seed literals can read, or re-matched in full.  Skipped and
    seeded rules rely on the self-copy of step 2: a state transition already
    applied to an active version persists under re-substitution, so
    re-deriving an old instance is idempotent and only *new* instances
    matter.
    """
    pending = PendingUpdates()
    fired: list[FiredInstance] = []
    reading = base if match_base is None else match_base
    restricted = delta is not None and match_base is None
    # Per-rule profiling (matched/fired counts, cumulative seconds) —
    # resolved once per step so the disabled path pays one env lookup for
    # the whole rule loop.
    record = _obs.metrics_enabled()
    registry = _obs.registry() if record else None

    # ---- step 1: T¹ — the set of true ground heads -----------------------
    for rule in rules:
        rule_start = time.perf_counter() if record else 0.0
        matched = 0
        rule_fired = 0
        if restricted:
            mode, positions = classify(rule_plan(rule).signature, delta)
            if mode == SKIP:
                if record:
                    registry.inc("engine_rule_skipped", 1, rule=rule.name)
                continue
            if mode == SEED:
                bindings = match_rule_seeded_compiled(
                    rule, reading, delta, positions
                )
            else:
                bindings = match_rule_compiled(rule, reading)
        else:
            bindings = match_rule_compiled(rule, reading)
        for binding in bindings:
            matched += 1
            head = rule.head.substitute(binding)
            if not head.is_ground():
                raise EvaluationError(
                    f"rule {rule.name!r} produced a non-ground head {head}; "
                    f"the rule is unsafe"
                )
            if not update_atom_true_in_head(reading, head):
                continue
            rule_fired += 1
            if collect_fired:
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
            if head.delete_all:
                for entry in _expand_delete_all(base, head):
                    pending.add(entry)
            else:
                pending.add(head)
        if record:
            if matched:
                registry.inc("engine_rule_matched", matched, rule=rule.name)
            if rule_fired:
                registry.inc("engine_rule_fired", rule_fired, rule=rule.name)
            registry.inc(
                "engine_rule_seconds",
                time.perf_counter() - rule_start,
                rule=rule.name,
            )

    return _copy_and_apply(base, pending, fired, create_missing_objects)


def _copy_and_apply(
    base: ObjectBase,
    pending: PendingUpdates,
    fired: list[FiredInstance],
    create_missing_objects: bool,
) -> TPResult:
    """Steps 2 + 3 for a given ``T¹``: copy the state of every relevant
    version from ``base`` and apply the pending updates to the copies.
    Shared by :func:`tp_step` and the reference evaluator
    (:mod:`repro.testing.reference`), which derives ``T¹`` on its own."""
    new_states: dict[VersionId, set[Fact]] = {}
    copies = 0
    for version in pending.relevant_versions():
        copied, was_copy = _copy_state(base, version, create_missing_objects)
        copies += int(was_copy)
        new_states[version] = _apply_updates(version, copied, pending)

    return TPResult(pending, new_states, fired, copies)


def apply_tp(base: ObjectBase, result: TPResult) -> Delta:
    """Substitute the recomputed states into ``base`` (DESIGN.md D1).

    Returns the :class:`~repro.core.objectbase.Delta` of facts that entered
    and left the base — truthy exactly when the base changed, so it still
    works as the stratum's fixpoint test, and it feeds the semi-naive rule
    classification of the next ``tp_step``.
    """
    delta = Delta()
    for version, state in result.new_states.items():
        added, removed = base.replace_state_diff(version, state)
        if added or removed:
            delta.record(added, removed)
    return delta


# ----------------------------------------------------------------------
# internals
# ----------------------------------------------------------------------


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
