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
into ``I`` (state replacement, docs/DESIGN.md D1).

How the engine carries the three steps out:

* **Step 1 is compiled.**  :func:`tp_step` classifies each rule against the
  previous delta and hands it to its
  :class:`~repro.core.codegen.CompiledRule`, whose generated function runs
  the body and fires the head from the slot rows straight into
  :class:`PendingUpdates`: no ``UpdateAtom``, no binding dict and no
  substitution per row (they are built for traces only, under
  ``collect_fired``).
* **Steps 2 + 3 are one write per version**, in :func:`apply_tp`.  A fresh
  version's complete state is built once — the applications of ``v*`` with
  the edits already applied while they are ``(method, args, result)``
  tuples — and enters the base through
  :meth:`~repro.core.objectbase.ObjectBase.add_state`; an active version
  gets the exact facts to add and to discard, never a copy of its state.

The literal reading — every head substituted and tested with
:func:`~repro.core.truth.update_atom_true_in_head`, every state copied
whole, edited fact by fact and substituted with ``replace_state_diff`` —
lives on as the oracle, :func:`repro.testing.reference.reference_step`,
which the differential suites compare ``T¹``, the states and the fixpoint
against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Iterable

from repro.core.atoms import UpdateAtom
from repro.core.codegen import CompiledRule, compiled_rule
from repro.core.facts import EXISTS, Fact
from repro.core.objectbase import Delta, ObjectBase
from repro.obs import metrics as _obs
from repro.core.plans import SEED, SKIP, classify
from repro.core.rules import UpdateRule
from repro.core.terms import Oid, UpdateKind, VersionId, object_of

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


@dataclass
class TPResult:
    """The outcome of one ``T_P`` application: ``T¹`` (``pending``), the
    rule instances that derived it (``fired``, for tracing) and ``copies``,
    the number of relevant-but-not-active versions step 2 creates (the
    frame-problem copy cost of footnote 4).

    Steps 2 + 3 are carried out by :func:`apply_tp`, as writes; ``base``
    and ``create_missing_objects`` are what they read.
    """

    pending: PendingUpdates
    fired: list[FiredInstance]
    copies: int
    base: ObjectBase = field(repr=False)
    create_missing_objects: bool = False

    @property
    def new_versions(self) -> set[VersionId]:
        return self.pending.relevant_versions()

    @property
    def new_states(self) -> dict[VersionId, set[Fact]]:
        """Every relevant version's complete recomputed state, w.r.t.
        ``base`` as it is now.  Derived on each read, for tests and traces:
        :func:`apply_tp` never materialises the state of an active version.
        """
        states, edits = _prepare(
            self.base, self.pending, self.create_missing_objects
        )
        for version, (added, removed) in edits.items():
            live = self.base.iter_state_of(version)
            states[version] = live.difference(removed).union(added)
        return states

    def is_empty(self) -> bool:
        return self.pending.is_empty()


def tp_step(
    rules: Iterable[UpdateRule | CompiledRule],
    base: ObjectBase,
    *,
    match_base: ObjectBase | None = None,
    create_missing_objects: bool = False,
    collect_fired: bool = False,
    delta: Delta | None = None,
) -> TPResult:
    """Step 1 of ``T_P`` for the given rules against ``base``; steps 2 + 3
    happen when the result is handed to :func:`apply_tp`.  A rule may come
    as its :class:`~repro.core.codegen.CompiledRule` (what
    :func:`~repro.core.evaluation.evaluate` passes, from the program's
    artifact) or as itself, compiled once per shape (``compiled_rule``).

    ``create_missing_objects`` controls the edge the paper leaves open: an
    insert whose target has no existing subterm (``v* = None``) creates a
    brand-new object when True, and contributes an ``exists``-less orphan
    state when False (strict reading).  See docs/DESIGN.md D3.

    ``match_base`` — when given, step 1 (body matching and head truth) runs
    against it instead of ``base``, while steps 2/3 still copy from
    ``base``.  :func:`~repro.core.evaluation.evaluate` passes
    ``overlay(working)`` here; the derived-methods extension
    (:mod:`repro.ext.derived`) makes that a superset of ``base`` enriched
    with view facts, so rules can *read* derived methods without the
    copies ever *storing* them.

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
    on_fired = None
    if collect_fired:
        def on_fired(*instance) -> None:
            fired.append(FiredInstance(*instance))
    reading = base if match_base is None else match_base
    restricted = delta is not None and match_base is None
    # Per-rule profiling (matched/fired counts, cumulative seconds) —
    # resolved once per step so the disabled path pays one env lookup for
    # the whole rule loop.
    record = _obs.metrics_enabled()
    registry = _obs.registry() if record else None

    for compiled in rules:
        rule_start = time.perf_counter() if record else 0.0
        if compiled.__class__ is not CompiledRule:
            compiled = compiled_rule(compiled)
        rule = compiled.rule
        seeds = None
        if restricted:
            mode, positions = classify(compiled.signature, delta)
            if mode == SKIP:
                if record:
                    registry.inc("engine_rule_skipped", 1, rule=rule.name)
                continue
            if mode == SEED:
                seeds = (delta, positions)
        matched, rule_fired = compiled.fire(reading, base, pending, on_fired, seeds)
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

    copies = sum(
        1 for version in pending.relevant_versions() if not base.iter_state_of(version)
    )
    return TPResult(pending, fired, copies, base, create_missing_objects)


def apply_tp(base: ObjectBase, result: TPResult) -> Delta:
    """Steps 2 + 3 of ``T_P`` as one write per relevant version, substituted
    into ``base`` (docs/DESIGN.md D1).

    Every write is computed from ``base`` as it stands — a fresh version
    copies ``v*``, which may itself be edited by this very step — and only
    then carried out: a fresh version's complete state goes in through
    :meth:`~repro.core.objectbase.ObjectBase.add_state`, an active
    version's exact difference through ``add``/``discard``.

    Returns the :class:`~repro.core.objectbase.Delta` of facts that entered
    and left the base — truthy exactly when the base changed, so it still
    works as the stratum's fixpoint test, and it feeds the semi-naive rule
    classification of the next ``tp_step``.
    """
    fresh, edits = _prepare(base, result.pending, result.create_missing_objects)
    delta = Delta()
    for version, state in fresh.items():
        if state:
            base.add_state(version, state)
            delta.record(state, (), version)
    for version, (added, removed) in edits.items():
        if added or removed:
            for fact in removed:
                base.discard(fact)
            for fact in added:
                base.add(fact)
            delta.record(added, removed, version)
    return delta


# ----------------------------------------------------------------------
# internals
# ----------------------------------------------------------------------

_application = attrgetter("method", "args", "result")


def _prepare(
    base: ObjectBase, pending: PendingUpdates, create_missing_objects: bool
) -> tuple[dict[VersionId, set[Fact]], dict[VersionId, tuple[list[Fact], list[Fact]]]]:
    """Steps 2 + 3 for every relevant version, read off ``base`` and not
    yet written: the complete state of each fresh version, and the
    ``(added, removed)`` of each active one."""
    fresh: dict[VersionId, set[Fact]] = {}
    edits: dict[VersionId, tuple[list[Fact], list[Fact]]] = {}
    for version in pending.relevant_versions():
        live = base.iter_state_of(version)
        if live:
            edits[version] = _active_edits(version, live, pending)
        else:
            fresh[version] = _fresh_state(
                base, version, pending, create_missing_objects
            )
    return fresh, edits


def _fresh_state(
    base: ObjectBase,
    version: VersionId,
    pending: PendingUpdates,
    create_missing_objects: bool,
) -> set[Fact]:
    """Steps 2 + 3 for a relevant version that has no state yet: the
    applications of ``v*`` as defaults, edited according to ``T¹`` while
    they are still ``(method, args, result)`` tuples, then hosted on the new
    VID — no fact is built only to be discarded."""
    v_star = base.v_star(version.base)
    if v_star is not None:
        copied = map(_application, base.iter_state_of(v_star))
    elif create_missing_objects:
        copied = ((EXISTS, (), object_of(version)),)
    else:
        copied = ()
    kind = version.kind
    if kind is UpdateKind.INSERT:
        edited = chain(copied, pending.inserts.get(version, ()))
    elif kind is UpdateKind.DELETE:
        gone = pending.deletes.get(version, ())
        edited = (app for app in copied if app not in gone)
    else:
        slots = pending.modifies.get(version, {})
        edited = chain(
            (app for app in copied if app not in slots),
            (
                (method, args, new)
                for (method, args, _old), results in slots.items()
                for new in results
            ),
        )
    return {Fact(version, *app) for app in edited}


def _active_edits(
    version: VersionId, live: Iterable[Fact], pending: PendingUpdates
) -> tuple[list[Fact], list[Fact]]:
    """Step 3 for an active version (step 2 copies it from itself): the
    exact ``(added, removed)`` that turn its ``live`` state into the edited
    one."""
    kind = version.kind
    if kind is UpdateKind.INSERT:
        facts = (Fact(version, *app) for app in pending.inserts.get(version, ()))
        return [fact for fact in facts if fact not in live], []
    if kind is UpdateKind.DELETE:
        facts = (Fact(version, *app) for app in pending.deletes.get(version, ()))
        return [], [fact for fact in facts if fact in live]
    slots = pending.modifies.get(version, {})
    new = {
        Fact(version, method, args, result)
        for (method, args, _old), results in slots.items()
        for result in results
    }
    old = (Fact(version, *app) for app in slots)
    return (
        [fact for fact in new if fact not in live],
        [fact for fact in old if fact in live and fact not in new],
    )
