"""Bottom-up evaluation — Section 4 of the paper.

Evaluation proceeds stratum by stratum: within a stratum, ``T_P`` is applied
repeatedly (substituting the recomputed version states, docs/DESIGN.md D1) until
the object base stops changing; the result of the lower strata is the input
of the next.  For programs satisfying conditions (a)-(d) the per-stratum
head set grows monotonically, so this terminates in a fixpoint —
``result(P)``.

The fixpoint is **semi-naive**: ``apply_tp`` reports a structured
:class:`~repro.core.objectbase.Delta` of added/removed facts, and from the
second iteration of a stratum onward each rule is classified against that
delta by its precompiled dependency signature (:mod:`repro.core.plans`) —
rules that cannot read anything that changed are skipped, rules whose only
exposure is a positive version-term are re-matched starting from the new
facts, and everything else is re-matched in full.  The per-iteration cost is
thus proportional to the size of the change, not of the base.  Rule bodies
run as generated plan functions (:mod:`repro.core.codegen`).  This is the one
execution path; the naive fixpoint that recomputes ``T¹`` from scratch each
iteration is the differential oracle in :mod:`repro.testing.reference`.

The version-linearity check of Section 5 runs incrementally during
evaluation (the paper: "its realization seems to be not expensive"; E7
benchmarks that claim).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from repro.core.codegen import CompiledRule, Constants, compiled_rule
from repro.core.consequence import apply_tp, tp_step
from repro.core.errors import EvaluationLimitError, ProgramError, VersionDepthError
from repro.core.linearity import LinearityTracker
from repro.core.objectbase import ObjectBase
from repro.core.rules import UpdateProgram
from repro.core.safety import check_program_safety
from repro.core.stratification import Stratification, stratify
from repro.core.terms import Oid, Term, VersionVar, depth, variables_of
from repro.core.trace import EvaluationTrace, IterationRecord
from repro.obs import metrics as _obs

__all__ = [
    "CompiledProgram",
    "EvaluationOptions",
    "EvaluationOutcome",
    "compile_program",
    "evaluate",
]


@dataclass(frozen=True)
class EvaluationOptions:
    """Tunable behaviour of the evaluator.

    max_iterations_per_stratum:
        Guard against value-generating recursion (docs/DESIGN.md D7).
    check_linearity:
        Run the Section 5 check incrementally (raises on violation).
    create_missing_objects:
        Allow ``ins`` on OIDs unknown to the base to create objects
        (docs/DESIGN.md D3; the strict paper reading is False).
    collect_trace / collect_snapshots:
        Record a :class:`~repro.core.trace.EvaluationTrace`, optionally with
        full object-base snapshots per iteration (Figure 2 reproduction).
    max_version_depth:
        Belt-and-braces termination guard on the functor depth of created
        versions (safe programs bound it by construction; the Section 6
        VID-variable extension and ``create_missing_objects`` loops do not).
    """

    max_iterations_per_stratum: int = 10_000
    check_linearity: bool = True
    create_missing_objects: bool = False
    collect_trace: bool = False
    collect_snapshots: bool = False
    max_version_depth: int | None = None


@dataclass
class EvaluationOutcome:
    """``result(P)`` plus everything the run learned along the way.

    ``tracked`` is what the incremental linearity check recorded: the most
    recent version per object (empty when the check was off).  When the
    input base was :meth:`plain <repro.core.objectbase.ObjectBase.is_plain>`
    — ``plain`` is set — the tracker was never seeded, so ``tracked`` holds
    exactly the objects some rule head created a version of, and every
    other object is its own final version.
    """

    result_base: ObjectBase
    stratification: Stratification
    trace: EvaluationTrace
    tracked: dict[Oid, Term]
    iterations: int
    plain: bool = False

    @cached_property
    def final_versions(self) -> dict[Oid, Term]:
        """The final version of every object (Section 5), untouched ones
        included — materialised on first read, since after a plain input
        that is the one base-sized thing left to compute."""
        if not self.plain:
            return self.tracked
        finals: dict[Oid, Term] = {
            version: version
            for version in self.result_base.iter_existing_versions()
            if version.__class__ is Oid
        }
        finals.update(self.tracked)
        return finals


@dataclass(frozen=True)
class CompiledProgram:
    """The reusable static artifact of one update-program.

    Everything :func:`evaluate` derives from the program alone is computed
    once here and reused across every subsequent evaluation of the same
    program, whatever the base: the head-variable rejection, the safety
    check and the stratification it holds, and each rule's
    :class:`~repro.core.codegen.CompiledRule` (dependency signature, join
    plan, generated executor), held per stratum in ``strata`` — what
    :func:`~repro.core.consequence.tp_step` runs.  This is what lets the
    versioned store run long chains of ``store.apply`` at per-update cost
    proportional to the update, not to the program analysis.

    A program that differs from this one only in its constants, with the
    same ones equal, gets its artifact from :meth:`bind` without
    stratifying, planning or compiling anything (a parsed text's shape,
    :mod:`repro.lang.shapes`).
    """

    stratification: Stratification
    strata: tuple[tuple[CompiledRule, ...], ...]

    def bind(self, program: UpdateProgram, constants: Constants) -> "CompiledProgram":
        """The artifact of ``program``, whose rules are this program's with
        their OIDs mapped through ``constants`` — which must keep which
        OIDs are equal, since stratification compares them."""
        rules = {rule.name: rule for rule in program}
        return CompiledProgram(
            self.stratification.bind(program, constants),
            tuple(
                tuple(
                    compiled.bind(rules[compiled.rule.name], constants)
                    for compiled in stratum
                )
                for stratum in self.strata
            ),
        )


def compile_program(program: UpdateProgram) -> CompiledProgram:
    """The static artifact of ``program``: the one it carries
    (``program.compiled``), else the static pipeline of :func:`evaluate`
    run once, stored on the program and returned.

    Raises the same :class:`~repro.core.errors.ProgramError` family a direct
    ``evaluate`` call would, and stores nothing, so an invalid program fails
    at compile time — before any base is touched.  The artifact depends on
    the program alone, never on evaluation options.
    """
    if program.compiled is not None:
        return program.compiled
    _reject_version_vars_in_heads(program)
    check_program_safety(program)
    stratification = stratify(program)
    # code generation and its errors happen here, in program order
    compiled = {rule.name: compiled_rule(rule) for rule in program}
    program.compiled = CompiledProgram(
        stratification,
        tuple(
            tuple(compiled[rule.name] for rule in stratum)
            for stratum in stratification
        ),
    )
    return program.compiled


def evaluate(
    program: UpdateProgram,
    base: ObjectBase,
    options: EvaluationOptions | None = None,
    *,
    overlay: Callable[[ObjectBase], ObjectBase] | None = None,
) -> EvaluationOutcome:
    """Compute ``result(P)`` for ``program`` on a fork of ``base``.

    The input base is never mutated; when it is frozen — a store's head —
    the fork shares every index bucket no rule head writes to
    (:meth:`~repro.core.objectbase.ObjectBase.fork`), so evaluation costs
    what the program touches, not the base.  Raises
    :class:`~repro.core.errors.StratificationError`,
    :class:`~repro.core.errors.SafetyError`,
    :class:`~repro.core.errors.VersionLinearityError` or
    :class:`~repro.core.errors.EvaluationLimitError` as applicable.

    The static pipeline runs only when ``program`` does not carry its
    :class:`CompiledProgram` yet (:func:`compile_program`).

    ``overlay`` — when given, every step matches rule bodies against
    ``overlay(working)`` rather than the working base itself (``tp_step``'s
    ``match_base``), recomputed before each step and then discarded.  The
    derived-methods extension passes its view materialisation here
    (:class:`repro.ext.derived.DerivedUpdateEngine`).
    """
    options = options or EvaluationOptions()
    compiled = compile_program(program)
    stratification = compiled.stratification

    # On a plain input there is no ``exists`` fact to add and no version to
    # seed the tracker with: an object's first new version always contains
    # the object itself, so seeding ``o -> o`` could not change a verdict.
    plain = options.check_linearity and base.is_plain()
    working = base.fork()
    tracker = LinearityTracker()
    if not plain:
        working.ensure_exists()
        if options.check_linearity:
            tracker.seed_from(working)

    trace = EvaluationTrace(snapshots=options.collect_snapshots)
    total_iterations = 0

    for stratum_index, (stratum, rules) in enumerate(
        zip(stratification, compiled.strata)
    ):
        record = None
        if options.collect_trace:
            record = trace.open_stratum(
                stratum_index, tuple(rule.name for rule in stratum)
            )
        iteration = 0
        delta = None  # None = first iteration of the stratum: match in full
        while True:
            iteration += 1
            total_iterations += 1
            if iteration > options.max_iterations_per_stratum:
                raise EvaluationLimitError(
                    stratum_index, options.max_iterations_per_stratum
                )
            step = tp_step(
                rules,
                working,
                match_base=None if overlay is None else overlay(working),
                create_missing_objects=options.create_missing_objects,
                collect_fired=options.collect_trace,
                delta=delta,
            )
            if options.max_version_depth is not None:
                for version in step.new_versions:
                    if depth(version) > options.max_version_depth:
                        raise VersionDepthError(
                            stratum_index, options.max_version_depth, version
                        )
            fresh = [
                version
                for version in step.new_versions
                if not working.version_exists(version)
                and not working.state_of(version)
            ]
            delta = apply_tp(working, step)
            changed = bool(delta)
            if _obs.metrics_enabled():
                registry = _obs.registry()
                registry.inc("engine_tp_rounds", 1)
                registry.observe(
                    "engine_delta_size", len(delta.added) + len(delta.removed)
                )
            if options.check_linearity:
                for version in sorted(fresh, key=str):
                    tracker.observe(version)
            if record is not None:
                record.iterations.append(
                    IterationRecord(
                        iteration,
                        tuple(step.fired),
                        tuple(sorted(fresh, key=str)),
                        changed,
                        step.copies,
                        ObjectBase.from_fact_set(set(working))
                        if options.collect_snapshots
                        else None,
                    )
                )
            if not changed:
                break

    tracked = tracker.latest if options.check_linearity else {}
    return EvaluationOutcome(
        working, stratification, trace, tracked, total_iterations, plain
    )


def _reject_version_vars_in_heads(program: UpdateProgram) -> None:
    """Section 6 extension, done carefully: a version variable in a rule
    head would force a strict self-loop under condition (a) (its target
    unifies with every head, including its own), so reject it with a clear
    message instead of a puzzling stratification error."""
    for rule in program:
        for var in variables_of(rule.head.target):
            if isinstance(var, VersionVar):
                raise ProgramError(
                    f"rule {rule.name!r}: version variable {var} cannot "
                    f"occur in a rule head (no stratification satisfying "
                    f"condition (a) could exist); version variables "
                    f"quantify over existing versions in rule bodies only"
                )
