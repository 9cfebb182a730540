"""The high-level facade: run an update-program against an object base.

The paper conceives an update-program as a mapping from an (old) object base
into a (new) object base (Section 2.2).  :class:`UpdateEngine` packages that
pipeline — safety check, stratification, stratum-wise fixpoint, linearity
check, new-base construction — behind one call::

    engine = UpdateEngine()
    outcome = engine.apply(program, base)
    outcome.new_base          # ob'
    outcome.added             # ob' - ob  (with outcome.removed: the delta)
    outcome.result_base       # result(P), all versions
    outcome.final_versions    # object -> final VID
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace

from repro.core.evaluation import (
    CompiledProgram,
    EvaluationOptions,
    EvaluationOutcome,
    compile_program,
    evaluate,
)
from repro.core.facts import Fact
from repro.core.newbase import build_new_base, touched_states
from repro.core.objectbase import ObjectBase
from repro.core.rules import UpdateProgram
from repro.core.stratification import Stratification
from repro.core.trace import EvaluationTrace

__all__ = ["UpdateEngine", "UpdateResult", "CompiledProgram", "update_result"]


@dataclass
class UpdateResult:
    """Everything produced by one update-process.

    Attributes
    ----------
    new_base:
        The updated object base ``ob'`` (Section 5).
    outcome:
        The evaluation behind it; ``result_base``, ``final_versions``,
        ``stratification``, ``trace`` and ``iterations`` read through.
    delta:
        ``(added, removed)`` where the engine already had to cancel it to
        build ``new_base``; otherwise derived on first read.
    added / removed:
        The exact set difference between the input base and ``new_base``
        (disjoint).  A store commits this pair as the revision's delta
        instead of rediscovering it by comparing two bases.
    result_base:
        ``result(P)`` — the fixpoint containing *all* versions created
        during the process; useful for audits and hypothetical reasoning.
    final_versions:
        The final VID per object, e.g. ``phil -> ins(mod(phil))``
        (materialised on first read).
    stratification:
        The rule strata the evaluation followed.
    trace:
        The recorded evaluation history (empty unless tracing was enabled).
    iterations:
        Total number of ``T_P`` applications.
    """

    new_base: ObjectBase
    outcome: EvaluationOutcome
    delta: tuple[set[Fact], set[Fact]] | None = None

    def _exact_delta(self) -> tuple[set[Fact], set[Fact]]:
        if self.delta is None:
            came, went = touched_states(self.outcome.result_base, self.outcome.tracked)
            self.delta = came - went, went - came
        return self.delta

    @property
    def added(self) -> set[Fact]:
        return self._exact_delta()[0]

    @property
    def removed(self) -> set[Fact]:
        return self._exact_delta()[1]

    @property
    def result_base(self) -> ObjectBase:
        return self.outcome.result_base

    @property
    def final_versions(self) -> dict:
        return self.outcome.final_versions

    @property
    def stratification(self) -> Stratification:
        return self.outcome.stratification

    @property
    def trace(self) -> EvaluationTrace:
        return self.outcome.trace

    @property
    def iterations(self) -> int:
        return self.outcome.iterations


def update_result(base: ObjectBase, outcome: EvaluationOutcome) -> UpdateResult:
    """Section 5's last step: ``ob'`` and its delta from a finished
    evaluation of some program on ``base``.

    After a plain input, ``ob'`` is ``base`` with the states of the objects
    the program touched exchanged
    (:func:`~repro.core.newbase.touched_states`): the work is proportional
    to the update.  A frozen ``base`` — a store's head — is advanced by the
    exact delta, so the new base shares every index bucket that did not
    really change and is born indexed.  With a caller's own mutable base
    nothing can be shared: ``ob'`` is literally (``base`` − went) ∪ came,
    two set operations, with ``came`` adopted as the new fact set rather
    than copied into one; cancelling what stayed would add a comparison
    per fact, so the exact delta is left to whoever reads it.  Any other
    input — version-hosted facts, objects holding only ``exists``, no
    linearity record — takes the defining base-sized pass,
    :func:`~repro.core.newbase.build_new_base`.
    """
    delta = None
    if outcome.plain:
        came, went = touched_states(outcome.result_base, outcome.tracked)
        if base.frozen:
            came, went = delta = came - went, went - came
            new_base = base.apply_delta(came, went)
        else:
            came.update(base.difference(went))
            new_base = ObjectBase.from_fact_set(came)
    else:
        new_base = build_new_base(outcome.result_base, outcome.tracked or None)
        delta = new_base.difference(base), base.difference(new_base)
    return UpdateResult(new_base, outcome, delta)


class UpdateEngine:
    """Configurable runner for update-programs.

    Keyword arguments mirror :class:`~repro.core.evaluation.EvaluationOptions`
    (trace collection, linearity checking, iteration caps, object creation).
    The program-independent behaviour is stateless; the engine additionally
    keeps an LRU cache of :class:`CompiledProgram` artifacts keyed by program
    identity (its rule tuple — structurally equal programs share an entry,
    so re-parsing the same text still hits), bounded by
    ``compile_cache_size``.  Repeated ``apply``/``evaluate`` of the same
    program therefore pays the safety check, the stratification and the join
    plans exactly once.
    """

    def __init__(self, *, compile_cache_size: int = 64, **option_overrides) -> None:
        self.options = EvaluationOptions(**option_overrides)
        self.compile_cache_size = compile_cache_size
        self._compiled: OrderedDict[tuple, CompiledProgram] = OrderedDict()

    def with_options(self, **option_overrides) -> "UpdateEngine":
        """A copy of this engine with some options changed (fresh cache)."""
        engine = UpdateEngine.__new__(UpdateEngine)
        engine.options = replace(self.options, **option_overrides)
        engine.compile_cache_size = self.compile_cache_size
        engine._compiled = OrderedDict()
        return engine

    def compile(self, program: UpdateProgram) -> CompiledProgram:
        """The cached static artifact for ``program`` under this engine's
        options (compiling on a miss)."""
        if self.compile_cache_size <= 0:
            return compile_program(program, self.options)
        key = program.rules
        compiled = self._compiled.get(key)
        if compiled is not None:
            self._compiled.move_to_end(key)
            return compiled
        compiled = compile_program(program, self.options)
        self._compiled[key] = compiled
        while len(self._compiled) > self.compile_cache_size:
            self._compiled.popitem(last=False)
        return compiled

    def evaluate(
        self, program: UpdateProgram, base: ObjectBase
    ) -> EvaluationOutcome:
        """Compute ``result(P)`` only (no new-base construction)."""
        return evaluate(program, base, self.options, compiled=self.compile(program))

    def apply(self, program: UpdateProgram, base: ObjectBase) -> UpdateResult:
        """Run the full update-process: ``ob`` → ``result(P)`` → ``ob'``."""
        return update_result(base, self.evaluate(program, base))
