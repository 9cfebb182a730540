"""Building the new object base ``ob'`` from ``result(P)`` — Section 5.

Once ``result(P)`` is version-linear, the updated base is derived by copying,
for each object ``o`` of the original base, the method-applications of its
*final version* (the VID containing all the object's other VIDs as
subterms), re-hosted onto the bare OID ``o``.  An object whose final version
keeps only the ``exists`` bookkeeping has been deleted entirely and does not
appear in ``ob'``; the surviving objects get fresh ``exists`` facts so that
``ob'`` is again a valid to-be-updated object base.

Two formulations live here.  :func:`build_new_base` is the definition, a
pass over every object of ``result(P)``.  :func:`touched_states` is what
the engine runs on a *plain* input (``ObjectBase.is_plain``): there every
object no rule head touched is its own final version and re-hosts onto
itself unchanged, so ``ob'`` is the input with the states of the touched
objects exchanged — work proportional to the update, which the first
formulation stays the oracle of.
"""

from __future__ import annotations

from repro.core.facts import EXISTS, Fact, exists_fact
from repro.core.linearity import final_versions
from repro.core.objectbase import ObjectBase
from repro.core.terms import Oid, Term

__all__ = ["build_new_base", "touched_states"]


def build_new_base(
    result_base: ObjectBase,
    finals: dict[Oid, Term] | None = None,
) -> ObjectBase:
    """Derive ``ob'`` from a finished, version-linear ``result(P)``.

    ``finals`` may be supplied by the evaluator's incremental linearity
    tracker; otherwise the a-posteriori check of
    :func:`repro.core.linearity.final_versions` runs here (and raises on a
    non-linear result).
    """
    if finals is None:
        finals = final_versions(result_base)

    facts: set[Fact] = set()
    for owner, final in finals.items():
        survived = False
        for fact in result_base.iter_state_of(final):
            if fact.method == EXISTS:
                continue
            facts.add(Fact(owner, fact.method, fact.args, fact.result))
            survived = True
        if survived:
            facts.add(exists_fact(owner))
        # An object whose final version holds only `exists` vanished
        # entirely (Section 5's closing remark): no trace of it in ob'.
    return ObjectBase.from_fact_set(facts)


def touched_states(
    result_base: ObjectBase, touched: dict[Oid, Term]
) -> tuple[set[Fact], set[Fact]]:
    """What comes and what goes when a plain base becomes its ``ob'``.

    ``result_base`` is ``result(P)`` of a plain input and ``touched`` maps
    every object some rule head created a version of to its final version
    (the unseeded linearity tracker's record).  Returns ``(came, went)``:
    the re-hosted states of those final versions, and the states the same
    objects had in the input — which ``result(P)`` still holds, since
    ``T_P`` only ever writes version-hosted states.  ``ob'`` is the input
    minus ``went`` plus ``came``.  The two overlap in whatever an update
    left alone — the ``exists`` fact, a frame-copied application, a modify
    to the same value — so the exact delta is their mutual difference
    (``came - went``, ``went - came``); cancelling is left to the caller
    because it compares facts one by one, which a whole-base program on a
    caller's own base has no use for.  A fully deleted object loses its
    ``exists`` fact with the rest; an object the program created has no old
    state to lose.
    """
    came: set[Fact] = set()
    went: set[Fact] = set()
    for owner, final in touched.items():
        new = {
            Fact(owner, fact.method, fact.args, fact.result)
            for fact in result_base.iter_state_of(final)
            if fact.method != EXISTS
        }
        if new:
            new.add(exists_fact(owner))
            came.update(new)
        went.update(result_base.iter_state_of(owner))
    return came, went
