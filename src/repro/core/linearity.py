"""Version-linearity — the run-time check of Section 5.

``result(P)`` is *version-linear* when for any two VIDs ``v``, ``v'`` of the
same object one is a subterm of the other.  Whether a program stays linear
is undecidable in general, so the paper prescribes a cheap run-time check:
keep the most recent VID per object and require every newly created version
to contain it as a subterm.

:class:`LinearityTracker` implements exactly that; the new-object-base
construction uses the tracked maxima as the *final versions*.
"""

from __future__ import annotations

from repro.core.errors import VersionLinearityError
from repro.core.objectbase import ObjectBase
from repro.core.terms import Oid, Term, depth, is_subterm, object_of

__all__ = ["LinearityTracker", "check_version_linear", "final_versions"]


class LinearityTracker:
    """Incremental version-linearity check (Section 5).

    Feed every newly materialised version through :meth:`observe`; the
    tracker raises :class:`VersionLinearityError` the moment two
    incomparable versions of one object appear.
    """

    def __init__(self) -> None:
        self._latest: dict[Oid, Term] = {}

    @property
    def latest(self) -> dict[Oid, Term]:
        """The most recent version per object, so far."""
        return dict(self._latest)

    def observe(self, version: Term) -> None:
        """Record a newly created version and enforce linearity."""
        owner = object_of(version)
        previous = self._latest.get(owner)
        if previous is None:
            self._latest[owner] = version
            return
        if is_subterm(previous, version):
            self._latest[owner] = version
            return
        if is_subterm(version, previous):
            return  # an older stage resurfacing is fine (it is comparable)
        raise VersionLinearityError(owner, previous, version)

    def seed_from(self, base: ObjectBase) -> None:
        """Prime the tracker with the versions already present in ``base``.

        Needed only when ``base`` may hold proper versions, or when
        :attr:`latest` must name every object.  On a plain base
        (``ObjectBase.is_plain``) every entry would read ``o -> o``, and
        ``o`` is a subterm of any version :meth:`observe` can later see for
        it — the unseeded tracker reaches the same verdicts and records
        exactly the objects that got a new version, which is what the
        evaluator relies on to stay proportional to the update."""
        for version in base.existing_versions():
            self.observe_initial(version)

    def observe_initial(self, version: Term) -> None:
        """Like :meth:`observe` but keeps the deeper of two comparable
        versions without insisting on creation order (used for seeding)."""
        owner = object_of(version)
        previous = self._latest.get(owner)
        if previous is None or (
            is_subterm(previous, version) and depth(version) > depth(previous)
        ):
            self._latest[owner] = version
        elif not (is_subterm(previous, version) or is_subterm(version, previous)):
            raise VersionLinearityError(owner, previous, version)


def check_version_linear(base: ObjectBase) -> dict[Oid, Term]:
    """Check a finished ``result(P)`` for version-linearity in one pass.

    Returns the final version per object on success; raises
    :class:`VersionLinearityError` otherwise.  This is the *a posteriori*
    formulation of Section 5, useful when evaluation ran with the
    incremental check disabled.
    """
    finals: dict[Oid, Term] = {}
    for version in sorted(base.existing_versions(), key=depth):
        owner = object_of(version)
        current = finals.get(owner)
        if current is None:
            finals[owner] = version
        elif is_subterm(current, version):
            finals[owner] = version
        elif not is_subterm(version, current):
            raise VersionLinearityError(owner, current, version)
    return finals


def final_versions(base: ObjectBase) -> dict[Oid, Term]:
    """The final version of every object of ``base`` (Section 5): the VID
    containing all the object's other VIDs as subterms."""
    return check_version_linear(base)
