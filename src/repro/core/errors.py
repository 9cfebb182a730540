"""Exception hierarchy for the update-language engine.

Every error raised by :mod:`repro.core` derives from :class:`ReproError`, so
callers can catch the whole family with a single ``except`` clause while the
engine keeps the specific failure modes of the paper distinguishable:

* :class:`StratificationError` — the program violates conditions (a)-(d) of
  Section 4 (a cycle in the rule-precedence graph contains a strict edge).
* :class:`VersionLinearityError` — the run-time check of Section 5 found two
  incomparable versions of the same object.
* :class:`SafetyError` — a rule is unsafe in the sense of [Ull88] (a variable
  is not limited by the positive body).
* :class:`EvaluationLimitError` — the per-stratum iteration cap was exceeded
  (possible with arithmetic in recursive rules; see docs/DESIGN.md D7);
  :class:`VersionDepthError` is its depth-guard variant.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the reproduction library."""


class TermError(ReproError):
    """An ill-formed term was constructed or used (e.g. a non-ground VID
    where a ground one is required, or ``object_of`` on a variable)."""


class FrozenBaseError(ReproError):
    """A mutation was attempted on a frozen (shared, immutable) object base.

    Frozen bases are the structural-sharing currency of the versioned store:
    ``VersionedStore.current`` / ``as_of`` hand out the *same* object to every
    reader instead of copying, which is only sound because mutation is
    rejected.  Call ``base.copy()`` to obtain a private mutable base.
    """


class ProgramError(ReproError):
    """An ill-formed rule or program (e.g. ``exists`` in a rule head)."""


class SafetyError(ProgramError):
    """A rule is unsafe: some variable is not limited by the positive body.

    Attributes
    ----------
    rule_name:
        Human-readable identifier of the offending rule.
    unlimited:
        The names of the variables that could not be limited.
    """

    def __init__(self, rule_name: str, unlimited: tuple[str, ...]):
        self.rule_name = rule_name
        self.unlimited = unlimited
        names = ", ".join(sorted(unlimited))
        super().__init__(
            f"rule {rule_name!r} is unsafe: variable(s) {names} are not "
            f"limited by the positive body"
        )


class StratificationError(ProgramError):
    """The program has no stratification satisfying conditions (a)-(d).

    Attributes
    ----------
    cycle:
        Names of the rules on the offending cycle (in order), if known.
    """

    def __init__(self, message: str, cycle: tuple[str, ...] = ()):
        self.cycle = cycle
        super().__init__(message)


class EvaluationError(ReproError):
    """Base class for errors raised while evaluating a program."""


class EvaluationLimitError(EvaluationError):
    """The iteration cap for a stratum was exceeded (docs/DESIGN.md D7)."""

    def __init__(self, stratum: int, limit: int):
        self.stratum = stratum
        self.limit = limit
        super().__init__(
            f"stratum {stratum} did not reach a fixpoint within {limit} "
            f"iterations; the program probably generates unboundedly many "
            f"values (e.g. arithmetic in a recursive rule)"
        )


class VersionDepthError(EvaluationLimitError):
    """A created version exceeded the configured functor-depth guard
    (``max_version_depth``, docs/DESIGN.md D7 / Section 6 extension)."""

    def __init__(self, stratum: int, limit: int, version):
        self.version = version
        # bypass the parent message: the cap here is a depth, not a round count
        EvaluationError.__init__(
            self,
            f"stratum {stratum} created version {version} deeper than the "
            f"configured max_version_depth of {limit}",
        )
        self.stratum = stratum
        self.limit = limit


class VersionLinearityError(EvaluationError):
    """Two incomparable versions of one object were derived (Section 5).

    Attributes
    ----------
    object_id:
        The object whose versions ceased to be linear.
    previous, offending:
        The two incomparable version identities.
    """

    def __init__(self, object_id, previous, offending):
        self.object_id = object_id
        self.previous = previous
        self.offending = offending
        super().__init__(
            f"versions of object {object_id} are not linear: "
            f"{offending} does not contain the previous version {previous} "
            f"as a subterm"
        )


class BuiltinError(EvaluationError):
    """An arithmetic built-in was applied to non-numeric operands."""
