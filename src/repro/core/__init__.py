"""Core semantics of the update language (the paper's contribution).

Layout mirrors the paper:

* Section 2.1 (language): :mod:`~repro.core.terms`, :mod:`~repro.core.facts`,
  :mod:`~repro.core.atoms`, :mod:`~repro.core.rules`,
  :mod:`~repro.core.safety`
* Section 3 (semantics): :mod:`~repro.core.objectbase`,
  :mod:`~repro.core.truth`, :mod:`~repro.core.consequence`
* Section 4 (evaluation): :mod:`~repro.core.unification` and
  :mod:`~repro.core.substitution` (sorted, docs/DESIGN.md D2),
  :mod:`~repro.core.stratification`, :mod:`~repro.core.grounding`,
  :mod:`~repro.core.evaluation`
* Section 5 (new base): :mod:`~repro.core.linearity`,
  :mod:`~repro.core.newbase`
* Facade: :mod:`~repro.core.engine`, :mod:`~repro.core.query`
"""

from repro.core.atoms import BuiltinAtom, Literal, UpdateAtom, VersionAtom
from repro.core.consequence import TPResult, apply_tp, tp_step
from repro.core.engine import UpdateEngine, UpdateResult
from repro.core.errors import (
    BuiltinError,
    EvaluationError,
    EvaluationLimitError,
    FrozenBaseError,
    ProgramError,
    ReproError,
    SafetyError,
    StratificationError,
    TermError,
    VersionDepthError,
    VersionLinearityError,
)
from repro.core.evaluation import (
    CompiledProgram,
    EvaluationOptions,
    EvaluationOutcome,
    compile_program,
    evaluate,
)
from repro.core.exprs import BinOp, Neg
from repro.core.facts import EXISTS, Fact, exists_fact, make_fact
from repro.core.linearity import (
    LinearityTracker,
    check_version_linear,
    final_versions,
)
from repro.core.newbase import build_new_base
from repro.core.objectbase import Delta, ObjectBase
from repro.core.rules import UpdateProgram, UpdateRule
from repro.core.safety import check_program_safety, check_rule_safety, is_safe
from repro.core.stratification import Stratification, precedence_edges, stratify
from repro.core.terms import (
    Oid,
    Term,
    UpdateKind,
    Var,
    VersionId,
    VersionVar,
    depth,
    is_ground,
    is_subterm,
    object_of,
    subterms,
    wrap,
)
from repro.core.trace import EvaluationTrace

__all__ = [
    # terms
    "Oid", "Var", "VersionVar", "VersionId", "Term", "UpdateKind",
    "depth", "is_ground", "is_subterm", "object_of", "subterms", "wrap",
    # facts & atoms
    "EXISTS", "Fact", "make_fact", "exists_fact",
    "VersionAtom", "UpdateAtom", "BuiltinAtom", "Literal", "BinOp", "Neg",
    # rules & programs
    "UpdateRule", "UpdateProgram",
    "check_rule_safety", "check_program_safety", "is_safe",
    # object base & semantics
    "ObjectBase", "Delta", "tp_step", "apply_tp", "TPResult",
    # stratification & evaluation
    "Stratification", "stratify", "precedence_edges",
    "evaluate", "compile_program", "CompiledProgram",
    "EvaluationOptions", "EvaluationOutcome", "EvaluationTrace",
    # linearity & new base
    "LinearityTracker", "check_version_linear", "final_versions",
    "build_new_base",
    # facade
    "UpdateEngine", "UpdateResult",
    # errors
    "ReproError", "TermError", "FrozenBaseError", "ProgramError", "SafetyError",
    "StratificationError", "EvaluationError", "EvaluationLimitError",
    "VersionDepthError", "VersionLinearityError", "BuiltinError",
]
