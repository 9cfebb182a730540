"""A stratified Datalog engine — the substrate of the paper's language.

Section 2.1: "The language introduced so far can be considered as a variant
of stratified Datalog: methods correspond to predicates."  This subpackage
implements that substrate in full — negation, comparison/arithmetic
built-ins, stratification, naive and semi-naive bottom-up evaluation, plus
the *inflationary* mode the Logres baseline (Section 2.4) needs.

Terms are shared with :mod:`repro.core`: constants are
:class:`~repro.core.terms.Oid`, variables :class:`~repro.core.terms.Var`,
and built-ins reuse :class:`~repro.core.atoms.BuiltinAtom`.
"""

from repro.datalog.ast import DatalogProgram, DatalogRule, PredicateAtom, body_literal
from repro.datalog.database import Database
from repro.datalog.engine import DatalogEngine
from repro.datalog.parser import (
    parse_datalog,
    parse_datalog_database,
    parse_datalog_program,
)
from repro.datalog.stratify import DatalogStratification, stratify_datalog

__all__ = [
    "PredicateAtom",
    "DatalogRule",
    "DatalogProgram",
    "body_literal",
    "Database",
    "DatalogEngine",
    "DatalogStratification",
    "stratify_datalog",
    "parse_datalog",
    "parse_datalog_program",
    "parse_datalog_database",
]
