"""Predicate-level stratification for the Datalog substrate ([Ull88]).

The classic construction the paper adapts in Section 4: build the dependency
graph over predicates (an edge ``q -> p`` when ``q`` occurs in the body of a
rule defining ``p``; strict when the occurrence is negated); a program is
stratified iff no cycle passes through a strict edge.  The graph pass is
the update language's own, :func:`repro.core.stratification.levels`: only
the edges differ.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.atoms import BuiltinAtom
from repro.core.stratification import levels
from repro.datalog.ast import DatalogProgram, DatalogRule

__all__ = ["DatalogStratification", "stratify_datalog"]

Key = tuple[str, int]


@dataclass(frozen=True)
class DatalogStratification:
    """Rules grouped by the stratum of their head predicate."""

    strata: tuple[tuple[DatalogRule, ...], ...]
    predicate_stratum: dict[Key, int]

    def __len__(self) -> int:
        return len(self.strata)

    def __iter__(self):
        return iter(self.strata)


def stratify_datalog(program: DatalogProgram) -> DatalogStratification:
    """Stratify by predicates; raise :class:`StratificationError` when a
    negative edge lies on a cycle."""
    idb = program.idb_predicates()
    edges = [
        (literal.atom.key, rule.head.key, not literal.positive)
        for rule in program
        for literal in rule.body
        # built-ins and EDB predicates never move strata
        if not isinstance(literal.atom, BuiltinAtom) and literal.atom.key in idb
    ]

    def describe(lower: Key, upper: Key, cycle: tuple[Key, ...]) -> str:
        return (
            f"Datalog program is not stratified: predicate "
            f"{upper[0]}/{upper[1]} depends negatively on itself through "
            f"{lower[0]}/{lower[1]}"
        )

    predicate_stratum = levels([rule.head.key for rule in program], edges, describe)
    strata: list[list[DatalogRule]] = [
        [] for _ in range(max(predicate_stratum.values(), default=-1) + 1)
    ]
    for rule in program:
        strata[predicate_stratum[rule.head.key]].append(rule)
    return DatalogStratification(
        tuple(tuple(stratum) for stratum in strata), predicate_stratum
    )
