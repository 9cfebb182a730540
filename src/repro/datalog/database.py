"""Fact storage for the Datalog substrate.

A database maps ``(predicate, arity)`` to a set of constant tuples, with an
optional per-position hash index built lazily for join acceleration.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.errors import TermError
from repro.core.terms import Oid

__all__ = ["Database"]

Row = tuple[Oid, ...]
Key = tuple[str, int]


class Database:
    """A mutable set of ground Datalog facts."""

    __slots__ = ("_relations", "_indexes")

    def __init__(self, facts: Iterable[tuple[str, Row]] = ()):
        self._relations: dict[Key, set[Row]] = {}
        # (pred, arity, position) -> value -> set of rows
        self._indexes: dict[tuple[str, int, int], dict[Oid, set[Row]]] = {}
        for name, row in facts:
            self.add(name, row)

    @classmethod
    def from_tuples(cls, facts: Iterable[tuple]) -> "Database":
        """Build from ``(pred, v1, ..., vk)`` tuples of plain Python values."""
        database = cls()
        for fact in facts:
            name, *values = fact
            database.add(name, tuple(Oid(v) if not isinstance(v, Oid) else v for v in values))
        return database

    # -- mutation ---------------------------------------------------------
    def add(self, name: str, row: Row) -> bool:
        for value in row:
            if not isinstance(value, Oid):
                raise TermError(f"database rows hold constants only, got {value!r}")
        key = (name, len(row))
        relation = self._relations.setdefault(key, set())
        if row in relation:
            return False
        relation.add(row)
        for position in range(len(row)):
            index = self._indexes.get((name, len(row), position))
            if index is not None:
                index.setdefault(row[position], set()).add(row)
        return True

    def remove(self, name: str, row: Row) -> bool:
        key = (name, len(row))
        relation = self._relations.get(key)
        if relation is None or row not in relation:
            return False
        relation.discard(row)
        for position in range(len(row)):
            index = self._indexes.get((name, len(row), position))
            if index is not None:
                index.get(row[position], set()).discard(row)
        return True

    # -- lookups ---------------------------------------------------------
    def rows(self, name: str, arity: int) -> set[Row]:
        return self._relations.get((name, arity), set())

    def rows_with(self, name: str, arity: int, position: int, value: Oid) -> set[Row]:
        """Rows of ``name/arity`` whose ``position`` holds ``value`` —
        builds the position index on first use."""
        index_key = (name, arity, position)
        index = self._indexes.get(index_key)
        if index is None:
            index = {}
            for row in self._relations.get((name, arity), ()):
                index.setdefault(row[position], set()).add(row)
            self._indexes[index_key] = index
        return index.get(value, set())

    def __contains__(self, fact: tuple[str, Row]) -> bool:
        name, row = fact
        return row in self._relations.get((name, len(row)), ())

    def __len__(self) -> int:
        return sum(len(rows) for rows in self._relations.values())

    def __iter__(self) -> Iterator[tuple[str, Row]]:
        for (name, _arity), rows in self._relations.items():
            for row in rows:
                yield (name, row)

    def predicates(self) -> frozenset[Key]:
        return frozenset(k for k, rows in self._relations.items() if rows)

    def copy(self) -> "Database":
        clone = Database.__new__(Database)
        clone._relations = {k: set(v) for k, v in self._relations.items()}
        clone._indexes = {}
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        mine = {k: v for k, v in self._relations.items() if v}
        theirs = {k: v for k, v in other._relations.items() if v}
        return mine == theirs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Database({len(self)} facts, {len(self.predicates())} predicates)"
