"""The object base: a set of ground version-terms with indexes.

An object base (Section 2.1) is a set of ground version-terms.  The *state*
of a version ``v`` w.r.t. the base is the set of all method-applications
derivable from its version-terms.  This module adds:

* hash indexes by method, by host, and by (host, method) — the access paths
  of the rule matcher;
* ``exists`` bookkeeping (Section 3): ``o.exists -> o`` is defined for every
  object of the initial base, copies propagate it to derived versions, and
  it can never be updated, so even a fully-deleted version survives as
  ``del(v).exists -> o``;
* the ``v*`` operator of Section 3: the largest subterm of a VID whose
  ``exists`` fact is present — the state a head update is checked against
  and copied from.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.core.errors import FrozenBaseError, TermError
from repro.core.facts import EXISTS, Fact, exists_fact, make_fact
from repro.core.terms import (
    Oid,
    Term,
    VersionId,
    is_ground,
    kind_chain,
    object_of,
)

__all__ = ["ObjectBase", "Delta"]

#: The access-path vocabulary of the engine: a ``(method, arity)`` pair.
MethodKey = tuple[str, int]

#: The update-functor chain of a host, outermost first (``terms.kind_chain``).
Shape = tuple[str, ...]


class Delta:
    """The structured outcome of one ``apply_tp``: which facts entered and
    left the base.

    This is what makes semi-naive evaluation possible: instead of a bare
    ``changed`` bool, the fixpoint loop learns *what* changed, and the rule
    dependency index (:mod:`repro.core.plans`) uses the ``(method, arity)``
    keys and host shapes of the delta to decide which rules can possibly
    derive anything new.

    Truthiness is "did the base change", so legacy ``if not apply_tp(...)``
    call sites keep working unchanged.
    """

    __slots__ = (
        "added",
        "removed",
        "_added_runs",
        "_removed_runs",
        "_added_index",
        "_removed_index",
        "_added_shapes",
        "_removed_shapes",
    )

    def __init__(self) -> None:
        self.added: list[Fact] = []
        self.removed: list[Fact] = []
        #: One ``(shape, end)`` per :meth:`record`: the facts up to index
        #: ``end`` share the host shape ``shape`` (``None``: no host given,
        #: each fact's own).
        self._added_runs: list[tuple[Shape | None, int]] = []
        self._removed_runs: list[tuple[Shape | None, int]] = []
        self._added_index: dict[MethodKey, dict[Shape, list[Fact]]] | None = None
        self._removed_index: dict[MethodKey, set[Shape]] | None = None
        self._added_shapes: set[Shape] | None = None
        self._removed_shapes: set[Shape] | None = None

    def __bool__(self) -> bool:
        return bool(self.added or self.removed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Delta(+{len(self.added)}, -{len(self.removed)})"

    def record(
        self,
        added: Iterable[Fact],
        removed: Iterable[Fact],
        host: Term | None = None,
    ) -> None:
        """Accumulate one state diff (invalidates the indexes).  ``host``,
        when every fact of the diff is hosted on one version, lets the
        indexes take the host shape once instead of once per fact."""
        shape = None if host is None else kind_chain(host)
        self.added.extend(added)
        self.removed.extend(removed)
        self._added_runs.append((shape, len(self.added)))
        self._removed_runs.append((shape, len(self.removed)))
        self._added_index = None
        self._removed_index = None
        self._added_shapes = None
        self._removed_shapes = None

    # -- indexes for the dependency check --------------------------------
    def added_index(self) -> dict[MethodKey, dict[Shape, list[Fact]]]:
        """Added facts grouped by ``(method, arity)`` then host shape."""
        if self._added_index is None:
            index: dict[MethodKey, dict[Shape, list[Fact]]] = {}
            for shape, facts in _shaped(self.added, self._added_runs):
                for fact in facts:
                    key = (fact.method, len(fact.args))
                    index.setdefault(key, {}).setdefault(shape, []).append(fact)
            self._added_index = index
        return self._added_index

    def removed_index(self) -> dict[MethodKey, set[Shape]]:
        """Host shapes of removed facts per ``(method, arity)`` key."""
        if self._removed_index is None:
            index: dict[MethodKey, set[Shape]] = {}
            for shape, facts in _shaped(self.removed, self._removed_runs):
                for fact in facts:
                    index.setdefault((fact.method, len(fact.args)), set()).add(shape)
            self._removed_index = index
        return self._removed_index

    def added_shapes(self) -> set[Shape]:
        """All host shapes with at least one added fact (any method key)."""
        if self._added_shapes is None:
            self._added_shapes = {
                shape for shape, _facts in _shaped(self.added, self._added_runs)
            }
        return self._added_shapes

    def removed_shapes(self) -> set[Shape]:
        """All host shapes with at least one removed fact (any method key)."""
        if self._removed_shapes is None:
            self._removed_shapes = {
                shape for shape, _facts in _shaped(self.removed, self._removed_runs)
            }
        return self._removed_shapes


def _shaped(
    facts: list[Fact], runs: list[tuple[Shape | None, int]]
) -> Iterator[tuple[Shape, list[Fact]]]:
    """One side of a :class:`Delta` as ``(host shape, facts)`` groups."""
    start = 0
    for shape, end in runs:
        if shape is None:
            for fact in facts[start:end]:
                yield kind_chain(fact.host), [fact]
        elif end > start:
            yield shape, facts[start:end]
        start = end


class ObjectBase:
    """A mutable set of facts with the indexes the engine needs.

    The public surface treats the base as a set of :class:`Fact`; mutation
    keeps all indexes synchronous.  :meth:`fork` (and ``copy()``, which is
    the same thing) of a *frozen* base shares every index bucket with it
    and copies a bucket the first time the fork writes to it, so deriving
    a base from a frozen one costs the dict spines plus the buckets
    actually written, never the base; of an unfrozen base it is an eager
    dict/set copy.  :meth:`from_fact_set` adopts a fact set alone and
    builds the four indexes on first use.
    """

    __slots__ = (
        "_facts",
        "_by_method",
        "_by_host",
        "_by_host_method",
        "_by_arg",
        "_exists",
        "_frozen",
        "_owned",
        "_plain",
    )

    def __init__(self, facts: Iterable[Fact] = ()):
        self._facts: set[Fact] = set()
        self._by_method: dict[tuple[str, int], set[Fact]] | None = {}
        self._by_host: dict[Term, set[Fact]] | None = {}
        self._by_host_method: dict[tuple[Term, str, int], set[Fact]] | None = {}
        self._by_arg: dict[MethodKey, dict[int, dict[Oid, set[Fact]]]] = {}
        self._exists: dict[Term, Oid] | None = {}
        self._frozen = False
        #: ``None``: every index bucket is this base's own.  A set: this
        #: base is a fork sharing buckets with a frozen parent, and the
        #: set names the buckets it has made private so far (see ``_own``).
        self._owned: set | None = None
        #: Cached answer of :meth:`is_plain` (``None``: not known).  Only
        #: ever held by a frozen base or a fork, whose writes reset it.
        self._plain: bool | None = None
        for fact in facts:
            self.add(fact)

    # ------------------------------------------------------------------
    # index lifecycle
    # ------------------------------------------------------------------
    def _ensure_indexes(self) -> None:
        if self._by_method is None:
            self._build_indexes()

    def _build_indexes(self) -> None:
        by_method: dict[tuple[str, int], set[Fact]] = {}
        by_host: dict[Term, set[Fact]] = {}
        by_host_method: dict[tuple[Term, str, int], set[Fact]] = {}
        exists: dict[Term, Oid] = {}
        for fact in self._facts:
            mkey = (fact.method, len(fact.args))
            by_method.setdefault(mkey, set()).add(fact)
            by_host.setdefault(fact.host, set()).add(fact)
            by_host_method.setdefault((fact.host, *mkey), set()).add(fact)
            if fact.method == EXISTS and not fact.args:
                exists[fact.host] = fact.result
        self._by_method = by_method
        self._by_host = by_host
        self._by_host_method = by_host_method
        self._by_arg = {}
        self._exists = exists

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_triples(
        cls, triples: Iterable[tuple], *, ensure_exists: bool = True
    ) -> "ObjectBase":
        """Build a base from ``(host, method, result)`` or
        ``(host, method, args, result)`` tuples of plain Python values.

        Hosts must be OID payloads (the initial base contains no versions);
        ``ensure_exists`` adds the Section 3 bookkeeping for every host.
        """
        base = cls()
        for triple in triples:
            if len(triple) == 3:
                host, method, result = triple
                args: tuple = ()
            elif len(triple) == 4:
                host, method, args, result = triple
            else:
                raise TermError(f"expected 3- or 4-tuple, got {triple!r}")
            base.add(
                make_fact(
                    _as_term(host),
                    method,
                    tuple(_as_oid(a) for a in args),
                    _as_oid(result),
                )
            )
        if ensure_exists:
            base.ensure_exists()
        return base

    @classmethod
    def from_fact_set(cls, facts: set[Fact]) -> "ObjectBase":
        """Adopt an already-validated set of ground facts without building
        indexes (they are rebuilt on first indexed access).  Internal fast
        path for bulk construction — the caller must not reuse ``facts``.
        """
        base = cls.__new__(cls)
        base._facts = facts
        base._by_method = None
        base._by_host = None
        base._by_host_method = None
        base._by_arg = {}
        base._exists = None
        base._frozen = False
        base._owned = None
        base._plain = None
        return base

    def copy(self) -> "ObjectBase":
        """An independent mutable copy (:meth:`fork`)."""
        return self.fork()

    # ------------------------------------------------------------------
    # structural sharing (the evaluator's and the versioned store's currency)
    # ------------------------------------------------------------------
    @property
    def frozen(self) -> bool:
        """True when this base is an immutable shared view."""
        return self._frozen

    def freeze(self) -> "ObjectBase":
        """Make this base immutable and return it.

        A frozen base rejects :meth:`add` / :meth:`discard` (and everything
        built on them) with :class:`~repro.core.errors.FrozenBaseError`, so
        it can be handed to any number of readers without defensive copying
        and to any number of forks without copying at all.  Index
        (re)building stays allowed — it only caches derived state.
        Freezing is irreversible; use :meth:`fork` for a mutable private
        base.
        """
        self._frozen = True
        self._owned = None  # no write will ever ask again
        return self

    def fork(self) -> "ObjectBase":
        """A mutable base equal to this one that never writes through to it.

        Forking a **frozen** base is copy-on-write at bucket level: the
        fact set and the dict spines of the indexes are copied (C-level
        ``set.copy()`` / ``dict.copy()``), every bucket is shared, and a
        bucket is copied the first time the fork writes to it.  The buckets
        of hosts the fork creates (``mod(e)``, ``del(mod(e))`` …) are new,
        so an update that touches a few objects copies the handful of
        per-method buckets its facts land in and nothing else.  Sharing is
        safe because the parent's buckets can never change again.

        An unfrozen parent may still write to its buckets, so nothing is
        shared with it: its fork is an eager copy of every bucket (or of
        the fact set alone while its indexes are not built).
        """
        child = ObjectBase.from_fact_set(self._facts.copy())
        if not self._frozen:
            if self._by_method is not None:
                child._by_method = {k: set(v) for k, v in self._by_method.items()}
                child._by_host = {k: set(v) for k, v in self._by_host.items()}
                child._by_host_method = {
                    k: set(v) for k, v in self._by_host_method.items()
                }
                child._exists = dict(self._exists)
            return child
        self._ensure_indexes()
        child._by_method = self._by_method.copy()
        child._by_host = self._by_host.copy()
        child._by_host_method = self._by_host_method.copy()
        child._exists = self._exists.copy()
        # Per-method column spines are copied up front: the (frozen) parent
        # may still *build* new column indexes lazily — from a reader
        # thread, even — and those must not leak into the fork.  The outer
        # copy is atomic; the loop then walks the fork's own dict.
        by_arg = child._by_arg = self._by_arg.copy()
        for mkey, per_column in by_arg.items():
            by_arg[mkey] = per_column.copy()
        child._owned = set()
        return child

    def _own(self, fact: Fact) -> None:
        """The copy-on-write step of a fork (see :meth:`fork`): make private
        every bucket a write of ``fact`` lands in, once per bucket.

        ``_owned`` holds one mark per private bucket.  The marks of the
        three primary indexes are their own keys — ``(method, arity)``,
        the host term, ``(host, method, arity)`` — which cannot collide;
        column-index marks are tagged.
        """
        owned = self._owned
        self._plain = None
        host = fact.host
        method = fact.method
        arity = len(fact.args)
        mkey = (method, arity)
        for index, key in (
            (self._by_method, mkey),
            (self._by_host, host),
            (self._by_host_method, (host, method, arity)),
        ):
            if key not in owned:
                owned.add(key)
                shared = index.get(key)
                if shared is not None:
                    index[key] = shared.copy()
        per_column = self._by_arg.get(mkey)
        if per_column:
            for column, index in per_column.items():
                mark = ("arg", mkey, column)
                if mark not in owned:
                    owned.add(mark)
                    index = per_column[column] = index.copy()
                key = fact.result if column < 0 else fact.args[column]
                mark = ("arg", mkey, column, key)
                if mark not in owned:
                    owned.add(mark)
                    shared = index.get(key)
                    if shared is not None:
                        index[key] = shared.copy()

    def apply_delta(
        self, added: Iterable[Fact], removed: Iterable[Fact]
    ) -> "ObjectBase":
        """A new base equal to this one with ``removed`` taken out and
        ``added`` put in.

        This is how a revision advances, in the engine (``ob'`` = input ⊕
        delta) and in the store (snapshot ⊕ composed deltas): applied to a
        frozen base it is a :meth:`fork` plus the delta's writes, so the
        :class:`Fact` objects and every untouched index bucket are shared
        between the two bases, the derived base is born indexed, and the
        cost is the delta plus the spine copies — never an index rebuild.
        A :meth:`plain <is_plain>` parent hands its plainness on when the
        hosts the delta touched still qualify.  Applied to an unfrozen base
        (nothing to share) only the fact set is derived; its indexes are
        rebuilt on first use.
        """
        added = added if isinstance(added, (set, frozenset, list, tuple)) else list(added)
        removed = (
            removed if isinstance(removed, (set, frozenset, list, tuple)) else list(removed)
        )
        if not self._frozen:
            facts = self._facts.copy()
            facts.difference_update(removed)
            facts.update(added)
            return ObjectBase.from_fact_set(facts)
        child = self.fork()
        for fact in removed:
            child.discard(fact)
        for fact in added:
            child.add(fact)
        if self.is_plain():
            child._plain = all(
                child._host_is_plain(host)
                for host in {fact.host for facts in (added, removed) for fact in facts}
            )
        return child

    # ------------------------------------------------------------------
    # plain bases
    # ------------------------------------------------------------------
    def is_plain(self) -> bool:
        """True when every host is an OID carrying its own ``exists`` fact
        and at least one method-application — the shape of a to-be-updated
        object base, exactly what :func:`~repro.core.newbase.build_new_base`
        emits, and closed under the deltas the engine derives.

        On a plain base :meth:`ensure_exists` has nothing to add, every
        object is its own final version until a rule touches it, and a
        no-op update drops nothing — which is what lets the engine skip
        three base-sized passes.  Establishing it is one pass; the answer
        is cached only where it cannot go stale: on a frozen base, and on a
        fork until its next write.
        """
        plain = self._plain
        if plain is None:
            self._ensure_indexes()
            exists = self._exists
            hosts = 0
            plain = True
            for host, state in self._by_host.items():
                if not state:
                    continue
                hosts += 1
                if len(state) < 2 or host.__class__ is not Oid:
                    plain = False
                    break
                owner = exists.get(host)
                if owner is not host and owner != host:
                    plain = False
                    break
            # one ``exists`` fact per host, the 0-ary one checked above
            plain = plain and hosts == sum(
                len(bucket)
                for (method, _arity), bucket in self._by_method.items()
                if method == EXISTS
            )
            if self._frozen:
                self._plain = plain
        return plain

    def _host_is_plain(self, host: Term) -> bool:
        """:meth:`is_plain`, for one host (absent hosts qualify)."""
        state = self._by_host.get(host)
        if not state:
            return True
        return (
            host.__class__ is Oid
            and len(state) > 1
            and self._exists.get(host) == host
            and sum(1 for fact in state if fact.method == EXISTS) == 1
        )

    # ------------------------------------------------------------------
    # set protocol
    # ------------------------------------------------------------------
    def __contains__(self, fact: Fact) -> bool:
        return fact in self._facts

    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._facts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ObjectBase):
            return self._facts == other._facts
        return NotImplemented

    def difference(self, other: "ObjectBase | set[Fact] | frozenset[Fact]") -> set[Fact]:
        """The facts of this base that ``other`` — a base or a set of
        facts — does not hold."""
        return self._facts - (other._facts if isinstance(other, ObjectBase) else other)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        versions = "?" if self._exists is None else len(self._exists)
        return f"ObjectBase({len(self._facts)} facts, {versions} versions)"

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, fact: Fact) -> bool:
        """Insert ``fact``; returns True when the base changed."""
        if fact in self._facts:
            return False
        if self._frozen:
            raise FrozenBaseError(
                f"cannot add {fact} to a frozen base; copy() it first"
            )
        host = fact.host
        if not is_ground(host):
            raise TermError(f"object bases hold ground facts only, got {fact}")
        if self._owned is not None:
            self._own(fact)
        self._ensure_indexes()
        self._facts.add(fact)
        method = fact.method
        arity = len(fact.args)
        try:
            self._by_method[(method, arity)].add(fact)
        except KeyError:
            self._by_method[(method, arity)] = {fact}
        try:
            self._by_host[host].add(fact)
        except KeyError:
            self._by_host[host] = {fact}
        hkey = (host, method, arity)
        try:
            self._by_host_method[hkey].add(fact)
        except KeyError:
            self._by_host_method[hkey] = {fact}
        per_column = self._by_arg.get((method, arity))
        if per_column:
            for column, index in per_column.items():
                key = fact.result if column < 0 else fact.args[column]
                try:
                    index[key].add(fact)
                except KeyError:
                    index[key] = {fact}
        if method == EXISTS and not fact.args:
            self._exists[host] = fact.result
        return True

    def discard(self, fact: Fact) -> bool:
        """Remove ``fact`` if present; returns True when the base changed."""
        if fact not in self._facts:
            return False
        if self._frozen:
            raise FrozenBaseError(
                f"cannot discard {fact} from a frozen base; copy() it first"
            )
        if self._owned is not None:
            self._own(fact)
        self._ensure_indexes()
        self._facts.discard(fact)
        mkey = (fact.method, len(fact.args))
        self._by_method[mkey].discard(fact)
        self._by_host[fact.host].discard(fact)
        self._by_host_method[(fact.host, *mkey)].discard(fact)
        per_column = self._by_arg.get(mkey)
        if per_column:
            for column, index in per_column.items():
                key = fact.result if column < 0 else fact.args[column]
                bucket = index.get(key)
                if bucket is not None:
                    bucket.discard(fact)
        if fact.method == EXISTS and not fact.args:
            self._exists.pop(fact.host, None)
        return True

    def add_state(self, host: Term, state: set[Fact]) -> None:
        """Install ``state`` as the complete state of ``host``, a version
        that has none — step 2 + 3 of ``T_P`` for a fresh version, as one
        write.

        ``state`` is adopted as the host's index bucket (the caller must
        not reuse it), and every other index is updated once per
        ``(method, arity)`` group instead of once per fact.
        """
        if self._frozen:
            raise FrozenBaseError(
                f"cannot add a state for {host} to a frozen base; copy() it first"
            )
        if not is_ground(host):
            raise TermError(f"object bases hold ground facts only, got host {host}")
        self._ensure_indexes()
        if self._by_host.get(host):
            raise TermError(f"add_state({host}): the version already has a state")
        groups: dict[MethodKey, set[Fact]] = {}
        for fact in state:
            if fact.host is not host and fact.host != host:
                raise TermError(
                    f"add_state({host}): fact {fact} hosts a different version"
                )
            mkey = (fact.method, len(fact.args))
            try:
                groups[mkey].add(fact)
            except KeyError:
                groups[mkey] = {fact}
        if not groups:
            return
        owned = self._owned
        if owned is not None:
            # The host and (host, method, arity) buckets are new, hence
            # private; shared per-method and column buckets are copied once.
            self._plain = None
            owned.add(host)
        self._facts.update(state)
        self._by_host[host] = state
        by_method = self._by_method
        for mkey, group in groups.items():
            hkey = (host, *mkey)
            self._by_host_method[hkey] = group
            bucket = by_method.get(mkey)
            if owned is not None:
                owned.add(hkey)
                if mkey not in owned:
                    owned.add(mkey)
                    if bucket is not None:
                        bucket = by_method[mkey] = bucket.copy()
            if bucket is None:
                by_method[mkey] = group.copy()
            else:
                bucket.update(group)
            per_column = self._by_arg.get(mkey)
            if per_column:
                for column in per_column:
                    self._index_column(per_column, mkey, column, group)
            if mkey == (EXISTS, 0):
                for fact in group:
                    self._exists[host] = fact.result

    def _index_column(
        self, per_column: dict, mkey: MethodKey, column: int, facts: set[Fact]
    ) -> None:
        """Enter ``facts`` (all of key ``mkey``) into one built column
        index, copying what a fork still shares (see :meth:`_own`)."""
        index = per_column[column]
        owned = self._owned
        if owned is not None and ("arg", mkey, column) not in owned:
            owned.add(("arg", mkey, column))
            index = per_column[column] = index.copy()
        for fact in facts:
            key = fact.result if column < 0 else fact.args[column]
            bucket = index.get(key)
            if owned is not None and ("arg", mkey, column, key) not in owned:
                owned.add(("arg", mkey, column, key))
                if bucket is not None:
                    bucket = index[key] = bucket.copy()
            if bucket is None:
                index[key] = {fact}
            else:
                bucket.add(fact)

    def add_object(self, oid: Oid | str | int | float) -> Oid:
        """Register a (possibly property-less) object: adds ``o.exists -> o``."""
        oid = _as_oid(oid)
        self.add(exists_fact(oid))
        return oid

    def ensure_exists(self) -> int:
        """Add ``o.exists -> o`` for every OID hosting a method-application.

        Returns the number of facts added.  Called on freshly loaded bases
        (DESIGN.md D3); derived versions get their ``exists`` fact by state
        copying, never through this method.
        """
        self._ensure_indexes()
        added = 0
        for host in list(self._by_host):
            if isinstance(host, Oid) and host not in self._exists:
                if self.add(exists_fact(host)):
                    added += 1
        return added

    def replace_state(self, version: Term, facts: Iterable[Fact]) -> bool:
        """Replace the whole state of ``version`` with ``facts``.

        This is the ``⊕`` of DESIGN.md D1: ``T_P`` recomputes complete new
        states for the relevant versions, and iteration substitutes them.
        Returns True when the stored state actually changed.
        """
        added, removed = self.replace_state_diff(version, facts)
        return bool(added or removed)

    def replace_state_diff(
        self, version: Term, facts: Iterable[Fact]
    ) -> tuple[frozenset[Fact], frozenset[Fact]]:
        """Like :meth:`replace_state`, but returns the ``(added, removed)``
        fact sets — the per-version contribution to the iteration's
        :class:`Delta`.  Only the facts that actually differ are touched,
        so an idempotent re-substitution costs two set differences and no
        index updates.
        """
        new_state = set(facts)
        for fact in new_state:
            if fact.host != version:
                raise TermError(
                    f"replace_state({version}): fact {fact} hosts a different version"
                )
        self._ensure_indexes()
        old_state = self._by_host.get(version)
        if not old_state:
            added = frozenset(new_state)
            removed: frozenset[Fact] = frozenset()
        elif old_state == new_state:
            return frozenset(), frozenset()
        else:
            old = frozenset(old_state)
            added = frozenset(new_state - old)
            removed = frozenset(old - new_state)
        for fact in removed:
            self.discard(fact)
        for fact in added:
            self.add(fact)
        return added, removed

    # ------------------------------------------------------------------
    # lookups (the matcher's access paths)
    # ------------------------------------------------------------------
    def facts_by_method(self, method: str, arity: int) -> frozenset[Fact]:
        self._ensure_indexes()
        return frozenset(self._by_method.get((method, arity), ()))

    def facts_by_host(self, host: Term) -> frozenset[Fact]:
        self._ensure_indexes()
        return frozenset(self._by_host.get(host, ()))

    def facts_by_host_method(self, host: Term, method: str, arity: int) -> frozenset[Fact]:
        self._ensure_indexes()
        return frozenset(self._by_host_method.get((host, method, arity), ()))

    def facts_by_arg(
        self, method: str, arity: int, column: int, value: Oid
    ) -> frozenset[Fact]:
        """Facts of ``method/arity`` whose ``column`` holds ``value``.

        ``column`` addresses an argument position (``0 .. arity-1``) or the
        result position (``-1``) — the secondary access paths the compiled
        join plans select when the host is unbound but an argument or the
        result already is.
        """
        return frozenset(self.iter_facts_by_arg(method, arity, column, value))

    def iter_facts_by_arg(
        self, method: str, arity: int, column: int, value: Oid
    ) -> Iterable[Fact]:
        """Zero-copy variant of :meth:`facts_by_arg` (live bucket; callers
        must not mutate the base while iterating).  The per-column index is
        built on first use and maintained incrementally afterwards — through
        :meth:`add` / :meth:`discard` and across :meth:`apply_delta`."""
        self._ensure_indexes()
        mkey = (method, arity)
        per_column = self._by_arg.get(mkey)
        if per_column is None:
            per_column = self._by_arg[mkey] = {}
        index = per_column.get(column)
        if index is None:
            index = {}
            for fact in self._by_method.get(mkey, ()):
                key = fact.result if column < 0 else fact.args[column]
                try:
                    index[key].add(fact)
                except KeyError:
                    index[key] = {fact}
            per_column[column] = index
        return index.get(value) or ()

    def arg_index_columns(self) -> dict[MethodKey, tuple[int, ...]]:
        """The secondary index columns currently materialized per method
        key (introspection for tests and the cache-stats hook)."""
        return {
            mkey: tuple(sorted(per)) for mkey, per in self._by_arg.items() if per
        }

    def state_of(self, version: Term) -> frozenset[Fact]:
        """All method-applications of ``version`` (including ``exists``)."""
        return self.facts_by_host(version)

    def method_applications(self, version: Term) -> frozenset[Fact]:
        """The state of ``version`` without the ``exists`` bookkeeping."""
        self._ensure_indexes()
        return frozenset(
            f for f in self._by_host.get(version, ()) if f.method != EXISTS
        )

    # -- zero-copy variants for the matcher's inner loop -----------------
    #
    # The ``facts_by_*`` accessors return defensive frozenset copies; the
    # join engine calls them once per search node, which made the copies
    # dominate its profile.  These return the live index sets — callers
    # must not mutate the base while iterating.
    def iter_facts_by_method(self, method: str, arity: int) -> Iterable[Fact]:
        self._ensure_indexes()
        return self._by_method.get((method, arity)) or ()

    def iter_facts_by_host_method(
        self, host: Term, method: str, arity: int
    ) -> Iterable[Fact]:
        self._ensure_indexes()
        return self._by_host_method.get((host, method, arity)) or ()

    def iter_state_of(self, version: Term) -> Iterable[Fact]:
        self._ensure_indexes()
        return self._by_host.get(version) or ()

    def iter_existing_versions(self) -> Iterable[Term]:
        """The keys of the ``exists`` map, without the defensive dict copy
        of :meth:`existing_versions` (same no-mutation caveat as the other
        ``iter_*`` accessors)."""
        self._ensure_indexes()
        return self._exists.keys()

    # ------------------------------------------------------------------
    # versions and objects
    # ------------------------------------------------------------------
    def version_exists(self, version: Term) -> bool:
        """True when ``version.exists -> o`` is in the base."""
        self._ensure_indexes()
        return version in self._exists

    def existing_versions(self) -> Mapping[Term, Oid]:
        """Read-only view of the ``exists`` map (version -> object)."""
        self._ensure_indexes()
        return dict(self._exists)

    def objects(self) -> frozenset[Oid]:
        """The OIDs registered as objects (those with ``o.exists -> o``)."""
        self._ensure_indexes()
        return frozenset(v for v in self._exists if isinstance(v, Oid))

    def versions_of(self, oid: Oid) -> frozenset[Term]:
        """All existing versions of object ``oid`` (including ``oid``)."""
        self._ensure_indexes()
        return frozenset(
            version
            for version, owner in self._exists.items()
            if owner == oid and object_of(version) == oid
        )

    def v_star(self, version: Term) -> Term | None:
        """Section 3's ``v*``: the largest subterm of ``version`` whose
        ``exists`` fact is present; ``None`` when no subterm exists.

        For a version that exists itself this is the version; for a VID that
        "skips" levels (e.g. ``del(mod(e))`` when no modify ever ran on
        ``e``) it is the deepest existing predecessor, whose state the update
        is checked against and copied from.
        """
        self._ensure_indexes()
        exists = self._exists
        while version not in exists:
            if version.__class__ is not VersionId:
                return None
            version = version.base
        return version

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def oid_universe(self) -> frozenset[Oid]:
        """Every OID occurring anywhere in the base (hosts' innermost
        objects, arguments and results).  This is the active domain used by
        the brute-force reference matcher in tests."""
        oids: set[Oid] = set()
        for fact in self._facts:
            oids.add(object_of(fact.host))
            oids.update(fact.args)
            oids.add(fact.result)
        return frozenset(oids)

    def sorted_facts(self) -> list[Fact]:
        """Facts in a stable display order (for traces, dumps and tests):
        by object, then version, then method, arguments and result.

        Sorted host by host, so that the key tuples alive at any moment are
        one per host plus one state's worth.  One sort over every fact
        holds a key per fact: at 42 k facts three times the time, and
        young containers enough to bring a full collection forward into
        the snapshot write that asked for the order."""
        by_host = self._by_host
        if by_host is None:
            by_host = {}
            for fact in self._facts:
                by_host.setdefault(fact.host, []).append(fact)
        ordered: list[Fact] = []
        for host in sorted(by_host, key=_host_sort_key):
            ordered.extend(sorted(by_host[host], key=_state_sort_key))
        return ordered


def _as_oid(value) -> Oid:
    if isinstance(value, Oid):
        return value
    return Oid(value)


def _as_term(value) -> Term:
    if isinstance(value, (Oid, VersionId)):
        return value
    return Oid(value)


def _host_sort_key(host: Term):
    return (str(object_of(host)), str(host))


def _state_sort_key(fact: Fact):
    return (fact.method, tuple(str(a) for a in fact.args), str(fact.result))
