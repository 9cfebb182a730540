"""The object base: a set of ground version-terms with indexes.

An object base (Section 2.1) is a set of ground version-terms.  The *state*
of a version ``v`` w.r.t. the base is the set of all method-applications
derivable from its version-terms.  This module adds:

* hash indexes by method (then host) and by host — the access paths of
  the rule matcher, and the only place a fact is stored;
* ``exists`` bookkeeping (Section 3): ``o.exists -> o`` is defined for every
  object of the initial base, copies propagate it to derived versions, and
  it can never be updated, so even a fully-deleted version survives as
  ``del(v).exists -> o``.  Which versions exist is read off the host
  buckets of the ``("exists", 0)`` method key;
* the ``v*`` operator of Section 3: the largest subterm of a VID whose
  ``exists`` fact is present — the state a head update is checked against
  and copied from.
"""

from __future__ import annotations

from itertools import chain
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

#: The method key of the ``exists`` bookkeeping facts.
_EXISTS_KEY: MethodKey = (EXISTS, 0)

#: The update-functor chain of a host, outermost first (``terms.kind_chain``).
Shape = tuple[str, ...]

#: How many hash chunks a frozen base splits each index map into.  A key
#: ``k`` lives in chunk ``k._hash >> 16 & mask``: every index key is an
#: :class:`Oid` or a :class:`VersionId` with a cached hash, and the high
#: bits are taken because a chunk dict probes the low bits first.
_CHUNKS = 64

#: One index map: ``mask + 1`` dicts, a key in chunk ``key._hash >> 16 & mask``.
Chunks = list[dict]


def _chunked(flat: dict, mask: int) -> Chunks:
    """The map ``flat`` as ``mask + 1`` chunks (``[flat]`` itself at 0)."""
    if not mask:
        return [flat]
    chunks: Chunks = [{} for _ in range(mask + 1)]
    for key, value in flat.items():
        chunks[key._hash >> 16 & mask][key] = value
    return chunks


def _values(chunks: Chunks) -> Iterator:
    """Every value of a chunked map, chunk by chunk."""
    return chain.from_iterable(map(dict.values, chunks))


def _items(chunks: Chunks) -> Iterator[tuple]:
    """Every ``(key, value)`` of a chunked map, chunk by chunk."""
    return chain.from_iterable(map(dict.items, chunks))


class Delta:
    """The structured outcome of one ``apply_tp``: which facts entered and
    left the base.

    This is what makes semi-naive evaluation possible: instead of a bare
    ``changed`` bool, the fixpoint loop learns *what* changed, and the rule
    dependency index (:mod:`repro.core.plans`) uses the ``(method, arity)``
    keys and host shapes of the delta to decide which rules can possibly
    derive anything new.

    Truthiness is "did the base change": the fixpoint loop's test for the
    end of a stratum.
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
        self._removed_index: dict[MethodKey, dict[Shape, list[Fact]]] | None = None
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
            self._added_index = _indexed(self.added, self._added_runs)
        return self._added_index

    def removed_index(self) -> dict[MethodKey, dict[Shape, list[Fact]]]:
        """Removed facts grouped as :meth:`added_index` groups added ones."""
        if self._removed_index is None:
            self._removed_index = _indexed(self.removed, self._removed_runs)
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


def _indexed(
    facts: list[Fact], runs: list[tuple[Shape | None, int]]
) -> dict[MethodKey, dict[Shape, list[Fact]]]:
    """One side of a :class:`Delta` grouped by ``(method, arity)`` then
    host shape."""
    index: dict[MethodKey, dict[Shape, list[Fact]]] = {}
    for shape, group in _shaped(facts, runs):
        for fact in group:
            key = (fact.method, len(fact.args))
            index.setdefault(key, {}).setdefault(shape, []).append(fact)
    return index


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

    The public surface treats the base as a set of :class:`Fact`, each
    stored in two buckets: its host's bucket under its ``(method, arity)``
    key, and its host's state.  Mutation keeps all indexes synchronous.

    Each index map — host -> state, each method's host -> bucket, each
    built column's value -> bucket — is a list of ``mask + 1`` dicts, a
    key living in chunk ``key._hash >> 16 & mask``.  ``mask`` is 0 (one
    chunk: a plain dict in insertion order) until :meth:`freeze`, which
    splits the maps into :data:`_CHUNKS` chunks once.  Only frozen bases
    are chunked, because only they are forked copy-on-write, and a chunk's
    entries lie scattered across allocation order, which the cyclic
    collector pays for: chunking every base made each full collection of
    a batch round about 20 % longer.

    :meth:`fork` (and ``copy()``, which is the same thing) of a *frozen*
    base shares every chunk and bucket with it and copies a chunk list,
    a chunk and a bucket the first time the fork writes to each, so
    deriving a base from a frozen one costs the spines plus the chunks
    and buckets actually written — about ``|map| / 64`` entries a map,
    never the base; of an unfrozen base it is an eager bucket-by-bucket
    copy.  :meth:`from_fact_set` adopts a fact set alone and builds the
    indexes from it on the first indexed read.
    """

    __slots__ = (
        "_adopted",
        "_by_method",
        "_by_host",
        "_by_arg",
        "_frozen",
        "_mask",
        "_owned",
        "_plain",
    )

    def __init__(self, facts: Iterable[Fact] = ()):
        #: The set :meth:`from_fact_set` adopted (``_by_method`` is then
        #: ``None``) until the indexes are built from it; then ``None``.
        self._adopted: set[Fact] | None = None
        #: The chunk of a key in every index map: ``key._hash >> 16 & mask``.
        self._mask = 0
        #: ``(method, arity)`` -> host -> the facts of that method on that host.
        self._by_method: dict[MethodKey, Chunks] | None = {}
        #: host -> its state (every fact it hosts).
        self._by_host: Chunks | None = [{}]
        #: ``(method, arity)`` -> column -> value -> the facts holding it there.
        self._by_arg: dict[MethodKey, dict[int, Chunks]] = {}
        self._frozen = False
        #: ``None``: every index bucket is this base's own.  A set: this
        #: base is a fork sharing chunks with a frozen parent, and the
        #: set names the chunk lists, chunks and buckets it has made
        #: private so far (see ``_own``).
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
        """Index the adopted set, then drop it.  Safe for concurrent
        readers of a frozen base: the set is read once, and ``_by_method``
        (the flag :meth:`_ensure_indexes` tests) is published after the
        other indexes and before the set is dropped.  The maps are built
        flat, then split by the base's mask."""
        adopted = self._adopted
        if adopted is None:
            return
        by_method: dict[MethodKey, dict[Term, set[Fact]]] = {}
        by_host: dict[Term, set[Fact]] = {}
        for fact in adopted:
            host = fact.host
            hosts = by_method.setdefault((fact.method, len(fact.args)), {})
            hosts.setdefault(host, set()).add(fact)
            by_host.setdefault(host, set()).add(fact)
        mask = self._mask
        self._by_host = _chunked(by_host, mask)
        self._by_method = {mkey: _chunked(hosts, mask) for mkey, hosts in by_method.items()}
        self._adopted = None

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
        indexes: the set protocol (``len``, ``in``, iteration,
        :meth:`difference`) answers from it, and the first indexed read
        builds the indexes from it and drops it.  Internal fast path for
        bulk construction — the caller must not reuse ``facts``.
        """
        base = cls()
        base._adopted = facts
        base._by_method = base._by_host = None
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

        The first freeze of a flat base splits its index maps into
        :data:`_CHUNKS` hash chunks, once, so that a fork's write copies
        one chunk of a map, not the map; with the indexes not built yet it
        only sets the mask, and the lazy build comes out chunked.  A base
        forked from a frozen one is chunked already.
        """
        if self._frozen:
            return self
        if not self._mask:
            mask = _CHUNKS - 1
            if self._by_method is not None:
                self._by_host = _chunked(self._by_host[0], mask)
                self._by_method = {
                    mkey: _chunked(hosts[0], mask) for mkey, hosts in self._by_method.items()
                }
                for per_column in self._by_arg.values():
                    for column, index in per_column.items():
                        per_column[column] = _chunked(index[0], mask)
            self._mask = mask
        self._frozen = True
        self._owned = None  # no write will ever ask again
        return self

    def fork(self) -> "ObjectBase":
        """A mutable base equal to this one that never writes through to it.

        Forking a **frozen** base is copy-on-write at chunk level: the
        ``(method, arity)`` spines of the method and column indexes and
        the host map's list of chunks are copied (one entry per method
        key, per column, per chunk), every chunk and bucket is shared, and
        the fork's first write to a map copies its list of chunks, then
        the chunk the key lands in (≈ ``|map| / 64`` entries), then the
        key's bucket — a method's host map, a host's bucket in it, a
        host's state, a column's value bucket.  The buckets of hosts the
        fork creates (``mod(e)``, ``del(mod(e))`` …) are new, so an update
        that touches a few objects copies a few chunks of the maps its
        facts land in and nothing else.  Sharing is safe because the
        parent's chunks can never change again.

        An unfrozen parent may still write to its buckets, so nothing is
        shared with it: its fork is an eager copy of every bucket (or of
        the adopted set while its indexes are not built).  Either way the
        fork inherits the parent's mask.
        """
        if not self._frozen and self._adopted is not None:
            child = ObjectBase.from_fact_set(self._adopted.copy())
            child._mask = self._mask
            return child
        child = ObjectBase()
        child._mask = self._mask
        if not self._frozen:
            child._by_method = {
                mkey: [{host: set(bucket) for host, bucket in chunk.items()} for chunk in hosts]
                for mkey, hosts in self._by_method.items()
            }
            child._by_host = [
                {host: set(state) for host, state in chunk.items()} for chunk in self._by_host
            ]
            return child
        self._ensure_indexes()
        child._by_method = self._by_method.copy()
        child._by_host = self._by_host.copy()
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
        every chunk list, chunk and bucket a write of ``fact`` lands in,
        once each.

        ``_owned`` holds one mark per private piece, tagged by its kind
        — ``("chunks", map)``, ``("chunk", map, i)``, ``("bucket", map,
        key)`` — where ``map`` names the index map: ``None`` for the host
        map (whose list of chunks every fork owns from birth), the method
        key for a method's host map, ``(method key, column)`` for a column
        index.  The tags keep the three kinds from colliding.
        """
        self._plain = None
        host = fact.host
        mkey = (fact.method, len(fact.args))
        mask = self._mask
        i = host._hash >> 16 & mask
        self._own_entry(self._by_host, None, i, host)
        hosts = self._own_chunks(self._by_method, mkey, mkey)
        if hosts is not None:
            self._own_entry(hosts, mkey, i, host)
        per_column = self._by_arg.get(mkey)
        if per_column:
            for column in per_column:
                tag = (mkey, column)
                index = self._own_chunks(per_column, column, tag)
                key = fact.result if column < 0 else fact.args[column]
                self._own_entry(index, tag, key._hash >> 16 & mask, key)

    def _own_chunks(self, spine: dict, key, tag) -> Chunks | None:
        """The fork's own list of chunks ``spine[key]`` of the map ``tag``
        (``None`` while the map does not exist), copied on first use."""
        chunks = spine.get(key)
        mark = ("chunks", tag)
        if mark not in self._owned:
            self._owned.add(mark)
            if chunks is not None:
                chunks = spine[key] = chunks.copy()
        return chunks

    def _own_chunk(self, chunks: Chunks, tag, i: int) -> dict:
        """Chunk ``i`` of the fork's own list ``chunks`` of the map ``tag``,
        made the fork's own on first use."""
        mark = ("chunk", tag, i)
        if mark in self._owned:
            return chunks[i]
        self._owned.add(mark)
        chunk = chunks[i] = chunks[i].copy()
        return chunk

    def _own_entry(self, chunks: Chunks, tag, i: int, key) -> None:
        """Make chunk ``i`` and ``key``'s bucket in it the fork's own."""
        chunk = self._own_chunk(chunks, tag, i)
        mark = ("bucket", tag, key)
        if mark not in self._owned:
            self._owned.add(mark)
            bucket = chunk.get(key)
            if bucket is not None:
                chunk[key] = bucket.copy()

    def apply_delta(
        self, added: Iterable[Fact], removed: Iterable[Fact]
    ) -> "ObjectBase":
        """A new base equal to this one with ``removed`` taken out and
        ``added`` put in.

        This is how a revision advances, in the engine (``ob'`` = input ⊕
        delta) and in the store (snapshot ⊕ composed deltas): applied to a
        frozen base it is a :meth:`fork` plus the delta's writes, so the
        :class:`Fact` objects and every untouched chunk and bucket are
        shared between the two bases, the derived base is born indexed and
        chunked, and the cost is the delta plus the spines and the chunks
        it lands in — never an index rebuild, never a whole map.
        A :meth:`plain <is_plain>` parent hands its plainness on when the
        hosts the delta touched still qualify.  Applied to an unfrozen base
        (nothing to share) the result adopts a fact set derived from this
        base (:meth:`from_fact_set`), with this base's mask; its indexes
        are built on first use.
        """
        added = added if isinstance(added, (set, frozenset, list, tuple)) else list(added)
        removed = (
            removed if isinstance(removed, (set, frozenset, list, tuple)) else list(removed)
        )
        if not self._frozen:
            facts = set(self)
            facts.difference_update(removed)
            facts.update(added)
            child = ObjectBase.from_fact_set(facts)
            child._mask = self._mask
            return child
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
        three base-sized passes.  Establishing it is one pass over the
        hosts and their ``exists`` buckets; the answer is cached only where
        it cannot go stale: on a frozen base, and on a fork until its next
        write.
        """
        plain = self._plain
        if plain is None:
            self._ensure_indexes()
            mask = self._mask
            exists_of = self._by_method.get(_EXISTS_KEY)
            hosts = 0
            plain = True
            for host, state in _items(self._by_host):
                if not state:
                    continue
                hosts += 1
                if len(state) < 2 or host.__class__ is not Oid:
                    plain = False
                    break
                exists = exists_of[host._hash >> 16 & mask].get(host) if exists_of else None
                # the bucket's only fact, when the count below holds
                owner = next(iter(exists)).result if exists else None
                if owner is not host and owner != host:
                    plain = False
                    break
            # one ``exists`` fact per host, the 0-ary one checked above
            plain = plain and hosts == sum(
                sum(map(len, _values(buckets)))
                for (method, _arity), buckets in self._by_method.items()
                if method == EXISTS
            )
            if self._frozen:
                self._plain = plain
        return plain

    def _host_is_plain(self, host: Term) -> bool:
        """:meth:`is_plain`, for one host (absent hosts qualify)."""
        state = self._by_host[host._hash >> 16 & self._mask].get(host)
        if not state:
            return True
        return (
            host.__class__ is Oid
            and len(state) > 1
            and self.iter_facts_by_host_method(host, EXISTS, 0) == {exists_fact(host)}
            and sum(1 for fact in state if fact.method == EXISTS) == 1
        )

    # ------------------------------------------------------------------
    # set protocol
    # ------------------------------------------------------------------
    def __contains__(self, fact: Fact) -> bool:
        adopted = self._adopted
        if adopted is not None:
            return fact in adopted
        host = fact.host
        state = self._by_host[host._hash >> 16 & self._mask].get(host)
        return state is not None and fact in state

    def __len__(self) -> int:
        adopted = self._adopted
        if adopted is not None:
            return len(adopted)
        return sum(map(len, _values(self._by_host)))

    def __iter__(self) -> Iterator[Fact]:
        adopted = self._adopted
        if adopted is not None:
            return iter(adopted)
        return chain.from_iterable(_values(self._by_host))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ObjectBase):
            return len(self) == len(other) and not self.difference(other)
        return NotImplemented

    def difference(self, other: "ObjectBase | set[Fact] | frozenset[Fact]") -> set[Fact]:
        """The facts of this base that ``other`` — a base or a set of
        facts — does not hold (state by state between indexed bases, each
        looked up in ``other`` by ``other``'s own mask)."""
        theirs = other._by_host if isinstance(other, ObjectBase) else None
        if self._by_host is None or theirs is None:
            return set(self).difference(other)
        mask = other._mask
        return set().union(
            *(
                state.difference(theirs[host._hash >> 16 & mask].get(host, ()))
                for host, state in _items(self._by_host)
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ObjectBase({len(self)} facts)"

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, fact: Fact) -> bool:
        """Insert ``fact``; returns True when the base changed."""
        self._ensure_indexes()
        host = fact.host
        mask = self._mask
        i = host._hash >> 16 & mask
        state = self._by_host[i].get(host)
        if state is not None and fact in state:
            return False
        if self._frozen:
            raise FrozenBaseError(
                f"cannot add {fact} to a frozen base; copy() it first"
            )
        if not is_ground(host):
            raise TermError(f"object bases hold ground facts only, got {fact}")
        if self._owned is not None:
            self._own(fact)
            state = self._by_host[i].get(host)  # now the fork's own copy
        if state is None:
            self._by_host[i][host] = {fact}
        else:
            state.add(fact)
        mkey = (fact.method, len(fact.args))
        try:
            self._by_method[mkey][i][host].add(fact)
        except KeyError:
            hosts = self._by_method.get(mkey)
            if hosts is None:
                hosts = self._by_method[mkey] = _chunked({}, mask)
            hosts[i][host] = {fact}
        per_column = self._by_arg.get(mkey)
        if per_column:
            for column, index in per_column.items():
                key = fact.result if column < 0 else fact.args[column]
                chunk = index[key._hash >> 16 & mask]
                try:
                    chunk[key].add(fact)
                except KeyError:
                    chunk[key] = {fact}
        return True

    def discard(self, fact: Fact) -> bool:
        """Remove ``fact`` if present; returns True when the base changed."""
        if fact not in self:
            return False
        if self._frozen:
            raise FrozenBaseError(
                f"cannot discard {fact} from a frozen base; copy() it first"
            )
        self._ensure_indexes()
        if self._owned is not None:
            self._own(fact)
        host = fact.host
        mask = self._mask
        i = host._hash >> 16 & mask
        mkey = (fact.method, len(fact.args))
        self._by_method[mkey][i][host].discard(fact)
        self._by_host[i][host].discard(fact)
        per_column = self._by_arg.get(mkey)
        if per_column:
            for column, index in per_column.items():
                key = fact.result if column < 0 else fact.args[column]
                bucket = index[key._hash >> 16 & mask].get(key)
                if bucket is not None:
                    bucket.discard(fact)
        return True

    def add_state(self, host: Term, state: set[Fact]) -> None:
        """Install ``state`` as the complete state of ``host``, a version
        that has none — step 2 + 3 of ``T_P`` for a fresh version, as one
        write.

        ``state`` is adopted as the host's state (the caller must not reuse
        it), each ``(method, arity)`` group of it becomes the host's bucket
        in that method's map — one dict store per group — and the column
        indexes are updated once per group instead of once per fact.
        """
        if self._frozen:
            raise FrozenBaseError(
                f"cannot add a state for {host} to a frozen base; copy() it first"
            )
        if not is_ground(host):
            raise TermError(f"object bases hold ground facts only, got host {host}")
        self._ensure_indexes()
        mask = self._mask
        i = host._hash >> 16 & mask
        if self._by_host[i].get(host):
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
        by_host = self._by_host
        if owned is not None:
            # The host's state and its per-method buckets are new, hence
            # private; the shared chunk lists and chunks they land in, and
            # column buckets, are copied once.
            self._plain = None
            self._own_chunk(by_host, None, i)
            owned.add(("bucket", None, host))
        by_host[i][host] = state
        by_method = self._by_method
        for mkey, group in groups.items():
            if owned is None:
                hosts = by_method.get(mkey)
            else:
                hosts = self._own_chunks(by_method, mkey, mkey)
                if hosts is not None:
                    self._own_chunk(hosts, mkey, i)
                owned.add(("bucket", mkey, host))
            if hosts is None:
                hosts = by_method[mkey] = _chunked({}, mask)
            hosts[i][host] = group
            per_column = self._by_arg.get(mkey)
            if per_column:
                for column in per_column:
                    self._index_column(per_column, mkey, column, group)

    def _index_column(
        self, per_column: dict, mkey: MethodKey, column: int, facts: set[Fact]
    ) -> None:
        """Enter ``facts`` (all of key ``mkey``) into one built column
        index, copying what a fork still shares (see :meth:`_own`)."""
        owned = self._owned
        mask = self._mask
        tag = (mkey, column)
        if owned is None:
            index = per_column[column]
        else:
            index = self._own_chunks(per_column, column, tag)
        for fact in facts:
            key = fact.result if column < 0 else fact.args[column]
            i = key._hash >> 16 & mask
            if owned is not None:
                self._own_entry(index, tag, i, key)
            chunk = index[i]
            bucket = chunk.get(key)
            if bucket is None:
                chunk[key] = {fact}
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
        (docs/DESIGN.md D3); derived versions get their ``exists`` fact by state
        copying, never through this method.
        """
        self._ensure_indexes()
        mask = self._mask
        exists_of = self._by_method.get(_EXISTS_KEY) or [{}] * (mask + 1)
        added = 0
        for host in list(chain.from_iterable(self._by_host)):
            if isinstance(host, Oid) and not exists_of[host._hash >> 16 & mask].get(host):
                if self.add(exists_fact(host)):
                    added += 1
        return added

    def replace_state(self, version: Term, facts: Iterable[Fact]) -> bool:
        """Replace the whole state of ``version`` with ``facts``.

        This is the ``⊕`` of docs/DESIGN.md D1: ``T_P`` recomputes complete new
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
        old_state = self._by_host[version._hash >> 16 & self._mask].get(version)
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
        return frozenset(self.iter_facts_by_method(method, arity))

    def facts_by_host(self, host: Term) -> frozenset[Fact]:
        return frozenset(self.iter_state_of(host))

    def facts_by_host_method(self, host: Term, method: str, arity: int) -> frozenset[Fact]:
        return frozenset(self.iter_facts_by_host_method(host, method, arity))

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
        mask = self._mask
        if index is None:
            flat: dict[Oid, set[Fact]] = {}
            for fact in self.iter_facts_by_method(method, arity):
                key = fact.result if column < 0 else fact.args[column]
                try:
                    flat[key].add(fact)
                except KeyError:
                    flat[key] = {fact}
            index = per_column[column] = _chunked(flat, mask)
        return index[value._hash >> 16 & mask].get(value) or ()

    def state_of(self, version: Term) -> frozenset[Fact]:
        """All method-applications of ``version`` (including ``exists``)."""
        return self.facts_by_host(version)

    def method_applications(self, version: Term) -> frozenset[Fact]:
        """The state of ``version`` without the ``exists`` bookkeeping."""
        return frozenset(f for f in self.iter_state_of(version) if f.method != EXISTS)

    # -- zero-copy variants for the matcher's inner loop -----------------
    #
    # The ``facts_by_*`` accessors return defensive frozenset copies; the
    # join engine calls them once per search node, which made the copies
    # dominate its profile.  These return the live index sets — callers
    # must not mutate the base while iterating.
    def iter_facts_by_method(self, method: str, arity: int) -> Iterable[Fact]:
        """The method's host buckets, chained (nothing is copied)."""
        self._ensure_indexes()
        hosts = self._by_method.get((method, arity))
        return chain.from_iterable(_values(hosts)) if hosts else ()

    def iter_facts_by_host_method(
        self, host: Term, method: str, arity: int
    ) -> Iterable[Fact]:
        self._ensure_indexes()
        hosts = self._by_method.get((method, arity))
        return (hosts[host._hash >> 16 & self._mask].get(host) or ()) if hosts else ()

    def iter_state_of(self, version: Term) -> Iterable[Fact]:
        self._ensure_indexes()
        return self._by_host[version._hash >> 16 & self._mask].get(version) or ()

    def iter_existing_versions(self) -> Iterable[Term]:
        """The hosts of the ``exists`` facts, without the dict of
        :meth:`existing_versions` (same no-mutation caveat as the other
        ``iter_*`` accessors; a version with two ``exists`` facts comes
        twice)."""
        return (fact.host for fact in self.iter_facts_by_method(EXISTS, 0))

    # ------------------------------------------------------------------
    # versions and objects
    # ------------------------------------------------------------------
    def version_exists(self, version: Term) -> bool:
        """True when ``version.exists -> o`` is in the base."""
        return bool(self.iter_facts_by_host_method(version, EXISTS, 0))

    def existing_versions(self) -> Mapping[Term, Oid]:
        """The ``exists`` facts as a map, version -> object."""
        return {fact.host: fact.result for fact in self.iter_facts_by_method(EXISTS, 0)}

    def objects(self) -> frozenset[Oid]:
        """The OIDs registered as objects (those with ``o.exists -> o``)."""
        return frozenset(v for v in self.iter_existing_versions() if isinstance(v, Oid))

    def v_star(self, version: Term) -> Term | None:
        """Section 3's ``v*``: the largest subterm of ``version`` whose
        ``exists`` fact is present; ``None`` when no subterm exists.

        For a version that exists itself this is the version; for a VID that
        "skips" levels (e.g. ``del(mod(e))`` when no modify ever ran on
        ``e``) it is the deepest existing predecessor, whose state the update
        is checked against and copied from.
        """
        self._ensure_indexes()
        mask = self._mask
        exists_of = self._by_method.get(_EXISTS_KEY) or [{}] * (mask + 1)
        while not exists_of[version._hash >> 16 & mask].get(version):
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
        for fact in self:
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
        self._ensure_indexes()
        ordered: list[Fact] = []
        for host in sorted(chain.from_iterable(self._by_host), key=_host_sort_key):
            ordered.extend(sorted(self.iter_state_of(host), key=_state_sort_key))
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
