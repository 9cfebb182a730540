"""A store that keeps the whole history of update-processes as a delta chain.

Each applied update-program produces a new revision (the paper's
``ob → ob'`` mapping); the store keeps every revision, so "as-of" queries
and diffs across updates are possible — the long-term complement of the
paper's per-update versioning (Section 1's closing remark).

History is represented the way the paper frames it — a *chain* of update
deltas, not a pile of copies:

* a :class:`StoreRevision` records the ``(added, removed)`` fact sets
  against its parent; every ``snapshot_interval``-th revision additionally
  materializes a full frozen base, so reconstructing any revision costs the
  nearest snapshot plus the deltas since it, never ``O(|base| · revisions)``;
* the head base and every snapshot are frozen
  (:meth:`~repro.core.objectbase.ObjectBase.freeze`), so ``current`` and
  ``as_of`` hand out the shared view instead of copying, and the engine's
  ``new_base`` is committed without a defensive copy;
* a commit costs its delta: the engine evaluates on a copy-on-write fork
  of the frozen head, emits ``ob'`` as head ⊕ delta — sharing every
  untouched index bucket, so each head is born indexed — and hands the
  store that exact ``(added, removed)`` pair, which is committed as given
  (:meth:`VersionedStore.commit_update`) instead of being rediscovered by
  comparing two bases;
* the engine's :class:`~repro.core.engine.CompiledProgram` cache makes a
  chain of ``apply`` calls of the same program pay the static analysis once;
* a query is an inspection of one state: :meth:`VersionedStore.query`
  evaluates the compiled body against the head on demand and keeps no
  answers across updates.

``StoreOptions(snapshot_interval=1)`` materializes a full base at every
revision — the chain with no reconstruction step, which the equivalence
tests use as the reference for every other interval.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.core.atoms import Literal
from repro.core.engine import UpdateEngine, UpdateResult
from repro.core.errors import ReproError
from repro.core.facts import EXISTS, Fact
from repro.core.objectbase import ObjectBase
from repro.core.query import Answer, PreparedQuery, prepare_query
from repro.core.rules import UpdateProgram

__all__ = [
    "StoreOptions",
    "StoreRevision",
    "VersionedStore",
    "resolve_revision_ref",
]


def resolve_revision_ref(ref: str | int) -> str | int:
    """Canonical tag-or-index revision addressing, shared by every surface.

    Integers and all-digit strings (optionally ``-``-signed, as produced by
    CLIs and wire payloads) address revisions *by index*; any other string
    addresses *by tag*.  All-digit tags are rejected at commit time
    (:func:`_check_tag`), so the coercion is never ambiguous.  The store,
    the wire dispatcher, the CLI and the connection facade all resolve
    references through this one function, so ``as_of``/``diff`` accept the
    same forms — and fail with the same messages — on every backend.
    """
    if isinstance(ref, bool):
        raise ReproError(f"no revision {ref!r}")
    if isinstance(ref, int):
        return ref
    if isinstance(ref, str) and ref.removeprefix("-").isdigit():
        # exactly one optional sign: "--2" is not an index (nor a valid
        # tag, but it must fail as "no revision tagged", not a ValueError)
        return int(ref)
    return ref

#: A deferred snapshot: called once, on first need, to produce the base.
SnapshotSource = Callable[[], ObjectBase]


@dataclass(frozen=True)
class StoreOptions:
    """Tunable shape of a :class:`VersionedStore`.

    snapshot_interval:
        Materialize a full snapshot every this-many revisions (revision 0
        always has one).  Smaller values trade memory for faster ``as_of``
        reconstruction of cold revisions.
    materialize_cache:
        How many reconstructed non-head revisions to keep around for
        repeated ``as_of`` reads — and, separately, how many snapshot bases
        that can be reloaded from a journal file stay resident
        (:meth:`VersionedStore.snapshot_persisted`).
    """

    snapshot_interval: int = 32
    materialize_cache: int = 4

    def __post_init__(self) -> None:
        if self.snapshot_interval < 1:
            raise ReproError("snapshot_interval must be >= 1")


@dataclass(frozen=True)
class StoreRevision:
    """One committed state of the store, as a delta against its parent.

    ``added`` / ``removed`` are exact set differences w.r.t. the parent
    revision (disjoint by construction); ``snapshot`` is the full frozen
    base when this revision falls on the snapshot policy, else ``None``.
    ``base`` reconstructs the full (frozen, shared) base through the owning
    store — the pre-delta attribute kept as a property so audits and
    examples read naturally.

    ``epoch`` is the replication fencing generation the revision was
    committed under (0 for an unreplicated store).  Epochs are monotonic
    along the chain: a promotion bumps the store's epoch, so a revision
    stamped with a lower epoch than its predecessor can only come from a
    fenced-off zombie primary and is rejected at load/verify time.
    """

    index: int
    tag: str
    program_name: str | None
    added: frozenset[Fact] = frozenset()
    removed: frozenset[Fact] = frozenset()
    snapshot: ObjectBase | None = None
    _store: "VersionedStore | None" = field(
        default=None, repr=False, compare=False
    )
    epoch: int = 0

    @property
    def base(self) -> ObjectBase:
        """The full object base of this revision (frozen shared view)."""
        if self.snapshot is not None:
            return self.snapshot
        if self._store is None:
            raise ReproError(
                f"revision {self.index} is detached from its store and has "
                f"no snapshot to reconstruct from"
            )
        return self._store.base_at(self.index)

    def facts(self) -> frozenset[Fact]:
        return frozenset(self.base)


class VersionedStore:
    """An append-only chain of object-base revisions.

    >>> store = VersionedStore(initial_base, tag="loaded")     # doctest: +SKIP
    >>> store.apply(raise_program, tag="raise-2026")           # doctest: +SKIP
    >>> store.as_of("loaded")                                  # doctest: +SKIP
    """

    def __init__(
        self,
        base: ObjectBase,
        *,
        tag: str = "initial",
        engine: UpdateEngine | None = None,
        options: StoreOptions | None = None,
    ):
        self._engine = engine or UpdateEngine()
        self.options = options or StoreOptions()
        snapshot = base.copy()
        snapshot.ensure_exists()
        snapshot.freeze()
        self._head_cache: "tuple[int, ObjectBase] | None" = (0, snapshot)
        self._materialized: dict[int, ObjectBase] = {}
        self._snapshot_sources: dict[int, "SnapshotSource"] = {}
        self._resident: deque[int] = deque()
        self._resident_lock = threading.Lock()
        self._commit_listeners: list[Callable[[StoreRevision], None]] = []
        self.epoch = 0
        self._revisions: list[StoreRevision] = [
            StoreRevision(0, _check_tag(tag), None, frozenset(), frozenset(), snapshot, self)
        ]

    @classmethod
    def from_revisions(
        cls,
        revisions: list[StoreRevision],
        *,
        engine: UpdateEngine | None = None,
        options: StoreOptions | None = None,
        snapshot_sources: "dict[int, SnapshotSource] | None" = None,
    ) -> "VersionedStore":
        """Adopt an already-built revision chain (the journal loader's
        entry point).  Revision 0 must carry a snapshot; indexes must be
        contiguous from 0.

        ``snapshot_sources`` maps revision indexes to zero-argument
        callables producing the snapshot base on demand — the journal
        loader registers one per snapshot *file* so that metadata-level
        work (``log``, appending) never parses cold snapshots; a loaded
        snapshot is cached on its revision, within the bound of
        :meth:`snapshot_persisted`.
        """
        if not revisions:
            raise ReproError("a store needs at least one revision")
        snapshot_sources = dict(snapshot_sources or {})
        if revisions[0].snapshot is None and 0 not in snapshot_sources:
            raise ReproError("revision 0 must carry a full snapshot")
        store = cls.__new__(cls)
        store._engine = engine or UpdateEngine()
        store.options = options or StoreOptions()
        store._materialized = {}
        store._snapshot_sources = snapshot_sources
        store._resident = deque()
        store._resident_lock = threading.Lock()
        store._commit_listeners = []
        store._revisions = []
        for expected, revision in enumerate(revisions):
            if revision.index != expected:
                raise ReproError(
                    f"revision chain is not contiguous: expected index "
                    f"{expected}, got {revision.index}"
                )
            if revision.snapshot is not None:
                revision.snapshot.freeze()
            object.__setattr__(revision, "_store", store)
            store._revisions.append(revision)
        store.epoch = store._revisions[-1].epoch
        store._head_cache = None  # reconstructed on first read (lazy, like snapshots)
        return store

    # -- reading ---------------------------------------------------------
    @property
    def engine(self) -> UpdateEngine:
        return self._engine

    @property
    def current(self) -> ObjectBase:
        """The newest revision's base — the frozen shared view, no copy.

        Mutating it raises :class:`~repro.core.errors.FrozenBaseError`;
        call ``.copy()`` for a private mutable base.

        The head is cached as one ``(index, base)`` tuple assigned
        atomically, so a concurrent reader can never pair a revision index
        with another revision's base — it either gets a matching cache or
        reconstructs its index from snapshots + deltas (any cached pair is
        immutable and stays correct forever).
        """
        last = len(self._revisions) - 1
        cache = self._head_cache
        if cache is not None and cache[0] == last:
            return cache[1]
        base = self._reconstruct(last)
        self._head_cache = (last, base)
        return base

    @property
    def head(self) -> StoreRevision:
        return self._revisions[-1]

    def __len__(self) -> int:
        return len(self._revisions)

    def revisions(self) -> tuple[StoreRevision, ...]:
        return tuple(self._revisions)

    def as_of(self, tag_or_index: str | int) -> ObjectBase:
        """The base as of a revision, by tag or index (frozen shared view)."""
        return self.base_at(self._find(tag_or_index).index)

    def base_at(self, index: int) -> ObjectBase:
        """The full frozen base of revision ``index``, reconstructed from
        the nearest snapshot at or below it plus the deltas since.

        The head cache is consulted by exact index match only (see
        :attr:`current`), so a session pinned at revision N keeps reading
        N even when a commit lands mid-call."""
        cache = self._head_cache
        if cache is not None and cache[0] == index:
            return cache[1]
        if self.has_snapshot(index):
            return self.snapshot_at(index)
        cached = self._materialized.get(index)
        if cached is not None:
            return cached
        base = self._reconstruct(index)
        self._materialized[index] = base
        while len(self._materialized) > self.options.materialize_cache:
            self._materialized.pop(next(iter(self._materialized)))
        return base

    def has_snapshot(self, index: int) -> bool:
        """True when revision ``index`` materializes a full base (loaded
        or still deferred to its journal file)."""
        return (
            self._revisions[index].snapshot is not None
            or index in self._snapshot_sources
        )

    def snapshot_at(self, index: int) -> ObjectBase | None:
        """The snapshot base of revision ``index`` (loading a deferred one
        through its source), or ``None`` when the revision is delta-only."""
        revision = self._revisions[index]
        base = revision.snapshot
        if base is not None:
            return base
        source = self._snapshot_sources.get(index)
        if source is None:
            return None
        base = source().freeze()
        self._keep_resident(revision, base)
        return base

    def snapshot_persisted(self, index: int, source: "SnapshotSource") -> None:
        """Declare that revision ``index``'s snapshot can be reloaded from
        durable storage by calling ``source``.

        From then on the resident base is a cache entry, not the only copy:
        at most ``StoreOptions.materialize_cache`` reloadable snapshots stay
        in memory (the head is held by its own cache regardless), older
        ones revert to their source and :meth:`snapshot_at` loads them back
        on demand.  Each pins a full set of index spines for as long as it
        is resident, so without the bound a long-lived journal-backed
        process grows by one base-sized structure per snapshot interval.
        A store that never hears of a source keeps every snapshot.
        """
        revision = self._revisions[index]
        self._snapshot_sources[index] = source
        if revision.snapshot is not None:
            self._keep_resident(revision, revision.snapshot)

    def _keep_resident(self, revision: StoreRevision, base: ObjectBase) -> None:
        """Cache a reloadable snapshot on its revision, first in first out."""
        with self._resident_lock:
            object.__setattr__(revision, "snapshot", base)
            self._resident.append(revision.index)
            while len(self._resident) > self.options.materialize_cache:
                oldest = self._revisions[self._resident.popleft()]
                object.__setattr__(oldest, "snapshot", None)

    def _reconstruct(self, index: int) -> ObjectBase:
        anchor = index
        while not self.has_snapshot(anchor):
            anchor -= 1
        base = self.snapshot_at(anchor)
        if anchor == index:
            return base
        added: set[Fact] = set()
        removed: set[Fact] = set()
        for k in range(anchor + 1, index + 1):
            revision = self._revisions[k]
            _compose_delta(added, removed, revision.added, revision.removed)
        return base.apply_delta(added, removed).freeze()

    def _find(self, tag_or_index: str | int) -> StoreRevision:
        tag_or_index = resolve_revision_ref(tag_or_index)
        if isinstance(tag_or_index, int):
            # Reject negative indexes instead of letting Python's sequence
            # addressing silently resolve them to a revision near the head.
            if tag_or_index < 0:
                raise ReproError(f"no revision {tag_or_index}")
            try:
                return self._revisions[tag_or_index]
            except IndexError:
                raise ReproError(f"no revision {tag_or_index}") from None
        for revision in self._revisions:
            if revision.tag == tag_or_index:
                return revision
        raise ReproError(f"no revision tagged {tag_or_index!r}")

    # -- querying ----------------------------------------------------------
    def query(
        self, query: "PreparedQuery | str | Sequence[Literal]"
    ) -> list[Answer]:
        """Answer a conjunctive query against the head revision: a fresh,
        canonically ordered list the caller owns."""
        return prepare_query(query).run(self.current)

    # -- commit listeners --------------------------------------------------
    def add_commit_listener(
        self, listener: Callable[[StoreRevision], None]
    ) -> Callable[[StoreRevision], None]:
        """Register ``listener`` to be called with every newly committed
        :class:`StoreRevision` (the head already is the new revision when
        a listener runs).

        This is the seam the serving subsystem's subscription manager (and,
        later, replication) plugs into: a listener receives the revision's
        exact ``(added, removed)`` delta and can fold it through trigger
        machinery instead of diffing bases.  Returns the listener so the
        call can be used inline; remove with :meth:`remove_commit_listener`.
        """
        self._commit_listeners.append(listener)
        return listener

    def remove_commit_listener(
        self, listener: Callable[[StoreRevision], None]
    ) -> None:
        """Unregister a commit listener (no-op when not registered)."""
        try:
            self._commit_listeners.remove(listener)
        except ValueError:
            pass

    # -- writing -----------------------------------------------------------
    def apply(self, program: UpdateProgram, *, tag: str = "") -> UpdateResult:
        """Run an update-program transactionally against the head revision.

        On success a new revision is appended; on any evaluation error the
        store is untouched (atomicity comes free: evaluation forks).  The
        engine's compiled-program cache makes repeated applies of the same
        program skip the static analysis; the produced ``new_base`` is
        frozen and committed directly, with the engine's own delta — no
        defensive copy, no comparison of bases.
        """
        result = self._engine.apply(program, self.current)
        self.commit_update(
            result.new_base,
            tag=tag,
            program_name=program.name,
            added=result.added,
            removed=result.removed,
        )
        return result

    def commit_update(
        self,
        new_base: ObjectBase,
        *,
        tag: str = "",
        program_name: str | None = None,
        added: "Iterable[Fact] | None" = None,
        removed: "Iterable[Fact] | None" = None,
    ) -> StoreRevision:
        """Append an engine-produced ``new_base`` as a new revision, without
        the defensive copy of :meth:`commit_base`.

        This is the two-phase commit entry of the serving layer: a
        transaction evaluates its staged programs first (against frozen
        shared views, producing one ``new_base`` per program) and only then
        commits the results, so an evaluation error rolls the whole batch
        back by committing nothing.  ``new_base`` must already contain its
        ``exists`` map (every engine result does).

        ``added`` / ``removed`` are the revision's delta when the caller
        already holds it — the engine's :class:`UpdateResult`, a replayed
        journal record — and must be the exact, disjoint set difference
        between the head and ``new_base``; the commit then costs the delta.
        Left out, the pair is computed by comparing the two bases.
        """
        new_base.freeze()
        if added is None or removed is None:
            added, removed = _diff_bases(self.current, new_base)
        return self._commit(
            new_base, frozenset(added), frozenset(removed), tag, program_name
        )

    def commit_base(self, base: ObjectBase, *, tag: str = "") -> StoreRevision:
        """Append an externally produced base as a new revision."""
        snapshot = base.copy()
        snapshot.ensure_exists()
        snapshot.freeze()
        added, removed = _diff_bases(self.current, snapshot)
        return self._commit(snapshot, added, removed, tag, None)

    def rollback_to(self, tag_or_index: str | int, *, tag: str = "") -> StoreRevision:
        """Append a new revision whose base equals an older revision's.

        The store stays append-only (the rolled-back states remain in the
        history); this is the transactional undo on top of the paper's
        ``ob -> ob'`` mapping.  Under the delta representation the new
        revision records exactly the facts that flow back — the stored
        deltas since the source, composed and inverted.
        """
        source = self._find(tag_or_index)
        added, removed = self.diff(
            len(self._revisions) - 1, source.index, include_exists=True
        )
        return self._commit(
            self.base_at(source.index),
            added,
            removed,
            tag or f"rollback-to-{source.tag}",
            None,
        )

    def _commit(
        self,
        new_base: ObjectBase,
        added: frozenset[Fact],
        removed: frozenset[Fact],
        tag: str,
        program_name: str | None,
    ) -> StoreRevision:
        index = len(self._revisions)
        snapshot = None
        if index % self.options.snapshot_interval == 0:
            snapshot = new_base
        revision = StoreRevision(
            index,
            _check_tag(tag or f"rev{index}"),
            program_name,
            added,
            removed,
            snapshot,
            self,
            self.epoch,
        )
        self._revisions.append(revision)
        self._head_cache = (index, new_base)
        for listener in tuple(self._commit_listeners):
            listener(revision)
        return revision

    # -- comparing --------------------------------------------------------
    def diff(
        self, older: str | int, newer: str | int, *, include_exists: bool = False
    ) -> tuple[frozenset[Fact], frozenset[Fact]]:
        """``(added, removed)`` fact sets between two revisions.

        Computed by composing the stored per-revision deltas (facts that
        appear and disappear in between cancel out), so the cost is the sum
        of the delta sizes on the path — the full bases are never
        materialized.
        """
        start = self._find(older).index
        stop = self._find(newer).index
        flipped = start > stop
        if flipped:
            start, stop = stop, start
        added: set[Fact] = set()
        removed: set[Fact] = set()
        for k in range(start + 1, stop + 1):
            revision = self._revisions[k]
            _compose_delta(added, removed, revision.added, revision.removed)
        if flipped:
            added, removed = removed, added
        if not include_exists:
            added = {f for f in added if f.method != EXISTS}
            removed = {f for f in removed if f.method != EXISTS}
        return (frozenset(added), frozenset(removed))

    # -- accounting -------------------------------------------------------
    def stored_entries(self) -> int:
        """The number of fact-set slots the chain keeps alive — snapshots
        at their full size, delta revisions at ``|added| + |removed|``.
        The representation-independent memory yardstick of the store bench.
        """
        total = 0
        for revision in self._revisions:
            if self.has_snapshot(revision.index):
                total += len(self.snapshot_at(revision.index))
            else:
                total += len(revision.added) + len(revision.removed)
        return total


def _check_tag(tag: str) -> str:
    """Reject tags that collide with the numeric revision addressing of
    ``as_of`` / ``diff`` (an all-digit tag would be unreachable, or —
    worse — silently resolve to the wrong revision on long chains)."""
    if tag.lstrip("-").isdigit():
        raise ReproError(
            f"revision tag {tag!r} is all digits, which is reserved for "
            f"index addressing; pick a tag with a letter in it"
        )
    return tag


def _diff_bases(
    old: ObjectBase, new: ObjectBase
) -> tuple[frozenset[Fact], frozenset[Fact]]:
    """``(added, removed)`` between two bases by comparing them — for the
    commits whose caller does not already hold the delta."""
    return frozenset(new.difference(old)), frozenset(old.difference(new))


def _compose_delta(
    added: set[Fact],
    removed: set[Fact],
    step_added: frozenset[Fact],
    step_removed: frozenset[Fact],
) -> None:
    """Fold one revision's delta into a running ``(added, removed)`` pair.

    A fact removed after being added (or vice versa) cancels: the pair
    always equals the exact set difference between the endpoints.
    """
    for fact in step_removed:
        if fact in added:
            added.discard(fact)
        else:
            removed.add(fact)
    for fact in step_added:
        if fact in removed:
            removed.discard(fact)
        else:
            added.add(fact)
