"""`StoreService`: MVCC sessions and optimistic transactions over a store.

The paper's update semantics assumes one mutator: ``apply`` maps ``ob`` to
``ob'`` in isolation.  This module mediates *many* readers and writers over
one :class:`~repro.storage.history.VersionedStore` with the classic MVCC
recipe, built entirely from machinery the store already has:

* **Snapshot reads for free.**  A :class:`Session` pins the head revision
  index at ``begin()``; every read runs against that revision's frozen
  shared view (``base_at`` — structural sharing makes the pin literally a
  list index, no copy).  Readers never block writers and vice versa.
* **Optimistic commits.**  A session stages update programs and commits
  through a strict FIFO writer queue.  Validation intersects the session's
  *read/write footprint* — the :class:`~repro.core.plans.QuerySignature` of
  every query it ran plus the :func:`~repro.core.plans.program_signature`
  of every staged program — against the exact ``(added, removed)`` deltas
  committed since its pinned revision.  A fired trigger means a concurrent
  commit may have changed something this transaction read, and a
  :class:`~repro.server.errors.ConflictError` (retryable) is raised; a
  clean validation proves the staged programs read nothing the interim
  commits touched, so evaluating them against the *current* head is
  equivalent to evaluating at the pin — first-committer-wins
  serializability, the causal-rejection ordering problem of Eiter et al.
  resolved by commit order.
* **Durability.**  A journal-backed service writes ahead: readers,
  subscribers and followers see a revision only once its line is durable
  (``commit_updates(journal=...)``); a restart replays the journal
  (``StoreService.open``) and resumes exactly where the chain ended.

Commit batches are atomic: all staged programs are evaluated first (each
against the previous one's result, starting from the head), and only then
committed — an evaluation error anywhere commits nothing, and a journal
write that fails publishes none of the batch.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Sequence

from repro.core.caches import cache_stats
from repro.core.errors import ReproError
from repro.core.objectbase import Delta, ObjectBase
from repro.obs import metrics as _obs
from repro.obs import slowlog as _slowlog
from repro.core.plans import QuerySignature, program_signature
from repro.core.query import Answer
from repro.core.rules import UpdateProgram
from repro.lang.parser import prepare_query
from repro.server.errors import (
    ConflictError,
    NotPrimaryError,
    ServerBusyError,
    SessionError,
    StaleEpochError,
)
from repro.storage.history import (
    DEFAULT_ENGINE,
    StoreOptions,
    StoreRevision,
    VersionedStore,
)
from repro.storage.serialize import DurabilityOptions, JournalWriter

__all__ = ["Session", "CommitOutcome", "StoreService"]


class _FIFOLock:
    """A strict first-come-first-served mutual-exclusion lock.

    ``threading.Lock`` makes no fairness promise; the ISSUE's commit
    protocol wants writers *serialized in arrival order* so a burst of
    optimistic committers cannot starve one session indefinitely.  Tickets
    queue in a deque; each waiter sleeps until its ticket reaches the
    front.
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._tickets: deque[object] = deque()
        self._holder: object | None = None

    def acquire(self) -> None:
        """Take the lock in arrival order."""
        ticket = object()
        with self._condition:
            self._tickets.append(ticket)
            while self._holder is not None or self._tickets[0] is not ticket:
                self._condition.wait()
            self._tickets.popleft()
            self._holder = ticket

    def release(self) -> None:
        with self._condition:
            self._holder = None
            self._condition.notify_all()

    def __enter__(self) -> "_FIFOLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class CommitOutcome:
    """What one successful commit produced.

    ``revisions`` are the appended :class:`StoreRevision` objects (one per
    staged program, in stage order); ``added``/``removed`` aggregate their
    fact counts for quick reporting.
    """

    __slots__ = ("revisions",)

    def __init__(self, revisions: Sequence[StoreRevision]) -> None:
        self.revisions = tuple(revisions)

    @property
    def revision(self) -> StoreRevision:
        """The last (newest) revision of the batch."""
        return self.revisions[-1]

    @property
    def added(self) -> int:
        return sum(len(r.added) for r in self.revisions)

    @property
    def removed(self) -> int:
        return sum(len(r.removed) for r in self.revisions)


#: Session lifecycle states.
OPEN, COMMITTED, ABORTED = "open", "committed", "aborted"


class Session:
    """One MVCC transaction: a pinned read view plus staged writes.

    Obtained from :meth:`StoreService.begin`.  All reads
    (:meth:`query`, :meth:`base`) observe the revision that was the head at
    ``begin()`` time, regardless of interim commits; every query's
    dependency signature is recorded as the session's *read footprint* for
    commit-time validation.  ``stage()`` queues update programs;
    ``commit()`` runs the optimistic protocol (and raises
    :class:`ConflictError` when validation fails — the session is dead
    then, begin a fresh one to retry).
    """

    __slots__ = (
        "service", "id", "pinned", "state",
        "_signatures", "_staged", "conflict",
    )

    def __init__(self, service: "StoreService", session_id: str, pinned: int):
        self.service = service
        self.id = session_id
        self.pinned = pinned
        self.state = OPEN
        self._signatures: list[QuerySignature] = []
        self._staged: list[UpdateProgram] = []
        self.conflict: ConflictError | None = None

    # -- reading -----------------------------------------------------------
    def base(self) -> ObjectBase:
        """The pinned revision's base (frozen shared view, no copy)."""
        return self.service.store.base_at(self.pinned)

    def query(self, query) -> list[Answer]:
        """Answer a conjunctive query against the pinned revision and add
        its dependency signature to the session's read footprint.

        Always evaluated against the pinned base, not the head, which can
        move when another thread commits (``base_at`` pairs index and base
        atomically, so the pin holds even mid-commit)."""
        self._check_open()
        prepared = prepare_query(query)
        self._signatures.append(prepared.signature)
        return prepared.run(self.base())

    # -- writing -----------------------------------------------------------
    def stage(self, program) -> "Session":
        """Queue an update program (text or :class:`UpdateProgram`) to run
        at commit; its full read footprint joins the validation set."""
        self._check_open()
        program = self.service.coerce_program(program)
        self._staged.append(program)
        self._signatures.append(program_signature(program))
        return self

    @property
    def staged(self) -> tuple[UpdateProgram, ...]:
        return tuple(self._staged)

    def commit(self, *, tag: str = "") -> CommitOutcome:
        """Validate and commit the staged programs (see the module doc).

        Raises :class:`ConflictError` when a delta committed since the
        pinned revision intersects this session's footprint; the session is
        finished either way.
        """
        self._check_open()
        if not self._staged:
            raise SessionError(
                f"session {self.id} has nothing staged; use stage() before "
                f"commit(), or abort() to discard the session"
            )
        return self.service._commit_session(self, tag)

    def abort(self) -> None:
        """Discard the session (idempotent; committed sessions stay so)."""
        if self.state == OPEN:
            self.state = ABORTED

    def _check_open(self) -> None:
        if self.state != OPEN:
            raise SessionError(f"session {self.id} is already {self.state}")

    def _validate(self, interim: Sequence[StoreRevision]) -> None:
        """First-committer-wins check: no interim delta may fire any
        signature of this session's footprint."""
        for revision in interim:
            delta = Delta()
            delta.record(revision.added, revision.removed)
            for signature in self._signatures:
                if signature.affected_by(delta):
                    raise ConflictError(
                        f"session {self.id} (pinned at revision "
                        f"{self.pinned}) conflicts with revision "
                        f"{revision.index} [{revision.tag}]: its delta "
                        f"intersects the session's read/write footprint",
                        pinned=self.pinned,
                        conflicting_index=revision.index,
                        conflicting_tag=revision.tag,
                    )


class StoreService:
    """The concurrent serving facade over one :class:`VersionedStore`.

    One instance mediates every reader and writer of a store (the asyncio
    server holds exactly one); it owns the FIFO writer queue, the optional
    journal writer (``journal``, ``None`` for a memory-only store), and the
    push-subscription manager
    (:class:`~repro.server.subscriptions.SubscriptionManager`).

    >>> service = StoreService(VersionedStore(base))        # doctest: +SKIP
    >>> session = service.begin()                           # doctest: +SKIP
    >>> session.query("E.sal -> S")                         # doctest: +SKIP
    >>> session.stage(program).commit(tag="raise")          # doctest: +SKIP
    """

    def __init__(
        self,
        store: VersionedStore,
        *,
        journal: JournalWriter | None = None,
        role: str = "primary",
        shard_id: int | None = None,
        shard_count: int | None = None,
    ) -> None:
        from repro.server.subscriptions import SubscriptionManager

        self.store = store
        self.journal = journal
        #: Position in a hash-partitioned cluster (``repro cluster``), or
        #: ``None`` for a standalone/replica-set node.  Routers verify the
        #: declared identity at connect time so a misordered member list
        #: fails loudly instead of scattering facts to the wrong shards.
        self.shard_id = shard_id
        self.shard_count = shard_count
        #: ``"primary"`` (accepts commits) or ``"follower"`` (read-only,
        #: fed by a replication stream; see :mod:`repro.replication`).
        self.role = role
        #: Writes from an epoch below this are fenced off (``repl-fence``).
        self._fenced_epoch = 0
        #: Journal lines published to replication streams, lifetime total.
        self._repl_streamed = 0
        self._repl_listeners: list[Callable[[dict], None]] = []
        #: Extra ``stats()["replication"]`` fields (a follower installs its
        #: lag/heartbeat view here); zero-argument callable returning a dict.
        self.replication_info: Callable[[], dict] | None = None
        #: The node-control surface behind ``repl-promote``/``repl-retarget``
        #: (a :class:`repro.replication.follower.Follower` installs itself).
        self.replication_control = None
        self._writer_queue = _FIFOLock()
        self._state_lock = threading.Lock()
        self._session_counter = 0
        self._commits = 0
        self._conflicts = 0
        self.subscriptions = SubscriptionManager(store)

    # -- construction ------------------------------------------------------
    @classmethod
    def open(
        cls,
        directory,
        *,
        options: StoreOptions | None = None,
        durability: DurabilityOptions | None = None,
        shard_id: int | None = None,
        shard_count: int | None = None,
    ) -> "StoreService":
        """Open a journal directory as a service: the journal is replayed
        into a store (restart recovery — the service is the journal's
        writer, so torn/duplicated tail lines are repaired on disk here)
        and every future commit appends under ``durability``."""
        journal = JournalWriter(directory, durability)
        return cls(
            journal.open(options=options),
            journal=journal,
            shard_id=shard_id,
            shard_count=shard_count,
        )

    @classmethod
    def create(
        cls,
        base: ObjectBase,
        directory,
        *,
        tag: str = "initial",
        options: StoreOptions | None = None,
        durability: DurabilityOptions | None = None,
        shard_id: int | None = None,
        shard_count: int | None = None,
    ) -> "StoreService":
        """Initialize a fresh journal directory from ``base`` and serve it."""
        store = VersionedStore(base, tag=tag, options=options)
        journal = JournalWriter(directory, durability)
        journal.create(store)
        return cls(
            store,
            journal=journal,
            shard_id=shard_id,
            shard_count=shard_count,
        )

    # -- coercion helpers --------------------------------------------------
    @staticmethod
    def coerce_program(program) -> UpdateProgram:
        """Accept an :class:`UpdateProgram` or concrete-syntax text."""
        if isinstance(program, UpdateProgram):
            return program
        from repro.lang.parser import parse_program  # lazy: lang sits above core

        return parse_program(program)

    # -- reading -----------------------------------------------------------
    def query(self, query) -> list[Answer]:
        """Answer against the current head: fresh canonical rows."""
        start = time.perf_counter()
        answers = self.store.query(query)
        elapsed = time.perf_counter() - start
        _obs.observe("service_query_seconds", elapsed)
        _slowlog.maybe_record(
            "query", elapsed, detail=str(query), answers=len(answers)
        )
        return answers

    # -- transactions ------------------------------------------------------
    def begin(self) -> Session:
        """Start an MVCC session pinned at the current head revision."""
        with self._state_lock:
            self._session_counter += 1
            session_id = f"s{self._session_counter}"
        return Session(self, session_id, len(self.store) - 1)

    def apply(self, program, *, tag: str = "") -> CommitOutcome:
        """One-shot autocommit: serialize behind the writer queue and run
        ``program`` against the head (never conflicts — it has no pin)."""
        program = self.coerce_program(program)
        with self._writer():
            return self._commit_programs([program], tag)

    def run_transaction(
        self,
        work: Callable[[Session], object],
        *,
        attempts: int = 5,
        tag: str = "",
    ) -> CommitOutcome:
        """The retry loop every optimistic client wants: begin a session,
        run ``work(session)`` (reads + stages), commit; on
        :class:`ConflictError` begin a fresh session and try again, up to
        ``attempts`` times."""
        last: ConflictError | None = None
        for _attempt in range(max(1, attempts)):
            session = self.begin()
            try:
                work(session)
                return session.commit(tag=tag)
            except ConflictError as conflict:
                last = conflict
        raise last

    # -- replication & epoch fencing ---------------------------------------
    @property
    def epoch(self) -> int:
        """The fencing epoch every new commit is stamped with."""
        return self.store.epoch

    def check_epoch(self, min_epoch: int | None) -> None:
        """Reject a write whose client has already seen a newer promotion.

        Replica-set clients stamp mutations with the highest epoch they
        have observed; a zombie primary (still at the old epoch after a
        failover it never heard about) fails the write instead of forking
        the history."""
        if min_epoch is None:
            return
        if self.epoch < min_epoch:
            raise StaleEpochError(
                f"write demands epoch >= {min_epoch} but this node is at "
                f"epoch {self.epoch}; a newer primary has been promoted — "
                f"retry against it",
                current_epoch=self.epoch,
                required_epoch=min_epoch,
            )

    def check_revision(self, min_revision: int | None) -> None:
        """The read-your-writes gate: a client that committed revision N
        may demand ``min_revision: N`` of any node.  Until this node's head
        reaches it the read is shed with the retryable
        :class:`ServerBusyError` — at once; the waiting is the client's
        (:func:`repro.api.connection.wait_for_revision`)."""
        if min_revision is None:
            return
        if not isinstance(min_revision, int) or isinstance(min_revision, bool):
            raise ReproError(
                f"min_revision must be an integer, got {min_revision!r}"
            )
        head = len(self.store) - 1
        if head < min_revision:
            raise ServerBusyError.behind(head, min_revision)

    def fence(self, epoch: int) -> bool:
        """Fence writes below ``epoch`` (the promotion's edict to the old
        primary).  Returns ``True`` when this node is now fenced — i.e. its
        own epoch is older and every further commit raises
        :class:`StaleEpochError` until a (re-)promotion lifts it."""
        with self._state_lock:
            if epoch > self._fenced_epoch:
                self._fenced_epoch = epoch
        return self.store.epoch < self._fenced_epoch

    def promote(
        self,
        *,
        epoch: int | None = None,
        journal: JournalWriter | None = None,
    ) -> int:
        """Make this node the writable primary under a new, higher epoch.

        Bumps the store's epoch past everything this node has seen (its own
        chain, any fence, an explicit ``epoch`` floor from a supervisor) so
        the first post-promotion commit stamps a strictly newer epoch into
        the journal and the old primary's unreplicated tail can never be
        confused with the new history.  A follower hands over its journal
        writer here (``journal``) so commits start appending.
        """
        with self._writer():
            new_epoch = max(
                self.store.epoch + 1, self._fenced_epoch, epoch or 0
            )
            self.store.epoch = new_epoch
            self.role = "primary"
            if journal is not None:
                self.journal = journal
            return new_epoch

    def add_replication_listener(
        self, listener: Callable[[dict], None]
    ) -> Callable[[dict], None]:
        """Register ``listener(entry)`` to run for each commit once its
        journal line is durable and the revision published — never for a
        write that failed, so a follower can never hold a line its primary
        lost.  ``entry`` is what the journal writer's ``commit`` wrote,
        shared by every listener.  The caller must serialize registration
        against in-flight commits (register under :meth:`_writer`, as
        :func:`repro.server.stream.attach` does)."""
        self._repl_listeners.append(listener)
        return listener

    def remove_replication_listener(self, listener) -> None:
        try:
            self._repl_listeners.remove(listener)
        except ValueError:
            pass

    def _writer(self) -> _FIFOLock:
        """The FIFO writer queue; hold it with ``with service._writer():``."""
        return self._writer_queue

    def _commit_session(self, session: Session, tag: str) -> CommitOutcome:
        with self._writer():
            interim = self.store.revisions(session.pinned + 1)
            validate_start = time.perf_counter()
            try:
                session._validate(interim)
            except ConflictError as conflict:
                session.state = ABORTED
                session.conflict = conflict
                with self._state_lock:
                    self._conflicts += 1
                _obs.inc("server_conflicts")
                raise
            _obs.observe(
                "commit_phase_seconds",
                time.perf_counter() - validate_start,
                phase="validate",
            )
            outcome = self._commit_programs(session._staged, tag)
            session.state = COMMITTED
            return outcome

    def _commit_programs(
        self, programs: Sequence[UpdateProgram], tag: str
    ) -> CommitOutcome:
        """Evaluate-all-then-commit-all (atomic batch); caller holds the
        writer queue.

        Evaluation errors commit nothing.  With a journal the batch is
        written ahead: the store publishes none of it until all its lines
        are durable (one append), then replication listeners get the
        entries.  A failed write raises :class:`SessionError` and publishes
        nothing; the next commit works if the write left no bytes, and fails
        the journal's tail check if it left some, until :meth:`open`
        repairs or adopts the tail.
        """
        if self.role != "primary":
            raise NotPrimaryError(
                f"this node is a read-only {self.role}; commit on the "
                f"primary, or promote this node first"
            )
        if self.store.epoch < self._fenced_epoch:
            raise StaleEpochError(
                f"this primary was fenced at epoch {self._fenced_epoch} "
                f"(it is still at epoch {self.store.epoch}); a newer "
                f"primary has been promoted — retry against it",
                current_epoch=self.store.epoch,
                required_epoch=self._fenced_epoch,
            )
        store = self.store
        base = store.current
        commit_start = time.perf_counter()
        # (new_base, added, removed, tag, name) per program — not the whole
        # result, whose result(P) would pin one more set of index spines each
        updates: list[tuple] = []
        for position, program in enumerate(programs):
            result = DEFAULT_ENGINE.apply(program, base)
            base = result.new_base.freeze()
            revision_tag = tag if len(programs) == 1 else (tag and f"{tag}.{position}")
            updates.append(
                (base, result.added, result.removed, revision_tag, program.name)
            )
        _obs.observe(
            "commit_phase_seconds",
            time.perf_counter() - commit_start,
            phase="evaluate",
        )
        entries: list[dict] = []

        def write_ahead(revisions: list[StoreRevision]):
            """The journal step: the batch's lines are durable before the
            store publishes any of it."""
            try:
                written, sources = self.journal.commit(revisions)
            except Exception as error:
                named = ", ".join(f"{r.index} [{r.tag}]" for r in revisions)
                raise SessionError(
                    f"not committed: the journal write of revision {named} "
                    f"failed ({error})"
                ) from error
            entries.extend(written)
            return sources

        revisions = store.commit_updates(
            updates, journal=write_ahead if self.journal is not None else None
        )
        # A follower only ever streams lines that are durable here, keeping
        # its journal a prefix of this one through a crash.
        for entry in entries:
            for listener in tuple(self._repl_listeners):
                listener(entry)
                self._repl_streamed += 1
        with self._state_lock:
            self._commits += len(revisions)
        total = time.perf_counter() - commit_start
        _obs.inc("server_commits", len(revisions))
        _slowlog.maybe_record(
            "commit",
            total,
            tag=tag,
            programs=len(programs),
            head=revisions[-1].index if revisions else None,
        )
        return CommitOutcome(revisions)

    # -- accounting --------------------------------------------------------
    def stats(self) -> dict:
        """A point-in-time, JSON-ready report on the service.

        Every section is a fresh structure its owner builds on the call
        (the subscription manager under its lock), so a concurrent commit
        or subscribe cannot change it while ``json.dumps`` walks it.
        """
        self.record_gauges()
        return {
            "revisions": len(self.store),
            "head_tag": self.store.head.tag,
            "commits": self._commits,
            "conflicts": self._conflicts,
            "sessions_begun": self._session_counter,
            "journal": str(self.journal.directory) if self.journal else None,
            "durability": self.journal.durability.mode if self.journal else None,
            "subscriptions": self.subscriptions.stats(),
            # Always empty since the answer memo went; the frozen benchmark
            # still iterates the key (ROADMAP item 3 retires both).
            "prepared": {},
            # The process-wide cache registry (join-plan compilers, the
            # codegen backend counters, the OID intern table, ...) — what
            # ``repro client stats`` shows an operator.
            "caches": cache_stats(),
            "replication": self._replication_stats(),
            # The observability layer: the metrics-registry snapshot (empty
            # with REPRO_OBS unset) and the always-on slow-operation ring.
            "metrics": _obs.snapshot(),
            "slowlog": self.slowlog(),
            # Cluster identity (``repro cluster``); both None standalone.
            "shard": {"id": self.shard_id, "count": self.shard_count},
        }

    def slowlog(self) -> dict:
        """The slow-query/slow-commit ring (see :mod:`repro.obs.slowlog`)."""
        return _slowlog.slowlog().stats()

    def record_gauges(self) -> None:
        """Refresh point-in-time gauges (sessions, subscriptions,
        replication lag/epoch) in the metrics registry.  Called on every
        stats/metrics read so scrapes always see current values; a no-op
        when metrics are off."""
        if not _obs.metrics_enabled():
            return
        registry = _obs.registry()
        registry.set_gauge("server_sessions_begun", self._session_counter)
        registry.set_gauge(
            "server_subscriptions", len(self.subscriptions)
        )
        registry.set_gauge("store_revisions", len(self.store))
        replication = self._replication_stats()
        registry.set_gauge("repl_epoch", replication["epoch"])
        registry.set_gauge(
            "repl_followers", replication["followers"]
        )
        registry.set_gauge(
            "repl_streamed_lines", replication["streamed_lines"]
        )
        lag = replication.get("lag")
        if lag is not None:
            registry.set_gauge("repl_lag_revisions", lag)
        lag_seconds = replication.get("lag_seconds")
        if lag_seconds is not None:
            registry.set_gauge("repl_lag_seconds", lag_seconds)
        alive = replication.get("primary_alive")
        if alive is not None:
            registry.set_gauge("repl_primary_alive", 1.0 if alive else 0.0)

    def _replication_stats(self) -> dict:
        """The uniform ``stats()["replication"]`` section every backend
        carries: role, fencing epoch, and — on a follower, via the
        :attr:`replication_info` hook — stream lag and primary health."""
        info = {
            "role": self.role,
            "epoch": self.epoch,
            "fenced_epoch": self._fenced_epoch,
            "last_index": len(self.store) - 1,
            "followers": len(self._repl_listeners),
            "streamed_lines": self._repl_streamed,
            "primary": None,
            "lag": 0 if self.role == "primary" else None,
            "primary_alive": None,
        }
        extra = self.replication_info
        if extra is not None:
            info.update(extra())
        return info
