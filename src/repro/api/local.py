"""The in-process backends: ephemeral stores and journal directories.

One :class:`ServiceConnection` serves both ``memory:`` targets (a fresh
:class:`~repro.storage.history.VersionedStore` wrapped in a
:class:`~repro.server.service.StoreService`) and journal-directory targets
(the service opened over — and appending to — the durable journal).  It
talks to the service *directly* (typed calls, frozen shared views, real
exception objects), not through the wire dispatcher; the differential
parity suite is what proves this fast path and the wire path agree.
"""

from __future__ import annotations

import queue
import time

from repro.api.connection import Connection, SubscriptionStream, Transaction
from repro.api.model import CommitResult, Diff, Revision
from repro.core.errors import ReproError
from repro.core.objectbase import ObjectBase
from repro.core.query import Answer, decode_answers
from repro.server.protocol import PROTOCOL_VERSION
from repro.server.service import Session, StoreService
from repro.storage.history import resolve_revision_ref

__all__ = ["ServiceConnection"]


class ServiceConnection(Connection):
    """A connection bound directly to a :class:`StoreService` in this
    process.  ``readonly=True`` (journal readers like ``repro store log``)
    rejects every write path and never repairs or appends the journal."""

    def __init__(
        self,
        service: StoreService,
        *,
        target: str = "memory:",
        readonly: bool = False,
    ) -> None:
        super().__init__()
        self.service = service
        self.target = target
        self.readonly = readonly

    # -- liveness ----------------------------------------------------------
    def ping(self) -> dict:
        self._check_open()
        return {"pong": True, "protocol": PROTOCOL_VERSION}

    # -- reading -----------------------------------------------------------
    def query(self, body, *, min_revision: int | None = None) -> list[Answer]:
        self._check_open()
        self._await_min_revision(min_revision)
        return self.service.query(body)

    def _await_min_revision(
        self, min_revision: int | None, *, deadline: float = 5.0
    ) -> None:
        """Read-your-writes on a replica served in-process: wait briefly
        for the replication stream to reach ``min_revision``, then shed the
        read (retryable) rather than answer from the past."""
        if min_revision is None:
            return
        limit = time.monotonic() + deadline
        while len(self.service.store) - 1 < min_revision:
            if time.monotonic() >= limit:
                from repro.server.errors import ServerBusyError

                raise ServerBusyError(
                    f"read-your-writes token not satisfied: node is at "
                    f"revision {len(self.service.store) - 1}, the read "
                    f"demands {min_revision} — retry shortly"
                )
            time.sleep(0.005)

    def log(self) -> tuple[Revision, ...]:
        self._check_open()
        store = self.service.store
        return tuple(
            Revision.from_store(store, revision) for revision in store.revisions()
        )

    @property
    def head(self) -> Revision:
        self._check_open()
        store = self.service.store
        return Revision.from_store(store, store.head)

    def as_of(self, revision) -> ObjectBase:
        self._check_open()
        return self.service.store.as_of(resolve_revision_ref(revision))

    def diff(self, older, newer, *, include_exists: bool = False) -> Diff:
        self._check_open()
        added, removed = self.service.store.diff(
            resolve_revision_ref(older),
            resolve_revision_ref(newer),
            include_exists=include_exists,
        )
        return Diff(
            added=tuple(sorted(str(fact) for fact in added)),
            removed=tuple(sorted(str(fact) for fact in removed)),
        )

    # -- writing -----------------------------------------------------------
    def apply(self, program, *, tag: str = "") -> Revision:
        self._check_writable()
        outcome = self.service.apply(program, tag=tag)
        return Revision.from_store(self.service.store, outcome.revision)

    def transaction(self, *, tag: str = "", attempts: int = 1) -> "_ServiceTransaction":
        self._check_writable()
        return _ServiceTransaction(self.service, tag=tag, attempts=attempts)

    # -- live queries ------------------------------------------------------
    def subscribe(
        self, body, *, name: str | None = None,
        min_revision: int | None = None,
    ) -> SubscriptionStream:
        self._check_open()
        self._await_min_revision(min_revision)
        pushes: "queue.Queue[dict]" = queue.Queue()
        subscription = self.service.subscriptions.subscribe(
            body, pushes.put, name=name
        )
        stream = SubscriptionStream(
            sid=subscription.id,
            query=subscription.query.name,
            revision=subscription.revision,
            answers=decode_answers(subscription.answers),
            pushes=pushes,
            closer=lambda: self.service.subscriptions.unsubscribe(subscription.id),
        )
        return self._track(stream)

    # -- accounting --------------------------------------------------------
    def stats(self) -> dict:
        self._check_open()
        return self.service.stats()

    # -- internal ----------------------------------------------------------
    def _check_writable(self) -> None:
        self._check_open()
        if self.readonly:
            raise ReproError(
                f"connection to {self.target} is read-only; reopen without "
                f"readonly=True to write"
            )


class _ServiceTransaction(Transaction):
    """MVCC session plumbing for the in-process backend."""

    def __init__(self, service: StoreService, *, tag: str, attempts: int) -> None:
        super().__init__(tag=tag, attempts=attempts)
        self._service = service
        self._session: Session | None = None
        self._begin()

    @property
    def pinned(self) -> int:
        return self._session.pinned

    def _begin(self) -> None:
        self._session = self._service.begin()

    def _do_query(self, body) -> list[Answer]:
        return self._session.query(body)

    def _do_stage(self, program) -> None:
        self._session.stage(program)

    def _do_commit(self, tag: str) -> CommitResult:
        outcome = self._session.commit(tag=tag)
        store = self._service.store
        return CommitResult(
            tuple(
                Revision.from_store(store, revision)
                for revision in outcome.revisions
            )
        )

    def _do_abort(self) -> None:
        if self._session is not None:
            self._session.abort()
