"""The :class:`Connection` surface every backend implements.

One semantics, one surface: a :class:`Connection` obtained from
:func:`repro.connect` behaves identically whether it wraps an ephemeral
in-memory store, a journaled store directory, or a running server — same
answer rows, same :class:`~repro.api.model.Revision` records, same
exceptions (everything derives from
:class:`~repro.core.errors.ReproError`; optimistic-commit losses are the
retryable :class:`~repro.server.errors.ConflictError` on every backend).

Three interaction styles:

* **autocommit** — :meth:`Connection.apply` runs one update-program
  against the head and commits it;
* **optimistic transactions** — ``with conn.transaction() as tx:`` pins a
  revision, records reads and staged programs, and commits on exit;
  ``transaction(attempts=N)`` transparently *replays* the recorded
  operations on a fresh pin when the commit loses its validation race
  (use :meth:`Connection.run_transaction` when the transaction body's
  Python logic depends on the values it read — that re-runs your code,
  not a recording);
* **live queries** — :meth:`Connection.subscribe` returns a
  :class:`SubscriptionStream`: the initial answers plus a blocking
  iterator of :class:`~repro.api.model.AnswerDelta` pushes.
"""

from __future__ import annotations

import queue
import time
from abc import ABC, abstractmethod
from typing import Callable, Sequence

from repro.api.model import AnswerDelta, CommitResult, Diff, Revision
from repro.core.objectbase import ObjectBase
from repro.core.query import Answer, decode_answers, diff_answers, fold_answers
from repro.server.errors import ConflictError, ServerError, SessionError

__all__ = ["Connection", "Transaction", "SubscriptionStream"]

#: Transaction lifecycle states.
OPEN, COMMITTED, ABORTED = "open", "committed", "aborted"


class Connection(ABC):
    """One handle over one deployment of the update-language store.

    Context-manageable; :meth:`close` releases backend resources (sockets,
    subscription registrations).  All methods raise
    :class:`~repro.core.errors.ReproError` subclasses on failure.
    """

    #: Human-readable target this connection was opened on (``memory:``,
    #: a journal directory, ``unix:/path``, ``tcp:host:port``).
    target: str = ""

    def __init__(self) -> None:
        self._closed = False
        self._streams: list[SubscriptionStream] = []

    # -- liveness ----------------------------------------------------------
    @abstractmethod
    def ping(self) -> dict:
        """Liveness probe: ``{"pong": True, "protocol": N}``."""

    # -- reading -----------------------------------------------------------
    @abstractmethod
    def query(self, body, *, min_revision: int | None = None) -> list[Answer]:
        """Answer a conjunctive query (concrete-syntax text) against the
        head revision.  Rows are canonical decoded answers — value-equal
        to ``repro.query`` on the same base, on every backend.

        ``min_revision`` is the read-your-writes token of replicated
        serving: a node whose head has not reached that revision waits
        briefly for replication, then sheds the read with a retryable
        :class:`~repro.server.errors.ServerBusyError` rather than answer
        from the past.  (On a single-node backend the head always
        satisfies any token it issued.)"""

    @abstractmethod
    def log(self) -> tuple[Revision, ...]:
        """The whole revision chain, oldest first."""

    @property
    def head(self) -> Revision:
        """The newest revision's record."""
        return self.log()[-1]

    @abstractmethod
    def as_of(self, revision) -> ObjectBase:
        """The full object base as of a revision (tag, index, or the
        digit-string form of an index — identical addressing everywhere)."""

    @abstractmethod
    def diff(self, older, newer, *, include_exists: bool = False) -> Diff:
        """``(added, removed)`` fact strings between two revisions."""

    # -- writing -----------------------------------------------------------
    @abstractmethod
    def apply(self, program, *, tag: str = "") -> Revision:
        """Autocommit one update-program (text or
        :class:`~repro.core.rules.UpdateProgram`) against the head."""

    @abstractmethod
    def transaction(self, *, tag: str = "", attempts: int = 1) -> "Transaction":
        """Begin an optimistic MVCC transaction pinned at the head.

        ``attempts > 1`` enables automatic conflict retry: a commit that
        raises :class:`ConflictError` re-begins and *replays the recorded
        reads and stages* on a fresh pin, up to ``attempts`` times.
        """

    def run_transaction(
        self,
        work: Callable[["Transaction"], object],
        *,
        attempts: int = 5,
        tag: str = "",
    ) -> CommitResult:
        """Run ``work(tx)`` in a fresh transaction, retrying the *whole
        callable* on :class:`ConflictError` — the right retry form when the
        body's logic depends on what it read."""
        self._check_open()
        last: ConflictError | None = None
        for attempt in range(1, max(1, attempts) + 1):
            transaction = self.transaction(tag=tag, attempts=1)
            try:
                work(transaction)
                result = transaction.commit()
                return CommitResult(result.revisions, attempts=attempt)
            except ConflictError as conflict:
                last = conflict
            finally:
                transaction.abort()
        raise last

    # -- live queries ------------------------------------------------------
    @abstractmethod
    def subscribe(
        self, body, *, name: str | None = None,
        min_revision: int | None = None,
    ) -> "SubscriptionStream":
        """Register a live query; returns the stream seeded with the
        current answers.  Only answer diffs travel afterwards.
        ``min_revision`` is the same read-your-writes token as on
        :meth:`query` — the seed answers are at least that fresh."""

    # -- accounting --------------------------------------------------------
    @abstractmethod
    def stats(self) -> dict:
        """Backend counters (commits, conflicts, subscriptions, caches)."""

    # -- lifecycle ---------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the connection (idempotent).  Live streams are closed."""
        if self._closed:
            return
        self._closed = True
        for stream in list(self._streams):
            stream.close()
        self._teardown()

    def _teardown(self) -> None:
        """Backend hook: release sockets/threads after streams closed."""

    def _check_open(self) -> None:
        if self._closed:
            raise ServerError(f"connection to {self.target} is closed")

    def _track(self, stream: "SubscriptionStream") -> "SubscriptionStream":
        self._streams.append(stream)
        stream._unregister = lambda: self._untrack(stream)
        return stream

    def _untrack(self, stream: "SubscriptionStream") -> None:
        try:
            self._streams.remove(stream)
        except ValueError:  # already dropped (connection close vs. stream close)
            pass

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"<{type(self).__name__} {self.target} ({state})>"


class Transaction(ABC):
    """One optimistic transaction over a :class:`Connection`.

    Reads (:meth:`query`) run against the revision pinned at begin time
    and join the conflict-validation footprint; :meth:`stage` queues
    update-programs for the commit.  As a context manager: a clean exit
    with staged programs commits, a clean exit with nothing staged (a
    read-only transaction) aborts, an exception aborts and propagates.

    Operations are *recorded*: when ``attempts > 1`` and the commit loses
    its first-committer-wins validation, the transaction re-begins on a
    fresh pin and replays the recording before committing again.  The
    replay re-executes the recorded reads and stages — it does not re-run
    arbitrary Python between them (for that, see
    :meth:`Connection.run_transaction`).
    """

    def __init__(self, *, tag: str = "", attempts: int = 1) -> None:
        self._tag = tag
        self._attempts = max(1, attempts)
        self._ops: list[tuple[str, object]] = []
        self._staged_count = 0
        self.state = OPEN
        self.result: CommitResult | None = None
        self.attempts_used = 0

    # -- backend plumbing --------------------------------------------------
    @property
    @abstractmethod
    def pinned(self) -> int:
        """The revision index this transaction currently reads at."""

    @abstractmethod
    def _begin(self) -> None:
        """Open a fresh backend session (also used by conflict replay)."""

    @abstractmethod
    def _do_query(self, body) -> list[Answer]: ...

    @abstractmethod
    def _do_stage(self, program) -> None: ...

    @abstractmethod
    def _do_commit(self, tag: str) -> CommitResult: ...

    @abstractmethod
    def _do_abort(self) -> None: ...

    # -- the uniform surface ----------------------------------------------
    def query(self, body) -> list[Answer]:
        """Read at the pinned revision; the query joins the footprint."""
        self._check_open()
        answers = self._do_query(body)
        self._ops.append(("query", body))
        return answers

    def stage(self, program) -> "Transaction":
        """Queue an update-program to run at commit."""
        self._check_open()
        self._do_stage(program)
        self._ops.append(("stage", program))
        self._staged_count += 1
        return self

    def commit(self, *, tag: str | None = None) -> CommitResult:
        """Validate and commit, retrying with replay up to the
        transaction's ``attempts``.  Raises :class:`ConflictError` when
        every attempt loses; the transaction is finished either way."""
        self._check_open()
        commit_tag = self._tag if tag is None else tag
        for attempt in range(1, self._attempts + 1):
            try:
                outcome = self._do_commit(commit_tag)
            except ConflictError:
                if attempt >= self._attempts:
                    self.state = ABORTED
                    raise
                self._replay()
                continue
            self.state = COMMITTED
            self.attempts_used = attempt
            self.result = CommitResult(outcome.revisions, attempts=attempt)
            return self.result
        raise AssertionError("unreachable")  # pragma: no cover

    def abort(self) -> None:
        """Discard the transaction (idempotent; committed stays so)."""
        if self.state == OPEN:
            self.state = ABORTED
            self._do_abort()

    def _replay(self) -> None:
        """Conflict retry: fresh pin, recorded operations re-executed."""
        self._begin()
        for kind, payload in self._ops:
            if kind == "query":
                self._do_query(payload)
            else:
                self._do_stage(payload)

    def _check_open(self) -> None:
        if self.state != OPEN:
            raise SessionError(f"transaction is already {self.state}")

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()
            return
        if self.state == OPEN:
            if self._staged_count:
                self.commit()
            else:
                self.abort()


class SubscriptionStream:
    """A live query: the initial answers plus a stream of answer deltas.

    ``answers`` always holds the full decoded answer set as of the last
    delta consumed (the subscribe-time seed, folded forward by every
    :meth:`next`); :meth:`next` blocks for the next
    :class:`~repro.api.model.AnswerDelta` (``None`` on timeout).
    Iterating yields deltas until :meth:`close`.  Commits that provably
    cannot change the answers never produce a delta — on any backend.

    When the stream falls behind — the server load-shed its queued diffs,
    or the connection was redialed after a restart — the next delta is a
    coalesced one (``delta.lagged`` is true): its ``(added, removed)`` is
    the exact answer diff between the last state this stream saw and the
    current resynchronized state, so folding stays correct across the gap.
    An outage whose resync shows *no* answer change produces no delta at
    all (the revision still advances).
    """

    def __init__(
        self,
        *,
        sid: str,
        query: str,
        revision: int,
        answers: Sequence[Answer],
        pushes: "queue.Queue[dict]",
        closer: Callable[[], None],
    ) -> None:
        self.sid = sid
        self.query = query
        self.revision = revision
        self.answers = list(answers)
        self._pushes = pushes
        self._closer = closer
        self._unregister: Callable[[], None] | None = None
        self._closed = False

    def next(self, timeout: float | None = None) -> AnswerDelta | None:
        """The next answer delta; blocks up to ``timeout`` seconds
        (forever when ``None``), returns ``None`` when none arrived.
        Closing the stream — even from another thread, mid-block — makes
        this return ``None``, never raise, so consumer loops end cleanly."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self._closed:
                return None
            try:
                if deadline is None:
                    push = self._pushes.get()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        push = self._pushes.get_nowait()
                    else:
                        push = self._pushes.get(timeout=remaining)
            except queue.Empty:
                return None
            if push is _STREAM_CLOSED:
                return None
            delta = self._ingest(push)
            if delta is not None:
                return delta
            # an empty resync (or an unknown push kind): nothing for the
            # consumer; keep waiting out the original deadline

    def _ingest(self, push: dict) -> AnswerDelta | None:
        """Fold one push message into the stream state; ``None`` when the
        push carries nothing the consumer needs to see."""
        kind = push.get("push", "diff")
        if kind == "diff":
            delta = AnswerDelta.from_push(push)
            self.answers = fold_answers(self.answers, delta.added, delta.removed)
            self.revision = delta.revision
            return delta
        if kind == "lagged":
            # Coalesced catch-up: the push carries the full current answer
            # set; the delta the consumer sees is the diff against the last
            # state *this* stream reached, so folding stays exact.
            current = decode_answers(push.get("answers", []))
            added, removed = diff_answers(self.answers, current)
            self.answers = list(current)
            self.revision = push.get(
                "to_revision", push.get("revision", self.revision)
            )
            if not added and not removed:
                return None
            return AnswerDelta(
                sid=self.sid,
                query=self.query,
                revision=self.revision,
                tag=push.get("tag", ""),
                added=tuple(added),
                removed=tuple(removed),
                lagged=True,
            )
        return None  # forward compatibility: ignore unknown push kinds

    def __iter__(self):
        while not self._closed:
            delta = self.next()
            if delta is None:
                return
            yield delta

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Unsubscribe (idempotent).  Wakes any thread blocked in
        :meth:`next` and drops this stream from its connection's books."""
        if not self._closed:
            self._closed = True
            self._closer()
            self._pushes.put(_STREAM_CLOSED)
            if self._unregister is not None:
                self._unregister()

    def _mark_dead(self) -> None:
        """Terminate without the unsubscribe round-trip: the connection is
        gone for good (retry exhausted, or no policy).  Safe to call from
        the wire backend's loop thread — no network, no locks."""
        if not self._closed:
            self._closed = True
            self._pushes.put(_STREAM_CLOSED)
            if self._unregister is not None:
                self._unregister()

    def __enter__(self) -> "SubscriptionStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: Queue sentinel: the stream closed while a consumer was blocked in next().
_STREAM_CLOSED = object()
