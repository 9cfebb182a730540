"""The served backend: a synchronous facade over the blocking wire client.

A :class:`WireConnection` drives one
:class:`~repro.server.client.LineClient` link from the caller's own
thread, so the unified connection surface stays synchronous and identical
to the in-process backends, and a call costs one socket round trip.  A
link without a live subscription starts no thread.  Push messages are
filed by subscription id into per-stream queues on whichever thread read
them — the caller, or the link's one reader thread once a subscription
exists — so several live queries on one connection never steal each
other's deltas.

Failure mapping: connect and transport failures surface as
:class:`~repro.server.errors.ServerError`; server-side errors arrive
already typed (:class:`~repro.server.errors.ConflictError` keeps its
``pinned``/``conflicting_index`` attributes across the wire) — everything
a caller sees derives from :class:`~repro.core.errors.ReproError`.

**Reconnect.**  With a :class:`~repro.api.model.RetryPolicy`, a dropped
link is not terminal: the connection redials with exponential backoff plus
jitter, re-subscribes every live query, and hands each stream one
coalesced *lagged* delta spanning the outage (the stream diffs the resync
answers against its own folded state, so folding stays exact across a
server restart).  Only **safe** commands — reads, subscribes, pings — are
re-issued transparently; a mutation that was in flight when the link died
surfaces :class:`~repro.server.errors.ConnectionClosed` (retryable) for
the caller, because the server may already have committed it.

**Silence.**  Every facade call's wait for the link and for its answer is
bounded by ``call_timeout`` (default :data:`CALL_TIMEOUT`): a server that
accepts and never answers fails the call with the retryable
``ConnectionClosed`` ("did not answer within …"), and the link stays up
for the next request.  A redial runs on the thread that found the link
dead — a caller, or the reader — one at a time.  A caller's redial, its
backoff sleeps and each dial and probe included, stays within the same
``call_timeout``; when that runs out first while live queries still need
the link, the redial goes on on a thread of its own.

**Replica sets.**  A connection over more than one endpoint
(``replset:a,b,c``, or a ``cluster:`` shard spelled ``a|b``) is the same
machinery with a choice of whom to dial: every (re)dial pings the members
and keeps the link to the ``role: primary`` with the highest fencing
epoch — or, with no primary in sight, to the first member that answers,
so reads keep flowing until a promotion lands.  ``apply`` and
``tx-commit`` are stamped with the highest epoch observed, so a zombie
primary refuses the write instead of forking history.  A member that
answers ``not_primary`` / ``stale_epoch`` *refused* — nothing was
applied — so the connection rediscovers the primary through the same
reconnect funnel and re-sends the ``apply``; that is the only mutation
ever re-sent.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Sequence

from repro.api.connection import (
    Connection,
    SubscriptionStream,
    Transaction,
    wait_for_revision,
)
from repro.api.model import CommitResult, Diff, RetryPolicy, Revision
from repro.api.targets import dial_endpoint
from repro.core.errors import ReproError
from repro.core.objectbase import ObjectBase
from repro.core.query import Answer, decode_answers
from repro.core.rules import UpdateProgram
from repro.lang.parser import parse_object_base
from repro.lang.pretty import format_program
from repro.server.client import (
    CallTimeout, LineClient, NotSent, _left, _raise_for,
)
from repro.server.errors import ConnectionClosed, ServerError
from repro.storage.history import resolve_revision_ref

__all__ = ["WireConnection"]

#: Commands safe to re-issue on a fresh connection after a drop: they read,
#: register, or cancel — never mutate the store.  ``apply`` and the ``tx-*``
#: family are deliberately absent: the server may have committed the lost
#: request before the link died, and replaying would double-apply.
_SAFE_COMMANDS = frozenset(
    {"ping", "query", "log", "as-of", "diff", "stats", "metrics",
     "slowlog", "subscribe", "unsubscribe"}
)

#: Redial timeout per attempt (matches the initial-connect bound).
_DIAL_TIMEOUT = 30.0

#: The ``call_timeout`` a served connection gets when none is passed: how
#: long one facade call may wait for its answer.
CALL_TIMEOUT = 30.0


class _LiveSub:
    """Book-keeping for one live subscription: everything needed to
    re-establish it on a fresh connection."""

    __slots__ = ("sid", "body", "name", "pushes", "stream")

    def __init__(self, *, sid, body, name, pushes, stream) -> None:
        self.sid = sid
        self.body = body
        self.name = name
        self.pushes = pushes
        self.stream = stream


class WireConnection(Connection):
    """A connection to running ``repro serve`` endpoints.

    ``endpoints`` are served-endpoint texts (``serve:`` / ``unix:`` /
    ``tcp:`` / a socket path) in preference order: one is a plain served
    connection, several are the members of a replica set (see the module
    doc).  ``call_timeout`` bounds every facade call's wait for the link
    and for its answer (``None`` takes :data:`CALL_TIMEOUT`; pushes are
    unaffected).  ``retry`` (a :class:`~repro.api.model.RetryPolicy`)
    enables transparent reconnect after a dropped link — see the module
    doc for what is and is not re-issued, and, over a member list, re-sent
    after a refusal.
    """

    def __init__(
        self,
        endpoints: Sequence[str],
        *,
        call_timeout: float | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        super().__init__()
        self.targets = [str(endpoint) for endpoint in endpoints]
        if not self.targets:
            raise ReproError("a served connection needs at least one endpoint")
        self._endpoints = [dial_endpoint(target) for target in self.targets]
        if len(self._endpoints) == 1:
            endpoint = self._endpoints[0]
            self.target = (
                f"unix:{endpoint['path']}" if "path" in endpoint
                else f"tcp:{endpoint['host']}:{endpoint['port']}"
            )
        else:
            self.target = "replset:" + ",".join(self.targets)
        self.call_timeout = CALL_TIMEOUT if call_timeout is None else call_timeout
        self.retry = retry
        #: Highest fencing epoch observed anywhere; stamped on mutations.
        self.epoch = 0
        self._epoch_lock = threading.Lock()
        #: Index of the member last seen as ``role: primary`` (dialed first).
        self._primary: int | None = None
        #: Guards the routing tables below: pushes are filed on whichever
        #: thread read them, while callers (un)register streams.
        self._route_lock = threading.Lock()
        self._push_queues: dict[str, "queue.Queue[dict]"] = {}
        self._unclaimed: "queue.Queue[dict]" = queue.Queue()
        self._subs: dict[str, _LiveSub] = {}
        #: Held by the one redial in progress.
        self._redial_lock = threading.Lock()
        self._client: LineClient | None = None
        self.reconnects = 0
        try:
            self._dial()
        except (ConnectionError, OSError) as error:
            raise ServerError(
                f"cannot connect to {self.target}: {error}"
            ) from None

    def _dial(self, deadline: float | None = None) -> None:
        """(Re)establish the link, closing the old one first."""
        old, self._client = self._client, None
        if old is not None:
            old.close()
        if len(self._endpoints) == 1:
            client = self._connect(0, deadline)
        else:
            client = self._dial_member(deadline)
        if self._closed:  # closed while this redial was on its way
            client.close()
            raise ServerError("connection closed during reconnect")
        self._client = client

    def _connect(self, member: int, deadline: float | None) -> LineClient:
        return LineClient.connect(
            **self._endpoints[member], timeout=_within(_DIAL_TIMEOUT, deadline),
            on_push=self._route, on_dead=self._link_died,
        )

    def _dial_member(self, deadline: float | None) -> LineClient:
        """Ping the members in turn — last known primary first — and keep
        the link to the primary with the highest epoch (a fenced zombie
        still says "primary" but loses the compare) or, failing that, to
        the first member that answered."""
        order = list(range(len(self._endpoints)))
        if self._primary is not None:
            order.remove(self._primary)
            order.insert(0, self._primary)
        answered = []
        for member in order:
            probe = self._probe(member, deadline)
            if probe is None:
                continue
            client, pong = probe
            epoch = pong.get("epoch", 0)
            self._observe_epoch(epoch)
            rank = (1, epoch) if pong.get("role") == "primary" else (0, 0)
            answered.append((rank, member, client))
        if not answered:
            raise ConnectionError("no member answered a ping")
        # max() keeps the first of equals: dial order breaks ties
        chosen = max(answered, key=lambda entry: entry[0])
        for entry in answered:
            if entry is not chosen:
                entry[2].close()
        rank, member, client = chosen
        self._primary = member if rank[0] else None
        return client

    def _observe_epoch(self, epoch: int) -> None:
        """Raise the bar, never lower it: callers (commit responses) and
        redials (pings, refusals) report from any thread."""
        if epoch > self.epoch:
            with self._epoch_lock:
                if epoch > self.epoch:
                    self.epoch = epoch

    def _probe(
        self, member: int, deadline: float | None
    ) -> tuple[LineClient, dict] | None:
        """Dial one member and ask who it is; ``None`` when it is down."""
        client = None
        try:
            client = self._connect(member, deadline)
            pong = client.call(
                "ping", timeout=_within(self.call_timeout, deadline)
            )
        except (ConnectionError, OSError, ReproError):
            if client is not None:
                client.close()
            return None
        return client, pong

    def _route(self, push: dict) -> None:
        """File a push in its stream's queue by ``sid``; pushes for
        unknown sids (raw ``call("subscribe")`` users, the CLI script
        command) collect in the unclaimed queue."""
        with self._route_lock:
            sink = self._push_queues.get(push.get("sid"))
            (sink if sink is not None else self._unclaimed).put(push)

    def _link_died(self, client: LineClient) -> None:
        """A link with a reader died (reader thread), or a caller ran out
        of time redialing one (a thread of its own): reconnect under the
        retry policy, or terminate every stream so blocked consumers
        wake.  A redial already under way on another thread owns the
        recovery."""
        if self._closed or client is not self._client:
            return  # deliberate teardown, or an already-replaced link
        if self.retry is None:
            self._fail_streams()
            return
        try:
            self._reconnect(client)
        except ReproError:
            pass  # the streams were failed; the next call reports it

    # -- reconnect ---------------------------------------------------------
    def _reconnect(self, stale: LineClient | None, deadline=None) -> None:
        """Replace ``stale`` — unless another thread already has — by
        redialing with backoff and re-establishing every live
        subscription.  A caller waits for a redial in progress, and runs
        its own, until its ``deadline``; the reader thread (no deadline)
        leaves a running redial be.  Raises :class:`ConnectionClosed` —
        and terminates the streams — when the policy's attempts are
        exhausted."""
        while True:
            if deadline is None:
                if not self._redial_lock.acquire(blocking=False):
                    return  # the holder mends this loss too (see below)
            elif not self._redial_lock.acquire(timeout=_left(deadline)):
                raise self._timed_out()
            try:
                current = self._client
                mended = (
                    current is not None and current is not stale
                    and current.alive  # someone else redialed meanwhile
                ) or self._redial(deadline)
            finally:
                self._redial_lock.release()
            if not mended:  # out of time, and live queries need the link
                if self._subs:
                    threading.Thread(
                        target=self._link_died, args=(self._client,),
                        name="repro-redial", daemon=True,
                    ).start()
                raise self._timed_out()
            # a link that died while the lock was held turned its reader
            # away, so the loss is this thread's to mend
            current = self._client
            if (self._closed or current is None or current._reader is None
                    or current.alive):
                return
            stale = current

    def _redial(self, deadline: float | None) -> bool:
        """Dial and re-subscribe under the policy's backoff; ``False``
        when ``deadline`` runs out first."""
        policy = self.retry
        failure: Exception | None = None
        for attempt in range(policy.attempts):
            if self._closed:
                failure = ServerError("connection closed during reconnect")
                break
            pause = policy.delay(attempt)
            if deadline is not None and time.monotonic() + pause >= deadline:
                return False
            try:
                time.sleep(pause)
                self._dial(deadline)
                self._resubscribe(deadline)
            except (ConnectionError, OSError, ReproError) as error:
                failure = error
                continue
            self.reconnects += 1
            return True
        self._fail_streams()
        raise ConnectionClosed(
            f"cannot re-establish {self.target} after "
            f"{policy.attempts} attempts: {failure}"
        )

    def _resubscribe(self, deadline: float | None) -> None:
        """Re-register every live stream on the fresh link and queue each
        one coalesced ``lagged`` push carrying the resync answers.  The
        stream folds it against its own last-seen state, so consumers
        observe one exact catch-up delta instead of a gap."""
        for old_sid, sub in list(self._subs.items()):
            if sub.stream.closed:
                self._forget(old_sid)
                continue
            response = self._client.call(
                "subscribe", {"body": sub.body, "name": sub.name},
                timeout=_within(self.call_timeout, deadline),
            )
            self._forget(old_sid)
            sub.sid = response["sid"]
            sub.stream.sid = sub.sid
            self._claim_pushes(sub, first={
                "push": "lagged",
                "sid": sub.sid,
                "query": response["query"],
                "from_revision": sub.stream.revision,
                "to_revision": response["revision"],
                "revision": response["revision"],
                "tag": "",
                "answers": response["answers"],
            })

    def _fail_streams(self) -> None:
        """The link is gone for good: wake and terminate every stream so
        blocked consumers end cleanly instead of hanging."""
        with self._route_lock:
            subs = list(self._subs.values())
            self._subs.clear()
            self._push_queues.clear()
        for sub in subs:
            sub.stream._mark_dead()

    # -- raw protocol access ----------------------------------------------
    def call(self, cmd: str, **payload) -> dict:
        """One protocol command, raising the typed error on failure — the
        escape hatch for commands the facade does not wrap."""
        self._check_open()
        return self._invoke(cmd, payload)

    def request(self, cmd: str, **payload) -> dict:
        """Like :meth:`call` but returning error responses as dicts
        (``ok: false``) instead of raising — raw scripting."""
        self._check_open()
        return self._invoke(cmd, payload, raw=True)

    def _invoke(self, cmd: str, payload: dict, *, raw: bool = False):
        """One request with the reconnect funnel, within ``call_timeout``.
        A link found dead before the request was written (or none at all)
        is redialed first; a request that dies *after* it may have reached
        the server is re-issued only for safe commands — everything else
        surfaces the retryable :class:`ConnectionClosed` to the caller.  A
        mutation a replica-set member *refused* (see :meth:`_refused`) was
        not applied: the primary is rediscovered through the same funnel
        and an ``apply`` is re-sent; a ``tx-commit`` surfaces the refusal,
        because its session does not survive the redial."""
        deadline = time.monotonic() + self.call_timeout
        attempts = 1 + (self.retry.attempts if self.retry is not None else 0)
        for attempt in range(attempts):
            client = self._client
            try:
                if client is None:
                    raise NotSent("no link")
                response = client.request(cmd, payload, timeout=_left(deadline))
            except CallTimeout:
                raise self._timed_out() from None
            except ConnectionClosed as lost:
                # nothing sent yet, any command may wait out a reconnect;
                # possibly delivered, only safe ones may be re-issued
                sent = not isinstance(lost, NotSent)
                self._await_reconnect(cmd, client, deadline, sent=sent)
                continue
            if raw or response.get("ok"):
                return response
            if not self._refused(response) or attempt == attempts - 1:
                _raise_for(response)
            # refused, not lost: find the primary before anything else
            if cmd == "apply":
                # promotion pending? back off like any other redial
                time.sleep(self.retry.delay(attempt))
            self._reconnect(client, deadline)
            if cmd != "apply":
                _raise_for(response)  # the session died with the old link
            payload = dict(payload, epoch=self.epoch or None)
        raise ConnectionClosed(
            f"request {cmd!r} kept losing its connection to {self.target}"
        )

    def _timed_out(self) -> ConnectionClosed:
        return ConnectionClosed(
            f"server did not answer within {self.call_timeout:g}s"
        )

    def _refused(self, response: dict) -> bool:
        """Whether an error response is a member declining a mutation
        (``not_primary`` / ``stale_epoch``: nothing was applied) that
        another member might accept.  Raises the epoch bar either way."""
        if not (response.get("not_primary") or response.get("stale_epoch")):
            return False
        self._observe_epoch(response.get("required_epoch", 0))
        return len(self._endpoints) > 1

    def _await_reconnect(
        self, cmd: str, stale: LineClient | None, deadline: float, *,
        sent: bool,
    ) -> None:
        """Block until the link is redialed; refuse when the command must
        not be replayed (or there is no policy to replay under)."""
        if self._closed:
            raise ServerError(f"connection to {self.target} is closed")
        if self.retry is None:
            raise ConnectionClosed(
                f"connection to {self.target} was lost (no retry policy; "
                f"pass retry=RetryPolicy(...) to reconnect automatically)"
            )
        if sent and cmd not in _SAFE_COMMANDS:
            raise ConnectionClosed(
                f"connection to {self.target} was lost with {cmd!r} in "
                f"flight; it is not automatically re-issued — the server "
                f"may have already applied it"
            )
        self._reconnect(stale, deadline)

    def drain_pushes(self) -> list[dict]:
        """Pushes that arrived for subscriptions made through raw
        :meth:`call`/:meth:`request` (no stream routing), without waiting."""
        drained = []
        while True:
            try:
                drained.append(self._unclaimed.get_nowait())
            except queue.Empty:
                return drained

    # -- liveness ----------------------------------------------------------
    def ping(self) -> dict:
        response = self.call("ping")
        return {"pong": response["pong"], "protocol": response["protocol"]}

    # -- reading -----------------------------------------------------------
    def query(self, body, *, min_revision: int | None = None) -> list[Answer]:
        return self.query_with_revision(body, min_revision=min_revision)[0]

    def query_with_revision(
        self, body, *, min_revision: int | None = None
    ) -> tuple[list[Answer], int]:
        """Like :meth:`query`, also returning the head revision index the
        answers were computed at (the server stamps every query response)."""
        text = _body_text(body)
        response = wait_for_revision(
            lambda: self.call("query", body=text, min_revision=min_revision)
        )
        return decode_answers(response["answers"]), response["revision"]

    def log(self) -> tuple[Revision, ...]:
        response = self.call("log")
        return tuple(
            Revision.from_record(record) for record in response["revisions"]
        )

    @property
    def head(self) -> Revision:
        # one record over the wire, not the whole chain
        response = self.call("log", last=1)
        return Revision.from_record(response["revisions"][-1])

    def as_of(self, revision) -> ObjectBase:
        response = self.call("as-of", revision=resolve_revision_ref(revision))
        return parse_object_base(response["facts"]).freeze()

    def diff(self, older, newer, *, include_exists: bool = False) -> Diff:
        response = self.call(
            "diff",
            older=resolve_revision_ref(older),
            newer=resolve_revision_ref(newer),
            include_exists=include_exists or None,
        )
        return Diff(
            added=tuple(response["added"]), removed=tuple(response["removed"])
        )

    # -- writing -----------------------------------------------------------
    def apply(self, program, *, tag: str = "") -> Revision:
        response = self.call(
            "apply",
            program=_program_text(program),
            tag=tag,
            name=_program_name(program),
            epoch=self.epoch or None,
        )
        self._observe_epoch(response.get("epoch", 0))
        return Revision.from_record(response["revisions"][-1])

    def transaction(self, *, tag: str = "", attempts: int = 1) -> "_WireTransaction":
        self._check_open()
        return _WireTransaction(self, tag=tag, attempts=attempts)

    # -- live queries ------------------------------------------------------
    def subscribe(
        self, body, *, name: str | None = None,
        min_revision: int | None = None,
    ) -> SubscriptionStream:
        return self._subscribe(
            body, name=name, min_revision=min_revision, pushes=queue.Queue()
        )

    def _subscribe(
        self, body, *, name: str | None, min_revision: int | None, pushes,
    ) -> SubscriptionStream:
        """:meth:`subscribe` onto a caller-supplied queue.  This module only
        ever calls ``pushes.put`` — routing, the claim sweep, the reconnect
        resync and the dead-link sentinel — so the ``cluster:`` router
        hands each shard a feed onto its merged stream's one queue."""
        self._check_open()
        body_text = _body_text(body)
        response = wait_for_revision(
            lambda: self.call(
                "subscribe", body=body_text, name=name,
                min_revision=min_revision,
            )
        )
        sid = response["sid"]
        stream = SubscriptionStream(
            sid=sid,
            query=response["query"],
            revision=response["revision"],
            answers=decode_answers(response["answers"]),
            pushes=pushes,
            closer=lambda: self._unsubscribe(stream),
        )
        sub = _LiveSub(
            sid=sid, body=body_text, name=name, pushes=pushes, stream=stream
        )
        self._claim_pushes(sub)
        return self._track(stream)

    def _claim_pushes(self, sub: _LiveSub, first: dict | None = None) -> None:
        """Register a stream's queue (and its reconnect book-keeping), put
        ``first`` on it, and reclaim any pushes that raced the
        registration into the unclaimed queue.  Holds the route lock, so
        no push can be filed while the sweep is rehoming, which keeps
        delivery order intact."""
        with self._route_lock:
            self._subs[sub.sid] = sub
            self._push_queues[sub.sid] = sub.pushes
            if first is not None:
                sub.pushes.put(first)
            leftovers = []
            while True:
                try:
                    push = self._unclaimed.get_nowait()
                except queue.Empty:
                    break
                if push.get("sid") == sub.sid:
                    sub.pushes.put(push)
                else:
                    leftovers.append(push)
            for push in leftovers:
                self._unclaimed.put(push)

    def _forget(self, sid: str) -> None:
        with self._route_lock:
            self._push_queues.pop(sid, None)
            self._subs.pop(sid, None)

    def _unsubscribe(self, stream: SubscriptionStream) -> None:
        sid = stream.sid
        self._forget(sid)
        client = self._client
        if not self._closed and client is not None and client.alive:
            try:
                self.call("unsubscribe", sid=sid)
            except ServerError:  # connection already torn down server-side
                pass

    # -- accounting --------------------------------------------------------
    def stats(self) -> dict:
        stats = self.call("stats")["stats"]
        if len(self._endpoints) > 1:
            primary = self._primary
            stats["replset"] = {
                "targets": list(self.targets),
                "primary": None if primary is None else self.targets[primary],
                "epoch": self.epoch,
                "failovers": self.reconnects,
            }
        return stats

    # -- lifecycle ---------------------------------------------------------
    def _teardown(self) -> None:
        client, self._client = self._client, None
        if client is not None:
            client.close()


class _WireTransaction(Transaction):
    """MVCC session plumbing for the served backend."""

    def __init__(self, conn: WireConnection, *, tag: str, attempts: int) -> None:
        super().__init__(tag=tag, attempts=attempts)
        self._conn = conn
        self._session: str | None = None
        self._pinned = -1
        self._begin()

    @property
    def pinned(self) -> int:
        return self._pinned

    def _begin(self) -> None:
        response = self._conn.call("tx-begin")
        self._session = response["session"]
        self._pinned = response["revision"]

    def _do_query(self, body) -> list[Answer]:
        response = self._conn.call(
            "tx-query", session=self._session, body=_body_text(body)
        )
        return decode_answers(response["answers"])

    def _do_stage(self, program) -> None:
        self._conn.call(
            "tx-stage",
            session=self._session,
            program=_program_text(program),
            name=_program_name(program),
        )

    def _do_commit(self, tag: str) -> CommitResult:
        conn = self._conn
        response = conn.call(
            "tx-commit", session=self._session, tag=tag,
            epoch=conn.epoch or None,
        )
        conn._observe_epoch(response.get("epoch", 0))
        return CommitResult(
            tuple(Revision.from_record(r) for r in response["revisions"])
        )

    def _do_abort(self) -> None:
        try:
            self._conn.call("tx-abort", session=self._session)
        except ServerError:  # already gone server-side (conflict, teardown)
            pass


def _within(limit: float, deadline: float | None) -> float:
    """``limit`` seconds, or fewer when ``deadline`` comes sooner."""
    return limit if deadline is None else min(limit, _left(deadline))


def _body_text(body) -> str:
    """Queries travel as concrete-syntax text."""
    if isinstance(body, str):
        return body
    raise ServerError(
        f"a served connection needs query bodies as concrete-syntax text, "
        f"not {type(body).__name__}"
    )


def _program_name(program) -> str | None:
    """A non-default program name travels alongside the text (the wire
    payload's optional ``name`` field), so journals record the same
    program name whichever backend committed it."""
    if isinstance(program, UpdateProgram) and program.name != "program":
        return program.name
    return None


def _program_text(program) -> str:
    """Programs travel as concrete-syntax text; :class:`UpdateProgram`
    objects are pretty-printed (names survive the trip via the payload's
    ``name`` field)."""
    if isinstance(program, str):
        return program
    if isinstance(program, UpdateProgram):
        return format_program(program)
    raise ServerError(
        f"a served connection needs update programs as text or "
        f"UpdateProgram, not {type(program).__name__}"
    )
