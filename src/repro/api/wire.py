"""The served backend: a synchronous facade over the asyncio wire client.

A :class:`WireConnection` owns a private event loop on a daemon thread and
drives one :class:`~repro.server.client.AsyncClient` through it, so the
unified connection surface stays synchronous and identical to the
in-process backends.  Push messages are routed off the client's push queue
by subscription id into per-stream queues (a router task on the loop), so
several live queries on one connection never steal each other's deltas.

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

**Silence.**  Every facade call is bounded by ``call_timeout`` (default
:data:`CALL_TIMEOUT`), reconnects included: a server that accepts and never
answers fails the call with the retryable ``ConnectionClosed`` ("did not
answer within …"), and the link stays up for the next request.

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

import asyncio
import concurrent.futures
import queue
import threading
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
from repro.server.client import AsyncClient, _raise_for
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


class _EventLoopThread:
    """One private event loop running on a daemon thread."""

    def __init__(self, name: str) -> None:
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name=name, daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    def run(self, coro, timeout: float | None = None):
        """Run a coroutine on the loop, blocking the calling thread for at
        most ``timeout`` seconds; past that the coroutine is cancelled and
        the retryable :class:`ConnectionClosed` raised."""
        future = asyncio.run_coroutine_threadsafe(coro, self.loop)
        try:
            return future.result(timeout)
        except concurrent.futures.TimeoutError:
            future.cancel()
            raise ConnectionClosed(
                f"server did not answer within {timeout:g}s"
            ) from None

    def stop(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=5)
        self.loop.close()


class WireConnection(Connection):
    """A connection to running ``repro serve`` endpoints.

    ``endpoints`` are served-endpoint texts (``serve:`` / ``unix:`` /
    ``tcp:`` / a socket path) in preference order: one is a plain served
    connection, several are the members of a replica set (see the module
    doc).  ``call_timeout`` bounds every facade call, reconnects included
    (``None`` takes :data:`CALL_TIMEOUT`; pushes are unaffected).  ``retry`` (a
    :class:`~repro.api.model.RetryPolicy`) enables transparent reconnect
    after a dropped link — see the module doc for what is and is not
    re-issued, and, over a member list, re-sent after a refusal.
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
        self._push_queues: dict[str, "queue.Queue[dict]"] = {}
        self._unclaimed: "queue.Queue[dict]" = queue.Queue()
        self._subs: dict[str, _LiveSub] = {}
        self._loop = _EventLoopThread(f"repro-wire[{self.target}]")
        self._client: AsyncClient | None = None
        self._router: asyncio.Future | None = None
        self._reconnecting: asyncio.Future | None = None
        self.reconnects = 0
        try:
            self._loop.run(self._dial(), timeout=_DIAL_TIMEOUT + 5)
        except (ConnectionError, OSError) as error:
            self._loop.stop()
            raise ServerError(
                f"cannot connect to {self.target}: {error}"
            ) from None
        except Exception:
            self._loop.stop()
            raise

    async def _dial(self) -> None:
        """(Re)establish the client and its push router.  Loop thread."""
        if self._router is not None:
            self._router.cancel()
            self._router = None
        if self._client is not None:
            await self._client.close()
            self._client = None
        if len(self._endpoints) == 1:
            client = await asyncio.wait_for(
                AsyncClient.connect(**self._endpoints[0]), _DIAL_TIMEOUT
            )
        else:
            client = await self._dial_member()
        self._client = client
        self._router = asyncio.ensure_future(self._route_pushes(client))

    async def _dial_member(self) -> AsyncClient:
        """Ping every member — last known primary first — and keep the
        link to the primary with the highest epoch (a fenced zombie still
        says "primary" but loses the compare) or, failing that, to the
        first member that answered.  Loop thread."""
        order = list(range(len(self._endpoints)))
        if self._primary is not None:
            order.remove(self._primary)
            order.insert(0, self._primary)
        probes = await asyncio.gather(*(self._probe(member) for member in order))
        answered = []
        for member, probe in zip(order, probes):
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
                await entry[2].close()
        rank, member, client = chosen
        self._primary = member if rank[0] else None
        return client

    def _observe_epoch(self, epoch: int) -> None:
        """Raise the bar, never lower it: caller threads (commit
        responses) and the loop thread (dials, refusals) both report."""
        if epoch > self.epoch:
            with self._epoch_lock:
                if epoch > self.epoch:
                    self.epoch = epoch

    async def _probe(self, member: int) -> tuple[AsyncClient, dict] | None:
        """Dial one member and ask who it is; ``None`` when it is down."""
        client = None
        try:
            client = await asyncio.wait_for(
                AsyncClient.connect(**self._endpoints[member]), _DIAL_TIMEOUT
            )
            pong = await asyncio.wait_for(
                client.call("ping"), self.call_timeout
            )
        except (ConnectionError, OSError, asyncio.TimeoutError, ReproError):
            if client is not None:
                await client.close()
            return None
        return client, pong

    async def _route_pushes(self, client: AsyncClient) -> None:
        """Dispatch push messages to their stream's queue by ``sid``;
        pushes for unknown sids (raw ``call("subscribe")`` users, the CLI
        script command) collect in the unclaimed queue.  When the link
        dies the router either kicks off a reconnect (retry policy set) or
        terminates every stream so blocked consumers wake."""
        try:
            while True:
                push = await client.next_push()
                sink = self._push_queues.get(push.get("sid"))
                (sink if sink is not None else self._unclaimed).put(push)
        except ConnectionClosed:
            if self._closed or client is not self._client:
                return  # deliberate teardown, or an already-replaced link
            if self.retry is not None:
                self._start_reconnect()
            else:
                self._fail_streams()

    # -- reconnect ---------------------------------------------------------
    def _start_reconnect(self) -> asyncio.Future:
        """Begin (or join) the single in-flight reconnect.  Loop thread."""
        if self._reconnecting is None or self._reconnecting.done():
            task = asyncio.ensure_future(self._reconnect())
            # consume the exception when no _invoke is waiting on it (the
            # router kicked this off); waiters still see it via shield
            task.add_done_callback(
                lambda fut: fut.cancelled() or fut.exception()
            )
            self._reconnecting = task
        return self._reconnecting

    async def _reconnect(self) -> None:
        """Redial with backoff, then re-establish every live subscription.
        Raises :class:`ConnectionClosed` — and terminates the streams —
        when the policy's attempts are exhausted."""
        policy = self.retry
        failure: Exception | None = None
        for attempt in range(policy.attempts):
            if self._closed:
                failure = ServerError("connection closed during reconnect")
                break
            try:
                await asyncio.sleep(policy.delay(attempt))
                await self._dial()
                await self._resubscribe()
            except (ConnectionError, OSError, asyncio.TimeoutError,
                    ReproError) as error:
                failure = error
                continue
            self.reconnects += 1
            return
        self._fail_streams()
        raise ConnectionClosed(
            f"cannot re-establish {self.target} after "
            f"{policy.attempts} attempts: {failure}"
        )

    async def _resubscribe(self) -> None:
        """Re-register every live stream on the fresh connection and queue
        each one coalesced ``lagged`` push carrying the resync answers.
        The stream folds it against its own last-seen state, so consumers
        observe one exact catch-up delta instead of a gap."""
        for old_sid, sub in list(self._subs.items()):
            if sub.stream.closed:
                self._subs.pop(old_sid, None)
                self._push_queues.pop(old_sid, None)
                continue
            response = await self._client.call(
                "subscribe", body=sub.body, name=sub.name
            )
            new_sid = response["sid"]
            self._subs.pop(old_sid, None)
            self._push_queues.pop(old_sid, None)
            sub.sid = new_sid
            sub.stream.sid = new_sid
            self._subs[new_sid] = sub
            self._push_queues[new_sid] = sub.pushes
            sub.pushes.put(
                {
                    "push": "lagged",
                    "sid": new_sid,
                    "query": response["query"],
                    "from_revision": sub.stream.revision,
                    "to_revision": response["revision"],
                    "revision": response["revision"],
                    "tag": "",
                    "answers": response["answers"],
                }
            )

    def _fail_streams(self) -> None:
        """The link is gone for good: wake and terminate every stream so
        blocked consumers end cleanly instead of hanging.  Loop thread."""
        for sub in list(self._subs.values()):
            sub.stream._mark_dead()
        self._subs.clear()
        self._push_queues.clear()

    # -- raw protocol access ----------------------------------------------
    def call(self, cmd: str, **payload) -> dict:
        """One protocol command, raising the typed error on failure — the
        escape hatch for commands the facade does not wrap."""
        self._check_open()
        return self._run(self._invoke(cmd, payload))

    def request(self, cmd: str, **payload) -> dict:
        """Like :meth:`call` but returning error responses as dicts
        (``ok: false``) instead of raising — raw scripting."""
        self._check_open()
        return self._run(self._invoke(cmd, payload, raw=True))

    async def _invoke(self, cmd: str, payload: dict, *, raw: bool = False):
        """One request with the reconnect funnel: a live client carries it;
        a dead one triggers (or joins) the reconnect first.  A request that
        dies *after* it may have reached the server is re-issued only for
        safe commands — everything else surfaces the retryable
        :class:`ConnectionClosed` to the caller.  A mutation a replica-set
        member *refused* (see :meth:`_refused`) was not applied: the
        primary is rediscovered through the same funnel and an ``apply``
        is re-sent; a ``tx-commit`` surfaces the refusal, because its
        session does not survive the redial."""
        attempts = 1 + (self.retry.attempts if self.retry is not None else 0)
        for attempt in range(attempts):
            client = self._client
            if client is None or not client.alive:
                # nothing sent yet: any command may wait out a reconnect
                await self._await_reconnect(cmd, sent=False)
                client = self._client
            try:
                response = await client.request(cmd, **payload)
            except ConnectionClosed:
                # the link died with the request possibly delivered: only
                # safe commands may be blindly re-issued
                await self._await_reconnect(cmd, sent=True)
                continue
            if raw or response.get("ok"):
                return response
            if not self._refused(response) or attempt == attempts - 1:
                _raise_for(response)
            # refused, not lost: find the primary before anything else
            if cmd == "apply":
                # promotion pending? back off like any other redial
                await asyncio.sleep(self.retry.delay(attempt))
            await asyncio.shield(self._start_reconnect())
            if cmd != "apply":
                _raise_for(response)  # the session died with the old link
            payload = dict(payload, epoch=self.epoch or None)
        raise ConnectionClosed(
            f"request {cmd!r} kept losing its connection to {self.target}"
        )

    def _refused(self, response: dict) -> bool:
        """Whether an error response is a member declining a mutation
        (``not_primary`` / ``stale_epoch``: nothing was applied) that
        another member might accept.  Raises the epoch bar either way."""
        if not (response.get("not_primary") or response.get("stale_epoch")):
            return False
        self._observe_epoch(response.get("required_epoch", 0))
        return len(self._endpoints) > 1

    async def _await_reconnect(self, cmd: str, *, sent: bool) -> None:
        """Block until the shared reconnect lands; refuse when the command
        must not be replayed (or there is no policy to replay under)."""
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
        await asyncio.shield(self._start_reconnect())

    def drain_pushes(self) -> list[dict]:
        """Pushes that arrived for subscriptions made through raw
        :meth:`call`/:meth:`request` (no stream routing), without waiting."""
        drained = []
        while True:
            try:
                drained.append(self._unclaimed.get_nowait())
            except queue.Empty:
                return drained

    def _run(self, coro):
        try:
            return self._loop.run(coro, timeout=self.call_timeout)
        except (ConnectionError, OSError) as error:
            raise ServerError(
                f"connection to {self.target} failed: {error}"
            ) from None

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
        self._run(self._claim_pushes(sub))
        return self._track(stream)

    async def _claim_pushes(self, sub: _LiveSub) -> None:
        """Register a stream's queue (and its reconnect book-keeping) and
        reclaim any pushes that raced the registration into the unclaimed
        queue.  Runs on the loop thread — the same thread as the router —
        so no push can be routed while the sweep is rehoming, which keeps
        delivery order intact."""
        self._subs[sub.sid] = sub
        self._push_queues[sub.sid] = sub.pushes
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

    def _unsubscribe(self, stream: SubscriptionStream) -> None:
        sid = stream.sid
        self._push_queues.pop(sid, None)
        self._subs.pop(sid, None)
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
        try:
            self._loop.run(self._shutdown(), timeout=10)
        except Exception:  # tearing down a dead link is best-effort
            pass
        finally:
            self._loop.stop()

    async def _shutdown(self) -> None:
        if self._reconnecting is not None:
            self._reconnecting.cancel()
        if self._router is not None:
            self._router.cancel()
        if self._client is not None:
            await self._client.close()


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
