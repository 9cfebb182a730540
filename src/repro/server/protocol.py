"""The JSON-lines wire protocol and its transport-independent dispatcher.

One message per line, each a JSON object.  Requests carry ``cmd`` plus an
optional client-chosen ``id`` echoed on the response; responses carry
``ok`` (with the command payload inlined on success, ``error`` otherwise).
Failed responses set ``retryable: true`` when a client may back off and
re-issue (optimistic-commit conflicts — which additionally carry
``conflict: true`` and the conflicting revision — and load-shedding
rejections); anything else is a terminal error for that request.

Push messages carry ``push`` instead of ``id`` and may arrive at any
point between responses, including *before* the response of the commit
that caused them:

* ``{"push": "diff", sid, query, revision, tag, added, removed}`` — one
  subscription answer diff;
* ``{"push": "lagged", sid, query, from_revision, to_revision, answers}``
  — this subscriber fell behind and its queued diffs were shed; the full
  current answer set replaces everything in ``[from_revision,
  to_revision]`` (see the server module doc for the contract);
* ``{"push": "closed", error, retryable}`` — the server is about to
  disconnect this client (outbox hard-cap overflow);
* ``{"push": "shutdown", reason}`` — graceful shutdown: no further
  requests will be answered, reconnect after the restart.

Commands::

    ping                                     liveness probe
    apply      {program, tag?, name?}        autocommit an update program
    query      {body}                        answers at the head
    subscribe  {body, name?}                 live query; initial answers + sid
    unsubscribe{sid}
    tx-begin                                 MVCC session; pinned revision
    tx-query   {session, body}               read at the pin (footprint-tracked)
    tx-stage   {session, program, name?}     queue an update program
    tx-commit  {session, tag?}               optimistic commit (may conflict)
    tx-abort   {session}
    log        {last?}                       the revision chain (last N only)
    as-of      {revision}                    base text at a tag/index
    diff       {older, newer, include_exists?}  fact strings between revisions
    stats                                    service counters
    metrics                                  registry snapshot + Prometheus text
    slowlog    {clear?}                      slow-query/slow-commit ring buffer
    repl-sync  {from_index}                  catch-up batch of raw journal lines
    repl-stream{from_index}                  live journal stream (repl-line pushes)
    repl-fence {epoch}                       fence writes below a promotion epoch
    repl-promote {epoch?, takeover?}         promote this node to primary
    repl-retarget {primary}                  point a follower at a new primary

Protocol v3 additions (replication, see :mod:`repro.replication`):
``query``/``subscribe`` accept a ``min_revision`` read-your-writes token —
a node whose head has not reached it answers with a retryable
``ServerBusyError`` instead of serving stale answers.  ``apply`` and
``tx-commit`` accept an ``epoch`` floor (the highest fencing epoch the
client has observed); a node behind that epoch rejects the write with
``stale_epoch: true`` instead of committing onto a forked history, and
successful commit responses report the node's current ``epoch``.
``repl-stream`` subscribers receive ``{"push": "repl-line", index, epoch,
line, snapshot}`` messages carrying the primary's raw journal bytes.

The :class:`Dispatcher` maps request dicts to response dicts against a
:class:`~repro.server.service.StoreService`; the asyncio server
(:mod:`repro.server.server`) builds one per service and a
:class:`ClientState` per connection; tests drive the same pair directly,
without a socket, so either way exercises this one implementation.
"""

from __future__ import annotations

import json

from repro.core.errors import ReproError
from repro.lang.pretty import format_object_base
from repro.server.errors import (
    ConflictError,
    NotPrimaryError,
    ServerBusyError,
    SessionError,
    StaleEpochError,
)
from repro.server.service import Session, StoreService
from repro.storage.history import resolve_revision_ref

__all__ = [
    "encode", "decode", "ClientState", "Dispatcher",
    "PROTOCOL_VERSION", "LINE_LIMIT",
]

PROTOCOL_VERSION = 3

#: Per-frame byte ceiling for both transports' stream readers.  asyncio's
#: default readline limit is 64 KiB; one ``as-of`` response carries a whole
#: formatted object base on a single line, which overruns that on a few
#: thousand facts and would kill the connection.
LINE_LIMIT = 32 * 1024 * 1024


def encode(message: dict) -> bytes:
    """One wire frame: compact JSON plus the line terminator."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")


def decode(line: bytes | str) -> dict:
    """Parse one frame; raises :class:`ReproError` on garbage so transports
    can answer with a protocol error instead of dying."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as error:
        raise ReproError(f"malformed request line: {error}") from None
    if not isinstance(message, dict):
        raise ReproError("request must be a JSON object")
    return message


class ClientState:
    """Per-connection state: open sessions, live subscriptions, and the
    push sink the transport provided (a queue writer for sockets, a list
    append for the in-process client)."""

    def __init__(self, deliver) -> None:
        self.deliver = deliver
        self.sessions: dict[str, Session] = {}
        self.subscription_ids: list[str] = []
        #: Detach callables of this connection's ``repl-stream`` attachments.
        self.repl_detach: list = []


class Dispatcher:
    """Transport-independent request handling for one service."""

    def __init__(self, service: StoreService) -> None:
        self.service = service

    def handle(self, request: dict, state: ClientState) -> dict:
        """One request in, one response out (pushes go via ``state.deliver``).

        The contract holds for *any* JSON object: a type-malformed request
        (non-string command, a number where text belongs) earns an
        ``ok: false`` response, never an exception that would tear down
        the transport's connection."""
        request_id = request.get("id")
        if not isinstance(request_id, (int, str, type(None))):
            request_id = None
        command = request.get("cmd")
        handler = _HANDLERS.get(command) if isinstance(command, str) else None
        if handler is None:
            return self._error(request_id, f"unknown command {command!r}")
        try:
            payload = handler(self, request, state)
        except ConflictError as conflict:
            response = self._error(request_id, str(conflict))
            response.update(
                conflict=True,
                retryable=True,
                pinned=conflict.pinned,
                conflicting_index=conflict.conflicting_index,
                conflicting_tag=conflict.conflicting_tag,
            )
            return response
        except StaleEpochError as error:
            response = self._error(request_id, str(error))
            response.update(
                stale_epoch=True,
                retryable=True,
                current_epoch=error.current_epoch,
                required_epoch=error.required_epoch,
            )
            return response
        except NotPrimaryError as error:
            response = self._error(request_id, str(error))
            response.update(not_primary=True, retryable=True)
            return response
        except ReproError as error:
            response = self._error(request_id, str(error))
            if getattr(error, "retryable", False):
                # the typed-retryable contract: clients branch on this
                # field (backoff + re-issue) instead of matching strings
                response["retryable"] = True
            return response
        except Exception as error:  # malformed payloads must not kill the link
            return self._error(
                request_id,
                f"bad {command!r} request: {error.__class__.__name__}: {error}",
            )
        response = {"id": request_id, "ok": True}
        response.update(payload)
        return response

    def close(self, state: ClientState) -> None:
        """Connection teardown: abort open sessions, drop subscriptions."""
        for session in state.sessions.values():
            session.abort()
        state.sessions.clear()
        for sid in state.subscription_ids:
            self.service.subscriptions.unsubscribe(sid)
        state.subscription_ids.clear()
        for detach in state.repl_detach:
            detach()
        state.repl_detach.clear()

    @staticmethod
    def _error(request_id, message: str) -> dict:
        return {"id": request_id, "ok": False, "error": message}

    def _session(self, request: dict, state: ClientState) -> Session:
        session_id = request.get("session")
        session = state.sessions.get(session_id)
        if session is None:
            raise SessionError(f"unknown session {session_id!r} on this connection")
        return session

    def _revision_payload(self, revision) -> dict:
        """One revision as the wire's uniform record shape (shared by
        ``apply``, ``tx-commit`` and ``log``, and decoded by the connection
        facade into its :class:`~repro.api.model.Revision` records)."""
        return {
            "index": revision.index,
            "tag": revision.tag,
            "program": revision.program_name,
            "added": len(revision.added),
            "removed": len(revision.removed),
            "snapshot": self.service.store.has_snapshot(revision.index),
        }

    def _check_min_revision(self, request: dict) -> None:
        """The read-your-writes gate: a client that committed revision N on
        the primary may demand ``min_revision: N`` from a follower; until
        the stream catches up the read is shed (retryable) instead of
        silently answering from the past."""
        token = request.get("min_revision")
        if token is None:
            return
        if not isinstance(token, int) or isinstance(token, bool):
            raise ReproError(f"min_revision must be an integer, got {token!r}")
        head = len(self.service.store) - 1
        if head < token:
            raise ServerBusyError(
                f"read-your-writes token not satisfied: this node is at "
                f"revision {head}, the read demands {token}; replication "
                f"is catching up — retry shortly"
            )

    # -- command handlers --------------------------------------------------
    def _cmd_ping(self, request, state) -> dict:
        pong = {
            "pong": True,
            "protocol": PROTOCOL_VERSION,
            "role": self.service.role,
            "epoch": self.service.epoch,
            "revision": len(self.service.store) - 1,
        }
        if self.service.shard_id is not None:
            pong["shard"] = {
                "id": self.service.shard_id,
                "count": self.service.shard_count,
            }
        return pong

    def _coerced_program(self, request):
        """The request's program, parsed, with the optional ``name`` field
        applied (so journals record the caller's program name)."""
        program = self.service.coerce_program(_required(request, "program"))
        name = request.get("name")
        if isinstance(name, str) and name:
            program.name = name
        return program

    def _cmd_apply(self, request, state) -> dict:
        self.service.check_epoch(request.get("epoch"))
        outcome = self.service.apply(
            self._coerced_program(request), tag=request.get("tag", "")
        )
        revision = outcome.revision
        return {
            "revision": revision.index,
            "tag": revision.tag,
            "added": outcome.added,
            "removed": outcome.removed,
            "epoch": self.service.epoch,
            "revisions": [self._revision_payload(r) for r in outcome.revisions],
        }

    def _cmd_query(self, request, state) -> dict:
        self._check_min_revision(request)
        answers = self.service.query(_required(request, "body"))
        return {
            "answers": answers,
            "revision": len(self.service.store) - 1,
        }

    def _cmd_subscribe(self, request, state) -> dict:
        self._check_min_revision(request)
        subscription = self.service.subscriptions.subscribe(
            _required(request, "body"), state.deliver, name=request.get("name")
        )
        state.subscription_ids.append(subscription.id)
        return {
            "sid": subscription.id,
            "query": subscription.query.name,
            "revision": subscription.revision,
            "answers": list(subscription.answers),
        }

    def _cmd_unsubscribe(self, request, state) -> dict:
        sid = _required(request, "sid")
        # Connections may only cancel their own subscriptions — sids are
        # sequential and guessable, so a global removal would let any
        # client silently cut off another's live query.
        if sid not in state.subscription_ids:
            return {"removed": False}
        state.subscription_ids.remove(sid)
        return {"removed": self.service.subscriptions.unsubscribe(sid)}

    def _cmd_tx_begin(self, request, state) -> dict:
        session = self.service.begin()
        state.sessions[session.id] = session
        return {"session": session.id, "revision": session.pinned}

    def _cmd_tx_query(self, request, state) -> dict:
        session = self._session(request, state)
        answers = session.query(_required(request, "body"))
        return {"answers": answers, "revision": session.pinned}

    def _cmd_tx_stage(self, request, state) -> dict:
        session = self._session(request, state)
        session.stage(self._coerced_program(request))
        return {"staged": len(session.staged)}

    def _cmd_tx_commit(self, request, state) -> dict:
        session = self._session(request, state)
        self.service.check_epoch(request.get("epoch"))
        try:
            outcome = session.commit(tag=request.get("tag", ""))
        finally:
            if session.state != "open":
                state.sessions.pop(session.id, None)
        return {
            "revision": outcome.revision.index,
            "revisions": [self._revision_payload(r) for r in outcome.revisions],
            "added": outcome.added,
            "removed": outcome.removed,
            "epoch": self.service.epoch,
        }

    def _cmd_tx_abort(self, request, state) -> dict:
        session = self._session(request, state)
        session.abort()
        state.sessions.pop(session.id, None)
        return {"aborted": True}

    def _cmd_log(self, request, state) -> dict:
        revisions = self.service.store.revisions()
        last = request.get("last")
        if isinstance(last, int) and not isinstance(last, bool) and last > 0:
            revisions = revisions[-last:]
        return {
            "revisions": [
                self._revision_payload(revision) for revision in revisions
            ]
        }

    def _cmd_as_of(self, request, state) -> dict:
        reference = resolve_revision_ref(_required(request, "revision"))
        base = self.service.store.as_of(reference)
        return {"facts": format_object_base(base), "count": len(base)}

    def _cmd_diff(self, request, state) -> dict:
        added, removed = self.service.store.diff(
            resolve_revision_ref(_required(request, "older")),
            resolve_revision_ref(_required(request, "newer")),
            include_exists=bool(request.get("include_exists", False)),
        )
        return {
            "added": sorted(str(fact) for fact in added),
            "removed": sorted(str(fact) for fact in removed),
        }

    def _cmd_stats(self, request, state) -> dict:
        return {"stats": self.service.stats()}

    def _cmd_metrics(self, request, state) -> dict:
        """The metrics endpoint: the registry snapshot plus its
        Prometheus-style text exposition (HTTP-free — scrape it with
        ``repro client metrics``).  Gauges are refreshed first so every
        scrape sees point-in-time session/subscription/replication values.
        """
        from repro.obs import metrics as obs

        self.service.record_gauges()
        return {
            "enabled": obs.metrics_enabled(),
            "metrics": obs.registry().snapshot(),
            "text": obs.render_prometheus(),
        }

    def _cmd_slowlog(self, request, state) -> dict:
        """Dump (and optionally clear) the slow-operation ring buffer."""
        from repro.obs import slowlog as slowlog_module

        log = slowlog_module.slowlog()
        payload = {"slowlog": self.service.slowlog()}
        if request.get("clear"):
            log.clear()
            payload["cleared"] = True
        return payload

    # -- replication handlers ----------------------------------------------
    def _from_index(self, request) -> int:
        from_index = request.get("from_index", 0)
        if not isinstance(from_index, int) or isinstance(from_index, bool) \
                or from_index < 0:
            raise ReproError(
                f"from_index must be a non-negative integer, got {from_index!r}"
            )
        return from_index

    def _cmd_repl_sync(self, request, state) -> dict:
        from repro.replication.stream import hub_for  # lazy: optional layer

        return hub_for(self.service).sync(self._from_index(request))

    def _cmd_repl_stream(self, request, state) -> dict:
        from repro.replication.stream import hub_for

        # Catch-up entries are delivered as pushes *before* this response
        # is enqueued; the attach runs under the writer queue, so nothing
        # can commit between the catch-up read and the live listener.
        detach, head, epoch = hub_for(self.service).attach(
            state.deliver, self._from_index(request)
        )
        state.repl_detach.append(detach)
        return {"streaming": True, "head": head, "epoch": epoch}

    def _cmd_repl_fence(self, request, state) -> dict:
        epoch = _required(request, "epoch")
        if not isinstance(epoch, int) or isinstance(epoch, bool) or epoch < 1:
            raise ReproError(f"epoch must be a positive integer, got {epoch!r}")
        return {
            "fenced": self.service.fence(epoch),
            "epoch": self.service.epoch,
        }

    def _cmd_repl_promote(self, request, state) -> dict:
        epoch = request.get("epoch")
        if epoch is not None and (
            not isinstance(epoch, int) or isinstance(epoch, bool) or epoch < 1
        ):
            raise ReproError(f"epoch must be a positive integer, got {epoch!r}")
        control = self.service.replication_control
        if control is not None:
            new_epoch = control.promote(
                epoch=epoch, takeover=request.get("takeover")
            )
        elif self.service.role == "primary":
            # Idempotent on an unfenced primary; a *fenced* one re-promotes
            # under a fresh epoch (an operator's deliberate fail-back).
            new_epoch = (
                self.service.promote(epoch=epoch)
                if self.service.store.epoch < self.service._fenced_epoch
                or epoch is not None
                else self.service.epoch
            )
        else:
            new_epoch = self.service.promote(epoch=epoch)
        return {"role": self.service.role, "epoch": new_epoch}

    def _cmd_repl_retarget(self, request, state) -> dict:
        primary = _required(request, "primary")
        control = self.service.replication_control
        if control is None:
            raise ReproError(
                "this node has no replication link to retarget (it is not "
                "running as `repro replica`)"
            )
        control.retarget(str(primary))
        return {"primary": str(primary)}


def _required(request: dict, field: str):
    value = request.get(field)
    if value is None:
        raise ReproError(f"command {request.get('cmd')!r} needs a {field!r} field")
    return value


_HANDLERS = {
    "ping": Dispatcher._cmd_ping,
    "apply": Dispatcher._cmd_apply,
    "query": Dispatcher._cmd_query,
    "subscribe": Dispatcher._cmd_subscribe,
    "unsubscribe": Dispatcher._cmd_unsubscribe,
    "tx-begin": Dispatcher._cmd_tx_begin,
    "tx-query": Dispatcher._cmd_tx_query,
    "tx-stage": Dispatcher._cmd_tx_stage,
    "tx-commit": Dispatcher._cmd_tx_commit,
    "tx-abort": Dispatcher._cmd_tx_abort,
    "log": Dispatcher._cmd_log,
    "as-of": Dispatcher._cmd_as_of,
    "diff": Dispatcher._cmd_diff,
    "stats": Dispatcher._cmd_stats,
    "metrics": Dispatcher._cmd_metrics,
    "slowlog": Dispatcher._cmd_slowlog,
    "repl-sync": Dispatcher._cmd_repl_sync,
    "repl-stream": Dispatcher._cmd_repl_stream,
    "repl-fence": Dispatcher._cmd_repl_fence,
    "repl-promote": Dispatcher._cmd_repl_promote,
    "repl-retarget": Dispatcher._cmd_repl_retarget,
}
