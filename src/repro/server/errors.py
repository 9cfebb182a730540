"""Errors of the concurrent serving subsystem.

Everything derives from :class:`~repro.core.errors.ReproError`, so embedders
that already catch the library family keep working; the serving layer adds
the distinctions a concurrent client actually branches on:

* :class:`ConflictError` — an optimistic commit lost its validation race and
  is **retryable**: begin a fresh session, restage, commit again (or use
  :meth:`repro.server.service.StoreService.run_transaction`, which does the
  loop).
* :class:`SessionError` — a protocol misuse that retrying cannot fix: an
  unknown or already-finished session, or a commit with nothing staged.
* :class:`ConnectionClosed` — the transport died (server restart, dropped
  socket, shutdown); **retryable** through a reconnecting client.
* :class:`ServerBusyError` — the server shed load (writer-queue timeout,
  outbox overflow); **retryable** after a backoff.
* :class:`StaleEpochError` — a write carried (or arrived at a node holding)
  a fencing epoch older than the replica set's current one: the zombie
  primary's write is rejected; **retryable** against the new primary.
* :class:`NotPrimaryError` — a mutation reached a read-only follower;
  **retryable** after rediscovering the primary.

Every error exposes a boolean ``retryable`` class attribute, which also
travels on the wire so remote clients can branch without string matching.
"""

from __future__ import annotations

from repro.core.errors import ReproError

__all__ = [
    "ServerError",
    "ConflictError",
    "SessionError",
    "ConnectionClosed",
    "ServerBusyError",
    "StaleEpochError",
    "NotPrimaryError",
]


class ServerError(ReproError):
    """Base class for every serving-subsystem error."""

    #: May a client transparently retry the failed operation?
    retryable = False


class ConflictError(ServerError):
    """An optimistic transaction failed validation and must be retried.

    Attributes
    ----------
    pinned:
        The revision index the losing session had pinned.
    conflicting_index / conflicting_tag:
        The first interim revision whose delta intersected the session's
        read/write footprint.
    """

    #: Clients may transparently begin a fresh session and retry.
    retryable = True

    def __init__(
        self, message: str, *, pinned: int, conflicting_index: int,
        conflicting_tag: str,
    ) -> None:
        super().__init__(message)
        self.pinned = pinned
        self.conflicting_index = conflicting_index
        self.conflicting_tag = conflicting_tag


class SessionError(ServerError):
    """A session was used outside its lifecycle (unknown id, already
    committed/aborted, or committed with nothing staged)."""

    retryable = False


class ConnectionClosed(ServerError):
    """The wire link died: server restart, dropped socket, or a local
    ``close()`` while requests or push waiters were outstanding.

    Retryable by definition — the request may or may not have reached the
    server, so clients re-issue only *safe* (read-only or idempotent)
    commands; a reconnecting :class:`~repro.api.wire.WireConnection` does
    exactly that under its :class:`~repro.api.model.RetryPolicy`.
    """

    retryable = True


class ServerBusyError(ServerError):
    """The server shed load instead of queueing without bound: the FIFO
    writer queue did not free up within the configured timeout, or a
    connection's outbox overflowed its hard cap.  Back off and retry."""

    retryable = True


class StaleEpochError(ServerError):
    """A write was fenced off by the replication epoch.

    Raised when a commit carries a ``min_epoch`` newer than the node's own
    (the client has already seen a promotion this node missed), or when the
    node itself has been fenced by a promotion (``repl-fence``) and keeps
    receiving writes as a zombie primary.  Retryable by definition: the
    write belongs on the new primary, and a replica-set client re-routes it
    there under its :class:`~repro.api.model.RetryPolicy`.

    Attributes
    ----------
    current_epoch:
        The fencing epoch this node is at.
    required_epoch:
        The epoch the write (or the fence) demanded.
    """

    retryable = True

    def __init__(
        self, message: str, *, current_epoch: int = 0, required_epoch: int = 0
    ) -> None:
        super().__init__(message)
        self.current_epoch = current_epoch
        self.required_epoch = required_epoch


class NotPrimaryError(ServerError):
    """A mutation reached a node serving as a read-only follower.

    Followers serve pinned reads, head queries and subscriptions
    locally but never originate commits — those belong on the primary (or
    on this node *after* ``repro replica promote``).  Retryable: clients
    rediscover the primary and re-route."""

    retryable = True
