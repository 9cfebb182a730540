"""One connection API over every backend: ``repro.connect(target)``.

The paper's update-programs are one semantics; this package gives them one
*surface*.  A :class:`Connection` answers queries, autocommits programs,
runs optimistic transactions and streams live-query answer diffs — and
behaves identically whether it wraps an ephemeral in-memory store, a
durable journal directory, or a running server:

>>> import repro
>>> conn = repro.connect("memory:", base="henry.isa -> empl. henry.sal -> 250.")
>>> conn.query("E.sal -> S")
[{'E': 'henry', 'S': 250}]

Targets accepted by :func:`connect` (the grammar lives in
:mod:`repro.api.targets`):

``"memory:"``
    A fresh ephemeral store (seed it with ``base=...``).
a directory path
    A durable journal directory: opened (and appended to) when a journal
    exists, initialized from ``base=...`` when not.  ``readonly=True``
    opens without write access (and without journal repair).
``"serve:<endpoint>"`` / ``"unix:<path>"`` / ``"tcp:<host>:<port>"``
    A running ``repro serve`` instance; a bare path that names a live unix
    socket also connects.
``"replset:<endpoint>,<endpoint>,..."``
    A replicated deployment (``repro serve`` + ``repro replica`` members):
    the same served connection over several endpoints.  It talks to the
    primary, fails over to any member that answers when the link dies,
    and follows the primary across promotions, epoch-fenced against
    zombie writes (see :mod:`repro.api.wire` and :mod:`repro.replication`).
``"cluster:<shard>,<shard>,..."``
    A hash-partitioned deployment: each comma-separated spec is one shard
    (a ``|``-separated spec is a replica-set shard).  Facts live on the
    shard their host OID hashes to; cross-shard reads scatter-gather and
    compose per-shard revisions into a cluster-wide revision vector (see
    :mod:`repro.cluster`).
a :class:`~repro.server.service.StoreService` or
:class:`~repro.storage.history.VersionedStore`
    Wrapped in-process as-is (embedding).

Every backend speaks the same result model (:mod:`repro.api.model`), the
same revision addressing (tags or indexes, digit strings included), and
the same :class:`~repro.core.errors.ReproError` taxonomy — optimistic
conflicts are the retryable
:class:`~repro.server.errors.ConflictError` everywhere.  The differential
parity suite (``tests/api/test_backend_parity.py``) holds the backends to
byte-identical answers, revision logs and journals, so the next backend
(sharded, replicated, remote) lands behind this same surface.
"""

from __future__ import annotations

from pathlib import Path

from repro.api.connection import Connection, SubscriptionStream, Transaction
from repro.api.hosting import BackgroundServer
from repro.api.local import ServiceConnection
from repro.api.model import AnswerDelta, CommitResult, Diff, RetryPolicy, Revision
from repro.api.targets import ParsedTarget, parse_target
from repro.api.wire import WireConnection
from repro.core.errors import ReproError
from repro.core.objectbase import ObjectBase
from repro.server.errors import (
    ConflictError,
    ConnectionClosed,
    NotPrimaryError,
    ServerBusyError,
    ServerError,
    SessionError,
    StaleEpochError,
)
from repro.server.service import StoreService
from repro.storage.history import StoreOptions, VersionedStore
from repro.storage.serialize import JOURNAL_FILE, DurabilityOptions, load_store

__all__ = [
    "connect",
    "parse_target",
    "ParsedTarget",
    "Connection",
    "Transaction",
    "SubscriptionStream",
    "Revision",
    "CommitResult",
    "AnswerDelta",
    "Diff",
    "RetryPolicy",
    "DurabilityOptions",
    "ServiceConnection",
    "WireConnection",
    "BackgroundServer",
    "ConflictError",
    "ServerError",
    "SessionError",
    "ConnectionClosed",
    "ServerBusyError",
    "StaleEpochError",
    "NotPrimaryError",
]


def connect(
    target="memory:",
    *,
    base=None,
    tag: str = "initial",
    options: StoreOptions | None = None,
    readonly: bool = False,
    call_timeout: float | None = None,
    retry: RetryPolicy | None = None,
    durability: DurabilityOptions | None = None,
) -> Connection:
    """Open a :class:`Connection` to ``target`` (see the module doc).

    ``base`` (an :class:`ObjectBase` or concrete-syntax text) seeds a
    ``memory:`` store or initializes a fresh journal directory — it is an
    error on targets that already hold data.  ``tag`` names revision 0 of
    a newly created store; ``options`` are its
    :class:`~repro.storage.history.StoreOptions`.  ``call_timeout`` bounds
    request round-trips on served targets, and ``retry`` (a
    :class:`RetryPolicy`) makes a served connection survive server
    restarts — reconnect with backoff, re-established subscriptions,
    safe requests re-issued (``replset:`` and ``cluster:`` targets exist to
    be failed over and default to ``RetryPolicy()``).  ``durability`` (a
    :class:`~repro.storage.serialize.DurabilityOptions`) picks the
    crash-safety level of a journal-directory target's writes.
    """
    if isinstance(target, StoreService):
        _reject_seed_kwargs("an existing StoreService", base, options)
        _reject_wire_kwargs("an in-process target", retry)
        _reject_durability("an existing StoreService", durability)
        return ServiceConnection(
            target, target="service:", readonly=readonly
        )
    if isinstance(target, VersionedStore):
        _reject_seed_kwargs("an existing VersionedStore", base, options)
        _reject_wire_kwargs("an in-process target", retry)
        _reject_durability("an existing VersionedStore", durability)
        return ServiceConnection(
            StoreService(target), target="store:", readonly=readonly
        )
    parsed = parse_target(target)
    if parsed.scheme == "memory":
        _reject_wire_kwargs("a memory: target", retry)
        _reject_durability("a memory: target", durability)
        store = VersionedStore(_coerce_base(base), tag=tag, options=options)
        return ServiceConnection(
            StoreService(store), target="memory:", readonly=readonly
        )
    if parsed.scheme == "replset":
        _reject_seed_kwargs("a replica-set target", base, options)
        _reject_durability(
            "a replica-set target (each member owns its journal)", durability
        )
        if readonly:
            raise ReproError(
                "readonly= is not supported on replset: targets; open a "
                "member's journal directory read-only instead"
            )
        # a member list exists to be failed over: never without a policy
        return WireConnection(
            parsed.members, call_timeout=call_timeout,
            retry=retry or RetryPolicy(),
        )
    if parsed.scheme == "cluster":
        from repro.cluster.router import ClusterConnection

        _reject_seed_kwargs("a cluster: target", base, options)
        _reject_durability(
            "a cluster: target (each shard owns its journal)", durability
        )
        if readonly:
            raise ReproError(
                "readonly= is not supported on cluster: targets; connect "
                "to a shard's journal directory read-only instead"
            )
        return ClusterConnection(
            parsed.shards, call_timeout=call_timeout, retry=retry
        )
    if parsed.scheme == "wire":
        _reject_seed_kwargs("a served target", base, options)
        _reject_durability(
            "a served target (the server owns its journal)", durability
        )
        if readonly:
            # The server cannot be made read-only from a client; refusing
            # is safer than handing back a silently writable connection.
            raise ReproError(
                "readonly= is not supported on served targets; open the "
                "journal directory read-only instead"
            )
        return WireConnection(
            [parsed.text], call_timeout=call_timeout, retry=retry
        )
    _reject_wire_kwargs("a journal-directory target", retry)
    return _connect_journal(
        parsed.path, base=base, tag=tag, options=options, readonly=readonly,
        durability=durability,
    )


def _reject_seed_kwargs(what: str, base, options) -> None:
    if base is not None:
        raise ReproError(f"base= seeds new stores; {what} already has one")
    if options is not None:
        raise ReproError(f"options= shapes new stores; {what} is already built")


def _reject_wire_kwargs(what: str, retry) -> None:
    if retry is not None:
        raise ReproError(
            f"retry= reconnects served targets; {what} has no link to lose"
        )


def _reject_durability(what: str, durability) -> None:
    if durability is not None:
        raise ReproError(
            f"durability= shapes journal-directory writes; {what} does not "
            f"take one"
        )


def _coerce_base(base) -> ObjectBase:
    if base is None:
        return ObjectBase()
    if isinstance(base, ObjectBase):
        return base
    if isinstance(base, str):
        from repro.lang.parser import parse_object_base

        return parse_object_base(base)
    raise ReproError(
        f"base= needs an ObjectBase or concrete-syntax text, not "
        f"{type(base).__name__}"
    )


def _connect_journal(
    directory: Path, *, base, tag, options, readonly, durability=None
) -> ServiceConnection:
    journal = directory / JOURNAL_FILE
    if journal.exists():
        if base is not None:
            raise ReproError(
                f"a journal already exists at {journal}; refusing to "
                f"overwrite its history — pick a fresh directory"
            )
        if readonly:
            if durability is not None:
                raise ReproError(
                    "durability= shapes writes; a readonly connection "
                    "never writes"
                )
            # Readers never repair the journal (a live appender could be
            # racing the rewrite) and never bind it for writing.
            service = StoreService(load_store(directory, options=options))
        else:
            service = StoreService.open(
                directory, options=options, durability=durability
            )
        return ServiceConnection(
            service, target=str(directory), readonly=readonly
        )
    if base is None:
        raise ReproError(
            f"no journal at {journal}; pass base=... to initialize a new "
            f"store there"
        )
    if readonly:
        raise ReproError(
            f"readonly= cannot initialize a new journal at {journal}; a "
            f"read-only connection must not write to disk"
        )
    service = StoreService.create(
        _coerce_base(base), directory, tag=tag, options=options,
        durability=durability,
    )
    return ServiceConnection(service, target=str(directory))
