"""Concurrent serving subsystem: MVCC sessions, optimistic transactions,
and push-based live queries over a versioned store.

The paper's update programs assume a single mutator.  This subpackage is
the concurrency seam on the road to "heavy traffic from millions of
users": it mediates many readers and writers over one
:class:`~repro.storage.history.VersionedStore` and delivers live-query
changes by *push*, so clients need not re-ask.

* :mod:`~repro.server.service` — :class:`StoreService` and
  :class:`Session`: snapshot reads pinned to a revision (free via
  structural sharing), optimistic commits validated by intersecting the
  session's read/write footprint (query and program
  :class:`~repro.core.plans.QuerySignature` triggers) against the deltas
  committed since the pin, which the session builds from those revisions
  when it commits, a strict FIFO writer queue, and journal-backed
  durability (commits append; restart replays).
* :mod:`~repro.server.subscriptions` — live queries: the store hands each
  commit to the manager with its parent base, and the exact delta is
  folded through each subscription's dispatch keys; only *answer diffs*
  travel, and provably unaffected queries cost nothing.  Neither module
  keeps per-revision state between commits.
* :mod:`~repro.server.protocol` / :mod:`~repro.server.server` /
  :mod:`~repro.server.client` — the JSON-lines wire protocol, its asyncio
  transport (``repro serve``), and the blocking wire client
  (:class:`LineClient`: the caller reads its own answer, and a link
  starts a reader thread only once it carries a subscription).
* :mod:`~repro.server.stream` — the primary's half of replication:
  ``repl-stream`` answers with the catch-up batch of raw journal lines,
  then pushes each later commit's line (the follower side is
  :mod:`repro.replication`).

This is the architectural seam later scaling PRs (sharding, replication,
multi-backend) plug into: everything above the :class:`StoreService` talks
revisions, deltas and signatures — never raw bases.
"""

from repro.server.client import LineClient
from repro.server.errors import (
    ConflictError,
    ConnectionClosed,
    ServerBusyError,
    ServerError,
    SessionError,
)
from repro.server.server import ReproServer, ServerLimits
from repro.server.service import CommitOutcome, Session, StoreService
from repro.server.subscriptions import Subscription, SubscriptionManager

__all__ = [
    "StoreService",
    "Session",
    "CommitOutcome",
    "SubscriptionManager",
    "Subscription",
    "ReproServer",
    "ServerLimits",
    "LineClient",
    "ConflictError",
    "ServerError",
    "SessionError",
    "ConnectionClosed",
    "ServerBusyError",
]
