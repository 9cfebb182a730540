"""Replicated serving: journal-streaming followers with safe promotion.

The journal (PR 2/4/6) already *is* a replication log: a totally ordered,
CRC-checked, byte-replayable history whose replay is proven byte-identical
by the tier-1 suite.  This package streams that log to live follower
processes and handles the failure half — health checks, promotion, and
epoch fencing — so one ``StoreService`` survives node loss:

* :mod:`repro.replication.stream` — the primary side: ``repl-sync``
  (snapshot bootstrap) and ``repl-stream`` (live tail) read raw journal
  lines so followers receive the primary's exact bytes;
* :mod:`repro.replication.follower` — the replica process: bootstraps a
  byte-identical journal, tails the stream through the ``load_store`` /
  ``apply_delta`` replay path, serves reads/subscriptions locally,
  heartbeats the primary, and can be promoted (``repro replica promote``);
* :mod:`repro.replication.supervisor` — ``repro replicaset``: an external
  health checker that auto-promotes the freshest follower and fences the
  old primary when it reappears.

The client side is not here: ``repro.connect("replset:a,b,c")`` is a
:class:`~repro.api.wire.WireConnection` over several endpoints — it dials
the primary, fails over when the link dies, rediscovers the primary when
a member refuses a write, and stamps mutations with the highest fencing
epoch it has observed so a zombie primary rejects them.
"""

from repro.replication.follower import Follower
from repro.replication.stream import ReplicationHub, hub_for
from repro.replication.supervisor import ReplicaSet

__all__ = [
    "Follower",
    "ReplicaSet",
    "ReplicationHub",
    "hub_for",
]
