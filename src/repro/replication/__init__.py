"""Replicated serving: journal-streaming followers with safe promotion.

The journal (PR 2/4/6) already *is* a replication log: a totally ordered,
CRC-checked, byte-replayable history whose replay is proven byte-identical
by the tier-1 suite.  This package streams that log to live follower
processes and handles the failure half — health checks, promotion, and
epoch fencing — so one ``StoreService`` survives node loss.  The primary
side is the server's: :mod:`repro.server.stream` answers ``repl-stream``
with the catch-up batch of raw journal lines, then pushes each later
commit's line, so followers receive the primary's exact bytes.  This
package is the follower side:

* :mod:`repro.replication.follower` — the replica process: attaches to
  the stream from its journal's end (at start and after every dropped
  link), replays each line through the write-ahead commit path into a
  byte-identical journal, serves reads/subscriptions locally,
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
from repro.replication.supervisor import ReplicaSet

__all__ = [
    "Follower",
    "ReplicaSet",
]
