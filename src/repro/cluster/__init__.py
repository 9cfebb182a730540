"""Sharded cluster serving: hash-partitioned stores behind one router.

The paper anchors every fact to a host OID, which makes the fact space
naturally partitionable: hash the host, and every rule-match and commit
whose hosts are ground stays local to one shard.  This package exploits
that:

* :mod:`repro.cluster.partition` — the stable partitioning rule
  (``shard_for``), base splitting, and program/query routing analysis;
* :mod:`repro.cluster.router` — :class:`ClusterConnection`, the
  ``cluster:`` :class:`~repro.api.connection.Connection` backend:
  single-shard fast path, scatter-gather reads, revision-vector
  consistency tokens, merged subscriptions, per-shard failover (a
  ``a|b`` shard is a wire connection over both members);
* :mod:`repro.cluster.local` — :class:`LocalCluster`, an in-process
  N-shard deployment for tests, examples and benchmarks.

Connect with ``repro.connect("cluster:unix:a.sock,unix:b.sock")``; manage
deployments with the ``repro cluster`` CLI (init/launch/status).
"""

from repro.cluster.local import LocalCluster
from repro.cluster.partition import (
    program_hosts,
    query_scope,
    shard_for,
    shard_of_fact,
    split_base,
)
from repro.cluster.router import ClusterConnection, RevisionVector

__all__ = [
    "ClusterConnection",
    "LocalCluster",
    "RevisionVector",
    "program_hosts",
    "query_scope",
    "shard_for",
    "shard_of_fact",
    "split_base",
]
