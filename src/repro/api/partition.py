"""The partitioning rule and the routing analysis built on it.

Every fact of the paper's object model is anchored to a *host* — a
version-id-term whose innermost object identity names the object the fact
belongs to.  The cluster partitions the fact space by that innermost OID:

    ``shard_for(object_of(fact.host), n)``

All facts (and all versions) of one object therefore live on one shard,
which is what keeps the common case local:

* a program whose rule hosts are all ground and hash to one shard commits
  on that shard alone, through the existing single-server fast path;
* a query whose literals share one host variable (``E.isa -> empl,
  E.sal -> S``) evaluates shard-locally and the router merely merges the
  per-shard answers — each binding of the host variable draws only on
  facts of that one host, which are colocated by construction;
* only queries that *join across hosts* (two distinct host roots) need
  the gather fallback, where the router unions per-shard snapshots and
  evaluates centrally.

The hash is CRC-32 over a type-tagged rendering of the OID payload —
stable across processes and Python versions, unlike the builtin ``hash``
which is salted per process.
"""

from __future__ import annotations

import zlib

from repro.core.atoms import BuiltinAtom, Literal, VersionAtom
from repro.core.errors import TermError
from repro.core.facts import Fact
from repro.core.objectbase import ObjectBase
from repro.core.terms import Oid, Term, VersionId

__all__ = [
    "shard_for",
    "shard_of_fact",
    "split_base",
    "program_hosts",
    "program_shards",
    "query_scope",
]


def shard_for(oid: Oid, count: int) -> int:
    """The shard (``0 <= shard < count``) object ``oid`` lives on.

    Deterministic across processes: every router and every ``repro
    cluster init`` must agree on placement forever, so the builtin
    (per-process salted) ``hash`` is out.  The payload is type-tagged
    because ``Oid(1)`` and ``Oid("1")`` are distinct objects.
    """
    key = f"{type(oid.value).__name__}:{oid.value!r}".encode()
    return zlib.crc32(key) % count


def _host_root(term: Term) -> Term:
    """The innermost term of a host (an :class:`Oid` or a variable)."""
    while isinstance(term, VersionId):
        term = term.base
    return term


def _literal_root(atom) -> Term:
    """The host root a version- or update-term reads: an update-term's is
    its target's, since every version of an object lives with it."""
    return _host_root(atom.host if isinstance(atom, VersionAtom) else atom.target)


def shard_of_fact(fact: Fact, count: int) -> int:
    """The shard ``fact`` lives on — its host's innermost object's shard."""
    root = _host_root(fact.host)
    if not isinstance(root, Oid):
        raise TermError(f"fact host {fact.host} has no ground object identity")
    return shard_for(root, count)


def split_base(base: ObjectBase, count: int) -> list[ObjectBase]:
    """Partition ``base`` into ``count`` per-shard object bases.

    Facts (existence facts included — they carry the same host) are
    bucketed by :func:`shard_of_fact`; the union of the pieces is exactly
    ``base`` and the pieces are pairwise host-disjoint.
    """
    buckets: list[set[Fact]] = [set() for _ in range(count)]
    for fact in base:
        buckets[shard_of_fact(fact, count)].add(fact)
    return [ObjectBase.from_fact_set(bucket).freeze() for bucket in buckets]


def program_hosts(program) -> frozenset[Oid] | None:
    """The ground host objects a program touches, or ``None`` when any
    host (head target, body version-term host or update-term target) has a
    variable innermost — such a program cannot be routed to one shard."""
    hosts: set[Oid] = set()
    for rule in program:
        roots = [_host_root(rule.head.target)]
        roots += [
            _literal_root(literal.atom)
            for literal in rule.body
            if not isinstance(literal.atom, BuiltinAtom)
        ]
        for root in roots:
            if not isinstance(root, Oid):
                return None
            hosts.add(root)
    return frozenset(hosts)


def program_shards(program, count: int) -> frozenset[int] | None:
    """The shards a program's hosts hash to (``None`` for variable hosts)."""
    hosts = program_hosts(program)
    if hosts is None:
        return None
    return frozenset(shard_for(host, count) for host in hosts)


def query_scope(
    literals: tuple[Literal, ...], count: int
) -> tuple[str, int | None]:
    """Classify a query body for routing.

    Returns one of

    * ``("single", shard)`` — every host is ground and hashes to one
      shard (or the body has no version- or update-term at all): answer
      from that shard alone;
    * ``("scatter", None)`` — the version- and update-terms share exactly
      one host variable and name no ground host: per-shard evaluation is
      complete (each binding's facts are colocated), so evaluate
      everywhere and merge;
    * ``("gather", None)`` — the body joins across distinct host roots:
      union per-shard snapshots and evaluate centrally.
    """
    ground: set[Oid] = set()
    variables: set[Term] = set()
    saw_host = False
    for literal in literals:
        if isinstance(literal.atom, BuiltinAtom):
            continue
        saw_host = True
        root = _literal_root(literal.atom)
        if isinstance(root, Oid):
            ground.add(root)
        else:
            variables.add(root)
    if not saw_host:
        return ("single", 0)
    if not variables:
        shards = {shard_for(oid, count) for oid in ground}
        if len(shards) == 1:
            return ("single", next(iter(shards)))
        return ("gather", None)
    if len(variables) == 1 and not ground:
        return ("scatter", None)
    return ("gather", None)
