"""``repro.connect("cluster:a,b,...")`` — the shard-routing client.

A :class:`ClusterConnection` holds one
:class:`~repro.api.wire.WireConnection` per shard — over the shard's one
endpoint, or over every member of a ``|``-separated group, so a
replicated shard fails over exactly as a ``replset:`` target does — and
routes by the partitioning rule of :mod:`repro.api.partition`:

* **commits** (apply/transactions) whose hosts are ground and hash to one
  shard go to that shard alone, through the existing single-server fast
  path, untouched;
* **reads** with a single host variable *scatter*: every shard answers
  over its own facts and the router merges the per-shard rows under the
  one canonical answer order (:func:`~repro.core.query.answer_sort_key`),
  which reproduces the single-store ordering exactly;
* **cross-host joins** fall back to *gather*: the router unions
  consistent per-shard snapshots and evaluates the join centrally.

Consistency is carried by a **revision vector** — one revision index per
shard.  The router exposes the *sum* of the vector as the cluster's
revision index (every commit advances exactly one component by at least
one, so the sum is a strictly monotonic commit counter, and a
single-router cluster numbers its revisions 1, 2, 3, … exactly like a
single store).  Each cluster index maps back to the full vector in the
router's history, so ``as_of``/``diff``/``min_revision`` tokens compose
per-shard history exactly; reads additionally ride a per-shard
*watermark* (the highest component this router has observed), giving
monotonic reads across failovers — a lagging replica sheds a read below
the watermark rather than answer from the past.  An integer token this
router never recorded waits, under the one read-your-writes rule
(:func:`~repro.api.connection.wait_for_revision`), for the summed shard
heads to reach it.

**Live queries** start no thread: every shard stream puts ``(shard,
push)`` on the merged stream's one queue, and its ``next()`` folds them —
advancing the shard's vector component and the watermark, and turning a
shard's ``lagged`` resync into one exact merged resync.  A shard stream
that dies (reconnect budget spent) ends the merged stream.

Limitations, by design: a program whose rule hosts contain variables
cannot be routed (it could touch any shard) and is rejected with a typed
error — rewrite it as per-host programs.  A transaction stages programs
on one shard per transaction, and conflict validation covers the staged
shard's footprint (cross-shard read footprints are not validated).
Cross-host *join* subscriptions are not supported.
"""

from __future__ import annotations

import dataclasses
import itertools
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

from repro.api.connection import (
    _STREAM_CLOSED,
    Connection,
    SubscriptionStream,
    Transaction,
    wait_for_revision,
)
from repro.api.model import AnswerDelta, CommitResult, Diff, RetryPolicy, Revision
from repro.api.partition import program_shards, query_scope
from repro.api.wire import WireConnection, _body_text
from repro.core.errors import ReproError
from repro.core.objectbase import ObjectBase
from repro.core.query import (
    Answer,
    answer_sort_key,
    decode_answers,
    fold_answers,
)
from repro.lang.parser import prepare_query
from repro.server.errors import ServerBusyError
from repro.server.service import StoreService
from repro.storage.history import resolve_revision_ref

__all__ = ["ClusterConnection", "RevisionVector"]


@dataclasses.dataclass(frozen=True)
class RevisionVector:
    """One consistent cross-shard cut: a revision index per shard.

    The cluster-wide revision *index* is :attr:`total` — the sum of the
    components.  ``str()`` gives the portable token form ``rv:3,0,5``;
    :meth:`parse` reads it back.
    """

    components: tuple[int, ...]

    @classmethod
    def parse(cls, text: str) -> "RevisionVector":
        if not isinstance(text, str) or not text.startswith("rv:"):
            raise ReproError(f"not a revision-vector token: {text!r}")
        try:
            parts = tuple(int(part) for part in text[3:].split(","))
        except ValueError:
            raise ReproError(f"not a revision-vector token: {text!r}") from None
        if any(part < 0 for part in parts):
            raise ReproError(
                f"revision-vector components must be non-negative: {text!r}"
            )
        return cls(parts)

    @property
    def total(self) -> int:
        return sum(self.components)

    def __len__(self) -> int:
        return len(self.components)

    def __getitem__(self, index: int) -> int:
        return self.components[index]

    def __str__(self) -> str:
        return "rv:" + ",".join(str(part) for part in self.components)


class ClusterConnection(Connection):
    """One connection over N hash-partitioned shards (see module doc)."""

    def __init__(
        self,
        shards: Sequence,
        *,
        call_timeout: float | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        super().__init__()
        groups: list[tuple[str, ...]] = []
        for spec in shards:
            if isinstance(spec, str):
                groups.append((spec,))
            else:
                groups.append(tuple(str(member) for member in spec))
        if not groups:
            raise ReproError(
                "cluster: target needs at least one shard endpoint after "
                "the colon"
            )
        self.shards = tuple(groups)
        self.count = len(self.shards)
        self.target = "cluster:" + ",".join(
            "|".join(group) for group in self.shards
        )
        self.call_timeout = call_timeout
        self.retry = retry or RetryPolicy()
        self._conns: dict[int, WireConnection] = {}
        self._lock = threading.RLock()
        self._executor: ThreadPoolExecutor | None = None
        self._ready = False
        #: Highest revision index observed per shard (monotonic reads).
        self._watermark: list[int] = [0] * self.count
        #: cluster index -> revision vector, for every addressable cut.
        self._history: dict[int, tuple[int, ...]] = {0: (0,) * self.count}
        #: commit tag -> cluster index (tags minted through this router).
        self._tags: dict[str, int] = {}
        #: Re-indexed commit records, oldest first (the cluster log tail).
        self._records: list[Revision] = []
        self._initial: Revision | None = None
        self.single_reads = 0
        self.scatter_reads = 0
        self.gather_reads = 0
        self.commits = 0

    # -- shard plumbing ----------------------------------------------------
    def _conn(self, shard: int) -> WireConnection:
        with self._lock:
            conn = self._conns.get(shard)
            if conn is not None and not conn.closed:
                return conn
            conn = WireConnection(
                self.shards[shard],
                call_timeout=self.call_timeout,
                retry=self.retry,
            )
            self._conns[shard] = conn
            return conn

    def _scatter(self, op: Callable[[int, WireConnection], object]) -> list:
        """Run ``op(shard, conn)`` against every shard; results in shard
        order.  One shard's failure fails the whole operation (per-member
        failover already happened below, inside the shard's connection)."""
        conns = [self._conn(shard) for shard in range(self.count)]
        if self.count == 1:
            return [op(0, conns[0])]
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.count,
                    thread_name_prefix="repro-cluster",
                )
            executor = self._executor
        futures = [
            executor.submit(op, shard, conns[shard])
            for shard in range(self.count)
        ]
        return [future.result() for future in futures]

    @staticmethod
    def _shard_head(conn: WireConnection) -> int:
        """The shard's current head index (a ping carries it)."""
        return conn.call("ping").get("revision", 0)

    def _bootstrap(self) -> None:
        """First contact: learn each shard's head (the watermark floor)
        and verify declared shard identity where the servers report one."""
        if self._ready:
            return
        def probe(shard: int, conn: WireConnection) -> int:
            pong = conn.call("ping")
            identity = pong.get("shard") or {}
            declared_id = identity.get("id")
            declared_count = identity.get("count")
            if declared_count is not None and declared_count != self.count:
                raise ReproError(
                    f"shard {shard} ({conn.target}) was "
                    f"initialized for a {declared_count}-shard cluster, "
                    f"but this target names {self.count} shards — "
                    f"repartitioning requires repro cluster init"
                )
            if declared_id is not None and declared_id != shard:
                raise ReproError(
                    f"shard {shard} ({conn.target}) declares "
                    f"shard id {declared_id} — the cluster: member order "
                    f"must match the ids assigned at init"
                )
            return pong.get("revision", 0)
        heads = self._scatter(probe)
        with self._lock:
            if self._ready:
                return
            for shard, head in enumerate(heads):
                self._watermark[shard] = max(self._watermark[shard], head)
            self._history.setdefault(
                sum(self._watermark), tuple(self._watermark)
            )
            self._ready = True

    def _observe(self, shard: int, revision: int) -> None:
        with self._lock:
            if revision > self._watermark[shard]:
                self._watermark[shard] = revision

    def _record_commit(self, shard: int, revisions) -> list[Revision]:
        """Re-index shard-local commit records onto the cluster counter."""
        reindexed: list[Revision] = []
        with self._lock:
            for revision in revisions:
                if revision.index > self._watermark[shard]:
                    self._watermark[shard] = revision.index
                vector = tuple(self._watermark)
                index = sum(vector)
                self._history[index] = vector
                if revision.tag:
                    self._tags[revision.tag] = index
                record = dataclasses.replace(revision, index=index)
                self._records.append(record)
                reindexed.append(record)
            self.commits += len(reindexed)
        return reindexed

    # -- consistency tokens ------------------------------------------------
    def _vector(self, token) -> tuple[int, ...]:
        """A revision-vector token (a :class:`RevisionVector` or its
        ``rv:`` text) as its components, exactly one per shard."""
        if not isinstance(token, RevisionVector):
            token = RevisionVector.parse(token)
        if len(token) != self.count:
            raise ReproError(
                f"revision vector {token} has {len(token)} components, but "
                f"this cluster has {self.count} shards"
            )
        return token.components

    def _components(self, min_revision) -> list[int | None]:
        """Resolve a read-your-writes token into per-shard floors."""
        if min_revision is None:
            return [None] * self.count
        if isinstance(min_revision, (RevisionVector, str)):
            return list(self._vector(min_revision))
        with self._lock:
            vector = self._history.get(min_revision)
        if vector is not None:
            return list(vector)
        # A token minted elsewhere (another router) addresses a cut this
        # router never recorded; wait for the aggregate head to reach it,
        # after which any shard's current head satisfies its share.
        def check_total() -> None:
            heads = self._scatter(lambda shard, conn: self._shard_head(conn))
            for shard, head in enumerate(heads):
                self._observe(shard, head)
            if sum(heads) < min_revision:
                raise ServerBusyError.behind(sum(heads), min_revision)

        wait_for_revision(check_total)
        return [None] * self.count

    def _floor(self, shard: int, component: int | None) -> int | None:
        """The min_revision to send shard ``shard``: the caller's token
        component joined with the router's monotonic-read watermark."""
        with self._lock:
            watermark = self._watermark[shard]
        floor = max(watermark, component or 0)
        return floor or None

    def _resolve_vector(self, ref) -> tuple[int, ...]:
        """A revision reference (cluster index, digit string, tag, or
        revision-vector token) as a full per-shard vector."""
        self._bootstrap()
        if isinstance(ref, RevisionVector) or (
            isinstance(ref, str) and ref.startswith("rv:")
        ):
            return self._vector(ref)
        resolved = resolve_revision_ref(ref)
        if isinstance(resolved, int):
            with self._lock:
                vector = self._history.get(resolved)
            if vector is None:
                raise ReproError(f"no revision {resolved}")
            return vector
        with self._lock:
            index = self._tags.get(resolved)
            vector = None if index is None else self._history.get(index)
        if vector is not None:
            return vector
        if resolved == self._initial_record().tag:
            return (0,) * self.count
        raise ReproError(f"no revision tagged {resolved!r}")

    # -- liveness ----------------------------------------------------------
    def ping(self) -> dict:
        self._check_open()
        results = self._scatter(lambda shard, conn: conn.ping())
        return {
            "pong": all(result.get("pong") for result in results),
            "protocol": results[0].get("protocol"),
            "shards": [
                dict(result, shard=shard)
                for shard, result in enumerate(results)
            ],
        }

    # -- reading -----------------------------------------------------------
    def query(self, body, *, min_revision=None) -> list[Answer]:
        self._check_open()
        self._bootstrap()
        prepared = prepare_query(body)
        scope, shard = query_scope(prepared.body, self.count)
        components = self._components(min_revision)
        if scope == "single":
            with self._lock:
                self.single_reads += 1
            answers, revision = self._conn(shard).query_with_revision(
                body, min_revision=self._floor(shard, components[shard])
            )
            self._observe(shard, revision)
            return answers
        if scope == "scatter":
            with self._lock:
                self.scatter_reads += 1
            def read(shard: int, conn: Connection):
                return conn.query_with_revision(
                    body, min_revision=self._floor(shard, components[shard])
                )
            results = self._scatter(read)
            merged: list[Answer] = []
            for shard, (answers, revision) in enumerate(results):
                self._observe(shard, revision)
                merged.extend(answers)
            merged.sort(key=answer_sort_key)
            return merged
        with self._lock:
            self.gather_reads += 1
        return prepared.run(self._gather(components))

    def _gather(self, components: list[int | None]) -> ObjectBase:
        """A consistent cross-shard snapshot for centrally evaluated
        joins: each shard contributes its base as of a cut no older than
        the watermark (and the caller's token)."""
        def snapshot(shard: int, conn: Connection) -> ObjectBase:
            head = self._shard_head(conn)
            cut = max(head, self._floor(shard, components[shard]) or 0)
            self._observe(shard, cut)
            return conn.as_of(cut)
        facts: set = set()
        for base in self._scatter(snapshot):
            facts.update(base)
        return ObjectBase.from_fact_set(facts).freeze()

    def log(self) -> tuple[Revision, ...]:
        self._check_open()
        self._bootstrap()
        with self._lock:
            tail = tuple(self._records)
        return (self._initial_record(),) + tail

    def _initial_record(self) -> Revision:
        if self._initial is None:
            records = self._scatter(lambda shard, conn: conn.log()[0])
            self._initial = Revision(
                index=0,
                tag=records[0].tag,
                program=records[0].program,
                added=sum(record.added for record in records),
                removed=sum(record.removed for record in records),
                snapshot=all(record.snapshot for record in records),
            )
        return self._initial

    def as_of(self, revision) -> ObjectBase:
        self._check_open()
        vector = self._resolve_vector(revision)
        bases = self._scatter(
            lambda shard, conn: conn.as_of(vector[shard])
        )
        facts: set = set()
        for base in bases:
            facts.update(base)
        return ObjectBase.from_fact_set(facts).freeze()

    def diff(self, older, newer, *, include_exists: bool = False) -> Diff:
        self._check_open()
        older_vector = self._resolve_vector(older)
        newer_vector = self._resolve_vector(newer)
        pieces = self._scatter(
            lambda shard, conn: conn.diff(
                older_vector[shard], newer_vector[shard],
                include_exists=include_exists,
            )
        )
        added: list[str] = []
        removed: list[str] = []
        for piece in pieces:
            added.extend(piece.added)
            removed.extend(piece.removed)
        return Diff(tuple(sorted(added)), tuple(sorted(removed)))

    # -- writing -----------------------------------------------------------
    def _route_program(self, program) -> tuple[object, int]:
        """Coerce and place a program; typed errors for unroutable ones."""
        coerced = StoreService.coerce_program(program)
        shards = program_shards(coerced, self.count)
        if shards is None:
            raise ReproError(
                "a cluster commit needs ground rule hosts: a variable host "
                "could touch any shard — split the program into per-host "
                "programs and commit each to its shard"
            )
        if len(shards) > 1:
            raise ReproError(
                f"program touches hosts on {len(shards)} different shards "
                f"({', '.join(str(s) for s in sorted(shards))}); a cluster "
                f"commit must stay on one shard — split it by host"
            )
        shard = next(iter(shards)) if shards else 0
        return coerced, shard

    def apply(self, program, *, tag: str = "") -> Revision:
        self._check_open()
        self._bootstrap()
        coerced, shard = self._route_program(program)
        revision = self._conn(shard).apply(coerced, tag=tag)
        return self._record_commit(shard, [revision])[-1]

    def transaction(self, *, tag: str = "", attempts: int = 1) -> "Transaction":
        self._check_open()
        self._bootstrap()
        return _ClusterTransaction(self, tag=tag, attempts=attempts)

    # -- live queries ------------------------------------------------------
    def subscribe(
        self, body, *, name: str | None = None,
        min_revision=None,
    ) -> SubscriptionStream:
        self._check_open()
        self._bootstrap()
        body_text = _body_text(body)
        scope, shard = query_scope(prepare_query(body).body, self.count)
        if scope == "gather":
            raise ReproError(
                "cluster: subscriptions need a single host root (one host "
                "variable or hosts on one shard); a cross-host join cannot "
                "be streamed shard-locally"
            )
        components = self._components(min_revision)
        targets = [shard] if scope == "single" else list(range(self.count))
        pushes: "queue.Queue" = queue.Queue()
        inners: dict[int, SubscriptionStream] = {}
        try:
            for target in targets:
                inners[target] = self._conn(target)._subscribe(
                    body_text, name=name,
                    min_revision=self._floor(target, components[target]),
                    pushes=_ShardFeed(target, pushes),
                )
        except Exception:
            _close_inners(inners)
            raise
        return self._track(_MergedStream(self, inners, body_text, pushes))

    # -- accounting --------------------------------------------------------
    def stats(self) -> dict:
        self._check_open()
        self._bootstrap()
        docs = self._scatter(lambda shard, conn: conn.stats())
        shards = []
        for shard, doc in enumerate(docs):
            replication = doc.get("replication") or {}
            shards.append({
                "shard": shard,
                "target": "|".join(self.shards[shard]),
                "revisions": doc.get("revisions", 0),
                "head_tag": doc.get("head_tag"),
                "commits": doc.get("commits", 0),
                "conflicts": doc.get("conflicts", 0),
                "sessions_begun": doc.get("sessions_begun", 0),
                "role": replication.get("role"),
                "epoch": replication.get("epoch", 0),
                "lag": replication.get("lag", 0),
                "subscriptions": (doc.get("subscriptions") or {}).get(
                    "active", 0
                ),
                "failovers": self._conn(shard).reconnects,
            })
        with self._lock:
            watermark = list(self._watermark)
            router = {
                "shards": self.count,
                "watermark": watermark,
                "revision": sum(watermark),
                "vector": str(RevisionVector(tuple(watermark))),
                "single_reads": self.single_reads,
                "scatter_reads": self.scatter_reads,
                "gather_reads": self.gather_reads,
                "commits": self.commits,
                "failovers": sum(entry["failovers"] for entry in shards),
            }
            head_tag = (
                self._records[-1].tag if self._records
                else self._initial_record().tag
            )
        return {
            "revisions": sum(watermark) + 1,
            "head_tag": head_tag,
            "commits": sum(doc.get("commits", 0) for doc in docs),
            "conflicts": sum(doc.get("conflicts", 0) for doc in docs),
            "sessions_begun": sum(
                doc.get("sessions_begun", 0) for doc in docs
            ),
            "journal": {"shards": [doc.get("journal") for doc in docs]},
            "durability": docs[0].get("durability"),
            "subscriptions": {"active": len(self._streams)},
            "prepared": {},
            "caches": {"shards": [doc.get("caches") for doc in docs]},
            "replication": _aggregate_replication(docs),
            "metrics": {
                "enabled": any(
                    (doc.get("metrics") or {}).get("enabled") for doc in docs
                ),
                "registry": _merge_registries([
                    (doc.get("metrics") or {}).get("registry") or {}
                    for doc in docs
                ]),
            },
            "slowlog": _merge_slowlogs([
                doc.get("slowlog") or {} for doc in docs
            ]),
            "shard": {"id": None, "count": self.count},
            "cluster": {"shards": shards, "router": router},
        }

    # -- lifecycle ---------------------------------------------------------
    def _teardown(self) -> None:
        with self._lock:
            conns = list(self._conns.values())
            self._conns.clear()
            executor = self._executor
            self._executor = None
        for conn in conns:
            try:
                conn.close()
            except Exception:
                pass
        if executor is not None:
            executor.shutdown(wait=False)


class _ShardFeed:
    """The queue a shard's inner stream is handed: the wire layer only
    ever calls ``put`` on it, which lands ``(shard, push)`` on the merged
    stream's one queue."""

    __slots__ = ("shard", "merged")

    def __init__(self, shard: int, merged: "queue.Queue") -> None:
        self.shard = shard
        self.merged = merged

    def put(self, push) -> None:
        self.merged.put((self.shard, push))


class _MergedStream(SubscriptionStream):
    """One live query over per-shard streams, folded on the consumer's
    :meth:`next` (see the module doc): the queue carries ``(shard, push)``
    pairs, and the base class folds the restamped result."""

    def __init__(self, router: ClusterConnection, inners: dict, query: str,
                 pushes: "queue.Queue") -> None:
        with router._lock:
            vector = list(router._watermark)
        for shard, inner in inners.items():
            vector[shard] = max(vector[shard], inner.revision)
            router._observe(shard, inner.revision)
        self._router = router
        self._vector = vector
        self._shard_answers = {
            shard: list(inner.answers) for shard, inner in inners.items()
        }
        super().__init__(
            sid="+".join(inners[shard].sid for shard in sorted(inners)),
            query=query,
            revision=sum(vector),
            answers=self._merged(),
            pushes=pushes,
            closer=lambda: _close_inners(inners),
        )

    def _merged(self) -> list[Answer]:
        return sorted(
            itertools.chain.from_iterable(self._shard_answers.values()),
            key=answer_sort_key,
        )

    def _ingest(self, item) -> AnswerDelta | None:
        shard, push = item
        if push is _STREAM_CLOSED:
            # the shard's stream died (its reconnect budget is spent): the
            # merged answers cannot stay exact, so the merged stream ends
            self.close()
            return None
        kind = push.get("push", "diff")
        if kind not in ("diff", "lagged"):
            return None
        revision = push.get("to_revision", push.get("revision", 0))
        self._vector[shard] = max(self._vector[shard], revision)
        self._router._observe(shard, revision)
        total = sum(self._vector)
        if kind == "lagged":
            self._shard_answers[shard] = decode_answers(push.get("answers", []))
            return super()._ingest({
                "push": "lagged",
                "tag": push.get("tag", ""),
                "to_revision": total,
                "answers": self._merged(),
            })
        delta = super()._ingest(dict(push, sid=self.sid, revision=total))
        self._shard_answers[shard] = fold_answers(
            self._shard_answers[shard], delta.added, delta.removed
        )
        return delta


class _ClusterTransaction(Transaction):
    """One optimistic transaction spanning the cluster: reads pin every
    shard, stages route to (at most) one shard, the commit validates and
    lands there.  Conflict replay re-pins every shard and re-executes the
    recorded operations (driven by the base class)."""

    def __init__(self, router: ClusterConnection, *, tag: str, attempts: int):
        super().__init__(tag=tag, attempts=attempts)
        self._router = router
        self._inners: dict[int, Transaction] = {}
        self._staged_shard: int | None = None
        self._begin()

    @property
    def pinned(self) -> int:
        return sum(inner.pinned for inner in self._inners.values())

    def _begin(self) -> None:
        for inner in self._inners.values():
            inner.abort()
        self._inners = {
            shard: self._router._conn(shard).transaction(
                tag=self._tag, attempts=1
            )
            for shard in range(self._router.count)
        }
        self._staged_shard = None

    def _do_query(self, body) -> list[Answer]:
        scope, shard = query_scope(
            prepare_query(body).body, self._router.count
        )
        if scope == "single":
            return self._inners[shard].query(body)
        if scope == "scatter":
            merged: list[Answer] = []
            for inner in self._inners.values():
                merged.extend(inner.query(body))
            merged.sort(key=answer_sort_key)
            return merged
        raise ReproError(
            "cluster: transactions cannot evaluate cross-host joins (the "
            "per-shard pins cannot cover a centrally evaluated join); "
            "run the join outside the transaction"
        )

    def _do_stage(self, program) -> None:
        coerced, shard = self._router._route_program(program)
        if self._staged_shard is not None and self._staged_shard != shard:
            raise ReproError(
                f"a cluster transaction stages programs on one shard only "
                f"(already staged on shard {self._staged_shard}, this "
                f"program routes to shard {shard}); commit them as "
                f"separate transactions"
            )
        self._inners[shard].stage(coerced)
        self._staged_shard = shard

    def _do_commit(self, tag: str) -> CommitResult:
        shard = self._staged_shard if self._staged_shard is not None else 0
        outcome = self._inners[shard].commit(tag=tag)
        for other, inner in self._inners.items():
            if other != shard:
                inner.abort()
        if not outcome.revisions:
            return outcome
        records = self._router._record_commit(shard, outcome.revisions)
        return CommitResult(tuple(records), attempts=outcome.attempts)

    def _do_abort(self) -> None:
        for inner in self._inners.values():
            inner.abort()


def _close_inners(inners: dict) -> None:
    for inner in list(inners.values()):
        try:
            inner.close()
        except Exception:
            pass


def _aggregate_replication(docs: list[dict]) -> dict:
    sections = [doc.get("replication") or {} for doc in docs]
    def follower_count(section: dict) -> int:
        followers = section.get("followers") or 0
        if isinstance(followers, (int, float)):
            return int(followers)
        return len(followers)
    return {
        "role": "router",
        "epoch": max((s.get("epoch", 0) for s in sections), default=0),
        "fenced_epoch": max(
            (s.get("fenced_epoch", 0) for s in sections), default=0
        ),
        "last_index": sum(s.get("last_index", 0) for s in sections),
        "followers": sum(follower_count(s) for s in sections),
        "streamed_lines": sum(s.get("streamed_lines", 0) for s in sections),
        "primary": None,
        "lag": max((s.get("lag", 0) for s in sections), default=0),
        "primary_alive": all(
            s.get("primary_alive", True) for s in sections
        ),
    }


def _merge_registries(registries: list[dict]) -> dict:
    """Best-effort union of per-shard metric registries for display:
    counters and gauges sum; histogram series sum their counts and take
    the worst (max) quantiles."""
    merged: dict = {}
    for registry in registries:
        for name, entry in registry.items():
            target = merged.get(name)
            if target is None:
                merged[name] = {
                    "kind": entry.get("kind"),
                    "series": {
                        key: (dict(value) if isinstance(value, dict) else value)
                        for key, value in (entry.get("series") or {}).items()
                    },
                }
                continue
            for key, value in (entry.get("series") or {}).items():
                existing = target["series"].get(key)
                if existing is None:
                    target["series"][key] = (
                        dict(value) if isinstance(value, dict) else value
                    )
                elif isinstance(value, dict) and isinstance(existing, dict):
                    for field in value:
                        if field in ("count", "sum"):
                            existing[field] = (
                                existing.get(field, 0) + value[field]
                            )
                        else:
                            existing[field] = max(
                                existing.get(field, 0), value[field]
                            )
                elif isinstance(value, (int, float)) and isinstance(
                    existing, (int, float)
                ):
                    target["series"][key] = existing + value
    return merged


def _merge_slowlogs(sections: list[dict]) -> dict:
    """The shards' slowlog sections (in shard order) as one: every entry
    tagged with its ``shard``, newest last by ``(wall_time, shard, seq)``,
    and only the newest ``capacity`` (the largest shard ring) kept."""
    entries = sorted(
        (
            {**entry, "shard": shard}
            for shard, section in enumerate(sections)
            for entry in section.get("entries") or []
        ),
        key=lambda entry: (entry["wall_time"], entry["shard"], entry["seq"]),
    )
    capacity = max(
        (section.get("capacity", 0) for section in sections), default=0
    )
    first = sections[0] if sections else {}
    return {
        "entries": entries[max(len(entries) - capacity, 0):],
        "dropped": sum(section.get("dropped", 0) for section in sections),
        "capacity": capacity,
        "thresholds_ms": first.get("thresholds_ms"),
    }
