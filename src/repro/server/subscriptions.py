"""Push-based live queries: subscriptions that receive *answer diffs*.

A read is *pull*: a client has to re-ask to learn that nothing changed.
Subscriptions are the mechanism that avoids re-asking.  A subscription
registers a prepared conjunctive body; on every store commit the manager
folds the commit's exact ``(added, removed)`` fact delta through the
query's :class:`~repro.core.plans.QuerySignature`:

* **no trigger fires** — the delta provably cannot change the answers; the
  subscription advances its revision silently, with no evaluation and no
  message;
* **a trigger fires** — the body is evaluated once against the new
  revision (N subscriptions sharing a body share that evaluation) and only
  the **answer diff** (:func:`~repro.core.query.diff_answers`) travels to
  the client — an empty diff (the delta touched the query's keys but not
  its answers) sends nothing.

Folding a subscription's diff stream over its initial answer set
reproduces the full answer set at every revision — the differential
guarantee the server test suite checks against fresh store queries.

The manager hooks :meth:`VersionedStore.add_commit_listener`, so *any*
commit path — service transactions, direct ``store.apply`` in an embedding
process — feeds subscriptions.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.core.objectbase import Delta
from repro.core.query import Answer, PreparedQuery, diff_answers, prepare_query
from repro.storage.history import StoreRevision, VersionedStore

__all__ = ["Subscription", "SubscriptionManager"]

#: A delivery sink: called with one JSON-ready push message per answer diff.
Deliver = Callable[[dict], None]

#: A per-revision Delta provider (the service shares its cached one).
DeltaSource = Callable[[StoreRevision], Delta]


class Subscription:
    """One registered live query and its client-visible answer state.

    ``answers``/``revision`` always describe the last state the client was
    brought to (initial set plus every delivered diff); ``skipped`` counts
    commits proven irrelevant by the signature, ``refreshed`` the commits
    that forced a re-evaluation, and ``pushed`` the non-empty diffs
    actually delivered.
    """

    __slots__ = (
        "id", "query", "deliver", "answers", "revision",
        "skipped", "refreshed", "pushed",
    )

    def __init__(self, sid, query, deliver, answers, revision):
        self.id = sid
        self.query = query
        self.deliver = deliver
        self.answers: list[Answer] = answers
        self.revision: int = revision
        self.skipped = 0
        self.refreshed = 0
        self.pushed = 0

    def stats(self) -> dict:
        return {
            "query": self.query.name,
            "revision": self.revision,
            "answers": len(self.answers),
            "skipped": self.skipped,
            "refreshed": self.refreshed,
            "pushed": self.pushed,
        }


class SubscriptionManager:
    """Registry of live queries over one store (see the module doc).

    Registration and commit processing serialize on one lock: a
    subscription's ``(answers, revision)`` seed is captured atomically
    with respect to `_on_commit`, so a commit landing concurrently from
    another thread can never leave a subscriber one revision stale with
    its first diff silently dropped.
    """

    def __init__(
        self,
        store: VersionedStore,
        *,
        delta_source: DeltaSource | None = None,
    ) -> None:
        self._store = store
        self._subscriptions: dict[str, Subscription] = {}
        self._counter = 0
        self._lock = threading.RLock()
        self._delta_source = delta_source or _build_delta
        store.add_commit_listener(self._on_commit)

    def __len__(self) -> int:
        return len(self._subscriptions)

    def subscribe(
        self, query, deliver: Deliver, *, name: str | None = None
    ) -> Subscription:
        """Register a live query; the returned subscription carries the
        initial answer set at the current head (the client's fold seed).
        No push is sent for the initial state — it is the subscribe
        response."""
        prepared = prepare_query(query, name=name)
        with self._lock:
            revision = len(self._store) - 1
            self._counter += 1
            subscription = Subscription(
                f"q{self._counter}",
                prepared,
                deliver,
                prepared.run(self._store.base_at(revision)),
                revision,
            )
            self._subscriptions[subscription.id] = subscription
            return subscription

    def unsubscribe(self, sid: str) -> bool:
        with self._lock:
            return self._subscriptions.pop(sid, None) is not None

    def get(self, sid: str) -> Subscription | None:
        return self._subscriptions.get(sid)

    def resync(self, sid: str, *, acknowledge=None) -> dict | None:
        """The full current answer state of one subscription, captured
        atomically with respect to commit processing.

        This is the load-shedding path: when a slow connection's outbox
        sheds queued diffs for ``sid``, the transport later delivers one
        coalesced ``lagged`` push built from this snapshot instead.
        ``acknowledge`` (when given) runs *inside* the manager lock just
        before the snapshot is taken — the transport uses it to clear its
        per-sid lag flag, so no diff computed against a newer state can
        sneak into the queue between snapshot and flag-clear (which would
        double-apply on the client).
        """
        with self._lock:
            if acknowledge is not None:
                acknowledge(sid)
            subscription = self._subscriptions.get(sid)
            if subscription is None:
                return None
            return {
                "sid": subscription.id,
                "query": subscription.query.name,
                "revision": subscription.revision,
                "answers": list(subscription.answers),
            }

    def _on_commit(self, revision: StoreRevision) -> None:
        with self._lock:
            self._process_commit(revision)

    def _process_commit(self, revision: StoreRevision) -> None:
        if not self._subscriptions:
            return
        delta = self._delta_source(revision)
        base = self._store.base_at(revision.index)
        # Subscriptions sharing a query body (queries hash and compare by
        # body) converge onto one refreshed answer list, and subscriptions
        # that additionally share a prior answer state share the diff: with
        # N clients on the same live query the whole refresh is computed
        # once and delivered N times.  Diff keys hold the old list alive,
        # so its id() stays unambiguous for the loop.
        refreshed: dict[PreparedQuery, list] = {}
        diffs: dict[tuple[PreparedQuery, int], tuple] = {}
        for subscription in list(self._subscriptions.values()):
            query = subscription.query
            if not query.signature.affected_by(delta):
                subscription.revision = revision.index
                subscription.skipped += 1
                continue
            new_answers = refreshed.get(query)
            if new_answers is None:
                new_answers = query.run(base)
                refreshed[query] = new_answers
            diff_key = (query, id(subscription.answers))
            diff = diffs.get(diff_key)
            if diff is None:
                diff = (subscription.answers, *diff_answers(subscription.answers, new_answers))
                diffs[diff_key] = diff
            _old, added, removed = diff
            subscription.answers = new_answers
            subscription.revision = revision.index
            subscription.refreshed += 1
            if not added and not removed:
                continue
            subscription.pushed += 1
            subscription.deliver(
                {
                    "push": "diff",
                    "sid": subscription.id,
                    "query": subscription.query.name,
                    "revision": revision.index,
                    "tag": revision.tag,
                    "added": added,
                    "removed": removed,
                }
            )

    def stats(self) -> dict:
        return {
            "active": len(self._subscriptions),
            "by_id": {
                sid: sub.stats() for sid, sub in self._subscriptions.items()
            },
        }

    def close(self) -> None:
        """Detach from the store (idempotent)."""
        self._store.remove_commit_listener(self._on_commit)
        with self._lock:
            self._subscriptions.clear()


def _build_delta(revision: StoreRevision) -> Delta:
    """The standalone fallback when no service shares its cached delta."""
    delta = Delta()
    delta.record(revision.added, revision.removed)
    return delta
