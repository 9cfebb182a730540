"""Push-based live queries: subscriptions that receive *answer diffs*.

A read is *pull*: a client has to re-ask to learn that nothing changed.
Subscriptions are the mechanism that avoids re-asking.  A subscription
registers a prepared conjunctive body; every store commit hands the manager
its exact ``(added, removed)`` fact delta, and each subscription is brought
to the new revision the way ``T_P`` treats a rule
(:func:`~repro.core.plans.classify`):

* **SKIP** — no trigger of the query's
  :class:`~repro.core.plans.QuerySignature` fires: the delta provably cannot
  change the answers; the subscription advances its revision silently, with
  no evaluation and no message;
* **SEED** — a trigger fires and the body is *seedable* (every literal a
  positive version-term or a built-in): the answer diff is evaluated from
  the delta alone (:meth:`~repro.core.query.PreparedQuery.delta_answers`).
  Added rows are the body seeded with the added facts on the new base,
  removed rows the body seeded with the removed facts on the previous one —
  both exact, since an answer row grounds to one set of facts;
* **FULL** — a trigger fires and the body reads a negated literal or an
  update-term: it is re-run on the new revision and diffed against the held
  answers (:func:`~repro.core.query.diff_answers`).

Either way N subscriptions sharing a body share one evaluation, only the
**answer diff** travels to the client, and an empty diff (the delta touched
the query's keys but not its answers) sends nothing.  Folding a
subscription's diff stream over its initial answer set reproduces the full
answer set at every revision — the differential guarantee the server and
property suites check against fresh store queries.

The manager hooks :meth:`VersionedStore.add_commit_listener`, so *any*
commit path — service transactions, direct ``store.apply`` in an embedding
process — feeds subscriptions.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.core.objectbase import Delta, ObjectBase
from repro.core.query import (
    Answer,
    PreparedQuery,
    diff_answers,
    fold_answers,
    prepare_query,
)
from repro.storage.history import StoreRevision, VersionedStore

__all__ = ["Subscription", "SubscriptionManager"]

#: A delivery sink: called with one JSON-ready push message per answer diff.
Deliver = Callable[[dict], None]

#: A per-revision Delta provider (the service shares its cached one).
DeltaSource = Callable[[StoreRevision], Delta]


class Subscription:
    """One registered live query and its client-visible answer state.

    ``answers``/``revision`` always describe the last state the client was
    brought to (initial set plus every delivered diff); the list is
    replaced on change, never mutated.  ``skipped`` counts commits proven
    irrelevant by the signature, ``seeded`` the commits answered from the
    seeded body, ``refreshed`` those that forced a whole-body
    re-evaluation, and ``pushed`` the non-empty diffs actually delivered.
    """

    __slots__ = (
        "id", "query", "deliver", "answers", "revision",
        "skipped", "seeded", "refreshed", "pushed",
    )

    def __init__(self, sid, query, deliver, answers, revision):
        self.id = sid
        self.query = query
        self.deliver = deliver
        self.answers: list[Answer] = answers
        self.revision: int = revision
        self.skipped = 0
        self.seeded = 0
        self.refreshed = 0
        self.pushed = 0

    def stats(self) -> dict:
        return {
            "query": self.query.name,
            "revision": self.revision,
            "answers": len(self.answers),
            "skipped": self.skipped,
            "seeded": self.seeded,
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

    While any subscription exists the manager holds ``(index, base)`` of
    the newest revision it has seen — the store's own head in steady
    state — as the previous base a seeded commit evaluates removals on.
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
        self._head: tuple[int, ObjectBase] | None = None
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
            base = self._store.base_at(revision)
            self._head = (revision, base)
            self._counter += 1
            subscription = Subscription(
                f"q{self._counter}", prepared, deliver, prepared.run(base), revision
            )
            self._subscriptions[subscription.id] = subscription
            return subscription

    def unsubscribe(self, sid: str) -> bool:
        with self._lock:
            found = self._subscriptions.pop(sid, None) is not None
            if not self._subscriptions:
                self._head = None
            return found

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
            self._head = None
            return
        index = revision.index
        delta = self._delta_source(revision)
        base = self._store.base_at(index)
        held, self._head = self._head, (index, base)
        # The previous base and the inverse delta are needed only by a
        # seeded commit; a subscription registered during this commit moved
        # the held base ahead, so fall back to the store.
        previous = held[1] if held is not None and held[0] == index - 1 else None
        inverse: Delta | None = None
        # Subscriptions sharing a query body (queries hash and compare by
        # body) at one revision hold equal answers, so one evaluation per
        # body gives every one of them the same diff and the same new list.
        results: dict[PreparedQuery, tuple] = {}
        for subscription in list(self._subscriptions.values()):
            if subscription.revision >= index:
                continue  # registered after this revision was appended
            query = subscription.query
            if not query.signature.affected_by(delta):
                subscription.revision = index
                subscription.skipped += 1
                continue
            result = results.get(query)
            if result is None:
                answers = subscription.answers
                if query.seedable:
                    if inverse is None:
                        inverse = Delta()
                        inverse.record(revision.removed, ())
                        if previous is None:
                            previous = self._store.base_at(index - 1)
                    added = query.delta_answers(delta, base)
                    removed = query.delta_answers(inverse, previous)
                    if added or removed:
                        answers = fold_answers(answers, added, removed)
                else:
                    fresh = query.run(base)
                    added, removed = diff_answers(answers, fresh)
                    answers = fresh
                result = results[query] = (added, removed, answers)
            added, removed, subscription.answers = result
            if query.seedable:
                subscription.seeded += 1
            else:
                subscription.refreshed += 1
            subscription.revision = index
            if not added and not removed:
                continue
            subscription.pushed += 1
            subscription.deliver(
                {
                    "push": "diff",
                    "sid": subscription.id,
                    "query": subscription.query.name,
                    "revision": index,
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
            self._head = None


def _build_delta(revision: StoreRevision) -> Delta:
    """The standalone fallback when no service shares its cached delta."""
    delta = Delta()
    delta.record(revision.added, revision.removed)
    return delta
