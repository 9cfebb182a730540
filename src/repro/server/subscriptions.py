"""Push-based live queries: subscriptions that receive *answer diffs*.

A read is *pull*: a client has to re-ask to learn that nothing changed.
Subscriptions are the mechanism that avoids re-asking.  A subscription
registers a prepared conjunctive body; every store commit hands the manager
the new revision, with its exact ``(added, removed)`` fact delta, and the
parent base it was committed over, and each subscription is brought to the
new revision from that delta alone:

* **SKIP** — the delta reaches none of the body's *dispatch keys*
  (:func:`~repro.core.plans.dispatch_keys`, one per version-term literal):
  a fact on the literal's ground host (``m.sal -> SB``), a fact with its
  ground result (``E.boss -> m``), a fact on a host that another literal
  pins to a constant (``E.sal -> S`` under ``E.boss -> m``: the host's
  ``boss`` is ``m`` on the new base or the previous one), or else a fact of
  the literal's method key and host shape.  The delta provably cannot
  change the answers; the manager never visits the subscription, whose
  revision follows the manager's;
* **SEED** — a key is reached: the answer diff is evaluated from the delta
  (:meth:`~repro.core.query.PreparedQuery.delta_answers`).  Added rows are
  the body seeded at its positive version-terms with the added facts and at
  its negated ones with the removed facts, on the new base; removed rows
  are the same with the two sides swapped, on the parent.  Both are exact,
  since an answer row grounds to one set of facts.  The manager keeps no
  base of its own between commits.

The manager keeps an inverted index from dispatch key to subscriptions (the
alpha network of Rete: constant tests are indexed once, join tests run only
for what passes them), so a commit costs the subscriptions its delta facts
reach, not the subscriptions registered.  A key may reach too many bodies,
never too few.

:meth:`SubscriptionManager.subscribe` refuses a body with an update-term:
a committed base is plain (every host an OID), so the term cannot change
there.  N subscriptions sharing a body share one evaluation, only the
**answer diff** travels to the client, and an empty diff (the delta reached
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
from operator import attrgetter
from typing import Callable

from repro.core.atoms import UpdateAtom
from repro.core.errors import ReproError
from repro.core.facts import Fact
from repro.core.objectbase import Delta, ObjectBase
from repro.core.plans import (
    HOST,
    PINNED,
    RESULT,
    TRIGGER,
    DispatchKey,
    MethodKey,
    dispatch_keys,
    trigger_fires,
)
from repro.core.query import Answer, PreparedQuery, fold_answers
from repro.lang.parser import prepare_query
from repro.storage.history import StoreRevision, VersionedStore

__all__ = ["Subscription", "SubscriptionManager"]

#: A delivery sink: called with one JSON-ready push message per answer diff.
Deliver = Callable[[dict], None]


class Subscription:
    """One registered live query and its client-visible answer state.

    ``answers``/``revision`` always describe the last state the client was
    brought to (initial set plus every delivered diff); the list is
    replaced on change, never mutated.  ``revision`` is the greater of the
    one it was registered at and the last commit its manager processed: a
    commit that reaches none of its ``keys`` (the body's
    :func:`~repro.core.plans.dispatch_keys`) moves it without a visit.
    ``seeded`` counts the commits answered from the seeded body,
    ``skipped`` the others since registration, and ``pushed`` the
    non-empty diffs actually delivered (``stats()`` keeps a ``refreshed``
    key, always 0).
    """

    __slots__ = (
        "id", "number", "query", "deliver", "answers", "registered", "keys",
        "seeded", "pushed", "_manager",
    )

    def __init__(self, manager, number, query, keys, deliver, answers, revision):
        self.id = f"q{number}"
        self.number = number
        self.query = query
        self.keys = keys
        self.deliver = deliver
        self.answers: list[Answer] = answers
        self.registered: int = revision
        self.seeded = 0
        self.pushed = 0
        self._manager = manager

    @property
    def revision(self) -> int:
        return max(self.registered, self._manager._processed)

    @property
    def skipped(self) -> int:
        return self.revision - self.registered - self.seeded

    def stats(self) -> dict:
        return {
            "query": self.query.name,
            "revision": self.revision,
            "answers": len(self.answers),
            "skipped": self.skipped,
            "seeded": self.seeded,
            "refreshed": 0,
            "pushed": self.pushed,
        }


class SubscriptionManager:
    """Registry of live queries over one store (see the module doc).

    Registration and commit processing serialize on one lock: a
    subscription's ``(answers, revision)`` seed is captured atomically
    with respect to `_on_commit`, so a commit landing concurrently from
    another thread can never leave a subscriber one revision stale with
    its first diff silently dropped.

    The dispatch index: ``_buckets`` maps each host, result and pinned
    key to the subscriptions holding it, ``_triggers`` each fallback key;
    ``_pins`` maps a method key to the ``(pin key, pin args)`` its pinned
    keys probe, each with the number of its pinned buckets.  A key leaves
    with its last subscription.
    """

    def __init__(self, store: VersionedStore) -> None:
        self._store = store
        self._subscriptions: dict[str, Subscription] = {}
        self._counter = 0
        self._lock = threading.RLock()
        self._processed = -1
        self._buckets: dict[DispatchKey, dict[Subscription, None]] = {}
        self._triggers: dict[DispatchKey, dict[Subscription, None]] = {}
        self._pins: dict[MethodKey, dict[tuple, int]] = {}
        store.add_commit_listener(self._on_commit)

    def __len__(self) -> int:
        return len(self._subscriptions)

    def subscribe(
        self, query, deliver: Deliver, *, name: str | None = None
    ) -> Subscription:
        """Register a live query; the returned subscription carries the
        initial answer set at the current head (the client's fold seed).
        No push is sent for the initial state — it is the subscribe
        response.  A body with an update-term raises
        :class:`~repro.core.errors.ReproError` naming the literal."""
        prepared = prepare_query(query, name=name)
        for literal in prepared.body:
            if isinstance(literal.atom, UpdateAtom):
                raise ReproError(
                    f"query {prepared.name!r}: a live query cannot read the "
                    f"update-term '{literal}' (ask it with query())"
                )
        keys = tuple(dict.fromkeys(dispatch_keys(prepared.body)))
        with self._lock:
            revision = len(self._store) - 1
            base = self._store.base_at(revision)
            self._counter += 1
            subscription = Subscription(
                self, self._counter, prepared, keys, deliver,
                prepared.run(base), revision,
            )
            self._subscriptions[subscription.id] = subscription
            for key in keys:
                index = self._triggers if key[0] == TRIGGER else self._buckets
                bucket = index.setdefault(key, {})
                if not bucket and key[0] == PINNED:
                    pins = self._pins.setdefault(key[1], {})
                    pins[key[2:4]] = pins.get(key[2:4], 0) + 1
                bucket[subscription] = None
            return subscription

    def unsubscribe(self, sid: str) -> bool:
        with self._lock:
            subscription = self._subscriptions.pop(sid, None)
            if subscription is None:
                return False
            for key in subscription.keys:
                index = self._triggers if key[0] == TRIGGER else self._buckets
                bucket = index[key]
                del bucket[subscription]
                if bucket:
                    continue
                del index[key]
                if key[0] == PINNED:
                    pins = self._pins[key[1]]
                    pins[key[2:4]] -= 1
                    if not pins[key[2:4]]:
                        del pins[key[2:4]]
                        if not pins:
                            del self._pins[key[1]]
            return True

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

    def _on_commit(self, revision: StoreRevision, parent: ObjectBase) -> None:
        with self._lock:
            self._process_commit(revision, parent)

    def _process_commit(self, revision: StoreRevision, parent: ObjectBase) -> None:
        if not self._subscriptions:
            return
        index = revision.index
        delta = Delta()
        delta.record(revision.added, revision.removed)
        base = self._store.base_at(index)
        self._processed = index
        # Subscriptions sharing a query body (queries hash and compare by
        # body) at one revision hold equal answers, so one evaluation per
        # body gives every one of them the same diff and the same new list.
        results: dict[PreparedQuery, tuple] = {}
        for subscription in self._reached(delta, base):
            if subscription.registered >= index:
                continue  # registered after this revision was appended
            query = subscription.query
            result = results.get(query)
            if result is None:
                gained, lost = delta.added_index(), delta.removed_index()
                added = query.delta_answers(gained, lost, base)
                removed = query.delta_answers(lost, gained, parent)
                answers = subscription.answers
                if added or removed:
                    answers = fold_answers(answers, added, removed)
                result = results[query] = (added, removed, answers)
            added, removed, subscription.answers = result
            subscription.seeded += 1
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

    def _reached(self, delta: Delta, base: ObjectBase) -> list[Subscription]:
        """The subscriptions holding a dispatch key that a fact of
        ``delta`` reaches, in registration order.  ``base`` is the new
        base; a pin on the previous one is a pin on the new base or a
        removed fact (previous = new - added + removed)."""
        buckets = self._buckets
        reached: dict[Subscription, None] = {}
        removed_pins = _removed_pins(delta) if self._pins else {}
        for facts in (delta.added, delta.removed):
            for fact in facts:
                key = (fact.method, len(fact.args))
                host = fact.host
                probes = [(HOST, key, host), (RESULT, key, fact.result)]
                for pin_key, pin_args in self._pins.get(key, ()):
                    method, arity = pin_key
                    found = [
                        *base.iter_facts_by_host_method(host, method, arity),
                        *removed_pins.get((host, pin_key), ()),
                    ]
                    for pin in found:
                        if pin.args == pin_args:
                            probes.append((PINNED, key, pin_key, pin_args, pin.result))
                for probe in probes:
                    bucket = buckets.get(probe)
                    if bucket:
                        reached.update(bucket)
        for key, bucket in self._triggers.items():
            if trigger_fires(key[1], delta):
                reached.update(bucket)
        return sorted(reached, key=attrgetter("number"))

    def stats(self) -> dict:
        with self._lock:
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
            self._buckets.clear()
            self._triggers.clear()
            self._pins.clear()


def _removed_pins(delta: Delta) -> dict[tuple, list[Fact]]:
    """``delta``'s removed facts grouped by ``(host, method key)``."""
    grouped: dict[tuple, list[Fact]] = {}
    for fact in delta.removed:
        grouped.setdefault((fact.host, (fact.method, len(fact.args))), []).append(fact)
    return grouped
