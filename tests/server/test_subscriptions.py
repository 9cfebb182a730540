"""Live queries: trigger-gated refresh, answer diffs, and the fold law.

The load-bearing differential test: folding a subscription's diff stream
over its initial answer set reproduces ``VersionedStore.query`` at every
revision.
"""

import pytest

from repro.core.query import (
    PreparedQuery,
    diff_answers,
    fold_answers,
)
from repro.lang.parser import prepare_query
from repro.server import StoreService
from repro.storage import VersionedStore
from repro.workloads import paper_example_base

SALARIES = "E.isa -> empl, E.sal -> S"
ORG = "E.boss -> B"
RAISE_PHIL = "r: mod[phil].sal -> (S, S2) <= phil.sal -> S, S2 = S + 100."
RAISE_BOB = "r: mod[bob].sal -> (S, S2) <= bob.sal -> S, S2 = S + 100."
ADD_BOSS = "b: ins[joe].boss -> phil <= phil.isa -> empl."


@pytest.fixture()
def service():
    return StoreService(VersionedStore(paper_example_base(), tag="initial"))


class TestAnswerDiffs:
    def test_diff_and_fold_round_trip(self):
        old = [{"E": "bob", "S": 4200}, {"E": "phil", "S": 4000}]
        new = [{"E": "bob", "S": 4200}, {"E": "joe", "S": 1}, {"E": "phil", "S": 4100}]
        added, removed = diff_answers(old, new)
        assert added == [{"E": "joe", "S": 1}, {"E": "phil", "S": 4100}]
        assert removed == [{"E": "phil", "S": 4000}]
        assert fold_answers(old, added, removed) == new

    def test_empty_diff(self):
        answers = [{"S": 1}]
        assert diff_answers(answers, list(answers)) == ([], [])
        assert fold_answers(answers, [], []) == answers

    def test_mixed_value_types_are_orderable(self):
        old = [{"S": "txt"}]
        new = [{"S": 5}, {"S": "txt"}]
        added, removed = diff_answers(old, new)
        assert fold_answers(old, added, removed) == new


class TestSubscriptions:
    def test_initial_answers_match_store(self, service):
        received = []
        subscription = service.subscriptions.subscribe(
            SALARIES, received.append, name="salaries"
        )
        assert subscription.answers == service.store.query(SALARIES)
        assert received == []  # initial state is the response, not a push

    def test_push_carries_the_exact_diff(self, service):
        received = []
        service.subscriptions.subscribe(SALARIES, received.append)
        service.apply(RAISE_PHIL, tag="raise")
        assert len(received) == 1
        push = received[0]
        assert push["push"] == "diff"
        assert push["revision"] == 1
        assert push["tag"] == "raise"
        assert push["added"] == [{"E": "phil", "S": 4100}]
        assert push["removed"] == [{"E": "phil", "S": 4000}]

    def test_unaffected_query_is_skipped_without_evaluation(self, service):
        received = []
        subscription = service.subscriptions.subscribe(ORG, received.append)
        service.apply(RAISE_PHIL)
        assert received == []
        assert subscription.skipped == 1
        assert subscription.revision == 1  # still advanced to the head

    def test_affected_but_unchanged_sends_nothing(self, service):
        # ``bob.sal -> S`` shares the sal key with a phil-only raise: the
        # trigger fires (a seeded evaluation), but the answers are
        # identical, so no diff is pushed.
        received = []
        subscription = service.subscriptions.subscribe(
            "bob.sal -> S", received.append
        )
        answers = subscription.answers
        service.apply(RAISE_PHIL)
        assert received == []
        assert subscription.seeded == 1
        assert subscription.pushed == 0
        assert subscription.answers is answers  # nothing to fold

    def test_negated_body_is_seeded_from_the_delta(self, service):
        body = "E.isa -> empl, E.sal -> S, not E.pos -> mgr"
        received = []
        subscription = service.subscriptions.subscribe(body, received.append)
        service.apply(RAISE_BOB)
        assert subscription.seeded == 1
        assert subscription.stats()["refreshed"] == 0
        assert received[0]["added"] == [{"E": "bob", "S": 4300}]
        assert subscription.answers == service.store.query(body)

    def test_shared_body_shares_refresh(self, service, monkeypatch):
        a_received, b_received = [], []
        sub_a = service.subscriptions.subscribe(SALARIES, a_received.append)
        sub_b = service.subscriptions.subscribe(SALARIES, b_received.append)
        assert sub_a.query is sub_b.query  # one compiled query
        evaluations = _count_evaluations(monkeypatch)
        service.apply(RAISE_PHIL)
        # one seeded evaluation of the body: its added and its removed rows
        assert evaluations == {"run": 0, "delta_answers": 2}
        assert (sub_a.seeded, sub_b.seeded) == (1, 1)
        assert sub_a.answers is sub_b.answers  # one folded answer list
        assert a_received[0]["added"] == b_received[0]["added"]

    def test_same_body_under_two_names_keeps_each_name(
        self, service, monkeypatch
    ):
        """A query's name belongs to its subscriber: the second client of a
        body used to be answered (and pushed to) under the first one's
        name.  The two still share one evaluation per commit."""
        a_received, b_received = [], []
        sub_a = service.subscriptions.subscribe(
            SALARIES, a_received.append, name="a"
        )
        sub_b = service.subscriptions.subscribe(
            SALARIES, b_received.append, name="b"
        )
        assert (sub_a.query.name, sub_b.query.name) == ("a", "b")
        evaluations = _count_evaluations(monkeypatch)
        service.apply(RAISE_PHIL)
        assert evaluations == {"run": 0, "delta_answers": 2}
        assert sub_a.answers is sub_b.answers
        assert [push["query"] for push in a_received] == ["a"]
        assert [push["query"] for push in b_received] == ["b"]
        assert a_received[0]["added"] == b_received[0]["added"]

    def test_unsubscribe_stops_pushes(self, service):
        received = []
        subscription = service.subscriptions.subscribe(SALARIES, received.append)
        assert service.subscriptions.unsubscribe(subscription.id)
        service.apply(RAISE_PHIL)
        assert received == []
        assert not service.subscriptions.unsubscribe(subscription.id)

    def test_close_detaches_from_the_store(self, service):
        received = []
        service.subscriptions.subscribe(SALARIES, received.append)
        service.subscriptions.close()
        service.apply(RAISE_PHIL)
        assert received == []


class TestSeededFoldRaces:
    def test_subscribing_inside_the_commit_is_not_folded_twice(self):
        """A commit listener registered ahead of the manager subscribes
        while the revision is already appended: the new subscription starts
        at that revision, so the manager must leave it alone — and evaluate
        the others' removed rows on the revision before it, not on the one
        the late subscriber moved the manager to."""
        body = "E.sal -> S, F.sal -> T, S < T"  # removed rows join two facts
        query = prepare_query(body)
        store = VersionedStore(paper_example_base(), tag="initial")
        inside, late_pushes, pushes = [], [], []

        def subscribe_once(revision):
            if not inside:
                inside.append(service.subscriptions.subscribe(body, late_pushes.append))

        store.add_commit_listener(subscribe_once)
        service = StoreService(store)
        before = service.subscriptions.subscribe(body, pushes.append)
        for revision in (1, 2):
            service.apply(RAISE_PHIL)
            late = inside[0]
            fresh = [query.run(store.base_at(revision - k)) for k in (1, 0)]
            assert late.revision == before.revision == revision
            assert late.answers == before.answers == fresh[1]
            added, removed = diff_answers(*fresh)
            assert (pushes[-1]["added"], pushes[-1]["removed"]) == (added, removed)
        assert (late.seeded, late.skipped) == (1, 0)
        assert [push["revision"] for push in late_pushes] == [2]

    def test_last_unsubscribe_drops_the_held_base(self, service):
        manager = service.subscriptions
        subscription = manager.subscribe(SALARIES, lambda push: None)
        service.apply(RAISE_PHIL)
        assert manager._head is not None
        manager.unsubscribe(subscription.id)
        service.apply(RAISE_PHIL)
        assert manager._head is None


def _count_evaluations(monkeypatch) -> dict:
    """Count whole-body runs and seeded evaluations from now on."""
    counts = {"run": 0, "delta_answers": 0}
    for name in counts:
        method = getattr(PreparedQuery, name)

        def counted(query, *args, _name=name, _method=method):
            counts[_name] += 1
            return _method(query, *args)

        monkeypatch.setattr(PreparedQuery, name, counted)
    return counts


class TestFoldDifferential:
    def test_folded_streams_equal_fresh_queries_at_every_revision(
        self, service, protocol_client
    ):
        """The acceptance-criteria law: initial answers + folded diffs ==
        a fresh ``VersionedStore.query`` at every revision, per query."""
        queries = (SALARIES, ORG, "bob.sal -> S")
        client = protocol_client(service)
        state = {
            text: client.call("subscribe", body=text)["answers"]
            for text in queries
        }
        programs = [
            (RAISE_PHIL, "p1"),
            (ADD_BOSS, "b1"),
            (RAISE_BOB, "r1"),
            (RAISE_PHIL, "p2"),
            ("noop: ins[phil].isa -> empl <= phil.isa -> empl.", "n1"),
        ]
        for text, tag in programs:
            client.call("apply", program=text, tag=tag)
            by_query = {}
            for push in client.pushes():
                by_query.setdefault(push["query"], []).append(push)
            for query_text in queries:
                for push in by_query.get(query_text, ()):
                    state[query_text] = fold_answers(
                        state[query_text], push["added"], push["removed"]
                    )
                # the folded client state equals a fresh evaluation at the
                # head revision the push stream brought us to
                fresh = prepare_query(query_text).run(service.store.current)
                assert state[query_text] == fresh, (query_text, tag)

    def test_fold_against_historic_revisions(self, service, protocol_client):
        """Replaying the stream fold step by step equals ``prepare.run``
        against ``base_at`` for each intermediate revision."""
        client = protocol_client(service)
        initial = client.call("subscribe", body=SALARIES)["answers"]
        tags = ["a", "b", "c"]
        for tag in tags:
            client.call("apply", program=RAISE_PHIL, tag=tag)
        pushes = [p for p in client.pushes() if p["query"] == SALARIES]
        assert [p["revision"] for p in pushes] == [1, 2, 3]
        prepared = prepare_query(SALARIES)
        state = initial
        for push in pushes:
            state = fold_answers(state, push["added"], push["removed"])
            historic = prepared.run(service.store.base_at(push["revision"]))
            assert state == historic


def test_bodies_equal_but_for_a_constant_type_keep_their_own_deltas():
    """``Y = X + 1`` and ``Y = X + 1.0`` are equal bodies by OID value
    (``1 == 1.0``) but two queries: the commit's one evaluation per body
    must not serve one stream the other's rows.  Each stream's delta is
    its own re-query diff, down to the type of the number (``repr``)."""
    import repro
    from repro.core import caches

    bodies = ("a.v -> X, Y = X + 1", "a.v -> X, Y = X + 1.0")
    with repro.connect("memory:", base="a.v -> 2.") as conn:
        streams = []
        for body in bodies:
            caches.clear_caches()
            streams.append(conn.subscribe(body))
        before = [conn.query(body) for body in bodies]
        conn.apply("bump: mod[a].v -> (S, S2) <= a.v -> S, S2 = S + 1.")
        for body, stream, old in zip(bodies, streams, before):
            delta = stream.next(timeout=5.0)
            want = diff_answers(old, conn.query(body))
            assert repr((list(delta.added), list(delta.removed))) == repr(want)
