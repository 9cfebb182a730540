"""Differential property of delta-maintained subscriptions.

A subscription is brought to each new revision from the commit's delta, by
the seeded evaluations of
:meth:`~repro.core.query.PreparedQuery.delta_answers`: positive
version-terms seeded with one side of the delta, negated ones with the
other.  Over random bases, bodies taken from random update programs
(negated and built-in literals included; update-terms, which ``subscribe``
refuses, left out) and random sequences of applies, rollbacks and late
subscriptions, after every commit:

* each subscription holds exactly ``query.run(base_at(r))``;
* each push carries exactly ``diff_answers(run(base_at(r - 1)),
  run(base_at(r)))``, row for row and in order — and a commit that changes
  no answer pushes nothing.
"""

from hypothesis import given, settings, strategies as st

from repro.core.atoms import UpdateAtom
from repro.core.errors import VersionLinearityError
from repro.core.query import diff_answers
from repro.lang.parser import parse_body
from repro.server.service import StoreService
from repro.storage import VersionedStore
from repro.workloads.synthetic import random_update_program

from .test_delta_commit import _draw_program, _input_base, seeds, shapes

#: Rule bodies of the random program families without an update-term, plus
#: joins over plain hosts, ground hosts, a version variable and the
#: ``exists`` map, bodies whose negated literals a commit can flip, and
#: bodies whose hosts a sibling literal pins to a constant that the random
#: applies and rollbacks flip (each kind of dispatch key).
BODIES = tuple(
    dict.fromkeys(
        [
            rule.body
            for seed in range(60)
            for rule in random_update_program(seed=seed)
            if not any(isinstance(lit.atom, UpdateAtom) for lit in rule.body)
        ]
        + [
            parse_body(text)
            for text in (
                "X.link -> Y, Y.size -> S",
                "X.link -> Y, Y.link -> X",
                "X.size -> S, Y.size -> S, X.link -> Y",
                "o1.size -> S, X.link -> o1",
                "X.color -> C, X.size -> S, not X.link -> o0",
                "?W.size -> S, S > 400",
                "X.exists -> X, X.color -> C",
                "X.link -> Y, K = 1, Y != o2",
                "X.size -> S, not X.color -> o1",
                "X.link -> Y, not Y.link -> X",
                "X.size -> S, Y.size -> S, not X.link -> Y",
                "X.color -> C, not X.link -> o0, not X.link -> o1",
                "X.link -> Y, Y.size -> S, not Y.link -> X, not X.size -> S",
                "X.size -> S, not mod(X).size -> S",
                "X.exists -> X, X.link -> Y, not Y.exists -> Y",
                # dispatch keys: pinned hosts, a ground host, a literal
                # pinned by a sibling of its own method
                "X.link -> o1, X.size -> S",
                "X.color -> o0, X.size -> S, not X.link -> o2",
                "o1.link -> Y, Y.size -> S",
                "X.link -> o1, X.link -> Y, Y.color -> C",
            )
        ]
    )
)

#: One step: ``("apply", kind, seed)``, ``("rollback", revision, 0)`` or
#: ``("subscribe", body, 0)``.
steps = st.one_of(
    st.tuples(st.just("apply"), st.integers(0, 7), seeds),
    st.tuples(st.just("rollback"), st.integers(0, 50), st.just(0)),
    st.tuples(st.just("subscribe"), st.integers(0, len(BODIES) - 1), st.just(0)),
)


@settings(max_examples=300, deadline=None)
@given(
    seeds,
    shapes,
    st.lists(st.integers(0, len(BODIES) - 1), min_size=3, max_size=8),
    st.lists(steps, min_size=3, max_size=10),
)
def test_every_push_is_the_diff_of_fresh_queries(base_seed, shape, picks, plan):
    service = StoreService(VersionedStore(_input_base(base_seed, shape)))
    store = service.store
    watched = []  # (subscription, its pushes)

    def subscribe(pick: int) -> None:
        pushes: list = []
        watched.append(
            (service.subscriptions.subscribe(BODIES[pick], pushes.append), pushes)
        )

    for pick in picks:
        subscribe(pick)
    for action, a, b in plan:
        if action == "subscribe":
            subscribe(a)
            continue
        if action == "rollback":
            store.rollback_to(a % len(store))
        else:
            program, options = _draw_program(a, b)
            if options:
                continue  # the service runs the default engine
            try:
                service.apply(program)
            except VersionLinearityError:
                continue
        index = len(store) - 1
        before, after = store.base_at(index - 1), store.base_at(index)
        for subscription, pushes in watched:
            query = subscription.query
            fresh = query.run(after)
            assert subscription.revision == index
            assert subscription.answers == fresh
            added, removed = diff_answers(query.run(before), fresh)
            sent = [p for p in pushes if p["revision"] == index]
            if added or removed:
                assert [(p["added"], p["removed"]) for p in sent] == [(added, removed)]
            else:
                assert sent == []
