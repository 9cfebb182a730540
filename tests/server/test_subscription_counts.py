"""Counts, not clocks: what one commit costs the fan-out subscriptions.

The 64 live queries of the ``serve_fanout_1k`` workload over its
1 000-employee base, in process.  A raise changes one employee's salary; the
commit reaches only the bodies whose dispatch keys its two facts hit, is
answered from its delta — no whole-body run, no answer-list diff — and the
push stream is the one the whole-body re-run-and-diff maintenance produced.
"""

import hashlib
import itertools
import json

import pytest

from repro.core import query as query_module
from repro.core.query import PreparedQuery
from repro.server import StoreService
from repro.storage import VersionedStore

served = pytest.importorskip("benchmarks.e2e.served")

SEED = 1992
#: The push messages of 600 seeded raises as whole-body re-runs diffed
#: against the held answers produced them: count and sha256 of their JSON.
PUSHES = 315
PUSH_DIGEST = "27e4656ee62805e4c490f4d68921314651d675f5ba7cd5f1acbd756b9f6e04fc"


def _fan_out():
    ent = served.Enterprise(1_000, SEED)
    service = StoreService(VersionedStore(ent.base()))
    messages = []
    for _manager, body in ent.subscription_bodies(64):
        service.subscriptions.subscribe(body, messages.append)
    return service, map(served.raise_text, ent.writer_ops()), messages


def test_one_raise_runs_no_body_and_diffs_no_answer_list(monkeypatch):
    service, programs, _messages = _fan_out()
    calls = {"run": 0, "diff_answers": 0}
    evaluated: dict[PreparedQuery, int] = {}
    run, diff, seeded = (
        PreparedQuery.run, query_module.diff_answers, PreparedQuery.delta_answers)

    def counted_run(query, base):
        calls["run"] += 1
        return run(query, base)

    def counted_diff(old, new):
        calls["diff_answers"] += 1
        return diff(old, new)

    def counted_seeded(query, gained, lost, base):
        evaluated[query] = evaluated.get(query, 0) + 1
        return seeded(query, gained, lost, base)

    monkeypatch.setattr(PreparedQuery, "run", counted_run)
    monkeypatch.setattr(PreparedQuery, "delta_answers", counted_seeded)
    monkeypatch.setattr(query_module, "diff_answers", counted_diff)
    service.apply(next(programs))

    assert calls == {"run": 0, "diff_answers": 0}
    subscriptions = list(service.subscriptions.stats()["by_id"].values())
    affected = {s["query"] for s in subscriptions if s["seeded"]}
    assert sum(s["refreshed"] for s in subscriptions) == 0
    assert sum(s["seeded"] + s["skipped"] for s in subscriptions) == 64
    assert affected and len(evaluated) == len(affected)
    assert max(evaluated.values()) <= 2


def test_six_hundred_raises_push_what_re_running_pushed(monkeypatch):
    """A raise reaches only the bodies naming the raised employee's team
    or the employee: at most 6 seeded evaluations per raise (two per body
    reached), 1 200 over the run — every matching body, evaluated on both
    sides, cost 72 per raise and 43 200 in all."""
    service, programs, messages = _fan_out()
    calls = [0]
    seeded = PreparedQuery.delta_answers

    def counted_seeded(query, gained, lost, base):
        calls[0] += 1
        return seeded(query, gained, lost, base)

    monkeypatch.setattr(PreparedQuery, "delta_answers", counted_seeded)
    per_raise = []
    for program in itertools.islice(programs, 600):
        before = calls[0]
        service.apply(program)
        per_raise.append(calls[0] - before)
    assert sum(per_raise) <= 1_200
    assert max(per_raise) <= 6
    assert len(messages) == PUSHES
    digest = hashlib.sha256(json.dumps(messages).encode()).hexdigest()
    assert digest == PUSH_DIGEST
    stats = service.subscriptions.stats()["by_id"].values()
    assert sum(s["refreshed"] for s in stats) == 0
    assert sum(s["pushed"] for s in stats) == PUSHES
    assert sum(s["seeded"] + s["skipped"] for s in stats) == 64 * 600
