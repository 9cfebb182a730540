"""Differential backend parity: one workload, three backends, one result.

The same scripted workload — subscribe, autocommit apply, query, an
optimistic transaction with an *induced conflict* (retried automatically),
a conflict that is not retried, ``as_of`` in every addressing form,
``diff``, ``log``, and error probes — runs through

* ``repro.connect("memory:")``            (ephemeral in-process store),
* ``repro.connect(<journal directory>)``  (durable journaled store), and
* ``repro.connect("serve:<unix socket>")``(the asyncio wire server),

and every decoded answer, revision record, answer delta and error message
must be **identical**.  For the two durable backends the journals on disk
must be **byte-identical**.  This is the contract that lets every future
backend (sharding, replication) land behind ``repro.connect``.
"""

from __future__ import annotations

import pytest

import repro
from repro.api import BackgroundServer, ConflictError
from repro.core.errors import ReproError
from repro.lang.pretty import format_object_base

BASE = """
    phil.isa -> empl.   phil.sal -> 4000.
    bob.isa -> empl.    bob.sal -> 4200.   bob.boss -> phil.
    mary.isa -> empl.   mary.sal -> 3900.  mary.boss -> phil.
"""

RAISE = """
    raise: mod[E].sal -> (S, S2) <= E.isa -> empl, E.sal -> S, S2 = S + 25.
"""

BUMP = """
    bump: mod[E].sal -> (S, S2) <= E.isa -> empl, E.sal -> S, S2 = S + 1.
"""

HIRE = """
    hire_isa: ins[dee].isa -> empl <= phil.isa -> empl.
    hire_sal: ins[dee].sal -> 3000 <= phil.isa -> empl.
"""

SALARY_QUERY = "E.isa -> empl, E.sal -> S"

#: A body with a negated literal, maintained from each commit's delta.
UNBOSSED_QUERY = "E.isa -> empl, E.sal -> S, not E.boss -> phil"


def run_workload(conn) -> dict:
    """The scripted workload; returns every observable as plain data."""
    trace: dict = {}

    stream = conn.subscribe(SALARY_QUERY, name="salaries")
    trace["initial_answers"] = list(stream.answers)
    trace["initial_revision"] = stream.revision
    unbossed = conn.subscribe(UNBOSSED_QUERY, name="unbossed")
    trace["unbossed_answers"] = list(unbossed.answers)

    # autocommit
    trace["apply"] = conn.apply(RAISE, tag="raise-q1")
    trace["query_after_raise"] = conn.query("E.sal -> S")

    # optimistic transaction with an induced conflict, retried by replay
    transaction = conn.transaction(tag="tx-hire", attempts=3)
    with transaction:
        trace["tx_read"] = transaction.query(SALARY_QUERY)
        # an interim commit lands inside the transaction's footprint, so
        # the first commit attempt must conflict and be replayed
        conn.apply(BUMP, tag="interloper")
        transaction.stage(HIRE)
    trace["tx_attempts"] = transaction.attempts_used
    trace["tx_result"] = transaction.result

    # the same race without retry raises the retryable ConflictError
    doomed = conn.transaction(tag="doomed")
    doomed.query(SALARY_QUERY)
    conn.apply(BUMP, tag="bump-2")
    doomed.stage(RAISE)
    with pytest.raises(ConflictError) as conflict_info:
        doomed.commit()
    conflict = conflict_info.value
    trace["conflict"] = (
        type(conflict).__name__,
        conflict.retryable,
        conflict.conflicting_tag,
        str(conflict),
    )

    # four commits touched the subscription; collect their answer deltas
    deltas = []
    for _ in range(4):
        delta = stream.next(timeout=10.0)
        assert delta is not None, "expected an answer delta"
        deltas.append(
            (delta.query, delta.revision, delta.tag, delta.added, delta.removed)
        )
    trace["deltas"] = deltas
    trace["extra_delta"] = stream.next(timeout=0.25)
    trace["unbossed_deltas"] = [
        (delta.query, delta.revision, delta.tag, delta.added, delta.removed)
        for delta in iter(lambda: unbossed.next(timeout=0.25), None)
    ]

    # history: log records, as-of in every addressing form, diffs
    trace["log"] = conn.log()
    trace["head"] = conn.head
    trace["as_of"] = {
        ref: format_object_base(conn.as_of(ref))
        for ref in (0, "0", "initial", 1, "raise-q1", "tx-hire", "bump-2")
    }
    trace["diff"] = conn.diff("initial", "bump-2")
    trace["diff_reverse"] = conn.diff(len(trace["log"]) - 1, 0)

    # unified failure surface: same messages for bad references everywhere
    errors = {}
    for ref in ("nope", 99, -1, "-1", "99", "--2"):
        with pytest.raises(ReproError) as error_info:
            conn.as_of(ref)
        errors[str(ref)] = str(error_info.value)
    trace["errors"] = errors

    stream.close()
    unbossed.close()
    return trace


def normalize(trace: dict) -> dict:
    """Everything in a trace is already backend-independent data."""
    return trace


@pytest.fixture()
def journal_dirs(tmp_path):
    first = tmp_path / "journaled"
    second = tmp_path / "served"
    repro.connect(first, base=BASE, tag="initial").close()
    repro.connect(second, base=BASE, tag="initial").close()
    return first, second


def test_three_backends_produce_identical_traces(journal_dirs, tmp_path):
    journal_dir, served_dir = journal_dirs

    with repro.connect("memory:", base=BASE, tag="initial") as conn:
        memory_trace = run_workload(conn)

    with repro.connect(journal_dir) as conn:
        journal_trace = run_workload(conn)

    socket_path = str(tmp_path / "parity.sock")
    with BackgroundServer(served_dir, path=socket_path):
        with repro.connect(f"serve:{socket_path}") as conn:
            served_trace = run_workload(conn)

    assert normalize(memory_trace) == normalize(journal_trace)
    assert normalize(memory_trace) == normalize(served_trace)

    # sanity on the shared trace, so the parity is of a *real* run
    trace = memory_trace
    assert trace["tx_attempts"] == 2  # the induced conflict forced a replay
    assert trace["apply"].tag == "raise-q1"
    assert [r.tag for r in trace["log"]] == [
        "initial", "raise-q1", "interloper", "tx-hire", "bump-2",
    ]
    assert trace["extra_delta"] is None
    assert any(row["E"] == "dee" for row in trace["deltas"][2][3])
    assert trace["unbossed_answers"] == [{"E": "phil", "S": 4000}]
    assert [
        (tag, list(added)) for _q, _r, tag, added, _removed in trace["unbossed_deltas"]
    ] == [
        ("raise-q1", [{"E": "phil", "S": 4025}]),
        ("interloper", [{"E": "phil", "S": 4026}]),
        ("tx-hire", [{"E": "dee", "S": 3000}]),
        ("bump-2", [{"E": "dee", "S": 3001}, {"E": "phil", "S": 4027}]),
    ]
    assert trace["errors"]["nope"] == "no revision tagged 'nope'"
    assert trace["errors"]["99"] == "no revision 99"
    assert trace["errors"]["-1"] == "no revision -1"
    assert trace["errors"]["--2"] == "no revision tagged '--2'"


def test_durable_backends_write_byte_identical_journals(journal_dirs, tmp_path):
    journal_dir, served_dir = journal_dirs

    with repro.connect(journal_dir) as conn:
        run_workload(conn)

    socket_path = str(tmp_path / "parity2.sock")
    with BackgroundServer(served_dir, path=socket_path):
        with repro.connect(f"serve:{socket_path}") as conn:
            run_workload(conn)

    journal_files = sorted(p.name for p in journal_dir.iterdir())
    served_files = sorted(p.name for p in served_dir.iterdir())
    assert journal_files == served_files
    for name in journal_files:
        assert (journal_dir / name).read_bytes() == (
            served_dir / name
        ).read_bytes(), f"{name} diverged between journaled and served runs"


def test_stats_shape_is_uniform_across_backends(journal_dirs, tmp_path):
    """Every backend's ``stats()`` exposes the same top-level sections —
    including the ``replication`` section, which reports ``role:
    "primary"`` (epoch 0, no followers) even where replication is not in
    play.  Monitoring written against one backend reads them all."""
    journal_dir, served_dir = journal_dirs

    with repro.connect("memory:", base=BASE, tag="initial") as conn:
        memory_stats = conn.stats()
    with repro.connect(journal_dir) as conn:
        journal_stats = conn.stats()
    socket_path = str(tmp_path / "parity4.sock")
    with BackgroundServer(served_dir, path=socket_path):
        with repro.connect(f"serve:{socket_path}") as conn:
            served_stats = conn.stats()

    assert (
        set(memory_stats) == set(journal_stats) == set(served_stats)
    ), "stats() sections diverge between backends"
    replication_keys = {
        "role", "epoch", "fenced_epoch", "last_index", "followers",
        "streamed_lines", "primary", "lag", "primary_alive",
    }
    for stats in (memory_stats, journal_stats, served_stats):
        assert set(stats["replication"]) == replication_keys
        assert stats["replication"]["role"] == "primary"
        assert stats["replication"]["epoch"] == 0
        assert stats["replication"]["lag"] == 0
        # the observability sections are part of the uniform surface:
        # same pinned sub-shape everywhere, enabled or not
        assert set(stats["metrics"]) == {"enabled", "registry"}
        assert isinstance(stats["metrics"]["enabled"], bool)
        assert isinstance(stats["metrics"]["registry"], dict)
        assert set(stats["slowlog"]) == {
            "entries", "dropped", "capacity", "thresholds_ms",
        }


def test_replay_equivalence_after_restart(journal_dirs, tmp_path):
    """The served journal replays into exactly the state the live
    connections observed (restart recovery through the facade)."""
    journal_dir, served_dir = journal_dirs
    socket_path = str(tmp_path / "parity3.sock")
    with BackgroundServer(served_dir, path=socket_path):
        with repro.connect(f"serve:{socket_path}") as conn:
            live_trace = run_workload(conn)

    with repro.connect(served_dir) as reopened:
        assert reopened.log() == live_trace["log"]
        head = live_trace["head"]
        assert format_object_base(reopened.as_of(head.index)) == (
            live_trace["as_of"]["bump-2"]
        )


def test_unsafe_query_is_a_typed_error_naming_it_on_every_backend(
    journal_dirs, tmp_path
):
    """A body the planner cannot order fails where its plan is built —
    ``EvaluationError`` in process, the same message over the wire — and
    the connection keeps answering afterwards.  So does a live query over
    an update-term, which ``subscribe`` refuses naming the literal."""
    from repro.core.errors import EvaluationError

    unsafe = "not X.isa -> empl"
    versioned = "E.sal -> S, not mod[E].sal -> (S, S)"
    _journal_dir, served_dir = journal_dirs
    with repro.connect("memory:", base=BASE, tag="initial") as conn:
        with pytest.raises(EvaluationError, match="unsafe") as memory_error:
            conn.query(unsafe)
        assert unsafe in str(memory_error.value)
        with pytest.raises(ReproError) as memory_refusal:
            conn.subscribe(versioned)
        assert "not mod[E].sal -> (S, S)" in str(memory_refusal.value)
        assert len(conn.query(versioned)) == 3
        assert len(conn.query(SALARY_QUERY)) == 3

    socket_path = str(tmp_path / "parity5.sock")
    with BackgroundServer(served_dir, path=socket_path):
        with repro.connect(f"serve:{socket_path}") as conn:
            with pytest.raises(ReproError) as served_error:
                conn.query(unsafe)
            assert str(memory_error.value) in str(served_error.value)
            with pytest.raises(ReproError) as served_refusal:
                conn.subscribe(versioned)
            assert str(memory_refusal.value) in str(served_refusal.value)
            assert len(conn.query(SALARY_QUERY)) == 3
