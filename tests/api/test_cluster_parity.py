"""Differential parity for the sharded backend: the scripted workload of
``test_backend_parity`` (adapted to ground-host programs — the one routing
restriction the cluster imposes) runs against ``repro.connect("memory:")``
and a real 2-shard cluster (two background servers behind the ``cluster:``
router), and every observable must match: decoded answers, re-indexed
revision records, subscription deltas, ``as_of`` in every addressing form,
diffs, and error messages.  The only tolerated difference is the shard-local
numerals inside a conflict message (session ids and pinned revision indexes
are per-shard), which are digit-normalized before comparison.

The consistency-token law is asserted directly: the cluster's composed
``as_of`` (union of per-shard bases at the revision vector) equals the
single store's replay at every cluster index, and the vector itself is
addressable (``rv:...`` tokens and :class:`RevisionVector`).
"""

from __future__ import annotations

import re

import pytest

import repro
from repro.api import ConflictError
from repro.cluster import LocalCluster, RevisionVector, shard_for
from repro.core.errors import ReproError
from repro.core.terms import Oid
from repro.lang.pretty import format_object_base

# Host placement under 2 shards (asserted below so a hash change is loud):
# henry -> shard 0; phil, mary, dee -> shard 1.
BASE = """
    phil.isa -> empl.   phil.sal -> 4000.
    mary.isa -> empl.   mary.sal -> 3900.
    henry.isa -> empl.  henry.sal -> 4200.
"""

RAISE_PHIL = """
    raise_phil: mod[phil].sal -> (S, S2) <= phil.sal -> S, S2 = S + 25.
"""

RAISE_HENRY = """
    raise_henry: mod[henry].sal -> (S, S2) <= henry.sal -> S, S2 = S + 25.
"""

# mary shares dee's shard, so this interloper lands in the staged shard's
# validation footprint — the same induced conflict as the 3-backend suite.
BUMP_MARY = """
    bump_mary: mod[mary].sal -> (S, S2) <= mary.sal -> S, S2 = S + 1.
"""

# phil and dee hash to the same shard, so the cross-host body is routable.
HIRE_DEE = """
    hire_isa: ins[dee].isa -> empl <= phil.isa -> empl.
    hire_sal: ins[dee].sal -> 3000 <= phil.isa -> empl.
"""

SALARY_QUERY = "E.isa -> empl, E.sal -> S"

LOG_TAGS = ["initial", "raise-q1", "raise-h", "interloper", "tx-hire", "bump-2"]


def test_host_placement_assumed_by_this_suite():
    assert shard_for(Oid("henry"), 2) == 0
    assert shard_for(Oid("phil"), 2) == 1
    assert shard_for(Oid("mary"), 2) == 1
    assert shard_for(Oid("dee"), 2) == 1


def _normalize_conflict(message: str) -> str:
    """Conflict messages embed shard-local session ids and revision
    indexes; normalize the numerals, keep every other word exact."""
    message = re.sub(r"session \d+", "session #", message)
    return re.sub(r"revision \d+", "revision #", message)


def run_workload(conn) -> dict:
    trace: dict = {}

    stream = conn.subscribe(SALARY_QUERY, name="salaries")
    trace["initial_answers"] = list(stream.answers)
    trace["initial_revision"] = stream.revision
    deltas = []

    def collect() -> None:
        delta = stream.next(timeout=10.0)
        assert delta is not None, "expected an answer delta"
        deltas.append(
            (delta.query, delta.revision, delta.tag, delta.added, delta.removed)
        )

    # autocommits: one per shard
    trace["apply"] = conn.apply(RAISE_PHIL, tag="raise-q1")
    collect()
    trace["apply_other_shard"] = conn.apply(RAISE_HENRY, tag="raise-h")
    collect()
    trace["query_after_raises"] = conn.query("E.sal -> S")
    trace["single_host_query"] = conn.query("phil.sal -> S")

    # optimistic transaction with an induced conflict, retried by replay
    transaction = conn.transaction(tag="tx-hire", attempts=3)
    with transaction:
        trace["tx_read"] = transaction.query(SALARY_QUERY)
        conn.apply(BUMP_MARY, tag="interloper")
        collect()
        transaction.stage(HIRE_DEE)
    trace["tx_attempts"] = transaction.attempts_used
    trace["tx_result"] = transaction.result
    collect()

    # the same race without retry raises the retryable ConflictError
    doomed = conn.transaction(tag="doomed")
    doomed.query(SALARY_QUERY)
    conn.apply(BUMP_MARY, tag="bump-2")
    collect()
    doomed.stage(RAISE_PHIL)
    with pytest.raises(ConflictError) as conflict_info:
        doomed.commit()
    conflict = conflict_info.value
    trace["conflict"] = (
        type(conflict).__name__,
        conflict.retryable,
        conflict.conflicting_tag,
        _normalize_conflict(str(conflict)),
    )

    trace["deltas"] = deltas
    trace["extra_delta"] = stream.next(timeout=0.25)

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
    return trace


@pytest.fixture()
def cluster():
    with LocalCluster(BASE, shards=2) as deployment:
        yield deployment


def test_cluster_matches_memory_backend(cluster):
    with repro.connect("memory:", base=BASE, tag="initial") as conn:
        memory_trace = run_workload(conn)
    with repro.connect(cluster.target) as conn:
        cluster_trace = run_workload(conn)

    assert memory_trace == cluster_trace

    # sanity on the shared trace, so the parity is of a *real* run
    trace = memory_trace
    assert trace["tx_attempts"] == 2
    assert [r.tag for r in trace["log"]] == LOG_TAGS
    assert trace["extra_delta"] is None
    assert any(row["E"] == "dee" for row in trace["deltas"][3][3])
    assert trace["errors"]["nope"] == "no revision tagged 'nope'"
    assert trace["errors"]["99"] == "no revision 99"
    assert trace["errors"]["-1"] == "no revision -1"
    assert trace["errors"]["--2"] == "no revision tagged '--2'"


def test_composed_as_of_equals_per_shard_replay(cluster):
    """The acceptance law of the consistency token: for every cluster
    index, the union of per-shard bases at the recorded revision vector
    equals a single store's replay of the same commit sequence."""
    with repro.connect("memory:", base=BASE, tag="initial") as reference:
        with repro.connect(cluster.target) as conn:
            programs = [
                (RAISE_PHIL, "raise-q1"),
                (RAISE_HENRY, "raise-h"),
                (BUMP_MARY, "bump-mary"),
                (HIRE_DEE, "tx-hire"),
            ]
            for program, tag in programs:
                cluster_revision = conn.apply(program, tag=tag)
                reference_revision = reference.apply(program, tag=tag)
                assert cluster_revision == reference_revision
            for index in range(len(programs) + 1):
                assert format_object_base(conn.as_of(index)) == (
                    format_object_base(reference.as_of(index))
                ), f"composed as_of diverged at cluster index {index}"

            # the vector itself is addressable: the router's current cut
            # resolves via an rv: token and a RevisionVector alike
            vector = conn.stats()["cluster"]["router"]["vector"]
            assert vector == f"rv:{1},{3}"  # henry alone on shard 0
            assert format_object_base(conn.as_of(vector)) == (
                format_object_base(reference.as_of(len(programs)))
            )
            assert format_object_base(
                conn.as_of(RevisionVector.parse(vector))
            ) == format_object_base(reference.as_of(len(programs)))

            # ... and each shard, asked directly, sits exactly at its
            # component (the vector is the per-shard replay recipe)
            parsed = RevisionVector.parse(vector)
            for shard, member in enumerate(cluster.members):
                with repro.connect(member) as shard_conn:
                    assert shard_conn.head.index == parsed[shard]


def test_revision_vector_tokens_name_every_shard(cluster):
    """A token with fewer or more components than shards is refused with
    both counts on every path that reads one — never an ``IndexError``,
    never silently truncated — and a negative component fails at parse."""
    with repro.connect(cluster.target) as conn:
        conn.apply(RAISE_HENRY, tag="raise-h")  # shard 0
        conn.apply(RAISE_PHIL, tag="raise-q1")  # shard 1
        for token in ("rv:1", "rv:1,1,0", RevisionVector((1, 1, 0))):
            count = len(RevisionVector.parse(str(token)))
            wrong = f"has {count} components, but this cluster has 2 shards"
            reads = (
                lambda: conn.as_of(token),
                lambda: conn.diff("rv:0,0", token),
                lambda: conn.diff(token, "raise-q1"),
                lambda: conn.query("phil.sal -> S", min_revision=token),
                lambda: conn.query(SALARY_QUERY, min_revision=token),
                lambda: conn.subscribe("phil.sal -> S", min_revision=token),
            )
            for read in reads:
                with pytest.raises(ReproError, match=wrong):
                    read()
        for token in ("rv:1,-1", "rv:-1,2"):
            with pytest.raises(ReproError, match="non-negative"):
                RevisionVector.parse(token)
            with pytest.raises(ReproError, match="non-negative"):
                conn.as_of(token)
        assert format_object_base(conn.as_of("rv:1,1")) == (
            format_object_base(conn.as_of("raise-q1"))
        )


def test_cluster_stats_are_uniform_plus_cluster_section(cluster):
    with repro.connect("memory:", base=BASE, tag="initial") as conn:
        memory_stats = conn.stats()
    with repro.connect(cluster.target) as conn:
        conn.query(SALARY_QUERY)
        conn.query("phil.sal -> S")
        conn.apply(RAISE_PHIL, tag="raise-q1")
        cluster_stats = conn.stats()

    assert set(cluster_stats) - {"cluster"} == set(memory_stats)
    assert set(cluster_stats["replication"]) == set(memory_stats["replication"])
    assert cluster_stats["replication"]["role"] == "router"
    assert set(cluster_stats["metrics"]) == {"enabled", "registry"}
    assert set(cluster_stats["slowlog"]) == {
        "entries", "dropped", "capacity", "thresholds_ms",
    }
    assert cluster_stats["shard"] == {"id": None, "count": 2}
    router = cluster_stats["cluster"]["router"]
    assert router["shards"] == 2
    assert router["single_reads"] == 1
    assert router["scatter_reads"] == 1
    assert router["commits"] == 1
    shards = cluster_stats["cluster"]["shards"]
    assert [entry["shard"] for entry in shards] == [0, 1]
    assert all(entry["role"] == "primary" for entry in shards)


def test_cluster_slowlog_keeps_the_newest_entries_of_every_shard():
    """A shard's newest entry survives the merge even when another shard's
    ring alone fills it: entries are ordered by ``(wall_time, shard,
    seq)`` and cut to the largest shard capacity."""
    from repro.api.cluster import _merge_slowlogs

    def entry(seq, wall_time):
        return {"seq": seq, "kind": "commit", "seconds": 1.0, "wall_time": wall_time}

    newest = entry(1, 5000.0)
    older = [entry(seq, 1000.0 + seq) for seq in range(1, 61)]
    merged = _merge_slowlogs([
        {"entries": [newest], "dropped": 0, "capacity": 50},
        {"entries": older, "dropped": 3, "capacity": 60},
    ])
    assert merged["capacity"] == 60 and merged["dropped"] == 3
    entries = merged["entries"]
    assert len(entries) == 60  # the oldest of shard 1's entries is cut
    assert entries[-1] == {**newest, "shard": 0}
    assert entries[:-1] == [{**e, "shard": 1} for e in older[1:]]


def test_cluster_rejects_unroutable_work(cluster):
    with repro.connect(cluster.target) as conn:
        with pytest.raises(ReproError, match="ground rule hosts"):
            conn.apply(
                "raise: mod[E].sal -> (S, S2) <= E.isa -> empl, "
                "E.sal -> S, S2 = S + 25."
            )
        # phil (shard 1) and henry (shard 0) cannot commit together
        with pytest.raises(ReproError, match="one shard"):
            conn.apply(
                "pair: mod[phil].sal -> (S, S2) <= henry.sal -> S, "
                "S2 = S + 1."
            )
        with pytest.raises(ReproError, match="single host root"):
            conn.subscribe("E.isa -> empl, E.boss -> B, B.sal -> S")
        # a cross-host join still *reads* fine (gather fallback)
        assert conn.query("phil.sal -> S, henry.sal -> T") == [
            {"S": 4000, "T": 4200}
        ]
    with pytest.raises(ReproError, match="readonly"):
        repro.connect(cluster.target, readonly=True)
    with pytest.raises(ReproError, match="base="):
        repro.connect(cluster.target, base=BASE)


#: A plain base beside one ``ins(bob)`` version fact, so update-terms on
#: ``bob`` hold; ann sits on shard 1, bob, carl and dan on shard 0.
UPDATE_TERM_BASE = """
    bob.sal -> 10.  ins(bob).sal -> 10.
    ann.isa -> empl.  bob.isa -> empl.  carl.isa -> empl.  dan.isa -> empl.
"""


def test_update_terms_route_like_the_memory_backend():
    """A commit whose body reads an update-term routes by the term's
    target, and a read joining a host variable with a ground update-term
    gathers: a scattered one missed ``ann`` and answered the negated form
    with a spurious ``ann``."""
    reads = (
        "X.isa -> empl, ins[bob].sal -> S",
        "X.isa -> empl, not ins[bob].sal -> 10",
    )
    flag = (
        "r: ins[mod(bob)].flag -> yes <= bob.sal -> S, "
        "not del[mod(bob)].isa -> empl."
    )
    assert [shard_for(Oid(name), 2) for name in ("ann", "bob")] == [1, 0]
    traces = []
    with repro.connect("memory:", base=UPDATE_TERM_BASE) as memory:
        with LocalCluster(UPDATE_TERM_BASE, shards=2) as deployment:
            with repro.connect(deployment.target) as clustered:
                for conn in (memory, clustered):
                    trace = [conn.query(body) for body in reads]
                    conn.apply(flag)
                    trace.append(conn.query("X.flag -> F"))
                    traces.append(trace)
    assert traces[0] == traces[1]
    assert {row["X"] for row in traces[0][0]} == {"ann", "bob", "carl", "dan"}
    assert traces[0][1] == []
    assert traces[0][2] == [{"F": "yes", "X": "bob"}]


def test_min_revision_token_is_read_your_writes(cluster):
    """A cluster revision index handed to another connection acts as a
    read-your-writes token: the read reflects at least that commit."""
    with repro.connect(cluster.target) as writer:
        revision = writer.apply(RAISE_PHIL, tag="raise-q1")
        with repro.connect(cluster.target) as reader:
            answers = reader.query(
                "phil.sal -> S", min_revision=revision.index
            )
            assert answers == [{"S": 4025}]
            scatter = reader.query(
                SALARY_QUERY, min_revision=revision.index
            )
            assert {"E": "phil", "S": 4025} in scatter


def test_shard_identity_is_verified_for_replicated_shards(cluster):
    """A ``|``-separated shard is dialed like any other, so a member list
    in the wrong position fails the same typed check a plain one does."""
    first, second = cluster.members
    swapped = f"cluster:{second}|{second},{first}|{first}"
    with repro.connect(swapped) as conn:
        with pytest.raises(ReproError, match="declares shard id 1"):
            conn.query(SALARY_QUERY)
    with repro.connect(f"cluster:{first}|{first},{second}|{second}") as conn:
        assert len(conn.query(SALARY_QUERY)) == 3
