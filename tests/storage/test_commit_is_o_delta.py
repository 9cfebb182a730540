"""A commit costs its delta — counted, not timed.

The two base-sized costs a commit used to pay leave fingerprints that do
not depend on the machine: re-hosting every final version constructs one
:class:`Fact` per fact of the base, and a head that is not born indexed
runs ``ObjectBase._build_indexes`` on its first read.  With counters around
both, a two-fact raise must do the same work on a 200- and on a
2 000-employee store, and build no index — not in the commit, not in the
read that follows it.  What the commit's forks copy is counted by identity
against their parent's containers: a chunk of each index map a write
lands in (≈ 1/64 of it), so ten times the base may not double it.

The base-sized cost a journal-backed commit may still pay is a snapshot
file, and it is paid for: a ``snapshot_interval`` candidate gets its file
only once the journal since the last one weighs as much as the base (a
line weighs ``1 + |added| + |removed|``).  The last tests pin where the
files land, that the placement is a function of the chain alone (restarts
do not move it), that reconstruction across the sparse anchors is exact,
and the memory side: a long-lived service keeps a bounded number of
snapshot bases resident and none that has no file behind it.
"""

import hashlib
import random

import pytest

import repro
from repro.api import BackgroundServer
from repro.core.facts import Fact
from repro.core.objectbase import ObjectBase
from repro.server.service import StoreService
from repro.storage import StoreOptions, VersionedStore, load_store
from repro.workloads import (
    enterprise_base,
    salary_raise_program,
    targeted_raise_program,
)


@pytest.fixture()
def counters(monkeypatch):
    counts = {"facts": 0, "index_builds": 0}
    fact_init, build_indexes = Fact.__init__, ObjectBase._build_indexes

    def counting_init(self, host, method, args, result):
        counts["facts"] += 1
        fact_init(self, host, method, args, result)

    def counting_build(self):
        counts["index_builds"] += 1
        build_indexes(self)

    monkeypatch.setattr(Fact, "__init__", counting_init)
    monkeypatch.setattr(ObjectBase, "_build_indexes", counting_build)
    return counts


def _plain_employee(base: ObjectBase) -> str:
    """A non-manager employee (isa, sal, boss, exists): the same frame to
    copy whatever the base size."""
    return next(
        str(host)
        for host in sorted(base.objects(), key=str)
        if str(host).startswith("emp") and len(base.state_of(host)) == 4
    )


def _raise_on(n_employees: int, counters: dict) -> dict:
    base = enterprise_base(n_employees=n_employees, overpaid_ratio=0.1, seed=7)
    store = VersionedStore(base)
    employee = _plain_employee(base)
    program = targeted_raise_program(employee)
    store.apply(program)  # compiles the program, establishes plainness
    store.query(f"{employee}.sal -> S")

    counters.update(facts=0, index_builds=0)
    result = store.apply(program)
    committed = dict(counters)
    assert len(result.added) == len(result.removed) == 1
    assert store.head.added == frozenset(result.added)
    assert store.head.removed == frozenset(result.removed)
    assert store.query(f"{employee}.sal -> S")
    assert store.query("E.isa -> empl, E.sal -> S")  # a scan of the new head
    committed["index_builds_after_reads"] = counters["index_builds"]
    return committed


def test_two_fact_raise_does_the_same_work_at_any_base_size(counters):
    small = _raise_on(200, counters)
    large = _raise_on(2_000, counters)
    assert small == large
    # frame copy + new value + re-hosting: a dozen facts, not a base
    assert 0 < small["facts"] < 20
    assert small["index_builds"] == 0
    assert small["index_builds_after_reads"] == 0


def _private_entries(mine, theirs) -> int:
    """The entries of the container ``mine`` and of every container under
    it that is not the identical object at the same place in ``theirs``
    (lists and dicts recurse; a bucket of facts counts its size)."""
    if mine is theirs:
        return 0
    if isinstance(mine, dict):
        theirs = theirs if isinstance(theirs, dict) else {}
        pairs = [(value, theirs.get(key)) for key, value in mine.items()]
    elif isinstance(mine, list):
        theirs = theirs if isinstance(theirs, list) else []
        pairs = [(value, theirs[i] if i < len(theirs) else None) for i, value in enumerate(mine)]
    else:
        return len(mine)
    return len(mine) + sum(_private_entries(m, t) for m, t in pairs)


def _entries_copied_by_a_raise(n_employees: int, monkeypatch) -> int:
    """What the forks of frozen bases own after one raise through a store:
    every index container of theirs that they do not share with their
    parent, counted by identity."""
    base = enterprise_base(n_employees=n_employees, overpaid_ratio=0.1, seed=7)
    store = VersionedStore(base)
    program = targeted_raise_program(_plain_employee(base))
    store.apply(program)  # compiles the program, establishes plainness
    pairs = []
    fork = ObjectBase.fork

    def recording(self):
        child = fork(self)
        if self.frozen:
            pairs.append((self, child))
        return child

    with monkeypatch.context() as patch:
        patch.setattr(ObjectBase, "fork", recording)
        store.apply(program)
    assert pairs
    return sum(
        _private_entries(getattr(child, slot), getattr(parent, slot))
        for parent, child in pairs
        for slot in ("_by_host", "_by_method", "_by_arg")
    )


def test_a_commit_copies_barely_more_of_a_larger_base(monkeypatch):
    """A base ten times larger: the forks of a raise copy chunks of the
    index maps, ≈ |map| / 64 entries each, not whole maps."""
    small = _entries_copied_by_a_raise(200, monkeypatch)
    large = _entries_copied_by_a_raise(2_000, monkeypatch)
    assert large <= 2 * small, (small, large)


def test_commit_update_without_a_delta_still_finds_it():
    """The rare callers that hold no delta get it by comparison; the
    revision is the same either way."""
    base = enterprise_base(n_employees=50, seed=7)
    handed, compared = VersionedStore(base), VersionedStore(base)
    program = targeted_raise_program(_plain_employee(base))
    handed.apply(program)
    compared.commit_update(
        repro.UpdateEngine().apply(program, compared.current).new_base,
        program_name=program.name,
    )
    assert handed.head == compared.head


def _rule_anchors(store: VersionedStore, interval: int) -> list[int]:
    """Where the snapshot rule puts files, re-derived from the chain: a
    candidate whose lines since the last anchor weigh at least its base."""
    anchors, weight = [0], 0
    for revision in store.revisions()[1:]:
        weight += 1 + len(revision.added) + len(revision.removed)
        if revision.index % interval == 0 and weight >= len(store.base_at(revision.index)):
            anchors.append(revision.index)
            weight = 0
    return anchors


def _snapshot_files(directory) -> list[int]:
    return sorted(int(path.stem[len("snap-"):]) for path in directory.glob("snap-*.json"))


def _mixed_history(base: ObjectBase, commits: int) -> list:
    """One-employee raises (weight 3) with an all-employee raise every
    ninth commit (weight 1 + 2 per employee): lines of uneven weight."""
    rng = random.Random(11)
    employees = sorted(str(host) for host in base.objects() if str(host).startswith("emp"))
    return [
        salary_raise_program() if step % 9 == 4
        else targeted_raise_program(rng.choice(employees))
        for step in range(commits)
    ]


def test_journal_backed_service_bounds_resident_snapshots(tmp_path):
    options = StoreOptions(snapshot_interval=4, materialize_cache=2)
    base = enterprise_base(n_employees=30, seed=7)
    directory = tmp_path / "journal"
    service = StoreService.create(base, directory, options=options)
    program = targeted_raise_program(_plain_employee(base))
    for _ in range(400):
        service.apply(program)
    store = service.store
    snapshots = [r.index for r in store.revisions() if store.has_snapshot(r.index)]
    # 125 facts at 3 a raise: the first candidate past 42 raises, every time
    assert len(store.current) == 125
    assert snapshots == list(range(0, 401, 44)) == _snapshot_files(directory)
    resident = {id(r.snapshot) for r in store.revisions() if r.snapshot is not None}
    resident.add(id(store.current))
    assert len(resident) <= options.materialize_cache + 1

    # an evicted snapshot reloads from its file, equal to a reconstruction
    evicted = next(i for i in snapshots[1:] if store.revisions()[i].snapshot is None)
    reloaded = store.base_at(evicted)
    memory = VersionedStore(base, options=options)
    for _ in range(evicted):
        memory.apply(program)
    assert reloaded == memory.current
    with repro.connect(service) as conn:  # log() marks exactly the files
        assert [r.snapshot for r in conn.log()] == [
            r.index in snapshots for r in store.revisions()
        ]


def test_a_large_base_gets_no_snapshot_file_from_a_few_hundred_raises(tmp_path):
    """200 raises journal 600 facts against an 8 399-fact base: no
    candidate is worth a file, and none keeps a snapshot in memory."""
    base = enterprise_base(n_employees=2_000, overpaid_ratio=0.1, seed=7)
    directory = tmp_path / "journal"
    service = StoreService.create(base, directory)
    program = targeted_raise_program(_plain_employee(base))
    for _ in range(200):
        service.apply(program)
    store = service.store
    assert [path.name for path in directory.glob("snap-*.json")] == ["snap-000000.json"]
    assert [r.index for r in store.revisions() if store.has_snapshot(r.index)] == [0]
    assert [r.index for r in store.revisions()[1:] if r.snapshot is not None] == []


def test_snapshot_files_land_where_the_rule_predicts(tmp_path):
    base = enterprise_base(n_employees=12, seed=7)
    directory = tmp_path / "journal"
    service = StoreService.create(
        base, directory, options=StoreOptions(snapshot_interval=4)
    )
    published = []  # what a listener sees: the snapshot is settled by then
    service.store.add_commit_listener(
        lambda r, _parent: published.append(service.store.has_snapshot(r.index))
    )
    for program in _mixed_history(base, 90):
        service.apply(program)
    anchors = _rule_anchors(service.store, 4)
    assert 4 <= len(anchors) < len(range(0, 91, 4))  # some candidates lose
    assert _snapshot_files(directory) == anchors
    assert [k for k, flag in enumerate(published, 1) if flag] == anchors[1:]


def test_snapshot_placement_survives_restarts(tmp_path):
    """The weight is a function of the chain: a service reopened every 7
    commits writes the same bytes as one that never stopped."""
    base = enterprise_base(n_employees=12, seed=7)
    options = StoreOptions(snapshot_interval=4)
    history = _mixed_history(base, 90)
    once, restarted = tmp_path / "once", tmp_path / "restarted"
    service = StoreService.create(base, once, options=options)
    for program in history:
        service.apply(program)
    service = StoreService.create(base, restarted, options=options)
    for step, program in enumerate(history):
        if step and step % 7 == 0:
            service = StoreService.open(restarted)
        service.apply(program)

    def digests(directory):
        return {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.iterdir())
        }

    assert len(_snapshot_files(once)) >= 4
    assert digests(once) == digests(restarted)


def test_every_revision_reconstructs_across_sparse_anchors(tmp_path):
    base = enterprise_base(n_employees=12, seed=7)
    directory = tmp_path / "journal"
    service = StoreService.create(
        base, directory, options=StoreOptions(snapshot_interval=4)
    )
    reference = VersionedStore(base, options=StoreOptions(snapshot_interval=1))
    for program in _mixed_history(base, 90):
        service.apply(program)
        reference.apply(program)
    loaded = load_store(directory)
    assert len(_snapshot_files(directory)) >= 4
    for k in range(len(reference)):
        expected = reference.as_of(k)
        assert service.store.as_of(k) == expected, k
        assert loaded.as_of(k) == expected, k


def test_served_log_flags_exactly_the_snapshot_files(tmp_path):
    base = enterprise_base(n_employees=12, seed=7)
    directory = tmp_path / "journal"
    service = StoreService.create(
        base, directory, options=StoreOptions(snapshot_interval=4)
    )
    with BackgroundServer(service, path=str(tmp_path / "s.sock")) as server:
        with repro.connect(server.target) as conn:
            for program in _mixed_history(base, 90):
                conn.apply(program)
            flags = [r.snapshot for r in conn.log()]
    loaded = load_store(directory)
    assert flags == [loaded.has_snapshot(k) for k in range(len(loaded))]
    assert [k for k, flag in enumerate(flags) if flag] == _snapshot_files(directory)


def test_memory_store_keeps_its_snapshots():
    """Nothing to reload from: every snapshot stays resident."""
    options = StoreOptions(snapshot_interval=2, materialize_cache=1)
    base = enterprise_base(n_employees=10, seed=7)
    store = VersionedStore(base, options=options)
    program = targeted_raise_program(_plain_employee(base))
    for _ in range(12):
        store.apply(program)
    assert all(r.snapshot is not None for r in store.revisions() if r.index % 2 == 0)
