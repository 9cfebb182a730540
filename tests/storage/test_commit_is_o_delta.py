"""A commit costs its delta — counted, not timed.

The two base-sized costs a commit used to pay leave fingerprints that do
not depend on the machine: re-hosting every final version constructs one
:class:`Fact` per fact of the base, and a head that is not born indexed
runs ``ObjectBase._build_indexes`` on its first read.  With counters around
both, a two-fact raise must do the same work on a 200- and on a
2 000-employee store, and build no index — not in the commit, not in the
read that follows it.  The last test pins the memory side: a long-lived
journal-backed service keeps a bounded number of snapshot bases resident.
"""

import pytest

import repro
from repro.core.facts import Fact
from repro.core.objectbase import ObjectBase
from repro.server.service import StoreService
from repro.storage import StoreOptions, VersionedStore
from repro.workloads import enterprise_base, targeted_raise_program


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


def test_commit_update_without_a_delta_still_finds_it():
    """The rare callers that hold no delta get it by comparison; the
    revision is the same either way."""
    base = enterprise_base(n_employees=50, seed=7)
    handed, compared = VersionedStore(base), VersionedStore(base)
    program = targeted_raise_program(_plain_employee(base))
    handed.apply(program)
    compared.commit_update(
        compared.engine.apply(program, compared.current).new_base,
        program_name=program.name,
    )
    assert handed.head == compared.head


def test_journal_backed_service_bounds_resident_snapshots(tmp_path):
    options = StoreOptions(snapshot_interval=4, materialize_cache=2)
    base = enterprise_base(n_employees=30, seed=7)
    service = StoreService.create(base, tmp_path / "journal", options=options)
    program = targeted_raise_program(_plain_employee(base))
    for _ in range(100):
        service.apply(program)
    store = service.store
    snapshots = [r.index for r in store.revisions() if store.has_snapshot(r.index)]
    assert snapshots == list(range(0, 101, 4))  # the policy is unchanged
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
    with repro.connect(service) as conn:  # log() still marks every snapshot
        assert [r.snapshot for r in conn.log()] == [
            r.index % 4 == 0 for r in store.revisions()
        ]


def test_memory_store_keeps_its_snapshots():
    """Nothing to reload from: every snapshot stays resident."""
    options = StoreOptions(snapshot_interval=2, materialize_cache=1)
    base = enterprise_base(n_employees=10, seed=7)
    store = VersionedStore(base, options=options)
    program = targeted_raise_program(_plain_employee(base))
    for _ in range(12):
        store.apply(program)
    assert all(r.snapshot is not None for r in store.revisions() if r.index % 2 == 0)
