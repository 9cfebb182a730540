"""Tests for the delta-chain representation of the versioned store.

Covers the snapshot policy, O(deltas-since-snapshot) reconstruction, the
delta-composed ``diff``, structural sharing of frozen views, and the
equivalence of every snapshot interval with the every-revision-materialised
reference (``StoreOptions(snapshot_interval=1)``) over mixed
apply/commit/rollback chains.
"""

import pytest

from repro import query
from repro.storage import StoreOptions, VersionedStore
from repro.workloads import (
    paper_example_base,
    paper_example_program,
    salary_raise_program,
    targeted_raise_program,
)


def build_mixed_chain(options: StoreOptions) -> VersionedStore:
    """A chain exercising every commit kind: apply, rollback, commit_base."""
    store = VersionedStore(paper_example_base(), tag="initial", options=options)
    store.apply(paper_example_program(), tag="update")
    store.apply(salary_raise_program(), tag="raise")
    store.rollback_to("initial", tag="undo")
    store.apply(salary_raise_program(percent=5), tag="gentler")
    store.commit_base(paper_example_base(bob_salary=9999), tag="import")
    store.apply(targeted_raise_program("bob", percent=2), tag="bob-only")
    return store


class TestSnapshotPolicy:
    def test_revision_zero_always_snapshots(self):
        store = VersionedStore(paper_example_base())
        assert store.revisions()[0].snapshot is not None

    def test_interval_controls_materialization(self):
        store = build_mixed_chain(StoreOptions(snapshot_interval=3))
        snapshots = [
            r.index for r in store.revisions() if r.snapshot is not None
        ]
        assert snapshots == [0, 3, 6]

    def test_full_copy_snapshots_everywhere(self):
        store = build_mixed_chain(StoreOptions(snapshot_interval=1))
        assert all(r.snapshot is not None for r in store.revisions())

    def test_interval_must_be_positive(self):
        from repro.core.errors import ReproError

        with pytest.raises(ReproError):
            StoreOptions(snapshot_interval=0)


class TestReconstruction:
    @pytest.mark.parametrize("interval", [1, 2, 3, 100])
    def test_every_revision_reconstructs_identically(self, interval):
        reference = build_mixed_chain(StoreOptions(snapshot_interval=1))
        store = build_mixed_chain(StoreOptions(snapshot_interval=interval))
        for index in range(len(store)):
            assert set(store.base_at(index)) == set(reference.base_at(index)), index

    def test_as_of_returns_frozen_shared_view(self):
        store = build_mixed_chain(StoreOptions(snapshot_interval=3))
        view = store.as_of("update")
        assert view.frozen
        # repeated reads share the materialized view (cache hit)
        assert store.as_of("update") is view

    def test_head_is_not_recomputed(self):
        store = build_mixed_chain(StoreOptions(snapshot_interval=100))
        assert store.current is store.base_at(len(store) - 1)

    def test_revision_base_property(self):
        store = build_mixed_chain(StoreOptions(snapshot_interval=3))
        revision = store.revisions()[2]
        assert revision.snapshot is None
        assert query(revision.base, "phil.sal -> S")  # reconstructed via store


class TestDeltaDiff:
    def test_diff_equals_set_difference_of_endpoints(self):
        store = build_mixed_chain(StoreOptions(snapshot_interval=3))
        for older in range(len(store)):
            for newer in range(len(store)):
                added, removed = store.diff(older, newer, include_exists=True)
                old_facts = set(store.base_at(older))
                new_facts = set(store.base_at(newer))
                assert added == new_facts - old_facts
                assert removed == old_facts - new_facts

    def test_intermediate_changes_cancel(self):
        store = VersionedStore(paper_example_base(), tag="initial")
        store.apply(salary_raise_program(), tag="raise")
        store.rollback_to("initial", tag="undo")
        added, removed = store.diff("initial", "undo", include_exists=True)
        assert added == frozenset() and removed == frozenset()

    def test_include_exists_filter_semantics(self):
        store = VersionedStore(paper_example_base(), tag="initial")
        store.apply(paper_example_program(), tag="update")
        added, removed = store.diff("initial", "update")
        assert all(f.method != "exists" for f in added | removed)
        _added, removed_with = store.diff("initial", "update", include_exists=True)
        assert any(f.method == "exists" for f in removed_with)


class TestStructuralSharing:
    def test_delta_chain_stores_orders_of_magnitude_fewer_entries(self):
        from repro.workloads import enterprise_base

        base = enterprise_base(n_employees=40, seed=21)
        delta = VersionedStore(base, options=StoreOptions(snapshot_interval=64))
        full = VersionedStore(base, options=StoreOptions(snapshot_interval=1))
        program = targeted_raise_program("emp0", percent=1)
        for index in range(30):
            delta.apply(program, tag=f"r{index}")
            full.apply(program, tag=f"r{index}")
        assert set(delta.current) == set(full.current)
        assert delta.stored_entries() * 5 < full.stored_entries()

    def test_engine_new_base_is_committed_without_copy(self):
        store = VersionedStore(paper_example_base(), tag="initial")
        result = store.apply(paper_example_program(), tag="update")
        assert result.new_base is store.current
        assert result.new_base.frozen

    def test_reconstruction_shares_fact_objects_with_the_snapshot(self):
        store = VersionedStore(
            paper_example_base(),
            tag="initial",
            options=StoreOptions(snapshot_interval=100),
        )
        program = targeted_raise_program("bob", percent=1)
        store.apply(program, tag="r1")
        store.apply(program, tag="r2")
        snapshot = store.revisions()[0].snapshot
        untouched = next(f for f in snapshot if str(f) == "phil.sal -> 4000")
        view = store.as_of("r1")  # snapshot ⊕ delta, not a fact-by-fact copy
        shared = next(f for f in view if str(f) == "phil.sal -> 4000")
        assert untouched is shared  # same Fact object, not an equal copy
