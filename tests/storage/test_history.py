"""Tests for the versioned store (revision chain, as-of, diff)."""

import sys
import threading

import pytest

from repro import query
from repro.core.errors import FrozenBaseError, ReproError
from repro.storage import StoreOptions, VersionedStore
from repro.storage.history import DEFAULT_ENGINE
from repro.workloads import paper_example_base, paper_example_program, salary_raise_program


@pytest.fixture()
def store():
    return VersionedStore(paper_example_base(), tag="initial")


class TestRevisions:
    def test_revisions_from_an_index_are_the_chain_suffix(self, store):
        for tag in ("one", "two", "three"):
            store.apply(salary_raise_program(), tag=tag)
        for start in range(len(store) + 2):
            assert store.revisions(start) == store.revisions()[start:]

    def test_initial_revision(self, store):
        assert len(store) == 1
        assert store.head.tag == "initial"
        assert store.head.program_name is None

    def test_apply_appends(self, store):
        store.apply(paper_example_program(), tag="update")
        assert len(store) == 2
        assert store.head.tag == "update"
        assert store.head.program_name == "enterprise-update"

    def test_auto_tags(self, store):
        store.apply(salary_raise_program())
        assert store.head.tag == "rev1"

    def test_as_of_by_tag_and_index(self, store):
        store.apply(paper_example_program(), tag="update")
        assert query(store.as_of("initial"), "phil.sal -> S") == [{"S": 4000}]
        assert query(store.as_of(0), "bob.isa -> empl") == [{}]
        assert query(store.as_of(1), "bob.isa -> empl") == []

    def test_unknown_revision(self, store):
        with pytest.raises(ReproError):
            store.as_of("nope")
        with pytest.raises(ReproError):
            store.as_of(7)

    def test_current_is_a_frozen_shared_view(self, store):
        snapshot = store.current
        assert snapshot is store.current  # no copy-on-read
        with pytest.raises(FrozenBaseError):
            snapshot.add_object("intruder")
        assert "intruder" not in {str(o) for o in store.current.objects()}

    def test_current_copy_is_private_and_mutable(self, store):
        private = store.current.copy()
        private.add_object("intruder")
        assert "intruder" not in {str(o) for o in store.current.objects()}

    def test_commit_external_base(self, store):
        external = paper_example_base(bob_salary=9999)
        revision = store.commit_base(external, tag="import")
        assert revision.index == 1
        assert query(store.current, "bob.sal -> S") == [{"S": 9999}]


class TestAtomicity:
    def test_failed_update_leaves_store_untouched(self, store):
        from repro import parse_program

        bad = parse_program(
            """
            m: mod[o].m -> (a, b) <= o.trigger -> yes.
            d: del[o].m -> a <= o.trigger -> yes.
            """
        )
        store.commit_base(
            __import__("repro").parse_object_base("o.m -> a. o.trigger -> yes."),
            tag="staged",
        )
        with pytest.raises(ReproError):
            store.apply(bad, tag="boom")
        assert store.head.tag == "staged"
        assert len(store) == 2


class TestDiff:
    def test_diff_directions(self, store):
        store.apply(paper_example_program(), tag="update")
        added, removed = store.diff("initial", "update")
        added_text = {str(f) for f in added}
        removed_text = {str(f) for f in removed}
        assert "phil.isa -> hpe" in added_text
        assert "phil.sal -> 4000" in removed_text
        assert "bob.isa -> empl" in removed_text

    def test_diff_excludes_exists_by_default(self, store):
        store.apply(paper_example_program(), tag="update")
        added, removed = store.diff("initial", "update")
        assert all(f.method != "exists" for f in added | removed)
        _added, removed_with = store.diff("initial", "update", include_exists=True)
        assert any(f.method == "exists" for f in removed_with)  # bob vanished


class TestNegativeIndexes:
    def test_negative_revision_references_are_rejected(self, store):
        store.apply(salary_raise_program(), tag="raise")
        with pytest.raises(ReproError):
            store.as_of(-1)
        with pytest.raises(ReproError):
            store.diff(-1, 1)
        with pytest.raises(ReproError):
            store.rollback_to(-2)


class TestCommitListeners:
    def test_listener_sees_every_commit_with_exact_delta(self, store):
        seen = []
        store.add_commit_listener(lambda revision, parent: seen.append(revision))
        store.apply(salary_raise_program(), tag="raise")
        assert [r.tag for r in seen] == ["raise"]
        assert seen[0].index == 1
        assert {str(f) for f in seen[0].removed} >= {"phil.sal -> 4000"}
        store.remove_commit_listener(seen.append)  # never registered: no-op
        store.remove_commit_listener(seen[0])  # unknown listener: no-op

    def test_every_call_carries_the_parent_base(self, store):
        """Each listener call is ``(revision, parent)``, the parent being
        the base the revision was committed over — inside a batch too."""
        calls = []
        store.add_commit_listener(lambda *args: calls.append(args))
        store.apply(salary_raise_program(), tag="raise")
        batch, base = [], store.current
        for tag in ("b0", "b1"):
            base = DEFAULT_ENGINE.apply(salary_raise_program(), base).new_base
            batch.append((base, None, None, tag, None))
        store.commit_updates(batch)
        store.commit_base(paper_example_base(), tag="reset")
        store.rollback_to("raise")
        assert [args[0].tag for args in calls] == [
            "raise", "b0", "b1", "reset", "rollback-to-raise",
        ]
        for revision, parent in calls:
            assert set(parent) == set(store.base_at(revision.index - 1))

    def test_removed_listener_stops_firing(self, store):
        seen = []
        listener = store.add_commit_listener(lambda revision, parent: seen.append(revision))
        store.apply(salary_raise_program(), tag="one")
        store.remove_commit_listener(listener)
        store.apply(salary_raise_program(), tag="two")
        assert [r.tag for r in seen] == ["one"]


class TestConcurrentReads:
    def test_cold_reads_from_many_threads_share_the_cache_safely(self):
        """Reconstructed revisions enter and leave the one-entry cache from
        eight threads at once; before the cache's insert and eviction took
        the store's lock, most threads died in the eviction with
        ``RuntimeError: dictionary changed size during iteration`` or a
        ``KeyError``."""
        store = VersionedStore(
            paper_example_base(), tag="initial",
            options=StoreOptions(materialize_cache=1),
        )
        for index in range(29):
            store.apply(salary_raise_program(), tag=f"r{index}")
        expected = {index: store.base_at(index) for index in range(30)}
        errors: list[BaseException] = []

        def reader(offset: int) -> None:
            try:
                for step in range(5_000):
                    index = 1 + (offset + step) % 29
                    assert store.base_at(index) == expected[index]
            except BaseException as error:
                errors.append(error)

        threads = [threading.Thread(target=reader, args=(n,)) for n in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []


class TestJournalCompactionInterleaving:
    """Satellite: compaction interleaved with journalled commits must
    round-trip (compact → append → reload), and a torn tail line is
    recovered on load."""

    @staticmethod
    def _journal_store(tmp_path, revisions=5, interval=2):
        from repro.storage import StoreOptions, save_store

        store = VersionedStore(
            paper_example_base(),
            tag="initial",
            options=StoreOptions(snapshot_interval=interval),
        )
        for index in range(revisions):
            store.apply(salary_raise_program(), tag=f"r{index}")
        save_store(store, tmp_path)
        return store

    def test_compact_then_append_then_reload(self, tmp_path):
        from repro.server.service import StoreService
        from repro.storage import JournalWriter, compact_journal, load_store

        self._journal_store(tmp_path, revisions=5, interval=2)
        compacted = compact_journal(tmp_path, snapshot_interval=4)
        # append onto the *compacted* store/journal, then reload
        StoreService(compacted, journal=JournalWriter(tmp_path)).apply(
            salary_raise_program(), tag="after-compact"
        )
        reloaded = load_store(tmp_path)
        assert len(reloaded) == 7
        assert reloaded.head.tag == "after-compact"
        assert reloaded.options.snapshot_interval == 4
        for index in range(len(reloaded)):
            assert set(reloaded.base_at(index)) == set(compacted.base_at(index))
        # a second compact+append cycle keeps working
        twice = compact_journal(tmp_path, snapshot_interval=3)
        StoreService(twice, journal=JournalWriter(tmp_path)).apply(
            salary_raise_program(), tag="again"
        )
        assert load_store(tmp_path).head.tag == "again"

    def test_truncated_tail_line_is_recovered_on_load(self, tmp_path):
        from repro.server.service import StoreService
        from repro.storage import JournalWriter, load_store
        from repro.storage.serialize import JOURNAL_FILE

        store = self._journal_store(tmp_path, revisions=3)
        journal = tmp_path / JOURNAL_FILE
        intact = journal.read_text(encoding="utf-8")
        torn = intact.splitlines()
        # simulate a crash mid-append: the final line is cut short
        journal.write_text(
            "\n".join(torn[:-1]) + "\n" + torn[-1][: len(torn[-1]) // 2],
            encoding="utf-8",
        )
        torn_bytes = journal.read_bytes()
        readonly = load_store(tmp_path)
        assert len(readonly) == 3  # the torn revision never became durable
        assert readonly.head.tag == "r1"
        # a read-only load recovers in memory but must not touch the file
        assert journal.read_bytes() == torn_bytes
        # the journal's writer truncates, so appending lines up again
        writer = JournalWriter(tmp_path)
        recovered = writer.open()
        assert journal.read_bytes() != torn_bytes
        for index in range(len(recovered)):
            assert set(recovered.base_at(index)) == set(store.base_at(index))
        StoreService(recovered, journal=writer).apply(
            salary_raise_program(), tag="recovered"
        )
        reloaded = load_store(tmp_path)
        assert [r.tag for r in reloaded.revisions()] == [
            "initial", "r0", "r1", "recovered",
        ]

    def test_mid_journal_corruption_is_a_clean_error(self, tmp_path):
        from repro.storage import load_store
        from repro.storage.serialize import JOURNAL_FILE

        self._journal_store(tmp_path, revisions=3)
        journal = tmp_path / JOURNAL_FILE
        lines = journal.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2][:10]  # corrupt a non-final line
        journal.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ReproError, match="corrupt at line 3"):
            load_store(tmp_path)

    def test_append_on_torn_journal_is_a_clean_error(self, tmp_path):
        from repro.server.service import StoreService
        from repro.storage import JournalWriter
        from repro.storage.serialize import JOURNAL_FILE

        store = self._journal_store(tmp_path, revisions=2)
        journal = tmp_path / JOURNAL_FILE
        journal.write_text(
            journal.read_text(encoding="utf-8")[:-20], encoding="utf-8"
        )
        service = StoreService(store, journal=JournalWriter(tmp_path))
        with pytest.raises(ReproError, match="torn line"):
            service.apply(salary_raise_program(), tag="next")

    def test_write_onto_a_torn_tail_raises_the_typed_refusal(self, tmp_path):
        from repro.storage.serialize import (
            JOURNAL_FILE,
            JournalWriter,
            TornJournalError,
        )

        self._journal_store(tmp_path, revisions=2)
        journal = tmp_path / JOURNAL_FILE
        journal.write_bytes(journal.read_bytes() + b'{"index": 3, "ta')
        torn = journal.read_bytes()
        with pytest.raises(TornJournalError, match="ends in a torn line"):
            JournalWriter(tmp_path).append([{"index": 3, "line": "{}"}])
        assert journal.read_bytes() == torn

    def test_missing_snapshot_file_is_a_clean_error(self, tmp_path):
        from repro.storage import load_store

        self._journal_store(tmp_path, revisions=3, interval=2)
        (tmp_path / "snap-000002.json").unlink()
        recovered = load_store(tmp_path)
        with pytest.raises(ReproError, match="snapshot .* is missing"):
            recovered.base_at(2)
