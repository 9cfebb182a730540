"""Tests for the durable store journal (JSONL delta log + snapshots).

Includes the satellite property tests: a journal save→load round-trips an
N-revision chain (same facts at every revision, same tags), and
rollback-then-apply chains behave identically over the delta representation
and after a disk round-trip.
"""

import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ReproError
from repro.core.query import result_value
from repro.lang.parser import parse_program
from repro.storage import (
    StoreOptions,
    VersionedStore,
    append_revision,
    compact_journal,
    load_store,
    save_store,
    verify_journal,
)
from repro.storage.serialize import JOURNAL_FILE
from repro.workloads import (
    paper_example_base,
    paper_example_program,
    salary_raise_program,
    targeted_raise_program,
)


def assert_same_chain(left: VersionedStore, right: VersionedStore) -> None:
    assert len(left) == len(right)
    for a, b in zip(left.revisions(), right.revisions()):
        assert a.index == b.index
        assert a.tag == b.tag
        assert a.program_name == b.program_name
        assert a.added == b.added
        assert a.removed == b.removed
        assert set(left.base_at(a.index)) == set(right.base_at(b.index))


class TestJournalRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        store = VersionedStore(paper_example_base(), tag="initial")
        store.apply(paper_example_program(), tag="update")
        store.apply(salary_raise_program(), tag="raise")
        save_store(store, tmp_path)
        assert_same_chain(store, load_store(tmp_path))

    def test_loaded_store_continues_the_chain(self, tmp_path):
        store = VersionedStore(paper_example_base(), tag="initial")
        store.apply(salary_raise_program(), tag="raise")
        save_store(store, tmp_path)
        loaded = load_store(tmp_path)
        loaded.apply(salary_raise_program(), tag="again")
        store.apply(salary_raise_program(), tag="again")
        assert set(loaded.current) == set(store.current)

    def test_append_revision_is_incremental(self, tmp_path):
        store = VersionedStore(paper_example_base(), tag="initial")
        save_store(store, tmp_path)
        before = (tmp_path / JOURNAL_FILE).read_text(encoding="utf-8")
        store.apply(salary_raise_program(), tag="raise")
        append_revision(store, tmp_path)
        after = (tmp_path / JOURNAL_FILE).read_text(encoding="utf-8")
        assert after.startswith(before)  # history was not rewritten
        assert_same_chain(store, load_store(tmp_path))

    def test_options_round_trip(self, tmp_path):
        store = VersionedStore(
            paper_example_base(),
            options=StoreOptions(snapshot_interval=7),
        )
        save_store(store, tmp_path)
        loaded = load_store(tmp_path)
        assert loaded.options.snapshot_interval == 7

    def test_journal_guards(self, tmp_path):
        with pytest.raises(ReproError):
            load_store(tmp_path)
        (tmp_path / JOURNAL_FILE).write_text(
            json.dumps({"format": "something-else"}) + "\n", encoding="utf-8"
        )
        with pytest.raises(ReproError):
            load_store(tmp_path)
        with pytest.raises(ReproError):
            append_revision(
                VersionedStore(paper_example_base()), tmp_path / "missing"
            )


class TestJournalSafety:
    def test_append_detects_concurrent_writer(self, tmp_path):
        first = VersionedStore(paper_example_base(), tag="initial")
        save_store(first, tmp_path)
        second = load_store(tmp_path)
        first.apply(salary_raise_program(), tag="mine")
        append_revision(first, tmp_path)
        second.apply(salary_raise_program(), tag="theirs")
        with pytest.raises(ReproError, match="concurrent"):
            append_revision(second, tmp_path)  # would fork the chain
        # the journal stayed readable and holds the first writer's chain
        assert [r.tag for r in load_store(tmp_path).revisions()] == [
            "initial", "mine",
        ]

    def test_all_digit_tags_are_rejected(self):
        store = VersionedStore(paper_example_base(), tag="initial")
        with pytest.raises(ReproError, match="all digits"):
            store.apply(salary_raise_program(), tag="2024")
        assert len(store) == 1  # nothing committed

    def test_log_level_access_skips_snapshot_parsing(self, tmp_path):
        store = VersionedStore(
            paper_example_base(), options=StoreOptions(snapshot_interval=2)
        )
        for index in range(4):
            store.apply(salary_raise_program(), tag=f"r{index}")
        save_store(store, tmp_path)
        # corrupt a non-initial snapshot: metadata reads must not touch it
        (tmp_path / "snap-000004.json").write_text("garbage", encoding="utf-8")
        loaded = load_store(tmp_path)
        assert [r.tag for r in loaded.revisions()] == [
            "initial", "r0", "r1", "r2", "r3",
        ]
        assert loaded.has_snapshot(4)
        assert set(loaded.base_at(1)) == set(store.base_at(1))  # via snap 0
        with pytest.raises(Exception):
            loaded.base_at(4)  # only now is the corrupt snapshot parsed


class _CountingReader:
    """A file handle that records the size of everything read through it."""

    def __init__(self, handle, sizes: list[int]):
        self._handle = handle
        self._sizes = sizes

    def read(self, *args):
        data = self._handle.read(*args)
        self._sizes.append(len(data))
        return data

    def __next__(self):
        line = next(self._handle)
        self._sizes.append(len(line))
        return line

    def __iter__(self):
        return self

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()


@pytest.fixture()
def reads(monkeypatch) -> dict[str, list[int]]:
    """File name → sizes of the reads made through ``Path.open`` while the
    test runs (write and append opens are not recorded)."""
    opened: dict[str, list[int]] = {}
    real_open = Path.open

    def counting_open(self, mode="r", *args, **kwargs):
        handle = real_open(self, mode, *args, **kwargs)
        if any(flag in mode for flag in "wax+"):
            return handle
        return _CountingReader(handle, opened.setdefault(self.name, []))

    monkeypatch.setattr(Path, "open", counting_open)
    return opened


class TestWritePath:
    RAISE = "r: mod[phil].sal -> (S, S2) <= phil.sal -> S, S2 = S + 1."

    def test_append_reads_only_the_journal_tail(self, tmp_path, reads):
        store = VersionedStore(
            paper_example_base(),
            tag="initial",
            options=StoreOptions(snapshot_interval=10_000),
        )
        program = parse_program(self.RAISE)
        for index in range(2_000):
            store.apply(program, tag=f"r{index}")
        save_store(store, tmp_path)
        assert (tmp_path / JOURNAL_FILE).stat().st_size > 400_000
        store.apply(program, tag="next")
        reads.clear()
        append_revision(store, tmp_path)
        assert 0 < sum(reads[JOURNAL_FILE]) <= 16 * 1024
        assert load_store(tmp_path).head.tag == "next"

    def test_followers_receive_the_appended_entry(self, tmp_path, reads):
        from repro.replication import hub_for
        from repro.server.service import StoreService

        directory = tmp_path / "primary"
        service = StoreService.create(
            paper_example_base(),
            directory,
            options=StoreOptions(snapshot_interval=2),
        )
        hub = hub_for(service)
        received: tuple[list, list] = ([], [])
        detaches = [
            hub.attach(pushes.append, from_index=1)[0] for pushes in received
        ]
        service.apply(self.RAISE, tag="one")
        service.apply(self.RAISE, tag="two")  # revision 2: a snapshot
        for detach in detaches:
            detach()
        assert not [name for name in reads if name.startswith("snap-")]
        appended = (directory / JOURNAL_FILE).read_text().splitlines()[-2:]
        snapshot = (directory / "snap-000002.json").read_text()
        for pushes in received:
            assert [push["line"] for push in pushes] == appended
            assert [push["index"] for push in pushes] == [1, 2]
            assert pushes[0]["snapshot"] is None
            assert pushes[1]["snapshot"] == {
                "name": "snap-000002.json", "content": snapshot,
            }


class TestCompaction:
    def test_compact_reduces_snapshots_and_preserves_facts(self, tmp_path):
        store = VersionedStore(
            paper_example_base(), options=StoreOptions(snapshot_interval=1)
        )
        program = targeted_raise_program("bob", percent=1)
        for index in range(6):
            store.apply(program, tag=f"r{index}")
        save_store(store, tmp_path)
        assert len(list(tmp_path.glob("snap-*.json"))) == 7

        compact_journal(tmp_path, snapshot_interval=4)
        compacted = load_store(tmp_path)
        assert len(list(tmp_path.glob("snap-*.json"))) == 2  # revisions 0 and 4
        assert compacted.options.snapshot_interval == 4
        for index in range(len(store)):
            assert set(compacted.base_at(index)) == set(store.base_at(index))
        assert [r.tag for r in compacted.revisions()] == [
            r.tag for r in store.revisions()
        ]


class TestJournalsWrittenBeforeTheFullCopyStoreWasRemoved:
    """Journals are outside input: the header's retired ``delta_chain`` key
    stays readable.  The fixtures were written by the last commit that had
    the option (``store init --snapshot-interval 2`` / ``--full-copy``, then
    the Figure 2 program and two raises of phil)."""

    FIXTURES = Path(__file__).parent / "fixtures"

    @pytest.mark.parametrize(
        "fixture, interval",
        [("journal_delta_chain_true", 2), ("journal_delta_chain_false", 1)],
    )
    def test_loads_answers_every_revision_and_resaves_without_the_key(
        self, tmp_path, fixture, interval
    ):
        directory = tmp_path / "journal"
        shutil.copytree(self.FIXTURES / fixture, directory)
        before = (directory / JOURNAL_FILE).read_text(encoding="utf-8")
        assert '"delta_chain"' in before.splitlines()[0]
        snapshots = {p.name: p.read_bytes() for p in directory.glob("snap-*")}

        store = load_store(directory)
        assert store.options == StoreOptions(snapshot_interval=interval)
        assert verify_journal(directory)["ok"]
        salaries = [4000, 4600.0, 4601.0, 4602.0]
        for index, salary in enumerate(salaries):
            base = store.as_of(index)
            assert result_value(base, "phil", "sal") == salary
            assert (result_value(base, "bob", "sal") is None) == (index > 0)

        save_store(store, directory)
        after = (directory / JOURNAL_FILE).read_text(encoding="utf-8")
        assert json.loads(after.splitlines()[0])["options"] == {
            "snapshot_interval": interval
        }
        assert after.splitlines()[1:] == before.splitlines()[1:]
        assert snapshots == {
            p.name: p.read_bytes() for p in directory.glob("snap-*")
        }
        assert_same_chain(store, load_store(directory))


# -- property tests ------------------------------------------------------

#: One step of a random store history: apply one of two programs, roll back
#: to a random earlier revision, or both in sequence.
steps = st.lists(
    st.one_of(
        st.tuples(st.just("apply"), st.integers(0, 1)),
        st.tuples(st.just("rollback"), st.integers(0, 100)),
    ),
    min_size=1,
    max_size=6,
)
intervals = st.sampled_from([1, 2, 3, 100])

PROGRAMS = (
    salary_raise_program(percent=10),
    targeted_raise_program("bob", percent=3),
)


def run_history(steps_taken, interval) -> VersionedStore:
    store = VersionedStore(
        paper_example_base(),
        tag="initial",
        options=StoreOptions(snapshot_interval=interval),
    )
    for number, (kind, argument) in enumerate(steps_taken):
        if kind == "apply":
            store.apply(PROGRAMS[argument], tag=f"step{number}")
        else:
            store.rollback_to(argument % len(store), tag=f"step{number}")
    return store


@settings(max_examples=25, deadline=None)
@given(steps, intervals)
def test_journal_round_trips_any_chain(tmp_path_factory, steps_taken, interval):
    """Save→load preserves every revision's facts, tags and deltas."""
    tmp_path = tmp_path_factory.mktemp("journal")
    store = run_history(steps_taken, interval)
    save_store(store, tmp_path)
    assert_same_chain(store, load_store(tmp_path))


@settings(max_examples=25, deadline=None)
@given(steps, intervals)
def test_rollback_then_apply_chains_match_full_copy(steps_taken, interval):
    """Every snapshot interval agrees with the every-revision-materialised
    reference (interval 1: nothing is ever reconstructed from deltas) on
    arbitrary rollback-then-apply histories, at every revision."""
    delta = run_history(steps_taken, interval)
    reference = run_history(steps_taken, 1)
    assert all(r.snapshot is not None for r in reference.revisions())
    for index in range(len(delta)):
        assert set(delta.base_at(index)) == set(reference.base_at(index))
