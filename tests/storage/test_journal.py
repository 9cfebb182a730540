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
from repro.server.service import StoreService
from repro.storage import (
    DurabilityOptions,
    JournalWriter,
    StoreOptions,
    VersionedStore,
    compact_journal,
    load_store,
    save_store,
    verify_journal,
)
from repro.storage import serialize
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

    def test_a_commit_appends_incrementally(self, tmp_path):
        service = StoreService.create(paper_example_base(), tmp_path)
        before = (tmp_path / JOURNAL_FILE).read_text(encoding="utf-8")
        service.apply(salary_raise_program(), tag="raise")
        after = (tmp_path / JOURNAL_FILE).read_text(encoding="utf-8")
        assert after.startswith(before)  # history was not rewritten
        assert_same_chain(service.store, load_store(tmp_path))

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
        service = StoreService(
            VersionedStore(paper_example_base()),
            journal=JournalWriter(tmp_path / "missing"),
        )
        with pytest.raises(ReproError, match="no journal"):
            service.apply(salary_raise_program())


class TestJournalSafety:
    def test_append_detects_concurrent_writer(self, tmp_path):
        first = StoreService.create(paper_example_base(), tmp_path)
        second = StoreService.open(tmp_path)
        first.apply(salary_raise_program(), tag="mine")
        with pytest.raises(ReproError, match="concurrent"):
            second.apply(salary_raise_program(), tag="theirs")  # would fork
        # the journal stayed readable and holds the first writer's chain
        assert [r.tag for r in load_store(tmp_path).revisions()] == [
            "initial", "mine",
        ]

    @pytest.mark.parametrize("mode", ["flush", "fsync"])
    def test_a_tail_repair_is_written_under_the_writers_durability(
        self, tmp_path, monkeypatch, mode
    ):
        service = StoreService.create(paper_example_base(), tmp_path)
        service.apply(salary_raise_program(), tag="raise")
        journal = tmp_path / JOURNAL_FILE
        journal.write_bytes(journal.read_bytes() + b'{"index": 2, "ta')
        writes = []
        write_text = serialize._fs.write_text

        def recording(path, text, *, fsync=False):
            writes.append((path.name, fsync))
            write_text(path, text, fsync=fsync)

        monkeypatch.setattr(serialize._fs, "write_text", recording)
        durability = DurabilityOptions(mode)
        reopened = StoreService.open(tmp_path, durability=durability)
        assert writes == [(JOURNAL_FILE, mode == "fsync")]
        assert reopened.store.head.tag == "raise"
        assert load_store(tmp_path).head.tag == "raise"  # the cut is on disk
        writes.clear()
        load_store(tmp_path)
        assert writes == []  # a reader never writes

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
        service = StoreService(store, journal=JournalWriter(tmp_path))
        reads.clear()
        service.apply(program, tag="next")
        assert 0 < sum(reads[JOURNAL_FILE]) <= 16 * 1024
        assert load_store(tmp_path).head.tag == "next"

    def test_followers_receive_the_appended_entry(self, tmp_path, reads):
        from repro.server.stream import attach

        directory = tmp_path / "primary"
        service = StoreService.create(
            paper_example_base(),
            directory,
            options=StoreOptions(snapshot_interval=2),
        )
        received: tuple[list, list] = ([], [])
        detaches = [
            attach(service, pushes.append, from_index=1)[0]
            for pushes in received
        ]
        # each raise weighs 3 against an 8-fact base: candidate 2 (weight
        # 6) gets no file, candidate 4 (weight 12) does
        for tag in ("one", "two", "three", "four"):
            service.apply(self.RAISE, tag=tag)
        for detach in detaches:
            detach()
        assert not [name for name in reads if name.startswith("snap-")]
        assert sorted(path.name for path in directory.glob("snap-*.json")) == [
            "snap-000000.json", "snap-000004.json",
        ]
        appended = (directory / JOURNAL_FILE).read_text().splitlines()[-4:]
        snapshot = (directory / "snap-000004.json").read_text()
        for pushes in received:
            assert [push["line"] for push in pushes] == appended
            assert [push["index"] for push in pushes] == [1, 2, 3, 4]
            assert [push["snapshot"] for push in pushes[:3]] == [None] * 3
            assert pushes[3]["snapshot"] == {
                "name": "snap-000004.json", "content": snapshot,
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
