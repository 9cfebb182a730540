"""Crash-recovery property suite.

For every injected crash point in a randomized commit history — on the
append path, the snapshot path, and all through a compaction rewrite —
reloading the journal yields exactly the acknowledged prefix:

* **no lost acknowledged commit** — every commit that returned is present
  after reload;
* **no resurrected garbage** — the reloaded chain is always a clean
  prefix of the submitted history (tag-for-tag, fact-for-fact); a torn,
  garbled or never-written record never surfaces as a revision.

A commit whose bytes were fully written before the crash but whose
acknowledgement never reached the caller (``crash_after``/``duplicate``)
is the classic in-doubt commit: it *may* legitimately survive — the suite
pins down that it is the only kind of unacknowledged commit that can,
and that it is byte-clean when it does.

All of it runs under both durability modes, and the append and snapshot
sweeps run twice: once through a bare store committing with a
:class:`~repro.storage.serialize.JournalWriter` as its ``journal=`` step
(the path a follower's commits take) and once through a journal-backed
``StoreService.apply``, the commit path a server runs.  Both write ahead,
so after every fault that leaves the journal at the acknowledged prefix
the writer's in-memory head is that prefix too.
"""

import random
import shutil

import pytest

from repro.core.engine import UpdateEngine
from repro.core.errors import ReproError
from repro.lang.parser import parse_program
from repro.server.errors import SessionError
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
from repro.testing import FaultSpec, FaultyFilesystem, InjectedCrash, inject_faults
from repro.workloads import paper_example_base

MODES = ["flush", "fsync"]
#: actions that must leave the journal at exactly the acknowledged prefix
LOSSY = ["crash_before", "torn", "corrupt", "enospc"]
#: actions where the commit's bytes are durable but the ack was lost
IN_DOUBT = ["crash_after", "duplicate"]

#: who commits: a bare store with a journal writer step, or a ``StoreService``
DRIVERS = ["store", "service"]

N_COMMITS = 9
SNAPSHOT_EVERY = 3  # dense, so the sweep crosses snapshot boundaries
#: the snapshot sweep's history: each raise weighs 3 against the 8-fact
#: base, so every candidate (3, 6, 9, 12) outweighs it and writes a file
SNAPSHOT_COMMITS = 12


def _program(step: int, rng: random.Random) -> str:
    who = rng.choice(["phil", "bob"])
    bump = rng.randrange(1, 9)
    return (
        f"s{step}: mod[{who}].sal -> (S, S2) <= {who}.sal -> S, S2 = S + {bump}."
    )


def _options():
    return StoreOptions(snapshot_interval=SNAPSHOT_EVERY)


def _history(seed: int, commits: int = N_COMMITS) -> list[str]:
    rng = random.Random(seed)
    return [_program(step, rng) for step in range(commits)]


def _commit(store, journal, text, tag):
    """Commit ``text`` on a bare store, written ahead by ``journal``."""
    program = parse_program(text)
    result = UpdateEngine().apply(program, store.current)
    store.commit_update(
        result.new_base, tag=tag, program_name=program.name,
        added=result.added, removed=result.removed,
        journal=lambda revisions: journal.commit(revisions)[1],
    )


def _grow(directory, programs, durability, specs, driver="store"):
    """Run the history against a journal until a fault kills the writer.

    Returns ``(acked, submitted, store)`` — the head index the caller saw
    acknowledged, the index of the commit in flight when the crash hit
    (equal when the whole history ran clean), and the writer's store.
    Every fault in ``specs`` must have fired: a sweep whose history never
    reaches its crash point would pass without testing anything.
    """
    if driver == "service":
        service = StoreService.create(
            paper_example_base(), directory, tag="initial",
            durability=durability, options=_options(),
        )
        store = service.store

        def commit(text, tag):
            service.apply(text, tag=tag)
    else:
        store = VersionedStore(paper_example_base(), tag="initial", options=_options())
        journal = JournalWriter(directory, durability)
        journal.create(store)

        def commit(text, tag):
            _commit(store, journal, text, tag)
    acked = submitted = 0
    with inject_faults(*specs) as filesystem:
        for step, text in enumerate(programs):
            try:
                commit(text, f"t{step}")
            except (InjectedCrash, OSError, SessionError):
                submitted = acked + 1
                break
            acked = submitted = store.head.index
    assert [spec for spec in specs if spec not in filesystem.fired] == []
    return acked, submitted, store


def _assert_head_is_durable(store, directory, acked):
    """A write-ahead writer publishes nothing a reload would not show."""
    reloaded = load_store(directory)
    assert store.head.index == len(reloaded) - 1 == acked
    assert set(store.current) == set(reloaded.current)


def _replay(programs, upto):
    store = VersionedStore(paper_example_base(), tag="initial", options=_options())
    for step, text in enumerate(programs[:upto]):
        store.apply(parse_program(text), tag=f"t{step}")
    return store


def _assert_clean_prefix(directory, programs, acked, submitted):
    journal = JournalWriter(directory)
    loaded = journal.open()
    head = len(loaded) - 1
    # 1. nothing acknowledged was lost
    assert head >= acked, f"acknowledged revision {acked} lost (head {head})"
    # 2. nothing beyond the in-flight commit was invented
    assert head <= submitted
    # 3. what survived is the genuine history, fact-for-fact
    replay = _replay(programs, head)
    assert [r.tag for r in loaded.revisions()] == [
        r.tag for r in replay.revisions()
    ]
    for index in range(head + 1):
        assert set(loaded.base_at(index)) == set(replay.base_at(index))
    # 4. the repaired journal audits clean and accepts appends again
    assert verify_journal(directory)["ok"] is True
    _commit(
        loaded, journal,
        "z: mod[phil].sal -> (S, S2) <= phil.sal -> S, S2 = S + 1.", "after",
    )
    assert len(load_store(directory)) == head + 2
    return head


@pytest.mark.parametrize("driver", DRIVERS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("action", LOSSY + IN_DOUBT)
def test_every_append_crash_point(tmp_path, mode, action, driver):
    durability = DurabilityOptions(mode=mode)
    for at in range(N_COMMITS):
        # keep_bytes=-1: the whole line but its newline (a CRC-valid record
        # that was never acknowledged)
        for keep in ([0, 1, 23, -1] if action == "torn" else [0]):
            directory = tmp_path / f"{action}-{at}-{keep}"
            programs = _history(seed=at * 31 + keep)
            spec = FaultSpec("append", action, at=at, keep_bytes=keep)
            acked, submitted, store = _grow(
                directory, programs, durability, [spec], driver
            )
            assert acked == at  # the fault hit exactly the at-th append
            if action in LOSSY:
                _assert_head_is_durable(store, directory, acked)
            head = _assert_clean_prefix(directory, programs, acked, submitted)
            if action in LOSSY:
                assert head == acked
            else:
                assert head == submitted  # fully-written in-doubt commit survives


@pytest.mark.parametrize("driver", DRIVERS)
@pytest.mark.parametrize("mode", MODES)
def test_snapshot_write_crash_points(tmp_path, mode, driver):
    # Snapshot files are written by the "write" op; killing each of them
    # (before the journal line lands) must cost at most the in-flight
    # commit, never a snapshot the durable journal references.
    durability = DurabilityOptions(mode=mode)
    for at in range(4):  # every snapshot write during growth
        for action in ["crash_before", "torn", "crash_after", "enospc"]:
            directory = tmp_path / f"snap-{action}-{at}"
            programs = _history(seed=at * 7, commits=SNAPSHOT_COMMITS)
            spec = FaultSpec(
                "write", action, at=at, keep_bytes=11, path_glob="snap-*.json"
            )
            acked, submitted, store = _grow(
                directory, programs, durability, [spec], driver
            )
            # the journal line was never written
            _assert_head_is_durable(store, directory, acked)
            head = _assert_clean_prefix(directory, programs, acked, submitted)
            if action != "crash_after":
                assert head == acked


@pytest.mark.parametrize("mode", MODES)
def test_every_compaction_crash_point(tmp_path, mode):
    durability = DurabilityOptions(mode=mode)
    programs = _history(seed=1234)
    pristine = tmp_path / "pristine"
    acked, _, _ = _grow(pristine, programs, durability, [])
    assert acked == N_COMMITS
    truth = load_store(pristine)

    # Count the I/O operations one compaction performs, then kill each.
    probe_dir = tmp_path / "probe"
    shutil.copytree(pristine, probe_dir)
    with inject_faults() as probe:
        compact_journal(probe_dir, snapshot_interval=4, durability=durability)
    operations = list(probe.ops)
    assert operations, "compaction did no I/O?"

    for at, (op, name) in enumerate(operations):
        seen_before = sum(1 for o, _ in operations[:at] if o == op)
        for action in ["crash_before", "crash_after"]:
            directory = tmp_path / f"compact-{at}-{action}"
            shutil.copytree(pristine, directory)
            spec = FaultSpec(op, action, at=seen_before)
            with inject_faults(spec) as fs:
                try:
                    compact_journal(
                        directory, snapshot_interval=4, durability=durability
                    )
                except InjectedCrash:
                    pass
            assert fs.fired, f"spec {op}@{seen_before} never fired"
            # However the compaction died, the journal still replays the
            # full acknowledged history, fact-for-fact.
            loaded = JournalWriter(directory).open()
            assert len(loaded) == len(truth)
            for index in range(len(truth)):
                assert set(loaded.base_at(index)) == set(truth.base_at(index))
            assert verify_journal(directory)["ok"] is True


def test_corrupt_mid_journal_is_reported_with_offset_and_line(tmp_path):
    programs = _history(seed=9)
    _grow(tmp_path, programs, DurabilityOptions(), [])
    journal = tmp_path / "journal.jsonl"
    lines = journal.read_text(encoding="utf-8").splitlines()
    # garble a line in the middle (not the tail: tails self-heal)
    victim = 4
    offset = sum(len(line) + 1 for line in lines[: victim - 1])
    lines[victim - 1] = "#" * len(lines[victim - 1])
    journal.write_text("\n".join(lines) + "\n", encoding="utf-8")

    from repro.storage import JournalCorruptError

    with pytest.raises(JournalCorruptError) as caught:
        JournalWriter(tmp_path).open()
    assert caught.value.line == victim
    assert caught.value.offset == offset
    assert f"line {victim}" in str(caught.value)
    assert f"byte offset {offset}" in str(caught.value)

    report = verify_journal(tmp_path)
    assert report["ok"] is False
    assert any(
        problem["line"] == victim and problem["offset"] == offset
        for problem in report["problems"]
    )


def test_bit_flip_is_caught_by_the_checksum(tmp_path):
    programs = _history(seed=5)
    _grow(tmp_path, programs, DurabilityOptions(), [])
    journal = tmp_path / "journal.jsonl"
    data = journal.read_bytes()
    # flip one digit inside a mid-journal record's salary payload: still
    # valid JSON, wrong bytes — only the CRC can catch it
    target = data.find(b'"result": 4', data.find(b'"index": 3'))
    assert target != -1
    flipped = data[: target + 11] + b"9" + data[target + 12 :]
    assert len(flipped) == len(data)
    journal.write_bytes(flipped)

    report = verify_journal(tmp_path)
    assert report["ok"] is False
    assert any("checksum mismatch" in p["error"] for p in report["problems"])

    from repro.storage import JournalCorruptError

    with pytest.raises(JournalCorruptError, match="checksum mismatch"):
        load_store(tmp_path)


def test_journals_without_checksums_still_load(tmp_path):
    # Journals written before the CRC field existed must stay readable.
    import json

    programs = _history(seed=3)
    _grow(tmp_path, programs, DurabilityOptions(), [])
    journal = tmp_path / "journal.jsonl"
    lines = journal.read_text(encoding="utf-8").splitlines()
    stripped = [lines[0]]
    for line in lines[1:]:
        record = json.loads(line)
        record.pop("crc", None)
        stripped.append(json.dumps(record, sort_keys=True))
    journal.write_text("\n".join(stripped) + "\n", encoding="utf-8")

    loaded = load_store(tmp_path)
    assert len(loaded) == N_COMMITS + 1
    report = verify_journal(tmp_path)
    assert report["ok"] is True
    assert report["unchecksummed"] == N_COMMITS + 1
    assert report["checksummed"] == 0


@pytest.mark.parametrize("mode", MODES)
def test_durability_modes_are_accepted(mode):
    assert DurabilityOptions(mode=mode).fsync is (mode == "fsync")


@pytest.mark.parametrize("mode", ["none", "FSYNC", "sync", ""])
def test_unknown_durability_mode_is_rejected(mode):
    with pytest.raises(ReproError, match="unknown durability mode"):
        DurabilityOptions(mode=mode)


def test_faultless_probe_filesystem_reports_operations(tmp_path):
    # The enumeration above trusts FaultyFilesystem's op log; pin its shape.
    store = VersionedStore(paper_example_base(), tag="initial", options=_options())
    with inject_faults() as fs:
        save_store(store, tmp_path)
    ops = [op for op, _ in fs.ops]
    assert "write" in ops and "replace" in ops


class TestVerifyReport:
    def test_missing_snapshot_is_flagged(self, tmp_path):
        programs = _history(seed=2)
        _grow(tmp_path, programs, DurabilityOptions(), [])
        victim = next(tmp_path.glob("snap-0000*.json"))
        victim.unlink()
        report = verify_journal(tmp_path)
        assert report["ok"] is False
        assert victim.name in report["missing_snapshots"]

    def test_clean_journal_reports_counts(self, tmp_path):
        programs = _history(seed=2)
        _grow(tmp_path, programs, DurabilityOptions(), [])
        report = verify_journal(tmp_path)
        assert report["ok"] is True
        assert report["revisions"] == N_COMMITS + 1
        assert report["checksummed"] == N_COMMITS + 1
        assert report["snapshots"] == len(list(tmp_path.glob("snap-*.json")))
        assert report["problems"] == []
