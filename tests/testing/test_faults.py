"""The fault harness itself: byte-exact injections, seam restoration."""

import errno

import pytest

from repro.core.engine import UpdateEngine
from repro.lang.parser import parse_program
from repro.storage import (
    DurabilityOptions, JournalWriter, VersionedStore, load_store, save_store,
)
from repro.storage import serialize
from repro.storage.serialize import JOURNAL_FILE
from repro.testing import FaultSpec, InjectedCrash, inject_faults
from repro.workloads import paper_example_base


def _store():
    return VersionedStore(paper_example_base(), tag="initial")


def _raise(step: int) -> str:
    return (
        f"s{step}: mod[phil].sal -> (S, S2) <= phil.sal -> S, S2 = S + 1."
    )


def _commit(store, writer, step: int) -> None:
    """Commit raise ``step`` write-ahead: ``writer`` makes it durable before
    ``store`` publishes it, and a failed write publishes nothing."""
    program = parse_program(_raise(step))
    result = UpdateEngine().apply(program, store.current)
    store.commit_update(
        result.new_base, tag=f"t{step}", program_name=program.name,
        added=result.added, removed=result.removed,
        journal=lambda revisions: writer.commit(revisions)[1],
    )


def test_unknown_action_and_op_are_rejected():
    with pytest.raises(Exception):
        FaultSpec("append", "explode")
    with pytest.raises(Exception):
        FaultSpec("mmap")


def test_seam_is_restored_even_when_the_block_raises(tmp_path):
    default = serialize._fs
    with pytest.raises(InjectedCrash):
        with inject_faults(FaultSpec("write", "crash_before")):
            save_store(_store(), tmp_path)
    assert serialize._fs is default


def test_torn_append_leaves_exactly_keep_bytes(tmp_path):
    store = _store()
    writer = JournalWriter(tmp_path)
    writer.create(store)
    journal = tmp_path / JOURNAL_FILE
    before = journal.read_bytes()
    with inject_faults(FaultSpec("append", "torn", keep_bytes=7)):
        with pytest.raises(InjectedCrash):
            _commit(store, writer, 0)
    after = journal.read_bytes()
    assert after[: len(before)] == before
    assert len(after) == len(before) + 7


def test_crash_before_write_leaves_target_untouched(tmp_path):
    store = _store()
    save_store(store, tmp_path)
    journal = tmp_path / JOURNAL_FILE
    before = journal.read_bytes()
    with inject_faults(FaultSpec("write", "crash_before", path_glob=JOURNAL_FILE)):
        with pytest.raises(InjectedCrash):
            save_store(store, tmp_path)
    assert journal.read_bytes() == before


def test_enospc_is_an_oserror_not_a_crash(tmp_path):
    store = _store()
    writer = JournalWriter(tmp_path)
    writer.create(store)
    with inject_faults(FaultSpec("append", "enospc")) as fs:
        with pytest.raises(OSError) as caught:
            _commit(store, writer, 0)
    assert caught.value.errno == errno.ENOSPC
    assert fs.fired


def test_duplicate_append_is_recovered_and_repaired(tmp_path):
    store = _store()
    writer = JournalWriter(tmp_path)
    writer.create(store)
    with inject_faults(FaultSpec("append", "duplicate")):
        with pytest.raises(InjectedCrash):
            _commit(store, writer, 0)
    journal = tmp_path / JOURNAL_FILE
    lines = journal.read_text(encoding="utf-8").splitlines()
    assert lines[-1] == lines[-2]  # the echo is on disk
    loaded = writer.open()
    assert [r.tag for r in loaded.revisions()] == ["initial", "t0"]
    repaired = journal.read_text(encoding="utf-8").splitlines()
    assert len(repaired) == len(lines) - 1
    # and the journal accepts appends again
    _commit(loaded, writer, 1)
    assert [r.tag for r in load_store(tmp_path).revisions()] == [
        "initial", "t0", "t1",
    ]


def test_specs_fire_once_at_the_requested_call(tmp_path):
    store = _store()
    writer = JournalWriter(tmp_path)
    writer.create(store)
    spec = FaultSpec("append", "crash_before", at=1)
    with inject_faults(spec) as fs:
        _commit(store, writer, 0)  # at=0: passes through
        with pytest.raises(InjectedCrash):
            _commit(store, writer, 1)  # at=1: fires
    assert fs.fired == [spec]
    assert [op for op, _ in fs.ops if op == "append"] == ["append", "append"]
    assert [r.tag for r in load_store(tmp_path).revisions()] == ["initial", "t0"]


def test_fsync_durability_mode_is_exercised_through_the_seam(tmp_path):
    store = _store()
    writer = JournalWriter(tmp_path, DurabilityOptions(mode="fsync"))
    writer.create(store)
    _commit(store, writer, 0)
    assert [r.tag for r in load_store(tmp_path).revisions()] == ["initial", "t0"]
