"""Write-ahead commits: a revision is visible only once its line is durable.

A journal-backed :class:`StoreService` forms a revision, makes its journal
entry durable, and only then publishes it to readers, subscribers and
replication.  Every injected journal fault below must therefore leave the
service exactly where it was: no push for the failed revision, the same
head, the same answers, the same read-your-writes gate.  What happens next
depends on what the failure left on disk:

* no bytes (``crash_before``, ``enospc``, a snapshot write that failed) —
  the next commit simply works;
* bytes (``torn``, ``corrupt``, ``duplicate``, ``crash_after``) — the
  journal's tail check refuses the next append until ``StoreService.open``
  repairs the tail, or adopts it when the line was whole (the in-doubt
  ``duplicate`` / ``crash_after`` commit).

A session's staged programs are one batch: all their lines go down in one
append before any of its revisions is published, so a failed write
commits none of the batch.
"""

import pytest

from repro.core.errors import ReproError
from repro.lang.parser import parse_object_base
from repro.server.errors import ServerBusyError, SessionError
from repro.server.service import StoreService
from repro.storage import StoreOptions, load_store
from repro.testing import FaultSpec, inject_faults

#: phil alone, four facts with his ``exists``: two raises (3 facts of
#: journal each) outweigh it, so revision 2 writes a snapshot file
BASE = "phil.isa -> empl. phil.pos -> mgr. phil.sal -> 4000."
RAISE = "r: mod[phil].sal -> (S, S2) <= phil.sal -> S, S2 = S + 100."
WATCH = "phil.sal -> S"

#: failures that leave the journal exactly as it was
ZERO_BYTES = [
    ("append", "crash_before"),
    ("append", "enospc"),
    ("write", "enospc"),
    ("write", "crash_before"),
]
#: failures that leave bytes of the failed line behind
LEFT_BYTES = [
    ("append", "torn"),
    ("append", "corrupt"),
    ("append", "duplicate"),
    ("append", "crash_after"),
]
#: the failed line is whole on disk: a reopen adopts it
IN_DOUBT = {"duplicate", "crash_after"}


def _service(directory):
    """A journal-backed service at revision 1 with one subscription; its
    next revision (2) writes a snapshot file."""
    service = StoreService.create(
        parse_object_base(BASE), directory,
        options=StoreOptions(snapshot_interval=2),
    )
    pushes: list[dict] = []
    service.subscriptions.subscribe(WATCH, pushes.append)
    service.apply(RAISE, tag="ok")
    assert [push["revision"] for push in pushes] == [1]
    return service, pushes


def _seen(service):
    """What readers see: the head, its answers, and every revision's facts."""
    store = service.store
    return (
        len(store),
        service.query(WATCH),
        [(r.tag, set(store.base_at(r.index))) for r in store.revisions()],
    )


@pytest.mark.parametrize("op, action", ZERO_BYTES + LEFT_BYTES)
def test_a_failed_journal_write_publishes_nothing(tmp_path, op, action):
    directory = tmp_path / "journal"
    service, pushes = _service(directory)
    before = _seen(service)
    spec = FaultSpec(
        op, action, keep_bytes=7,
        path_glob="snap-*.json" if op == "write" else "*",
    )
    with inject_faults(spec) as filesystem:
        with pytest.raises(SessionError, match=r"write of revision 2 \[lost\] failed"):
            service.apply(RAISE, tag="lost")
    assert filesystem.fired == [spec]

    # (i) no push for the failed revision; (ii) readers see nothing new
    assert [push["revision"] for push in pushes] == [1]
    assert _seen(service) == before
    service.check_revision(1)
    with pytest.raises(ServerBusyError):
        service.check_revision(2)

    # (iii) the service is never read-only: the tail decides
    if (op, action) in ZERO_BYTES:
        service.apply(RAISE, tag="next")
        assert [push["revision"] for push in pushes] == [1, 2]
        assert (directory / "snap-000002.json").exists()
    else:
        with pytest.raises(ReproError, match="torn line|ends at revision 2"):
            service.apply(RAISE, tag="next")
        assert [push["revision"] for push in pushes] == [1]
        assert _seen(service) == before
    seen = _seen(service)[2]

    # (iv) a reopen commits normally, and the journal holds what readers
    # saw plus, for a whole in-doubt line, the revision nobody saw
    reopened = StoreService.open(directory)
    in_doubt = [r.tag for r in reopened.store.revisions()[len(seen):]]
    assert in_doubt == (["lost"] if action in IN_DOUBT else [])
    reopened.apply(RAISE, tag="after")
    loaded = load_store(directory)
    assert [r.tag for r in loaded.revisions()] == (
        [tag for tag, _facts in seen] + in_doubt + ["after"]
    )
    for index, (_tag, facts) in enumerate(seen):
        assert set(loaded.base_at(index)) == facts


def test_no_fail_stop_across_repeated_failures(tmp_path):
    """Failures that leave no bytes can repeat; each costs only its own
    commit, and the revision numbers stay dense."""
    service, pushes = _service(tmp_path / "journal")
    for attempt in range(3):
        with inject_faults(FaultSpec("append", "enospc")):
            with pytest.raises(SessionError, match="not committed"):
                service.apply(RAISE, tag=f"lost{attempt}")
        service.apply(RAISE, tag=f"kept{attempt}")
    assert [r.tag for r in service.store.revisions()] == [
        "initial", "ok", "kept0", "kept1", "kept2",
    ]
    assert [push["revision"] for push in pushes] == [1, 2, 3, 4]
    assert [r.tag for r in load_store(tmp_path / "journal").revisions()] == [
        "initial", "ok", "kept0", "kept1", "kept2",
    ]


@pytest.mark.parametrize("action", ["enospc", "crash_after"])
def test_a_batch_is_written_ahead_whole(tmp_path, action):
    """A session's programs go down in one append before any of them is
    published: a failed write commits none of the batch, so retrying the
    session commits it once — or, when the lines did land, is refused."""
    directory = tmp_path / "journal"
    service, pushes = _service(directory)
    before = _seen(service)
    session = service.begin().stage(RAISE).stage(RAISE)
    with inject_faults(FaultSpec("append", action)) as filesystem:
        with pytest.raises(
            SessionError, match=r"revision 2 \[b\.0\], 3 \[b\.1\] failed"
        ):
            session.commit(tag="b")
    assert [op for op, _name in filesystem.ops].count("append") == 1
    assert [push["revision"] for push in pushes] == [1]
    assert _seen(service) == before

    if action in IN_DOUBT:  # both lines landed: a retry would fork the journal
        with pytest.raises(ReproError, match="ends at revision 3"):
            session.commit(tag="b")
        assert _seen(service) == before
    else:
        session.commit(tag="b")
        assert [push["revision"] for push in pushes] == [1, 2, 3]
    reopened = StoreService.open(directory)
    assert [r.tag for r in reopened.store.revisions()] == [
        "initial", "ok", "b.0", "b.1",
    ]
    if action not in IN_DOUBT:
        assert set(reopened.store.current) == set(service.store.current)
