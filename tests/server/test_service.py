"""StoreService: MVCC sessions, optimistic commits, FIFO writers, durability."""

import threading
import time

import pytest

from repro.core.errors import VersionLinearityError
from repro.lang.parser import parse_body, parse_program
from repro.server import ConflictError, SessionError, StoreService
from repro.server.service import _FIFOLock
from repro.storage import VersionedStore, load_store
from repro.storage.serialize import JOURNAL_FILE
from repro.testing.reference import query_reference
from repro.workloads import paper_example_base

RAISE_PHIL = "r: mod[phil].sal -> (S, S2) <= phil.sal -> S, S2 = S + 100."
RAISE_BOB = "r: mod[bob].sal -> (S, S2) <= bob.sal -> S, S2 = S + 100."
ADD_BOSS = "b: ins[joe].boss -> phil <= phil.isa -> empl."


@pytest.fixture()
def service():
    return StoreService(VersionedStore(paper_example_base(), tag="initial"))


class TestSessions:
    def test_session_reads_pinned_revision(self, service):
        session = service.begin()
        before = session.query("phil.sal -> S")
        service.apply(RAISE_PHIL, tag="raise")
        assert session.query("phil.sal -> S") == before
        assert service.query("phil.sal -> S") == [{"S": 4100}]

    def test_pinned_base_is_shared_not_copied(self, service):
        session = service.begin()
        assert session.base() is service.store.current

    def test_session_ids_are_unique(self, service):
        assert service.begin().id != service.begin().id

    def test_lifecycle_errors(self, service):
        session = service.begin()
        with pytest.raises(SessionError):
            session.commit()  # nothing staged
        session.stage(RAISE_PHIL)
        session.commit(tag="ok")
        with pytest.raises(SessionError):
            session.stage(RAISE_PHIL)
        with pytest.raises(SessionError):
            session.commit()
        aborted = service.begin()
        aborted.abort()
        with pytest.raises(SessionError):
            aborted.query("phil.sal -> S")


class TestOptimisticCommits:
    def test_disjoint_commit_succeeds(self, service):
        session = service.begin()
        session.query("E.boss -> B")  # reads no sal fact
        service.apply(RAISE_PHIL, tag="interim")
        session.stage(ADD_BOSS)
        outcome = session.commit(tag="mine")
        assert outcome.revision.tag == "mine"
        assert session.state == "committed"
        # Both the interim and the session's commit are in the chain.
        assert [r.tag for r in service.store.revisions()[1:]] == ["interim", "mine"]

    def test_read_write_conflict(self, service):
        session = service.begin()
        session.query("phil.sal -> S")
        service.apply(RAISE_PHIL, tag="sneaky")
        session.stage(ADD_BOSS)
        with pytest.raises(ConflictError) as excinfo:
            session.commit(tag="mine")
        conflict = excinfo.value
        assert conflict.retryable
        assert conflict.pinned == 0
        assert conflict.conflicting_index == 1
        assert conflict.conflicting_tag == "sneaky"
        assert session.state == "aborted"
        assert service.store.head.tag == "sneaky"  # nothing committed

    def test_write_footprint_conflict(self, service):
        # The staged program reads phil.sal; an interim commit changed it.
        session = service.begin()
        service.apply(RAISE_PHIL, tag="interim")
        session.stage(RAISE_PHIL)
        with pytest.raises(ConflictError):
            session.commit()

    def test_fact_key_granularity_is_conservative(self, service):
        # The footprint is key-level ((method, arity) + host shape), not
        # object-level: raising bob conflicts with an interim raise of
        # phil because both touch the ``sal`` key at base-object shape.
        # First-committer-wins; the loser retries (see run_transaction).
        session = service.begin()
        session.stage(RAISE_BOB)
        service.apply(RAISE_PHIL, tag="other-object")
        with pytest.raises(ConflictError):
            session.commit()

    def test_run_transaction_retries_to_success(self, service):
        # The work function conflicts on its first attempt (a concurrent
        # commit lands between begin and commit), then succeeds.
        interfered = []

        def work(session):
            session.query("phil.sal -> S")
            if not interfered:
                interfered.append(True)
                service.apply(RAISE_PHIL, tag="interference")
            session.stage(RAISE_BOB)

        outcome = service.run_transaction(work, tag="retried")
        assert outcome.revision.tag == "retried"
        assert service.query("bob.sal -> S") == [{"S": 4300}]

    def test_run_transaction_exhausts_attempts(self, service):
        def work(session):
            session.query("phil.sal -> S")
            service.apply(RAISE_PHIL)  # always interferes
            session.stage(RAISE_BOB)

        with pytest.raises(ConflictError):
            service.run_transaction(work, attempts=3)
        assert service._conflicts == 3


class TestCommitBatches:
    def test_multi_program_batch_commits_in_order(self, service):
        session = service.begin()
        session.stage(RAISE_PHIL).stage(RAISE_BOB)
        outcome = session.commit(tag="batch")
        assert [r.tag for r in outcome.revisions] == ["batch.0", "batch.1"]
        assert service.query("phil.sal -> S") == [{"S": 4100}]
        assert service.query("bob.sal -> S") == [{"S": 4300}]

    def test_batch_is_atomic_on_evaluation_error(self, service):
        # The second program derives incomparable versions of phil
        # (mod and del), which the linearity check rejects — the whole
        # batch must commit nothing.
        bad = (
            "a: mod[phil].sal -> (S, S2) <= phil.sal -> S, S2 = S + 1.\n"
            "b: del[phil].* <= phil.isa -> empl."
        )
        session = service.begin()
        session.stage(RAISE_BOB).stage(bad)
        with pytest.raises(VersionLinearityError):
            session.commit(tag="doomed")
        assert len(service.store) == 1
        assert service.query("bob.sal -> S") == [{"S": 4200}]


class TestFIFOLock:
    def test_strict_arrival_order(self):
        lock = _FIFOLock()
        order = []

        def worker(name):
            with lock:
                order.append(name)

        def queued() -> int:
            with lock._condition:
                return len(lock._tickets)

        # Hold the lock, then line up three waiters one at a time — each is
        # provably enqueued before the next starts — and release: they must
        # acquire in arrival order, which a bare threading.Lock does not
        # promise.
        threads = []
        with lock:
            for position, name in enumerate(("first", "second", "third")):
                thread = threading.Thread(target=worker, args=(name,))
                thread.start()
                threads.append(thread)
                deadline = time.time() + 5.0
                while queued() < position + 1:
                    assert time.time() < deadline, "waiter never queued"
                    time.sleep(0.001)
        for thread in threads:
            thread.join()
        assert order == ["first", "second", "third"]

    def test_concurrent_service_commits_serialize(self, service):
        errors = []

        def committer(program, tag):
            try:
                service.apply(program, tag=tag)
            except Exception as error:  # pragma: no cover - fails the test
                errors.append(error)

        threads = [
            threading.Thread(target=committer, args=(RAISE_PHIL, f"p{i}"))
            for i in range(4)
        ] + [
            threading.Thread(target=committer, args=(RAISE_BOB, f"b{i}"))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(service.store) == 9
        assert service.query("phil.sal -> S") == [{"S": 4400}]
        assert service.query("bob.sal -> S") == [{"S": 4600}]


    def test_concurrent_reads_see_one_revision_never_a_mixture(self, service):
        """Head reads take no lock: each answer must still be the reference
        answer of one revision that was the head during the read."""
        raise_all = (
            "r: mod[E].sal -> (S, S2) <= E.isa -> empl, E.sal -> S, S2 = S + 100."
        )
        body = "E.isa -> empl, E.sal -> S"
        commits, readers = 20, 4
        observed, errors = [], []
        done = threading.Event()

        def reader():
            try:
                while not done.is_set():
                    start = len(service.store) - 1
                    answers = service.query(body)
                    observed.append((start, len(service.store) - 1, answers))
            except Exception as error:  # pragma: no cover - fails the test
                errors.append(error)

        threads = [threading.Thread(target=reader) for _ in range(readers)]
        for thread in threads:
            thread.start()
        try:
            for index in range(commits):
                service.apply(raise_all, tag=f"c{index}")
        finally:
            done.set()
            for thread in threads:
                thread.join()
        assert not errors
        literals = parse_body(body)
        reference = [
            query_reference(literals, service.store.base_at(index))
            for index in range(commits + 1)
        ]
        assert len({repr(rows) for rows in reference}) == commits + 1
        assert observed
        for start, end, answers in observed:
            assert answers in reference[start : end + 1], (start, end, answers)


class TestDurability:
    def test_create_commit_reopen(self, tmp_path):
        directory = tmp_path / "journal"
        service = StoreService.create(
            paper_example_base(), directory, tag="initial"
        )
        service.apply(RAISE_PHIL, tag="raise")
        session = service.begin()
        session.stage(ADD_BOSS)
        session.commit(tag="boss")

        reopened = StoreService.open(directory)
        assert len(reopened.store) == 3
        assert [r.tag for r in reopened.store.revisions()] == [
            "initial", "raise", "boss",
        ]
        assert reopened.query("phil.sal -> S") == [{"S": 4100}]
        assert reopened.query("joe.boss -> B") == [{"B": "phil"}]

    def test_append_torn_at_its_newline_does_not_swallow_the_next_commit(
        self, tmp_path
    ):
        """A crash that lands exactly between a line and its ``\\n`` leaves
        a complete, CRC-valid line that was never acknowledged.  Reopening
        must drop it, or the next commit is appended onto the same line and
        the next reload loses both."""
        directory = tmp_path / "journal"
        service = StoreService.create(
            paper_example_base(), directory, tag="initial"
        )
        service.apply(RAISE_PHIL, tag="a")
        journal = directory / JOURNAL_FILE
        journal.write_bytes(journal.read_bytes()[:-1])

        reopened = StoreService.open(directory)
        assert [r.tag for r in reopened.store.revisions()] == ["initial"]
        reopened.apply(RAISE_BOB, tag="b")
        assert [r.tag for r in load_store(directory).revisions()] == [
            "initial", "b",
        ]

    def test_journal_is_replay_equivalent(self, tmp_path):
        """Commits through the service leave the same journal bytes as the
        same programs applied sequentially to a plain store."""
        served_dir = tmp_path / "served"
        plain_dir = tmp_path / "plain"
        service = StoreService.create(
            paper_example_base(), served_dir, tag="initial"
        )
        service.apply(RAISE_PHIL, tag="t1")
        service.apply(RAISE_BOB, tag="t2")

        from repro.storage.serialize import append_revision, save_store

        plain = VersionedStore(paper_example_base(), tag="initial")
        save_store(plain, plain_dir)
        for text, tag in ((RAISE_PHIL, "t1"), (RAISE_BOB, "t2")):
            plain.apply(parse_program(text), tag=tag)
            append_revision(plain, plain_dir)

        served_bytes = (served_dir / JOURNAL_FILE).read_bytes()
        plain_bytes = (plain_dir / JOURNAL_FILE).read_bytes()
        assert served_bytes == plain_bytes
        assert set(load_store(served_dir).current) == set(
            load_store(plain_dir).current
        )

    def test_stats_shape(self, service):
        service.apply(RAISE_PHIL)
        stats = service.stats()
        assert stats["revisions"] == 2
        assert stats["commits"] == 1
        assert stats["conflicts"] == 0
        assert stats["journal"] is None
        assert "subscriptions" in stats and "prepared" in stats


def test_the_text_path_binds_without_abstracting_an_ast(monkeypatch):
    """A served raise or read of a known text shape binds its artifact
    directly: it never pays for the AST shape key as well."""
    from repro.core import codegen, query, rules
    from repro.lang.parser import prepare_query
    from repro.workloads import enterprise_base

    base = enterprise_base(n_employees=60, overpaid_ratio=0.1, seed=5)
    staff = sorted({str(f.host) for f in base if f.method == "boss"})[:51]
    service = StoreService(VersionedStore(base, tag="initial"))
    calls = []
    abstract = rules.abstract_constants

    def counted(node):
        calls.append(node)
        return abstract(node)

    for module in (codegen, query, rules):
        monkeypatch.setattr(module, "abstract_constants", counted)
    raise_ = "raise: mod[{0}].sal -> (S, S2) <= {0}.sal -> S, S2 = S + 1."
    read = "{0}.sal -> S, {0}.boss -> B"
    warm, *rest = staff
    service.apply(raise_.format(warm))  # warm-up: one of each shape
    prepare_query(read.format(warm)).run(service.store.current)
    calls.clear()
    for employee in rest:
        service.apply(raise_.format(employee), tag=employee)
        answers = prepare_query(read.format(employee)).run(service.store.current)
        assert answers == query_reference(
            parse_body(read.format(employee)), service.store.current
        )
    assert calls == []
