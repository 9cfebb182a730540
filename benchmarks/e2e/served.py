"""The served workloads: one ``repro serve --durability fsync`` child, one
writer and one reader connection (closed loops), SIGKILL + recovery, and
oracles that never call the engine.

The oracle is a Python dict of salaries: the generated base plus one for
every acknowledged raise.  Mid-run reads must fall between "raises
acknowledged before the read was sent" and "raises issued by the time the
reply arrived"; after recovery a full scan must equal the dict exactly.
"""

from __future__ import annotations

import itertools
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import repro
from repro.storage import StoreOptions, load_store
from repro.workloads import enterprise_base

from .harness import (
    DURABILITY, SERVER_CPU, Machine, Scratch, Server, Spans, Tally, median_ms, ms, tail_ms)
from .ladder import run_ladders

#: Teams the writer hits with half its raises, the fan-out workload
#: subscribes to, and (the first READ_TEAMS of them) the reader's team
#: reads cycle over — few enough to fit the 256-entry prepared-query cache.
HOT_TEAMS = 24
READ_TEAMS = 20
#: Every TX_EVERY-th writer op is a read-modify-write transaction.
TX_EVERY = 4
#: Reader mix: point reads, team reads, the rest history reads.
POINT_SHARE, TEAM_SHARE = 0.75, 0.20
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: A slice of the measured window holds about this many commits or lasts
#: this long, whichever is longer.
SLICE_COMMITS = 3
SLICE_MIN_S = 2.0
#: Seeded operations prepared for the ladders (the commit ladder stops at
#: its time budget, usually far earlier).
LADDER_MAX_OPS = 400
LADDER_READS = 150


@dataclass(frozen=True)
class ServedSpec:
    name: str
    n_employees: int
    subscriptions: int = 0


def raise_text(emp: str) -> str:
    return f"raise: mod[{emp}].sal -> (S, S2) <= {emp}.sal -> S, S2 = S + 1."


def point_text(emp: str) -> str:
    return f"{emp}.sal -> S, {emp}.boss -> B"


def team_text(manager: str) -> str:
    return f"E.boss -> {manager}, E.sal -> S"


class Enterprise:
    """The generated inputs and the salary oracle of one run."""

    def __init__(self, n_employees: int, seed: int) -> None:
        self.n_employees, self.seed = n_employees, seed
        self.salary0: dict[str, int] = {}
        self.boss: dict[str, str] = {}
        for fact in self.base():
            if fact.method == "sal":
                self.salary0[str(fact.host)] = fact.result.value
            elif fact.method == "boss":
                self.boss[str(fact.host)] = str(fact.result)
        self.staff = sorted(
            (name for name in self.salary0 if name.startswith("emp")),
            key=lambda name: int(name[3:]),
        )
        self.teams: dict[str, list[str]] = {}
        for member, manager in self.boss.items():
            self.teams.setdefault(manager, []).append(member)
        # Hot teams: the staffed managers whose team size is nearest the
        # mean, so that the cost of a team read or a subscription refresh
        # depends on the base size and not on which seed drew the forest.
        staffed = {self.boss[emp] for emp in self.staff}
        mean = sum(len(self.teams[m]) for m in staffed) / len(staffed)
        ranked = sorted(
            staffed, key=lambda m: (abs(len(self.teams[m]) - mean), int(m[3:]))
        )
        self.hot_managers = ranked[: min(HOT_TEAMS, max(1, len(ranked) // 2))]
        hot = set(self.hot_managers)
        self.hot_staff = [emp for emp in self.staff if self.boss[emp] in hot]
        self.cold_staff = [
            emp for emp in self.staff if self.boss[emp] not in hot
        ] or self.hot_staff
        # raises sent / acknowledged per employee; head = last acked revision
        self.issued = dict.fromkeys(self.salary0, 0)
        self.acked = dict.fromkeys(self.salary0, 0)
        self.head = 0
        self.commits = 0

    def base(self):
        return enterprise_base(
            n_employees=self.n_employees, overpaid_ratio=0.1, seed=self.seed
        )

    def writer_ops(self):
        """Seeded stream of employees to raise: half from the hot teams."""
        rng = random.Random(f"{self.seed}-writer")
        while True:
            pool = self.hot_staff if rng.random() < 0.5 else self.cold_staff
            yield pool[rng.randrange(len(pool))]

    def reader_ops(self):
        """Seeded stream of ``(kind, subject)`` reads."""
        rng = random.Random(f"{self.seed}-reader")
        read_teams = self.hot_managers[:READ_TEAMS]
        while True:
            draw = rng.random()
            if draw < POINT_SHARE:
                yield "point", self.staff[rng.randrange(len(self.staff))]
            elif draw < POINT_SHARE + TEAM_SHARE:
                yield "team", read_teams[rng.randrange(len(read_teams))]
            else:
                yield "diff", None

    def subscription_bodies(self, count: int) -> list[tuple[str, str]]:
        """``(manager, body)`` of the fan-out workload's live queries: a
        team-salary query per hot team, then overpaid joins restricted to a
        team and ``E.boss -> mgrJ`` queries (which no raise can affect)."""
        bodies = [(m, team_text(m)) for m in self.hot_managers][:count]
        cycle = itertools.cycle(self.hot_managers)
        while len(bodies) < count:
            manager = next(cycle)
            if (count - len(bodies)) % 2 == 0:
                body = (f"E.boss -> {manager}, {manager}.sal -> SB, "
                        f"E.sal -> S, S > SB")
            else:
                body = f"E.boss -> {manager}"
            bodies.append((manager, body))
        return bodies

    def expected(self) -> dict[str, int]:
        return {name: self.salary0[name] + self.acked[name] for name in self.salary0}


@dataclass
class Samples:
    """Latencies (seconds) one phase collected, per operation kind."""

    commit: list[float] = field(default_factory=list)
    tx: list[float] = field(default_factory=list)
    push: list[float] = field(default_factory=list)
    read: list[float] = field(default_factory=list)
    diff: list[float] = field(default_factory=list)
    writer_s: float = 0.0
    reader_s: float = 0.0

    def per_second(self, kinds: tuple[str, ...], elapsed: float) -> float:
        return sum(len(getattr(self, k)) for k in kinds) / elapsed if elapsed else 0.0

    def add_scaled(self, other: "Samples", factor: float) -> None:
        """Append ``other``'s durations, each multiplied by ``factor``."""
        for kind in ("commit", "tx", "push", "read", "diff"):
            getattr(self, kind).extend(d * factor for d in getattr(other, kind))
        self.writer_s += other.writer_s * factor
        self.reader_s += other.reader_s * factor


class Stage:
    """One set-up: journal directory, server child, the two connections."""

    def __init__(self, scratch: Scratch, spec: ServedSpec, seed: int, label: str):
        self.tally = Tally()
        started = time.perf_counter()
        self.ent = Enterprise(spec.n_employees, seed)
        self.store_dir: Path = scratch.subdir(f"store-{label}")
        repro.connect(
            self.store_dir, base=self.ent.base(),
            durability=repro.DurabilityOptions(mode=DURABILITY),
        ).close()
        self.server: Server = scratch.serve(self.store_dir)
        self.server.start()
        self.writer = self.server.connect()
        self.reader = self.server.connect()
        self.streams: list[tuple[str, object]] = []  # (body, stream)
        self.team_streams: dict[str, object] = {}
        self.sent_at: dict[tuple[str, int], float] = {}  # (emp, new salary) -> send time
        self.reader_running = False
        for manager, body in self.ent.subscription_bodies(spec.subscriptions):
            stream = self.reader.subscribe(body)
            self.streams.append((body, stream))
            if body == team_text(manager):
                self.team_streams[manager] = stream
        self.write_ops = self.ent.writer_ops()
        self.read_ops = self.ent.reader_ops()
        # first answered read and first acknowledged commit end the set-up
        self.run(Samples(), reads=1, writes=1)
        self.setup_s = time.perf_counter() - started

    # -- the two closed loops ---------------------------------------------
    def _write_loop(self, out: Samples, deadline: float, count: int | None) -> None:
        ent, tally, conn = self.ent, self.tally, self.writer
        started = time.perf_counter()
        done = 0
        while (time.perf_counter() < deadline) if count is None else (done < count):
            emp = next(self.write_ops)
            as_tx = ent.commits % TX_EVERY == TX_EVERY - 1
            ent.issued[emp] += 1
            sent = time.perf_counter()
            if self.reader_running and ent.boss[emp] in self.team_streams:
                self.sent_at[emp, ent.salary0[emp] + ent.issued[emp]] = sent
            try:
                if as_tx:
                    with conn.transaction() as tx:
                        old = tx.query(f"{emp}.sal -> S")[0]["S"]
                        tx.stage(
                            f"raise: mod[{emp}].sal -> ({old}, {old + 1}) "
                            f"<= {emp}.sal -> {old}."
                        )
                    index = tx.result.revision.index
                else:
                    index = conn.apply(raise_text(emp)).index
            except repro.ReproError as error:
                tally.check(False, f"commit of {emp} failed: {error}")
                done += 1
                continue
            acked = time.perf_counter()
            (out.tx if as_tx else out.commit).append(acked - sent)
            ent.acked[emp] += 1
            ent.commits += 1
            tally.check(index == ent.head + 1, f"revision {index} after {ent.head}")
            ent.head = index
            done += 1
        out.writer_s += time.perf_counter() - started

    def _read_loop(self, out: Samples, deadline: float, count: int | None) -> None:
        ent, tally, conn = self.ent, self.tally, self.reader
        started = time.perf_counter()
        done = 0
        while (time.perf_counter() < deadline) if count is None else (done < count):
            kind, subject = next(self.read_ops)
            if kind == "point":
                members = [subject]
            elif kind == "team":
                members = ent.teams[subject]
            else:
                members = []
            low = {m: ent.salary0[m] + ent.acked[m] for m in members}
            head = ent.head
            sent = time.perf_counter()
            try:
                if kind == "point":
                    rows = conn.query(point_text(subject))
                elif kind == "team":
                    rows = conn.query(team_text(subject))
                else:
                    rows = conn.diff(max(0, head - 10), head)
            except repro.ReproError as error:
                tally.check(False, f"{kind} read failed: {error}")
                done += 1
                continue
            (out.diff if kind == "diff" else out.read).append(time.perf_counter() - sent)
            high = {m: ent.salary0[m] + ent.issued[m] for m in members}
            if kind == "point":
                ok = (
                    len(rows) == 1
                    and rows[0]["B"] == ent.boss[subject]
                    and low[subject] <= rows[0]["S"] <= high[subject]
                )
            elif kind == "team":
                ok = sorted(r["E"] for r in rows) == sorted(members) and all(
                    low[r["E"]] <= r["S"] <= high[r["E"]] for r in rows
                )
            else:
                # a window of w revisions changed at most w salaries, each
                # one fact out and one fact in
                ok = len(rows.added) == len(rows.removed) <= min(10, head)
            tally.check(ok, f"{kind} read of {subject} answered {rows!r:.200}")
            done += 1
            self._drain_pushes(out)
        out.reader_s += time.perf_counter() - started

    def _drain_pushes(self, out: Samples) -> None:
        """The reader is also the subscriber: after each read it folds the
        deltas that arrived on its team-salary streams.  Push latency runs
        from the writer sending the raise to the reader seeing its delta."""
        for stream in self.team_streams.values():
            while (delta := stream.next(timeout=0)) is not None:
                seen = time.perf_counter()
                for row in delta.added:
                    sent = self.sent_at.pop((row["E"], row["S"]), None)
                    if sent is not None:
                        out.push.append(seen - sent)

    def run(self, out: Samples, *, seconds: float = 0.0, reads: int | None = None,
            writes: int | None = None, reader: bool = True, writer: bool = True) -> Samples:
        """Run the loops concurrently for ``seconds``, or for fixed op
        counts (``reads``/``writes``) when given."""
        deadline = time.perf_counter() + seconds
        errors: list[BaseException] = []
        self.reader_running = reader and (reads is None or reads > 0)

        def guarded(loop, count):
            try:
                loop(out, deadline, count)
            except BaseException as error:  # re-raised on the main thread below
                errors.append(error)

        threads = []
        if writer and (writes is None or writes > 0):
            threads.append(threading.Thread(target=guarded, args=(self._write_loop, writes)))
        if reader and (reads is None or reads > 0):
            threads.append(threading.Thread(target=guarded, args=(self._read_loop, reads)))
        for index, thread in enumerate(threads):
            if index:
                # In steady state a read arrives while a commit is being
                # worked on.  The writer therefore goes first: reads that
                # found the server idle at the start of every slice would
                # be a tenth of all reads at 10 000 employees.
                time.sleep(0.005)
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return out

    # -- ending -----------------------------------------------------------
    def check_streams(self) -> None:
        """Every raise the subscriber was told to expect must have been
        pushed; every stream, folded, must equal a fresh query."""
        patience = time.perf_counter() + 5.0
        while self.sent_at and time.perf_counter() < patience:
            self._drain_pushes(Samples())
            time.sleep(0.01)
        self.tally.check(
            not self.sent_at, f"{len(self.sent_at)} raises on subscribed teams never pushed",
            failures=len(self.sent_at),
        )
        self.reader.ping()  # replies queue behind the pushes already sent
        patience = time.perf_counter() + 2.0
        for body, stream in self.streams:
            fresh = sorted(map(repr, self.reader.query(body)))
            while True:
                while stream.next(timeout=0) is not None:
                    pass
                folded = sorted(map(repr, stream.answers))
                if folded == fresh or time.perf_counter() > patience:
                    break
                time.sleep(0.01)
            self.tally.check(
                folded == fresh, f"stream {body!r} folded to a different answer set")

    def close_connections(self) -> None:
        for conn in (self.writer, self.reader):
            try:
                conn.close()
            except (repro.ReproError, OSError):
                pass

    def recover(self) -> tuple[float, object]:
        """SIGKILL the server, restart it on the same directory, and time
        until it answers a read at the last acknowledged revision."""
        ent = self.ent
        probe = next((e for e in ent.staff if ent.acked[e]), ent.staff[0])
        killed = time.perf_counter()
        self.server.kill()
        self.server.start()
        conn = self.server.connect()
        rows = conn.query(point_text(probe))
        recovery_s = time.perf_counter() - killed
        want = [{"S": ent.expected()[probe], "B": ent.boss[probe]}]
        self.tally.check(rows == want, f"first read after recovery: {rows} != {want}")
        self.close_connections()
        return recovery_s, conn

    def verify(self, conn) -> None:
        """Full scan and revision count against the oracle: acknowledged
        commits missing after recovery count as failed operations."""
        scan = {row["E"]: row["S"] for row in conn.query("E.isa -> empl, E.sal -> S")}
        expected = self.ent.expected()
        wrong = sum(1 for name in expected if scan.get(name) != expected[name])
        wrong += len(scan.keys() - expected.keys())
        self.tally.check(
            not wrong, f"{wrong} salaries differ from the oracle after recovery",
            failures=wrong,
        )
        revisions = len(conn.log())
        self.tally.check(
            revisions == self.ent.commits + 1,
            f"log holds {revisions} revisions, {self.ent.commits} commits acknowledged",
        )

    def tear_down(self) -> None:
        self.close_connections()
        self.server.kill()
        shutil.rmtree(self.store_dir, ignore_errors=True)


def run_untraced(spec: ServedSpec, seed: int, seconds: float):
    """Set up (several times, keeping the last), warm up, measure the mixed
    window slice by slice at the machine's speed of the moment, SIGKILL,
    recover, verify."""
    machine = Machine(SERVER_CPU)
    with Scratch() as scratch:
        setup_times = []
        for attempt in range(SETUPS):
            machine.sample()
            stage = Stage(scratch, spec, seed, str(attempt))
            setup_times.append(stage.setup_s * machine.scale())
            if attempt < SETUPS - 1:
                stage.tear_down()
        # Snapshots land on fixed revision numbers and cost many commits'
        # worth of time: start every window at the same point of the
        # snapshot cycle so the same number of them falls inside it.
        interval = StoreOptions().snapshot_interval
        warm = stage.run(
            Samples(), reads=50, writes=max(0, interval // 2 - stage.ent.head))
        slice_s = max(SLICE_MIN_S, SLICE_COMMITS * statistics.median(warm.commit + warm.tx))
        mixed, unscaled = Samples(), Samples()
        machine.sample()
        slices = max(1, round(seconds / slice_s))
        for _ in range(slices):
            part = stage.run(Samples(), seconds=seconds / slices)
            mixed.add_scaled(part, machine.scale())
            unscaled.add_scaled(part, 1.0)
        # the server's peak includes writing a snapshot, however slow the window was
        stage.run(Samples(), reader=False, writes=max(0, interval - stage.ent.head))
        stage.check_streams()
        rss = stage.server.peak_rss_mb()
        _recovery_s, conn = stage.recover()
        stage.verify(conn)
        conn.close()
    machine.report(
        update_p50_ms=median_ms(unscaled.commit),
        updates_per_s=unscaled.per_second(("commit", "tx"), unscaled.writer_s),
    )
    metrics = {
        "setup_s": statistics.median(setup_times),
        "update_p50_ms": median_ms(mixed.commit),
        "updates_per_s": mixed.per_second(("commit", "tx"), mixed.writer_s),
        "peak_rss_mb": rss,
    }
    return metrics, stage.tally


def run_traced(spec: ServedSpec, seed: int, seconds: float, spans: Spans):
    """Idle-read, solo-write and a short mixed window against the server
    child (for the wait, cache and storage numbers), recovery, then the
    read and commit ladders on fresh copies of the same base."""
    with Scratch() as scratch:
        stage = Stage(scratch, spec, seed, "main")
        tally = stage.tally
        disk0, commits0 = _disk_usage(stage.store_dir), stage.ent.commits
        idle = stage.run(Samples(), seconds=seconds / 10, writer=False)
        solo = stage.run(Samples(), seconds=seconds / 5, reader=False)
        stats0 = stage.reader.stats()
        mixed = stage.run(Samples(), seconds=seconds / 3)
        stats1 = stage.reader.stats()
        stage.check_streams()
        disk1 = _disk_usage(stage.store_dir)
        commits = max(1, stage.ent.commits - commits0)
        recovery_s, conn = stage.recover()
        stage.verify(conn)
        conn.close()
        stage.server.kill()
        started = time.perf_counter()
        len(load_store(stage.store_dir).current)  # snapshots load lazily: touch the head
        load_s = time.perf_counter() - started
        shutil.rmtree(stage.store_dir, ignore_errors=True)

        ent = stage.ent  # its base() and op streams start afresh on every call
        bodies = [body for _m, body in ent.subscription_bodies(spec.subscriptions)]
        texts = [raise_text(emp) for emp in itertools.islice(ent.writer_ops(), LADDER_MAX_OPS)]
        queries = [
            point_text(subject) if kind == "point" else team_text(subject)
            for kind, subject in itertools.islice(ent.reader_ops(), LADDER_READS)
            if kind != "diff"
        ]
        metrics = run_ladders(scratch, ent, texts, bodies, queries, seconds, spans, tally)

    commits_all = solo.commit + mixed.commit
    solo_p50, idle_p50 = median_ms(solo.commit), median_ms(idle.read)
    metrics.update({
        "api.commit_solo_p50_ms": solo_p50,
        "api.commit_wait_ms": median_ms(mixed.commit) - solo_p50,
        "api.trace_overhead_share": (
            metrics["api.commit_ladder_top_ms"] / solo_p50 - 1 if solo_p50 else 0.0),
        "api.reads_per_s": mixed.per_second(("read", "diff"), mixed.reader_s),
        "api.read_p50_ms": median_ms(mixed.read),
        "api.read_idle_p50_ms": idle_p50,
        "api.read_wait_ms": median_ms(mixed.read) - idle_p50,
        "api.recovery_s": recovery_s,
        "api.tx_p50_ms": median_ms(solo.tx + mixed.tx),
        "api.diff_p50_ms": median_ms(idle.diff + mixed.diff),
        "storage.serialize.journal_bytes_per_commit":
            (disk1["journal"] - disk0["journal"]) / commits,
        "storage.serialize.disk_bytes_per_commit": (disk1["total"] - disk0["total"]) / commits,
        "storage.serialize.snapshots_written": disk1["snapshots"] - disk0["snapshots"],
        "storage.serialize.load_ms": ms(load_s),
    })
    tails = [("commit", commits_all), ("read", idle.read + mixed.read)]
    if spec.subscriptions:
        metrics["api.push_p50_ms"] = median_ms(solo.push + mixed.push)
        tails.append(("push", solo.push + mixed.push))
    for name, samples in tails:
        value, pct, n = tail_ms(samples)
        metrics.update({f"api.{name}_tail_ms": value, f"api.{name}_tail_pct": pct,
                        f"api.{name}_tail_n": n})
    metrics.update(_cache_shares(
        stats0, stats1, len(mixed.read), len(mixed.commit) + len(mixed.tx)))
    return metrics, tally


def _disk_usage(store_dir: Path) -> dict[str, int]:
    files = [path for path in store_dir.iterdir() if path.is_file()]
    journal = [path for path in files if path.suffix == ".jsonl"]
    return {
        "total": sum(path.stat().st_size for path in files),
        "journal": sum(path.stat().st_size for path in journal),
        "snapshots": len(files) - len(journal),
    }


def _cache_shares(before: dict, after: dict, reads: int, commits: int) -> dict:
    """Useful-work ratios from ``conn.stats()`` deltas over the mixed window."""

    def hit_share(*names: str) -> float:
        hits = lookups = 0
        for name in names:
            new, old = after["caches"].get(name, {}), before["caches"].get(name, {})
            delta_hits = new.get("hits", 0) - old.get("hits", 0)
            hits += delta_hits
            lookups += delta_hits + new.get("misses", 0) - old.get("misses", 0)
        return hits / lookups if lookups else 0.0

    # Prepared-query entries are LRU-evicted with their counters, so memo
    # hits are summed over the entries still registered (an evicted entry
    # was a cold point read) and divided by the reads the harness issued.
    memo_hits = 0
    for name, entry in after["prepared"].items():
        old = before["prepared"].get(name, {}).get("hits", 0)
        memo_hits += entry["hits"] - (old if old <= entry["hits"] else 0)

    def subscription_total(stats: dict, key: str) -> int:
        return sum(sub[key] for sub in stats["subscriptions"]["by_id"].values())

    shares = {
        "storage.history.memo_hit_share": min(1.0, memo_hits / reads) if reads else 0.0,
        "core.plan_cache_hit_share": hit_share("plans.rule_plan"),
        "core.codegen_cache_hit_share": hit_share("codegen.rule", "codegen.body"),
    }
    if after["subscriptions"]["by_id"]:
        refreshed, skipped, pushed = (
            subscription_total(after, key) - subscription_total(before, key)
            for key in ("refreshed", "skipped", "pushed")
        )
        shares["server.subscriptions.refreshed_share"] = (
            refreshed / (refreshed + skipped) if refreshed + skipped else 0.0)
        shares["server.subscriptions.pushes_per_commit"] = pushed / commits if commits else 0.0
    return shares
