"""The layer ladders of a traced run.

Each seeded operation is replayed, back to back, on every *rung*: the same
call made through one more layer than the rung below, against a store in
the same state.  A layer's self time for that operation is the paired
difference between its rung and the one below; the metric is the median of
those differences.  Medians do not add, so ``api.commit_ladder_residual_ms``
reports what the self times leave of the top rung's own median.

Every commit rung that holds a base runs in a worker process of its own
(this module's ``__main__``), as the top rung's ``repro serve`` child does.
At 10 000 employees half of a commit is garbage collection, whose cost
follows the size of the process's heap, so rungs sharing one heap would
each pay for all the others' bases; and rungs sharing one base would find
the indexes the rung before them built.  A worker times the call on its
own clock (``perf_counter`` is system-wide) and reports the span; the
``evaluate`` and ``apply`` workers then commit the operation, untimed, to
keep pace with the others.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.storage import VersionedStore
from repro.workloads import enterprise_base

from .harness import DURABILITY, REPO_ROOT, Scratch, Spans, Tally, child_env, ms

#: (metric, rung label) from the bottom rung up; the metric is the self
#: time of the layer that rung adds.
COMMIT_RUNGS = (
    ("lang.parse_program_ms", "parse_program"),
    ("core.compile_ms", "UpdateEngine.compile"),
    ("core.evaluate_ms", "UpdateEngine.evaluate"),
    ("core.new_base_ms", "UpdateEngine.apply + freeze"),
    ("storage.history.commit_ms", "VersionedStore.apply"),
    ("server.service.commit_ms", "connect(memory:).apply"),
    ("storage.serialize.append_ms", "connect(dir, flush).apply"),
    ("storage.serialize.fsync_ms", "connect(dir, fsync).apply"),
    ("server.subscriptions.notify_ms", "connect(dir, fsync).apply, subscribed"),
    ("api.wire.commit_roundtrip_ms", "unix socket to repro serve"),
)
#: Rungs 2..8 of the above, by worker name.
WORKERS = ("evaluate", "apply", "store", "memory", "flush", "fsync", "subscribed")
READ_RUNGS = (
    ("lang.parse_body_ms", "parse_body"),
    ("core.query_ms", "query_literals"),
    ("storage.history.query_ms", "VersionedStore.query"),
    ("server.service.query_ms", "connect(memory:).query"),
    ("api.wire.read_roundtrip_ms", "unix socket to repro serve"),
)


def commit_rungs(subscribed: bool) -> tuple:
    """The commit ladder of a workload: without live queries there is no
    ``subscribed`` rung, because the layer is not loaded."""
    return COMMIT_RUNGS if subscribed else COMMIT_RUNGS[:-2] + COMMIT_RUNGS[-1:]


#: Consecutive operations a rung replays before the next rung takes its turn.
TURN = 2
SCAN = "E.isa -> empl, E.sal -> S"


def _program(text: str):
    return repro.UpdateProgram(repro.parse_program(text), "raise")


class Rungs:
    """Collects ``durations[op][rung]`` (seconds) and the spans behind them."""

    def __init__(self, rungs, spans: Spans, kind: str) -> None:
        self.rungs, self.spans, self.kind = rungs, spans, kind
        self.durations: list[list[float]] = []

    def add(self, op: int, rung: int, start: float, end: float) -> None:
        """Record work of ``rung`` for operation ``op`` (several calls to
        one cell add up: a batch round is three programs)."""
        while len(self.durations) <= op:
            self.durations.append([0.0] * len(self.rungs))
        self.durations[op][rung] += end - start
        parent = self.rungs[rung + 1][0] if rung + 1 < len(self.rungs) else None
        self.spans.add(self.rungs[rung][0], f"{self.kind}-{op}", start, end, parent)

    def timed(self, op: int, rung: int, call):
        start = time.perf_counter()
        result = call()
        self.add(op, rung, start, time.perf_counter())
        return result

    def self_times(self) -> dict[str, float]:
        """Per-layer medians of paired differences, the top rung's median
        and the residual the medians leave of it."""
        metrics = {}
        for index, (name, _label) in enumerate(self.rungs):
            metrics[name] = ms(statistics.median(
                row[index] - (row[index - 1] if index else 0.0) for row in self.durations
            ))
        top = ms(statistics.median(row[-1] for row in self.durations))
        metrics[f"api.{self.kind}_ladder_top_ms"] = top
        metrics[f"api.{self.kind}_ladder_residual_ms"] = top - sum(
            metrics[name] for name, _label in self.rungs
        )
        return metrics


class RungWorker:
    """One commit rung in a child process; JSON lines over its pipes."""

    def __init__(self, rung: str, ent, directory: Path, bodies: list[str]) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e.ladder", rung, str(ent.n_employees),
             str(ent.seed), str(directory), json.dumps(bodies)],
            env=child_env(), cwd=REPO_ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, bufsize=1,
        )

    def ask(self, request: dict | None) -> dict:
        """Send one request line (``None``: just await the start-up line)
        and read the one-line reply."""
        if request is not None:
            self.process.stdin.write(json.dumps(request) + "\n")
            self.process.stdin.flush()
        reply = self.process.stdout.readline()
        if not reply:
            raise RuntimeError(f"ladder worker exited with {self.process.wait()}")
        return json.loads(reply)

    def kill(self) -> None:
        if self.process is not None:
            self.process.stdin.close()  # end of input: the worker leaves its loop
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
            self.process.stdout.close()
            self.process = None


def _worker_main(rung: str, n_employees: int, seed: int, directory: str, bodies: list[str]):
    """Child side of :class:`RungWorker`: build the rung's state, then time
    one call per request line until standard input ends."""
    base = enterprise_base(n_employees=n_employees, overpaid_ratio=0.1, seed=seed)
    if rung in ("evaluate", "apply", "store"):
        store = VersionedStore(base)
        engine = repro.UpdateEngine()
        conn = repro.connect(store)
    else:
        mode = {"memory": None, "flush": "flush"}.get(rung, DURABILITY)
        conn = repro.connect(
            directory if mode else "memory:", base=base,
            durability=repro.DurabilityOptions(mode=mode) if mode else None,
        )
    streams = [conn.subscribe(body) for body in bodies]
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        if "scan" in request:
            rows = conn.query(SCAN)
            reply = {"revisions": len(conn.log()), "salaries": sum(row["S"] for row in rows)}
            print(json.dumps(reply), flush=True)
            continue
        spans = []
        for text in request["texts"]:
            start = time.perf_counter()
            if rung == "evaluate":
                engine.evaluate(_program(text), store.current)
            elif rung == "apply":
                new_base = engine.apply(_program(text), store.current).new_base.freeze()
            elif rung == "store":
                store.apply(_program(text))
            else:
                conn.apply(text)
            spans.append((start, time.perf_counter()))
            if rung == "evaluate":
                store.apply(_program(text))
            elif rung == "apply":
                store.commit_update(new_base)
        print(json.dumps({"spans": spans}), flush=True)
    for stream in streams:
        stream.close()
    conn.close()


def run_ladders(scratch: Scratch, ent, texts: list[str], bodies: list[str],
                queries: list[str], seconds: float, spans: Spans, tally: Tally) -> dict:
    """Replay ``queries`` (point and team reads) up the read ladder, then
    ``texts`` (autocommit raises) up the commit ladder for about
    ``seconds``; ``bodies`` are the workload's live queries.  Both top
    rungs talk to one ``repro serve`` child."""
    rungs = WORKERS if bodies else WORKERS[:-1]
    workers = []
    for rung in rungs:
        worker = RungWorker(
            rung, ent, scratch.subdir(f"ladder-{rung}"), bodies if rung == "subscribed" else [])
        scratch.children.append(worker)
        workers.append(worker)
    served_dir = scratch.subdir("ladder-served")
    repro.connect(
        served_dir, base=ent.base(), durability=repro.DurabilityOptions(mode=DURABILITY)
    ).close()
    server = scratch.serve(served_dir)
    server.start()
    wire = server.connect()
    subscriber = server.connect()
    streams = [subscriber.subscribe(body) for body in bodies]

    # Read ladder: no memo at the ``core`` rung; the store and service
    # rungs use their prepared-query cache as the server does.
    base = ent.base()
    store = VersionedStore(ent.base())
    memory = repro.connect("memory:", base=ent.base())
    reads = Rungs(READ_RUNGS, spans, "read")
    for op, text in enumerate(queries):
        reads.timed(op, 0, lambda: repro.parse_body(text))
        raw = reads.timed(op, 1, lambda: repro.query_literals(base, repro.parse_body(text)))
        stored = reads.timed(op, 2, lambda: store.query(text))
        embedded = reads.timed(op, 3, lambda: memory.query(text))
        served = reads.timed(op, 4, lambda: wire.query(text))
        tally.check(
            len(raw) == len(stored) == len(embedded) >= 1 and embedded == served,
            f"read ladder rungs disagree on {text!r}",
        )
    memory.close()
    del base, store, memory  # the commit rungs below share no heap with these

    # Commit ladder.  Rungs take turns of TURN consecutive operations: back
    # to back a rung runs warm, as the server does under load, while
    # operations of the same index stay close enough in time to be paired.
    for worker in workers:
        worker.ask(None)  # "ready": its base and store are built
    engine = repro.UpdateEngine()
    commits = Rungs(commit_rungs(bool(bodies)), spans, "commit")
    top = len(commits.rungs) - 1
    deadline = time.perf_counter() + seconds
    done = 0
    while done < len(texts) and (done < TURN or time.perf_counter() < deadline):
        turn = texts[done:done + TURN]
        for op, text in enumerate(turn, start=done):
            commits.timed(op, 0, lambda: repro.parse_program(text))
            commits.timed(op, 1, lambda: engine.compile(_program(text)))
        for rung, worker in enumerate(workers, start=2):
            for op, (start, end) in enumerate(worker.ask({"texts": turn})["spans"], start=done):
                commits.add(op, rung, start, end)
        for op, text in enumerate(turn, start=done):
            commits.timed(op, top, lambda: wire.apply(text))
        done += len(turn)

    # every rung that keeps state must have reached the same salaries
    want = {"revisions": done + 1, "salaries": sum(ent.salary0.values()) + done}
    state = {"revisions": len(wire.log()), "salaries": sum(r["S"] for r in wire.query(SCAN))}
    tally.check(state == want, f"served rung reached {state}, not {want}")
    for rung, worker in zip(rungs, workers):
        state = worker.ask({"scan": True})
        tally.check(state == want, f"ladder rung {rung} reached {state}, not {want}")
        worker.kill()
    for stream in streams:
        stream.close()
    wire.close()
    subscriber.close()
    server.kill()
    return {**reads.self_times(), **commits.self_times()}


if __name__ == "__main__":
    _worker_main(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4],
                 json.loads(sys.argv[5]))
