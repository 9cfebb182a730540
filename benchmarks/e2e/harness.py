"""Shared plumbing: statistics, failure tally, spans, scratch directory and
the ``repro serve`` child process."""

from __future__ import annotations

import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import repro

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
RESULTS = HERE / "results"

#: Both sides of any comparison use the same flush policy.
DURABILITY = "fsync"
#: Every server child is kept to one CPU, so that a calibration sample taken
#: there while the server is idle measures the core the next slice's commits
#: run on (the cores of a shared machine speed up and slow down
#: independently of each other).
SERVER_CPU = max(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    """Environment of a child process that imports ``repro`` and this
    package from the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)])
    return env


class Machine:
    """How fast this machine runs right now, so that times can be reported
    as a machine of fixed speed would have measured them.

    On shared cores the same work takes up to 2.5x longer for seconds or
    minutes at a stretch, whatever the program under test does.  The
    measured window is therefore cut into slices, a fixed piece of
    interpreter work is timed between them, and every duration of a slice
    is multiplied by ``REFERENCE_S`` over the mean of the two samples
    around it.  The work has two parts, because neighbours slow each at a
    different rate: arithmetic, and dict / set / list building over 45 000
    tuples.  A sample is the median of three turns, so that a stall of a few
    milliseconds (a third of all time here is spent in those) is not taken
    for the machine's speed."""

    #: What one sample takes on the machine the README's numbers are from,
    #: when that machine is quiet.
    REFERENCE_S = 0.025

    def __init__(self, cpu: int | None = None) -> None:
        """``cpu``: where the program under test runs, when that is not
        wherever this thread runs."""
        self.cpu = cpu
        self.facts = [
            (f"emp{i}", method, i) for i in range(15_000) for method in ("sal", "boss", "isa")]
        self.samples: list[float] = []
        self.sample()

    def _turn(self) -> float:
        started = time.perf_counter()
        total = 0
        for i in range(250_000):
            total += i * i % 7
        index: dict = {}
        for host, method, value in self.facts:
            index.setdefault(host, {})[method] = value
        total += sum(row["sal"] for row in index.values())
        total += len(frozenset(self.facts)) + len([f for f in self.facts if f[2] % 3])
        return time.perf_counter() - started

    def sample(self) -> float:
        home = os.sched_getaffinity(0)
        if self.cpu is not None:
            os.sched_setaffinity(0, {self.cpu})
        # a collection would cost what this process's heap holds, not what
        # the machine does; the turn's own garbage is freed by reference count
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.samples.append(statistics.median(self._turn() for _ in range(3)))
        finally:
            if collecting:
                gc.enable()
            os.sched_setaffinity(0, home)
        return self.samples[-1]

    def scale(self) -> float:
        """Sample again; the factor that turns a duration measured since
        the previous sample into reference-machine time."""
        before = self.samples[-1]
        return self.REFERENCE_S / ((before + self.sample()) / 2)

    def report(self, **unscaled: float) -> None:
        """Say on standard error how this run was scaled, and what the
        window's metrics read on this machine's own clock."""
        middle = statistics.median(self.samples)
        print(f"machine speed: calibration took {ms(middle):.1f} ms (median of "
              f"{len(self.samples)}), reference {ms(self.REFERENCE_S):.0f} ms: times were "
              f"scaled by about {self.REFERENCE_S / middle:.3f}", file=sys.stderr)
        print("unscaled: " + " ".join(f"{name}={value:.4f}" for name, value in unscaled.items()),
              file=sys.stderr)


def ms(seconds: float) -> float:
    return seconds * 1000.0


def median_ms(samples: list[float]) -> float:
    """Median of a list of durations in seconds, as milliseconds (0 when
    the phase produced no sample)."""
    return ms(statistics.median(samples)) if samples else 0.0


def tail_ms(samples: list[float]) -> tuple[float, float, int]:
    """``(value_ms, percentile, n)``: the highest of p75/p90/p95/p99 that
    still has at least ten samples beyond it (the median when none has)."""
    n = len(samples)
    if not n:
        return 0.0, 0.0, 0
    ordered = sorted(samples)
    chosen = 50
    for pct in (75, 90, 95, 99):
        if n * (100 - pct) / 100 >= 10:
            chosen = pct
    index = min(n - 1, int(n * chosen / 100))
    return ms(ordered[index]), float(chosen), n


@dataclass
class Tally:
    """Operations attempted and failed (errors, refusals, wrong answers,
    lost commits), with the first few reasons kept for the report."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def check(self, ok: bool, note: str = "", *, failures: int = 1) -> bool:
        """Count one attempted operation; when not ``ok``, ``failures`` of
        them failed (a verification scan can find several lost commits)."""
        with self._lock:  # the writer and reader threads share one tally
            self.attempted += 1
            if not ok:
                self.failed += failures
                if len(self.notes) < 10:
                    self.notes.append(note)
        return ok


class Spans:
    """In-memory span log of a traced run: ``{layer, op_id, start, end,
    parent}``, written out once when the run ends."""

    def __init__(self) -> None:
        self.rows: list[dict] = []

    def add(self, layer: str, op_id: str, start: float, end: float,
            parent: str | None) -> None:
        self.rows.append({
            "layer": layer, "op_id": op_id, "start": start, "end": end,
            "parent": parent,
        })

    def write(self, workload: str) -> Path:
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"trace-{workload}.jsonl"
        with path.open("w") as out:
            for row in self.rows:
                out.write(json.dumps(row) + "\n")
        return path


class Scratch:
    """A temporary directory inside the benchmark's own ``results/`` (the
    run may write nowhere else) that also owns every server child: leaving
    the ``with`` block kills and reaps them and removes the directory, on
    success and on failure alike."""

    def __init__(self) -> None:
        RESULTS.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="tmp-", dir=RESULTS))
        self.children: list = []  # anything with kill(): servers, ladder workers

    def __enter__(self) -> "Scratch":
        return self

    def __exit__(self, *exc_info) -> None:
        for child in self.children:
            child.kill()
        shutil.rmtree(self.path, ignore_errors=True)

    def subdir(self, name: str) -> Path:
        return self.path / name

    def serve(self, store_dir: Path) -> "Server":
        server = Server(store_dir, self.path / f"s{len(self.children)}.sock")
        self.children.append(server)
        return server


class Server:
    """One ``python -m repro serve --durability fsync --socket ...`` child."""

    def __init__(self, store_dir: Path, socket_path: Path) -> None:
        self.store_dir = store_dir
        # AF_UNIX paths are capped near 108 bytes: address the socket
        # relative to the working directory when that is shorter.
        relative = os.path.relpath(socket_path)
        self.socket = min(relative, str(socket_path), key=len)
        self.process: subprocess.Popen | None = None

    def start(self) -> None:
        if os.path.exists(self.socket):
            os.unlink(self.socket)
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--dir", str(self.store_dir),
             "--socket", self.socket, "--durability", DURABILITY],
            env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        os.sched_setaffinity(self.process.pid, {SERVER_CPU})

    def connect(self, *, deadline: float = 60.0):
        """Dial until the child answers a ping (it may still be loading)."""
        limit = time.monotonic() + deadline
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.process.returncode}")
            if os.path.exists(self.socket):
                try:
                    conn = repro.connect(f"unix:{self.socket}")
                    conn.ping()
                    return conn
                except (repro.ReproError, OSError):
                    pass
            if time.monotonic() > limit:
                raise RuntimeError("repro serve did not come up in time")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def kill(self) -> None:
        """SIGKILL and reap (idempotent)."""
        if self.process is not None:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGKILL)
            self.process.wait()
            self.process = None


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported for this process")
