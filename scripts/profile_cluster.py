"""What does one ``cluster:`` live query cost in threads and push latency?

``PYTHONPATH=src python scripts/profile_cluster.py [--raises N]``

Stands up, in process, a ``LocalCluster`` of 1, 2 and 3 shards and one
served endpoint (``BackgroundServer``) over the same 12-employee base.  On
each it connects, runs one scatter query (so every shard link and the
router's scatter pool exist) and prints how many threads the connection
holds before its first ``subscribe`` — a served link starts none — then
subscribes one scatter body and prints how many threads that
``subscribe`` started.  It then applies ``N`` single-host
raises in one block per shard — consecutive raises of one employee on
that shard, so every shard commits — and prints the apply→push latency
p50 and max: from the ``apply`` call to the ``next()`` that returns its
delta.  Reads only public entry points, so the same script measures any
commit.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src")]

import repro  # noqa: E402
from repro.api import BackgroundServer  # noqa: E402
from repro.cluster import LocalCluster, shard_for  # noqa: E402
from repro.core.terms import Oid  # noqa: E402
from repro.lang.parser import parse_object_base  # noqa: E402
from repro.storage import VersionedStore  # noqa: E402

EMPLOYEES = 12
BASE = " ".join(
    f"e{i}.isa -> empl. e{i}.sal -> 1000." for i in range(EMPLOYEES)
)
BODY = "E.isa -> empl, E.sal -> S"


def raise_text(employee: int) -> str:
    return (
        f"raise_e{employee}: mod[e{employee}].sal -> (S, S2) <= "
        f"e{employee}.sal -> S, S2 = S + 1."
    )


def schedule(shards: int, raises: int) -> list[int]:
    """The employee of each raise: one employee per shard, in blocks."""
    picks = [
        next(i for i in range(EMPLOYEES) if shard_for(Oid(f"e{i}"), shards) == shard)
        for shard in range(shards)
    ]
    return [picks[number * shards // raises] for number in range(raises)]


def measure(
    target: str, shards: int, raises: int
) -> tuple[int, int, list[float]]:
    """``(threads the connection held before its first subscribe, threads
    that subscribe started, apply→push seconds per raise)``."""
    idle = threading.active_count()
    with repro.connect(target) as conn:
        conn.query(BODY)
        before = threading.active_count()
        held = before - idle
        stream = conn.subscribe(BODY)
        started = threading.active_count() - before
        latencies = []
        for number, employee in enumerate(schedule(shards, raises)):
            begin = time.perf_counter()
            conn.apply(raise_text(employee))
            if stream.next(timeout=5.0) is None:
                raise SystemExit(f"{target}: no push for raise {number}")
            latencies.append(time.perf_counter() - begin)
        stream.close()
    return held, started, latencies


def report(label: str, held: int, started: int, latencies: list[float]) -> None:
    print(
        f"{label:<18} held {held:+d} / subscribe {started:+d} thread(s)   "
        f"apply->push p50 {statistics.median(latencies) * 1e3:7.2f} ms   "
        f"max {max(latencies) * 1e3:7.2f} ms"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--raises", type=int, default=30)
    args = parser.parse_args()

    print(f"{args.raises} raises per target, body {BODY!r}")
    for shards in (1, 2, 3):
        with LocalCluster(BASE, shards=shards) as cluster:
            report(
                f"cluster: {shards} shard(s)",
                *measure(cluster.target, shards, args.raises),
            )
    with tempfile.TemporaryDirectory() as scratch, BackgroundServer(
        VersionedStore(parse_object_base(BASE)), path=f"{scratch}/one.sock"
    ) as server:
        report("served endpoint", *measure(server.target, 1, args.raises))


if __name__ == "__main__":
    main()
