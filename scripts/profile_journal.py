"""What does a journal-backed commit write, and what do snapshots cost it?

``PYTHONPATH=src python scripts/profile_journal.py [--seed N] [--raises K]
[--employees E]``

Rebuilds the ``serve_mixed_10k`` base in process, opens a fresh journal
directory for it with a ``StoreService`` under ``fsync`` durability, and
applies ``K`` single-employee raises through ``StoreService.apply`` (the
workload's writer stream).  Prints the snapshot files the raises wrote,
the bytes each commit added to the directory (journal lines and snapshot
files together), commit p50 / max, the share of all commit time spent in
the commits that wrote a snapshot, and how long ``load_store`` takes to
reach the head of the result.  Reads ``benchmarks.e2e.served``; changes
nothing outside a temporary directory.
"""

from __future__ import annotations

import argparse
import itertools
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.e2e.served import Enterprise, raise_text  # noqa: E402
from repro.server import StoreService  # noqa: E402
from repro.storage import DurabilityOptions, load_store  # noqa: E402


def disk(directory: Path) -> tuple[int, int]:
    """``(bytes, snapshot files)`` of a journal directory."""
    files = list(directory.iterdir())
    snapshots = sum(1 for path in files if path.name.startswith("snap-"))
    return sum(path.stat().st_size for path in files), snapshots


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1992)
    parser.add_argument("--raises", type=int, default=256)
    parser.add_argument("--employees", type=int, default=10_000)
    args = parser.parse_args()

    ent = Enterprise(args.employees, args.seed)
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch, "journal")
        service = StoreService.create(
            ent.base(), directory, durability=DurabilityOptions(mode="fsync")
        )
        bytes0, files0 = disk(directory)
        plain_s, snapshot_s = [], []
        files = files0
        for emp in itertools.islice(ent.writer_ops(), args.raises):
            started = time.perf_counter()
            service.apply(raise_text(emp))
            elapsed = time.perf_counter() - started
            _size, now = disk(directory)
            (snapshot_s if now > files else plain_s).append(elapsed)
            files = now
        bytes1, files1 = disk(directory)
        started = time.perf_counter()
        len(load_store(directory).current)  # snapshots load lazily: touch the head
        load_s = time.perf_counter() - started

    commits_s = plain_s + snapshot_s
    print(f"{args.raises} fsync'd raises at {args.employees} employees, "
          f"{len(service.store.current)} facts")
    print(f"snapshot files written: {files1 - files0}")
    print(f"bytes written per commit: {(bytes1 - bytes0) / args.raises:.0f}")
    print(f"commit p50 {statistics.median(commits_s) * 1e3:.2f} ms, "
          f"max {max(commits_s) * 1e3:.2f} ms")
    print(f"share of commit time in snapshot commits: "
          f"{sum(snapshot_s) / sum(commits_s):.1%} ({len(snapshot_s)} commits)")
    print(f"load_store to head: {load_s * 1e3:.0f} ms")


if __name__ == "__main__":
    main()
