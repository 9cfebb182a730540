"""What does a journal-backed commit write, and what do snapshots cost it?

``PYTHONPATH=src python scripts/profile_journal.py [--seed N] [--raises K]
[--employees E]``

Rebuilds the ``serve_mixed_10k`` base in process, opens a fresh journal
directory for it with a ``StoreService`` under ``fsync`` durability, and
applies ``K`` single-employee raises through ``StoreService.apply`` (the
workload's writer stream).  Prints the snapshot files the raises wrote,
the bytes each commit added to the directory (journal lines and snapshot
files together), commit p50 / max, the share of all commit time spent in
the commits that wrote a snapshot, how many entries the forks of frozen
bases copy per commit (``ObjectBase.fork`` is wrapped in this script for
the raises: each such fork counts the ``len()`` of every dict and set slot
of its parent except ``_owned`` and an adopted fact set, plus each
per-method dict of ``_by_arg``), how many entries the writes of a commit
then copy out of the shared buckets (the median over the raises: after
each commit, every value in a dict slot of such a fork that is not the
parent's own object counts its ``len()``, and a dict value also counts
the ``len()`` of each of its values that is not the parent's), and how
long ``load_store`` takes to reach the head of the result.  Reads
``benchmarks.e2e.served``; changes nothing outside a temporary directory.
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
from repro.core.objectbase import ObjectBase  # noqa: E402
from repro.server import StoreService  # noqa: E402
from repro.storage import DurabilityOptions, load_store  # noqa: E402


def disk(directory: Path) -> tuple[int, int]:
    """``(bytes, snapshot files)`` of a journal directory."""
    files = list(directory.iterdir())
    snapshots = sum(1 for path in files if path.name.startswith("snap-"))
    return sum(path.stat().st_size for path in files), snapshots


def copied_entries(parent: ObjectBase) -> int:
    """The entries a fork of the frozen ``parent`` copies: its dict and
    set slots (not the fork's own ``_owned`` marks, not an adopted fact
    set), plus the per-method dicts of the column indexes."""
    total = 0
    for slot in ObjectBase.__slots__:
        value = getattr(parent, slot, None)
        if slot not in ("_owned", "_adopted") and isinstance(value, (dict, set)):
            total += len(value)
    return total + sum(len(per_column) for per_column in parent._by_arg.values())


def bucket_entries(parent: ObjectBase, child: ObjectBase) -> int:
    """The entries the writes to ``child``, a fork of the frozen
    ``parent``, have put into buckets of its own: every value of a dict
    slot that is not the parent's object counts its size, and a dict value
    also counts the values of its own that are not the parent's."""
    total = 0
    for slot in ObjectBase.__slots__:
        mine = getattr(child, slot, None)
        if slot in ("_owned", "_adopted") or not isinstance(mine, dict):
            continue
        theirs = getattr(parent, slot, None) or {}
        for key, value in mine.items():
            shared = theirs.get(key)
            if value is shared:
                continue
            total += len(value)
            if isinstance(value, dict):
                shared = shared if isinstance(shared, dict) else {}
                total += sum(
                    len(inner)
                    for inner_key, inner in value.items()
                    if inner is not shared.get(inner_key)
                )
    return total


def count_forks(forks: list[int], pairs: list[tuple[ObjectBase, ObjectBase]]):
    """Wrap ``ObjectBase.fork`` so each fork of a frozen base appends its
    :func:`copied_entries` to ``forks`` and ``(parent, fork)`` to
    ``pairs``; returns the unwrapped method."""
    fork = ObjectBase.fork

    def counted(self: ObjectBase) -> ObjectBase:
        child = fork(self)
        if self.frozen:
            forks.append(copied_entries(self))
            pairs.append((self, child))
        return child

    ObjectBase.fork = counted
    return fork


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
        forks: list[int] = []
        pairs: list[tuple[ObjectBase, ObjectBase]] = []
        buckets: list[int] = []
        fork = count_forks(forks, pairs)
        for emp in itertools.islice(ent.writer_ops(), args.raises):
            started = time.perf_counter()
            service.apply(raise_text(emp))
            elapsed = time.perf_counter() - started
            buckets.append(sum(bucket_entries(*pair) for pair in pairs))
            pairs.clear()
            _size, now = disk(directory)
            (snapshot_s if now > files else plain_s).append(elapsed)
            files = now
        ObjectBase.fork = fork
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
    print(f"fork entries per commit: {len(forks) / args.raises:g} forks, "
          f"{sum(forks) / args.raises:.0f} entries")
    print(f"bucket entries per commit: {statistics.median(buckets):.0f}")
    print(f"share of commit time in snapshot commits: "
          f"{sum(snapshot_s) / sum(commits_s):.1%} ({len(snapshot_s)} commits)")
    print(f"load_store to head: {load_s * 1e3:.0f} ms")


if __name__ == "__main__":
    main()
