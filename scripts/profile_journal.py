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
the raises: each such fork counts the spines of its parent's indexes —
the method keys, the 64 chunk slots of the host map, the column keys),
how many entries the writes of a commit then copy out of what the fork
shares (the median over the raises: after each commit, every chunk list,
chunk and bucket under a fork's spines that is not the parent's own
object counts its ``len()``), and how long ``load_store`` takes to reach
the head of the result.  It also counts what parsing and compiling the
raises cost: the tokenizations, the ``stratify`` calls (both wrapped here
too) and the bodies code generation compiled.  Last, outside everything
timed, it applies 16 more raises with ``pathlib.Path.open`` wrapped and
prints how many times a commit opens ``journal.jsonl``.  Reads
``benchmarks.e2e.served``; changes nothing outside a temporary directory.

A key's chunk of an index map is picked by its hash, and string hashes
change from run to run unless ``PYTHONHASHSEED`` is set, so the bucket
count would too: without the variable the script runs itself again under
``PYTHONHASHSEED=0``, and it prints the seed it ran under.
"""

from __future__ import annotations

import argparse
import itertools
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.e2e.served import Enterprise, raise_text  # noqa: E402
from repro.core import codegen, evaluation  # noqa: E402
from repro.core.objectbase import ObjectBase  # noqa: E402
from repro.lang import parser as lang_parser  # noqa: E402
from repro.server import StoreService  # noqa: E402
from repro.storage import DurabilityOptions, load_store  # noqa: E402
from repro.storage.serialize import JOURNAL_FILE  # noqa: E402

#: The raises of the journal-open count, applied after the timed ones.
OPEN_RAISES = 16


def disk(directory: Path) -> tuple[int, int]:
    """``(bytes, snapshot files)`` of a journal directory."""
    files = list(directory.iterdir())
    snapshots = sum(1 for path in files if path.name.startswith("snap-"))
    return sum(path.stat().st_size for path in files), snapshots


#: The index slots of an ``ObjectBase``, each with the number of its levels
#: a fork of a frozen base copies whole: the method and column spines and
#: the host map's list of chunks.  Below them the fork shares everything
#: until it writes.
SPINES = {"_by_host": 1, "_by_method": 1, "_by_arg": 2}


def _values(container) -> list:
    return list(container.values() if isinstance(container, dict) else container)


def _pairs(mine, theirs) -> list[tuple]:
    """``(value, the value at the same place in theirs)`` for each slot of
    the dict or list ``mine``."""
    if isinstance(mine, dict):
        theirs = theirs if isinstance(theirs, dict) else {}
        return [(value, theirs.get(key)) for key, value in mine.items()]
    theirs = theirs if isinstance(theirs, list) else []
    return [(value, theirs[i] if i < len(theirs) else None) for i, value in enumerate(mine)]


def _private(mine, theirs) -> int:
    """The entries of ``mine`` and of every container under it that is not
    the identical object at the same place in ``theirs``."""
    if mine is theirs:
        return 0
    if isinstance(mine, (dict, list)):
        return len(mine) + sum(_private(m, t) for m, t in _pairs(mine, theirs))
    return len(mine)  # a bucket of facts


def copied_entries(parent: ObjectBase) -> int:
    """The entries a fork of the frozen ``parent`` copies: the
    :data:`SPINES` levels of its index slots."""
    total = 0
    for slot, levels in SPINES.items():
        containers = [getattr(parent, slot)]
        for _ in range(levels):
            total += sum(map(len, containers))
            containers = [value for c in containers for value in _values(c)]
    return total


def bucket_entries(parent: ObjectBase, child: ObjectBase) -> int:
    """The entries the writes to ``child``, a fork of the frozen
    ``parent``, have made its own below the spines: each chunk list, chunk
    and bucket that is not the parent's object counts its size."""
    total = 0
    for slot, levels in SPINES.items():
        pairs = [(getattr(child, slot), getattr(parent, slot))]
        for _ in range(levels):
            pairs = [pair for mine, theirs in pairs for pair in _pairs(mine, theirs)]
        total += sum(_private(mine, theirs) for mine, theirs in pairs)
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


def count_calls(module, name: str, calls: list[int]):
    """Wrap ``module.name`` so each call appends 1 to ``calls``; returns
    the original."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    setattr(module, name, counted)
    return original


def count_opens(name: str, opens: list[int]):
    """Wrap ``Path.open`` so each open of a file called ``name`` appends 1
    to ``opens``; returns the original."""
    original = Path.open

    def counted(self, *args, **kwargs):
        if self.name == name:
            opens.append(1)
        return original(self, *args, **kwargs)

    Path.open = counted
    return original


def main() -> None:
    if "PYTHONHASHSEED" not in os.environ:
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.orig_argv[1:]])
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
        tokenizations: list[int] = []
        stratifications: list[int] = []
        tokenize = count_calls(lang_parser, "tokenize", tokenizations)
        stratify = count_calls(evaluation, "stratify", stratifications)
        bodies0 = codegen._STATS["bodies_compiled"]
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
        lang_parser.tokenize, evaluation.stratify = tokenize, stratify
        bodies = codegen._STATS["bodies_compiled"] - bodies0
        bytes1, files1 = disk(directory)
        started = time.perf_counter()
        len(load_store(directory).current)  # snapshots load lazily: touch the head
        load_s = time.perf_counter() - started
        opens: list[int] = []
        path_open = count_opens(JOURNAL_FILE, opens)
        for emp in itertools.islice(ent.writer_ops(), OPEN_RAISES):
            service.apply(raise_text(emp))
        Path.open = path_open

    commits_s = plain_s + snapshot_s
    print(f"{args.raises} fsync'd raises at {args.employees} employees, "
          f"{len(service.store.current)} facts, "
          f"PYTHONHASHSEED={os.environ['PYTHONHASHSEED']}")
    print(f"snapshot files written: {files1 - files0}")
    print(f"bytes written per commit: {(bytes1 - bytes0) / args.raises:.0f}")
    print(f"commit p50 {statistics.median(commits_s) * 1e3:.2f} ms, "
          f"max {max(commits_s) * 1e3:.2f} ms")
    print(f"parse and compile: {len(tokenizations)} tokenizations, "
          f"{len(stratifications)} stratify calls, {bodies} bodies compiled")
    print(f"fork entries per commit: {len(forks) / args.raises:g} forks, "
          f"{sum(forks) / args.raises:.0f} entries")
    print(f"bucket entries per commit: {statistics.median(buckets):.0f}")
    print(f"share of commit time in snapshot commits: "
          f"{sum(snapshot_s) / sum(commits_s):.1%} ({len(snapshot_s)} commits)")
    print(f"load_store to head: {load_s * 1e3:.0f} ms")
    print(f"journal opens per commit: {len(opens) / OPEN_RAISES:g}")


if __name__ == "__main__":
    main()
