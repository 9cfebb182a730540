"""Where does a fan-out commit spend its subscription time?

``PYTHONPATH=src python scripts/profile_notify.py [--seed N] [--raises K]``

Rebuilds the inputs of ``serve_fanout_1k`` in process — an in-memory
``StoreService`` over the workload's 1 000-employee base, its 64
subscription bodies and its seeded stream of raises — and applies ``K``
raises through ``StoreService.apply``.  Prints the subscription manager's
time per commit (p50 and mean), the skipped / seeded / refreshed / pushed
totals with a sha256 of every push message, then the same raises again
under ``cProfile`` with the call counts of whole-body runs, answer diffs,
answer keys and folds.  Reads ``benchmarks.e2e.served``; changes nothing.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import itertools
import json
import pstats
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.e2e.served import Enterprise, raise_text  # noqa: E402
from repro.server import StoreService  # noqa: E402
from repro.storage import VersionedStore  # noqa: E402

#: ``(file, function)`` pairs whose call counts are printed.
COUNTED = {
    ("query.py", "run"), ("query.py", "diff_answers"),
    ("query.py", "_answer_sort_key"), ("query.py", "fold_answers"),
    ("query.py", "delta_answers"),
}


def fan_out(seed: int):
    """The service with the 64 bodies subscribed, the raise programs, and
    the list every push message is delivered to."""
    ent = Enterprise(1_000, seed)
    service = StoreService(VersionedStore(ent.base()))
    messages: list[dict] = []
    for _manager, body in ent.subscription_bodies(64):
        service.subscriptions.subscribe(body, messages.append)
    return service, map(raise_text, ent.writer_ops()), messages


def apply_raises(service: StoreService, programs, raises: int) -> None:
    for program in itertools.islice(programs, raises):
        service.apply(program)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1992)
    parser.add_argument("--raises", type=int, default=600)
    args = parser.parse_args()

    service, programs, messages = fan_out(args.seed)
    manager = service.subscriptions
    process, notify_s = manager._process_commit, []

    def timed(revision) -> None:
        started = time.perf_counter()
        process(revision)
        notify_s.append(time.perf_counter() - started)

    manager._process_commit = timed
    apply_raises(service, programs, args.raises)
    totals = dict.fromkeys(("skipped", "seeded", "refreshed", "pushed"), 0)
    for sub in service.subscriptions.stats()["by_id"].values():
        for key in totals:
            totals[key] += sub.get(key, 0)
    print(f"{args.raises} raises, {len(service.subscriptions)} subscriptions")
    print(f"notify p50 {statistics.median(notify_s) * 1e3:.3f} ms, "
          f"mean {statistics.fmean(notify_s) * 1e3:.3f} ms")
    print("  ".join(f"{key} {value}" for key, value in totals.items()))
    digest = hashlib.sha256(json.dumps(messages).encode()).hexdigest()
    print(f"{len(messages)} push messages, sha256 {digest}")

    service, programs, _messages = fan_out(args.seed)
    profile = cProfile.Profile()
    profile.runcall(apply_raises, service, programs, args.raises)
    stats = pstats.Stats(profile)
    print(f"call counts of {args.raises} raises under cProfile:")
    for (path, _line, name), (_cc, calls, *_rest) in sorted(stats.stats.items()):
        if (Path(path).name, name) in COUNTED:
            print(f"  {calls:>8}  {Path(path).name}:{name}")


if __name__ == "__main__":
    main()
