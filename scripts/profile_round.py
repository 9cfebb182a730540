"""Where does a ``batch_program_4k`` round spend its second?

``PYTHONPATH=src python scripts/profile_round.py [--seed N] [--rounds K]``

One warm round under ``cProfile`` (top 30 by cumulative time, plus the call
counts ISSUE 23 pinned), then ``K`` un-profiled rounds with a
``gc.callbacks`` probe: collections and seconds per generation inside the
timed part of each round.  Reads ``benchmarks.e2e.batch``; changes nothing.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import pstats
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.e2e.batch import Batch, BatchSpec  # noqa: E402

#: ``(file, function)`` pairs whose call counts the issue pinned.
COUNTED = {
    ("atoms.py", "substitute"), ("truth.py", "update_atom_true_in_head"),
    ("consequence.py", "add"), ("terms.py", "kind_chain"),
    ("objectbase.py", "add"), ("objectbase.py", "discard"),
    ("objectbase.py", "add_state"), ("objectbase.py", "replace_state_diff"),
    ("grounding.py", "_check_ground"), ("facts.py", "__init__"),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1992)
    parser.add_argument("--rounds", type=int, default=6)
    args = parser.parse_args()
    batch = Batch(BatchSpec("batch_program_4k", 4_000), args.seed)  # warms up

    profile = cProfile.Profile()
    profile.runcall(batch.round)
    stats = pstats.Stats(profile).sort_stats("cumulative")
    stats.print_stats(30)
    print("call counts in one warm round:")
    for (path, _line, name), (_cc, calls, *_rest) in sorted(stats.stats.items()):
        if (Path(path).name, name) in COUNTED:
            print(f"  {calls:>8}  {Path(path).name}:{name}")

    events: list[list] = []  # [generation, started, seconds]

    def probe(phase: str, info: dict) -> None:
        if phase == "start":
            events.append([info["generation"], time.perf_counter(), 0.0])
        else:
            events[-1][2] = time.perf_counter() - events[-1][1]

    print(f"\n{args.rounds} un-profiled rounds, collections inside the timed part:")
    full = []
    for index in range(args.rounds):
        events.clear()
        gc.callbacks.append(probe)
        try:
            seconds, _results = batch.round()
        finally:
            gc.callbacks.remove(probe)
        # round() opens with its own gc.collect(), before the clock starts
        explicit = next(i for i, event in enumerate(events) if event[0] == 2)
        timed = events[explicit + 1:]
        full.append(sum(1 for event in timed if event[0] == 2))
        per_generation = ", ".join(
            f"gen{g}: {sum(1 for e in timed if e[0] == g)} in "
            f"{sum(e[2] for e in timed if e[0] == g):.3f} s"
            for g in (0, 1, 2)
        )
        print(f"  round {index}: {sum(seconds):.3f} s  ({per_generation})")
    print(f"full collections per round, median: {statistics.median(full)}")


if __name__ == "__main__":
    main()
