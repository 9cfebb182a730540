#!/usr/bin/env python3
"""Chaos-guard check: hold a fresh ``benchmarks.sweeps`` document against
the committed one under ``benchmarks/baselines/``.

Correctness invariants are absolute (a breach fails whatever the machine);
throughputs are compared as ratios against the committed baseline with a
generous tolerance, because absolute wall times are not portable across CI
machines.  Exit status 0 when everything holds, 1 with a per-check report
otherwise.  What the ``chaos`` CI job runs, one pair per sweep::

    python benchmarks/check_regression.py \
        --soak-baseline benchmarks/baselines/BENCH_PR6.json \
        --soak-fresh bench-soak-ci.json

* ``--soak-*`` — consistent subscribers, an intact journal and zero
  non-retryable errors are absolute; commit throughput is a ratio.
* ``--replication-*`` — zero lost acknowledged commits, a consistent
  post-failover subscription and an intact journal are absolute; catch-up
  has a ceiling, replica read fanout a floor and a ratio.
* ``--cluster-*`` — scatter answers equal to the memory replay at every
  shard count is absolute; routed single-shard commits keep >= 0.9x of
  standalone, and their throughput is a ratio.  (The sweep still reports
  read scaling across shard counts, ungated: its old >= 3x floor measured
  base-sized per-commit work that O(delta) commits removed.)
* ``--obs-*`` — with the metrics registry on, the enterprise apply stays
  within 5 % of the off time and the serve run within 5 % of the off
  throughput (both halves of each ratio come from one process).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Followers must absorb the write burst within this many seconds (the
#: committed baseline is well under one).
REPLICATION_CATCHUP_CEILING_S = 15.0
#: Aggregate replica reads/s: below this the fanout path is broken,
#: whatever the machine.
REPLICA_READS_FLOOR = 50.0
#: Metrics on may cost at most this multiple of the metrics-off apply time…
OBS_P1_OVERHEAD_CEILING = 1.05
#: …and must keep this fraction of the metrics-off serve throughput.
OBS_SERVE_THROUGHPUT_FLOOR = 0.95
#: Commits routed through a 1-shard cluster over standalone commits.
CLUSTER_COMMIT_RATIO_FLOOR = 0.9


class Report:
    """Prints one line per check and remembers the failed ones."""

    def __init__(self, tolerance: float) -> None:
        self.tolerance = tolerance
        self.failures: list[str] = []

    def _line(self, name: str, detail: str, ok: bool) -> None:
        print(f"{name:<45} {detail:<40} {'ok' if ok else 'REGRESSION'}")
        if not ok:
            self.failures.append(name)

    def exact(self, name: str, got, want) -> None:
        self._line(name, f"fresh {got!r}  required {want!r}", got == want)

    def floor(self, name: str, got: float, floor: float) -> None:
        self._line(name, f"fresh {got:.3f}  floor {floor:.2f}", got >= floor)

    def ceiling(self, name: str, got: float, ceiling: float) -> None:
        self._line(name, f"fresh {got:.3f}  ceiling {ceiling:.2f}", got <= ceiling)

    def ratio(self, name: str, fresh: float, baseline: float) -> None:
        bound = baseline * (1.0 - self.tolerance)
        self._line(
            name,
            f"fresh {fresh:.2f}  baseline {baseline:.2f}  bound {bound:.2f}",
            fresh >= bound,
        )


def check_soak(report: Report, fresh: dict, baseline: dict) -> None:
    report.exact("soak consistent", fresh.get("consistent"), True)
    report.exact("soak journal_ok", fresh.get("journal_ok"), True)
    report.exact(
        "soak non_retryable_errors", fresh.get("non_retryable_errors"), 0
    )
    report.ratio(
        "soak commit throughput (commits/s)",
        fresh["commits_per_second"], baseline["commits_per_second"],
    )


def check_replication(report: Report, fresh: dict, baseline: dict) -> None:
    report.exact(
        "replication lost_acknowledged_commits",
        fresh.get("lost_acknowledged_commits"), 0,
    )
    report.exact("replication consistent", fresh.get("consistent"), True)
    report.exact("replication journal_ok", fresh.get("journal_ok"), True)
    report.ceiling(
        "replication catch-up ceiling (s)",
        fresh["replication_catchup_seconds"], REPLICATION_CATCHUP_CEILING_S,
    )
    fanout = fresh["replica_reads_per_second"]
    report.floor("replica read fanout floor (reads/s)", fanout, REPLICA_READS_FLOOR)
    report.ratio(
        "replica read fanout (reads/s)",
        fanout, baseline["replica_reads_per_second"],
    )


def check_cluster(report: Report, fresh: dict, baseline: dict) -> None:
    report.exact("cluster consistent", fresh.get("consistent"), True)
    report.floor(
        "cluster single-shard commit ratio floor",
        fresh["commit_throughput_ratio_routed_over_standalone"],
        CLUSTER_COMMIT_RATIO_FLOOR,
    )
    report.ratio(
        "cluster routed commit throughput (commits/s)",
        fresh["routed_commits_per_second"],
        baseline["routed_commits_per_second"],
    )


def check_obs(report: Report, fresh: dict, baseline: dict) -> None:
    report.ceiling(
        "obs P1 overhead ceiling (on/off time)",
        fresh["p1_overhead_ratio_on_over_off"], OBS_P1_OVERHEAD_CEILING,
    )
    serve_ratio = fresh["serve_throughput_ratio_on_over_off"]
    report.floor(
        "obs serve throughput floor (on/off)",
        serve_ratio, OBS_SERVE_THROUGHPUT_FLOOR,
    )
    report.ratio(
        "obs serve throughput vs baseline",
        serve_ratio, baseline["serve_throughput_ratio_on_over_off"],
    )


CHECKS = {
    "soak": check_soak,
    "replication": check_replication,
    "cluster": check_cluster,
    "obs": check_obs,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for kind in CHECKS:
        parser.add_argument(
            f"--{kind}-baseline", type=Path, default=None,
            help=f"committed {kind} document under benchmarks/baselines/",
        )
        parser.add_argument(
            f"--{kind}-fresh", type=Path, default=None,
            help=f"{kind} document produced by this run",
        )
    parser.add_argument(
        "--tolerance", type=float, default=0.5,
        help="allowed relative shortfall vs the baseline ratio "
        "(default: %(default)s — CI machines are noisy)",
    )
    arguments = parser.parse_args(argv)

    report = Report(arguments.tolerance)
    for kind, check in CHECKS.items():
        baseline = getattr(arguments, f"{kind}_baseline")
        fresh = getattr(arguments, f"{kind}_fresh")
        if baseline and fresh:
            check(
                report,
                json.loads(fresh.read_text(encoding="utf-8")),
                json.loads(baseline.read_text(encoding="utf-8")),
            )

    if report.failures:
        print(
            f"\n{len(report.failures)} regression(s): "
            f"{', '.join(report.failures)}"
        )
        return 1
    print("\nall guards hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
