"""``python -m benchmarks.e2e compare A.json B.json``: one row per
(workload, end-to-end metric) that ``BENCHMARK.json`` declares, with both
medians and the ratio B / A, judged by the metric's bound.

A metric is *unresolved*, not unchanged, when either file's own run-to-run
spread (interquartile range over its median, or the full range with fewer
than four runs) exceeds the bound.  A declared pair that either file lacks
(a run that crashed leaves no rows) or whose ratio cannot be formed is a
regression.  Per-layer metrics carry no bound and are listed for
information.  Exits non-zero on a regression or on a run that reported
failed operations.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
from pathlib import Path


def _collect(path: Path) -> tuple[dict, int]:
    """``{(workload, metric): [values]}`` and the failed-operation total."""
    values: dict[tuple[str, str], list[float]] = {}
    failed = 0
    for run in json.loads(path.read_text())["runs"]:
        failed += run["failed"]
        for metric, reading in run["metrics"].items():
            values.setdefault((run["workload"], metric), []).append(reading["value"])
    return values, failed


def _spread(values: list[float]) -> float:
    middle = statistics.median(values)
    if len(values) < 2 or not middle:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(middle)
    low, _mid, high = statistics.quantiles(values, n=4)
    return (high - low) / abs(middle)


def main_compare(argv: list[str], contract: dict) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e compare")
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    arguments = parser.parse_args(argv)
    (base, base_failed), (change, change_failed) = (
        _collect(arguments.base), _collect(arguments.change))
    regressions = 0
    print(f"{'workload':18s} {'metric':44s} {'base':>12s} {'change':>12s} "
          f"{'change / base':<20s} verdict")
    for workload in (entry["name"] for entry in contract["workloads"]):
        for metric in contract["end_to_end"]:
            key, bound = (workload, metric["name"]), metric["bound"]
            if key not in base or key not in change:
                absent = " and ".join(
                    label for label, rows in (("base", base), ("change", change))
                    if key not in rows)
                print(f"{workload:18s} {metric['name']:44s} REGRESSION (missing from {absent})")
                regressions += 1
                continue
            old, new = statistics.median(base[key]), statistics.median(change[key])
            ratio = new / old if old else math.nan
            worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            if math.isnan(ratio):
                verdict = "REGRESSION (no ratio: base is 0)"
            elif max(_spread(base[key]), _spread(change[key])) > bound:
                verdict = f"unresolved (spread > {bound:.0%})"
            elif worse > bound:
                verdict = f"REGRESSION (> {bound:.0%} worse)"
            else:
                verdict = "ok"
            regressions += verdict.startswith("REGRESSION")
            print(f"{workload:18s} {metric['name']:44s} {old:12.4f} {new:12.4f} "
                  f"{ratio:6.3f} of {old:<10.4g} {verdict}")
    gated = {metric["name"] for metric in contract["end_to_end"]}
    for key in sorted(base.keys() & change.keys()):
        if key[1] not in gated:
            old, new = statistics.median(base[key]), statistics.median(change[key])
            if not old and not new:  # a layer the workload does not load
                continue
            ratio = new / old if old else math.nan
            print(f"{key[0]:18s} {key[1]:44s} {old:12.4f} {new:12.4f} "
                  f"{ratio:6.3f} of {old:<10.4g}")
    for label, failed in (("base", base_failed), ("change", change_failed)):
        if failed:
            print(f"{label}: {failed} failed operations")
    return 1 if regressions or change_failed > base_failed else 0
