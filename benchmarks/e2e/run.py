"""Command line of the benchmark.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    One run in this process; the last line of standard output is the result
    object ``{"correct", "attempted", "failed", "metrics"}``.  Untraced runs
    carry the end-to-end metrics of ``BENCHMARK.json``, traced runs the
    per-layer ones (a layer the workload does not load reports 0).
``python -m benchmarks.e2e run [--seed N ...] --out FILE``
    Every workload, untraced and traced, each as a fresh process of the
    command above, once per ``--seed`` given (name a seed twice to run it
    twice); prints every metric by name with its unit.
``python -m benchmarks.e2e compare A.json B.json``
    Apply the bounds of ``BENCHMARK.json`` to two files written by ``run``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"
DEFAULT_SEED = 1992


def _load_contract() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def _import_workloads() -> dict:
    """Name -> (spec, module); imports the system under test, which a
    directory holding only the benchmark's own files does not have."""
    if not (REPO_ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no src/repro under {REPO_ROOT}; nothing to measure")
    # as a script, sys.path[0] is this directory: make the package importable
    sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]
    from benchmarks.e2e import batch, served

    return {
        "serve_mixed_10k": (served.ServedSpec("serve_mixed_10k", 10_000), served),
        "serve_mixed_1k": (served.ServedSpec("serve_mixed_1k", 1_000), served),
        "serve_fanout_1k": (
            served.ServedSpec("serve_fanout_1k", 1_000, subscriptions=64), served),
        "batch_program_4k": (batch.BatchSpec("batch_program_4k", 4_000), batch),
    }


def measure(spec, module, seed: int, seconds: float, trace: bool):
    """One run of one workload: ``(values, tally)`` with exactly the metrics
    the run measured."""
    if not trace:
        return module.run_untraced(spec, seed, seconds)
    from benchmarks.e2e.harness import Spans

    spans = Spans()
    values, tally = module.run_traced(spec, seed, seconds, spans)
    spans.write(spec.name)
    _print_ladders(values)
    return values, tally


def result_object(values: dict, tally, trace: bool) -> dict:
    """The contract's result object.  An untraced run must have measured
    every end-to-end metric; a traced run reports 0 for the per-layer
    metrics of layers its workload does not load."""
    declared = _load_contract()["per_layer" if trace else "end_to_end"]
    names = {metric["name"] for metric in declared}
    if values.keys() - names or (not trace and names - values.keys()):
        raise RuntimeError(
            f"measured {sorted(values)}, BENCHMARK.json declares {sorted(names)}")
    for note in tally.notes:
        print(f"failed: {note}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            metric["name"]: {
                "value": float(values.get(metric["name"], 0.0)), "unit": metric["unit"],
            }
            for metric in declared
        },
    }


def _print_ladders(values: dict) -> None:
    """The layer table of a traced run: self time and share of the top rung."""
    from benchmarks.e2e.ladder import COMMIT_RUNGS, READ_RUNGS

    for kind, rungs in (("commit", COMMIT_RUNGS), ("read", READ_RUNGS)):
        top = values.get(f"api.{kind}_ladder_top_ms")
        if not top:
            continue
        rows = [(name, label) for name, label in rungs if name in values]
        rows.append((f"api.{kind}_ladder_residual_ms", "medians do not add"))
        print(f"{kind} ladder: top rung {top:.3f} ms", file=sys.stderr)
        for name, label in rows:
            print(f"  {name:34s} {values[name]:10.3f} ms {values[name] / top:7.1%}  {label}",
                  file=sys.stderr)
    if "api.trace_overhead_share" in values:
        print(f"trace_overhead_share {values['api.trace_overhead_share']:+.1%} "
              f"(top rung vs untraced solo p50 {values['api.commit_solo_p50_ms']:.3f} ms)",
              file=sys.stderr)


def main_contract(argv: list[str]) -> int:
    contract = _load_contract()
    names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    spec, module = _import_workloads()[arguments.workload]
    trace = bool(arguments.trace)
    result = result_object(
        *measure(spec, module, arguments.seed, arguments.seconds, trace), trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main_run(argv: list[str]) -> int:
    contract = _load_contract()
    parser = argparse.ArgumentParser(prog="benchmarks.e2e run")
    parser.add_argument("--seed", type=int, action="append",
                        help=f"one set of runs per occurrence; default {DEFAULT_SEED}")
    parser.add_argument("--out", type=Path, required=True)
    arguments = parser.parse_args(argv)
    runs, ok = [], True
    for seed in arguments.seed or [DEFAULT_SEED]:
        for name in (workload["name"] for workload in contract["workloads"]):
            for trace in (0, 1):
                command = contract["command"] + [
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(contract["run_seconds"]), "--trace", str(trace),
                ]
                done = subprocess.run(
                    command, cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True)
                lines = done.stdout.strip().splitlines()
                if not lines:  # compare counts the rows this leaves out as regressions
                    print(f"{name} seed {seed} trace {trace}: no result "
                          f"(exit {done.returncode})")
                    ok = False
                    continue
                result = json.loads(lines[-1])
                ok = ok and result["correct"]
                runs.append({"workload": name, "seed": seed, "trace": trace, **result})
                print(f"{name} seed {seed} trace {trace}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}")
                for metric, reading in result["metrics"].items():
                    print(f"  {metric:46s} {reading['value']:14.4f} {reading['unit']}")
                arguments.out.write_text(json.dumps({"runs": runs}, indent=1))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["run"]:
        return main_run(argv[1:])
    if argv[:1] == ["compare"]:
        sys.path.insert(0, str(REPO_ROOT))
        from benchmarks.e2e.compare import main_compare

        return main_compare(argv[1:], _load_contract())
    return main_contract(argv)


if __name__ == "__main__":
    sys.exit(main())
