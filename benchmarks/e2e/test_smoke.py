"""Smoke test of the end-to-end benchmark: every workload at toy size.

Collected by the tier-1 command.  It checks the harness, not the numbers:
every metric ``BENCHMARK.json`` declares is emitted, the oracles pass, and
a failing run still reaps its server children and removes its scratch
directory.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from benchmarks.e2e import run
from benchmarks.e2e.harness import RESULTS, Scratch

CONTRACT = json.loads(run.BENCHMARK_JSON.read_text())
TOY = {"n_employees": 50}
TOY_BATCH = {"n_employees": 50, "generations": 4, "per_generation": 6}


def toy_run(name: str, trace: bool, seconds: float = 0.6):
    """``(values, result)``: what the run measured, and its result object."""
    spec, module = run._import_workloads()[name]
    spec = dataclasses.replace(spec, **(TOY_BATCH if hasattr(spec, "generations") else TOY))
    values, tally = run.measure(spec, module, seed=3, seconds=seconds, trace=trace)
    return values, run.result_object(values, tally, trace)


def leftovers() -> list:
    return list(RESULTS.glob("tmp-*"))


def declared(kind: str) -> list[str]:
    return [metric["name"] for metric in CONTRACT[kind]]


#: Per-layer metrics only the batch workload measures, and the ones it shares
#: with the served workloads (the engine rungs of the commit ladder).
BATCH_ONLY = {name for name in declared("per_layer") if name.endswith("_apply_ms")} | {
    "core.fixpoint_iterations", "core.result_facts"}
BATCH_SHARED = {
    "lang.parse_program_ms", "core.compile_ms", "core.evaluate_ms", "core.new_base_ms",
    "api.commit_ladder_top_ms", "api.commit_ladder_residual_ms", "api.reads_per_s"}
SUBSCRIBED_ONLY = {name for name in declared("per_layer") if ".push_" in name} | {
    "server.subscriptions.notify_ms", "server.subscriptions.refreshed_share",
    "server.subscriptions.pushes_per_commit"}


# The two mixed workloads differ from the fan-out one only in size and
# subscriptions, so the traced run (a dozen child processes) is made once
# with subscriptions; ``test_mixed_ladder_has_no_subscribed_rung`` covers
# the other shape without a run.
@pytest.mark.parametrize("name, trace, seconds", [
    ("serve_mixed_10k", False, 0.3),
    ("serve_mixed_1k", False, 0.3),
    ("serve_fanout_1k", False, 0.6),
    ("serve_fanout_1k", True, 0.6),
    ("batch_program_4k", False, 0.6),
    ("batch_program_4k", True, 0.6),
])
def test_workload_measures_its_metrics_and_emits_every_declared_one(name, trace, seconds):
    values, result = toy_run(name, trace, seconds)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == declared(kind)
    for metric in CONTRACT[kind]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        expected = set(declared(kind))
        assert all(value > 0 for value in values.values())
    elif name == "batch_program_4k":
        expected = BATCH_ONLY | BATCH_SHARED
    else:
        expected = set(declared(kind)) - BATCH_ONLY
    # a zero in the result object is a layer not loaded, never one not measured
    assert set(values) == expected
    if trace:
        assert all(values[name] > 0 for name in expected if name.endswith("_top_ms"))
        assert values["core.evaluate_ms"] > 0
    assert leftovers() == []


def test_mixed_ladder_has_no_subscribed_rung():
    from benchmarks.e2e import ladder

    rungs = ladder.commit_rungs(subscribed=False)
    assert {name for name, _label in ladder.COMMIT_RUNGS} - {name for name, _l in rungs} == {
        "server.subscriptions.notify_ms"}
    assert rungs[-1] == ladder.COMMIT_RUNGS[-1]


def test_contract_lists_the_four_workloads():
    assert [workload["name"] for workload in CONTRACT["workloads"]] == list(
        run._import_workloads())
    assert CONTRACT["paths"] == ["benchmarks/e2e"]


def test_failed_run_reaps_children_and_removes_scratch(monkeypatch):
    children = []
    serve = Scratch.serve

    def recording(self, store_dir):
        server = serve(self, store_dir)
        children.append(server)
        return server

    def boom(self):
        raise RuntimeError("stream check blew up")

    from benchmarks.e2e import served

    monkeypatch.setattr(Scratch, "serve", recording)
    monkeypatch.setattr(served.Stage, "check_streams", boom)
    with pytest.raises(RuntimeError, match="blew up"):
        toy_run("serve_mixed_1k", False, 0.1)
    assert children and all(child.process is None for child in children)
    assert leftovers() == []


def test_wrong_answer_is_counted_and_fails_the_run(monkeypatch):
    from benchmarks.e2e import batch

    # an oracle that disagrees with the engine stands in for a wrong engine
    monkeypatch.setattr(batch, "section_2_3", lambda salary, boss, managers: ({}, set()))
    _values, result = toy_run("batch_program_4k", False, 0.1)
    assert not result["correct"] and result["failed"] > 0


def write_runs(path, workloads, value=10.0):
    runs = [
        {"workload": name, "seed": seed, "trace": 0, "failed": 0,
         "metrics": {metric: {"value": value, "unit": "x"} for metric in declared("end_to_end")}}
        for name in workloads for seed in (1, 2)
    ]
    path.write_text(json.dumps({"runs": runs}))
    return path


def test_compare_counts_a_missing_workload_and_a_zero_base_as_regressions(tmp_path, capsys):
    from benchmarks.e2e.compare import main_compare

    names = [workload["name"] for workload in CONTRACT["workloads"]]
    full = write_runs(tmp_path / "full.json", names)
    assert main_compare([str(full), str(full)], CONTRACT) == 0
    assert "REGRESSION" not in capsys.readouterr().out
    crashed = write_runs(tmp_path / "crashed.json", names[1:])  # one workload left no rows
    assert main_compare([str(full), str(crashed)], CONTRACT) == 1
    assert f"{names[0]:18s} setup_s" in capsys.readouterr().out
    zero = write_runs(tmp_path / "zero.json", names, value=0.0)
    assert main_compare([str(zero), str(full)], CONTRACT) == 1
    slower = write_runs(tmp_path / "slower.json", names, value=20.0)
    assert main_compare([str(full), str(slower)], CONTRACT) == 1
