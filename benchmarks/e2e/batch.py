"""``batch_program_4k``: the paper's own workload, embedded — no store, no
socket.  Each round applies, with a fresh ``UpdateEngine``, (a) the Section
2.3 four-rule program and (b) the Section 2.1 flat 10 % raise to a
4 000-employee base and (c) the recursive ancestors program to a
genealogy, then reads the results back with ``query_literals``.

The oracles below never call the engine: a Python rendering of Section 2.3,
the closed-form raise, and a graph traversal for the ancestors.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import time
from dataclasses import dataclass

import repro
from repro.workloads import (
    ancestors_program,
    enterprise_base,
    enterprise_update_program,
    genealogy_base,
    salary_raise_program,
    true_ancestors,
)

from .harness import Machine, Spans, Tally, median_ms, peak_rss_mb
from .ladder import COMMIT_RUNGS, Rungs
from .served import POINT_SHARE, SETUPS, TEAM_SHARE, point_text, team_text

HPE_THRESHOLD = 4500
READS_PER_ROUND = 100


@dataclass(frozen=True)
class BatchSpec:
    name: str
    n_employees: int
    generations: int = 10
    per_generation: int = 30


def section_2_3(salary: dict, boss: dict, managers: set):
    """Section 2.3 in Python: everyone gets 10 %, managers $200 on top;
    then whoever out-earns their (raised) boss is fired; of the rest,
    those above the threshold become ``hpe``."""
    raised = {
        e: s * 1.1 + 200 if e in managers else s * 1.1 for e, s in salary.items()
    }
    fired = {e for e, b in boss.items() if b in raised and raised[e] > raised[b]}
    kept = {e: s for e, s in raised.items() if e not in fired}
    hpe = {e for e, s in kept.items() if s > HPE_THRESHOLD}
    return kept, hpe


def _close(got: dict, want: dict) -> bool:
    return got.keys() == want.keys() and all(
        math.isclose(got[k], want[k], rel_tol=1e-9) for k in want
    )


class Batch:
    """One set-up: the two generated bases, the three programs, the oracles'
    inputs, and one warm-up round."""

    def __init__(self, spec: BatchSpec, seed: int) -> None:
        started = time.perf_counter()
        self.tally = Tally()
        self.staff_base = enterprise_base(
            n_employees=spec.n_employees, overpaid_ratio=0.1, seed=seed)
        self.family_base = genealogy_base(
            generations=spec.generations, per_generation=spec.per_generation, seed=seed)
        self.jobs = (  # (program, base): Section 2.3, flat raise, ancestors
            (enterprise_update_program(hpe_threshold=HPE_THRESHOLD), self.staff_base),
            (salary_raise_program(percent=10.0), self.staff_base),
            (ancestors_program(), self.family_base),
        )
        self.round()
        self.setup_s = time.perf_counter() - started
        # oracle inputs, read off the generated facts (not timed as set-up)
        self.salary, self.boss, self.managers = {}, {}, set()
        for fact in self.staff_base:
            host = str(fact.host)
            if fact.method == "sal":
                self.salary[host] = fact.result.value
            elif fact.method == "boss":
                self.boss[host] = str(fact.result)
            elif fact.method == "pos":
                self.managers.add(host)
        self.kept, self.hpe = section_2_3(self.salary, self.boss, self.managers)
        self.flat = {e: s * 1.1 for e, s in self.salary.items()}
        self.ancestors = {p: a for p, a in true_ancestors(self.family_base).items() if a}
        self.rng = random.Random(f"{seed}-reader")
        self.staff = sorted(e for e in self.salary if e.startswith("emp"))
        self.read_teams = sorted(set(self.boss.values()))[:20]
        self.people = sorted(self.ancestors)

    def round(self) -> tuple[list[float], list]:
        """Apply the three programs; per-program seconds and results.

        Every round and every read phase starts from a collected heap: a
        full collection of this 170 MB process takes as long as a hundred
        reads, and where it lands would otherwise decide the numbers."""
        gc.collect()
        seconds, results = [], []
        for program, base in self.jobs:
            started = time.perf_counter()
            results.append(repro.UpdateEngine().apply(program, base))
            seconds.append(time.perf_counter() - started)
        return seconds, results

    def verify(self, results) -> None:
        """Each program's new base against its oracle, exactly."""
        enterprise, flat, family = (result.new_base for result in results)
        salaries, hpe = {}, set()
        for fact in enterprise:
            if fact.method == "sal":
                salaries[str(fact.host)] = fact.result.value
            elif fact.method == "isa" and str(fact.result) == "hpe":
                hpe.add(str(fact.host))
        self.tally.check(
            _close(salaries, self.kept) and hpe == self.hpe,
            "Section 2.3 result differs from the Python rendering",
        )
        raised = {str(f.host): f.result.value for f in flat if f.method == "sal"}
        self.tally.check(_close(raised, self.flat), "flat raise differs from sal * 1.1")
        found: dict[str, set] = {}
        for fact in family:
            if fact.method == "anc":
                found.setdefault(str(fact.host), set()).add(str(fact.result))
        self.tally.check(found == self.ancestors, "ancestors differ from the traversal")

    def reads(self, results, out: list[float]) -> None:
        """The reader mix of the served workloads, embedded: point and team
        reads of the Section 2.3 result, ancestor reads of the genealogy."""
        enterprise, family = results[0].new_base, results[2].new_base
        gc.collect()
        for _ in range(READS_PER_ROUND):
            draw = self.rng.random()
            if draw < POINT_SHARE:
                emp = self.staff[self.rng.randrange(len(self.staff))]
                text, base = point_text(emp), enterprise
                want = (
                    [{"S": self.kept[emp], "B": self.boss[emp]}] if emp in self.kept else []
                )
            elif draw < POINT_SHARE + TEAM_SHARE:
                manager = self.read_teams[self.rng.randrange(len(self.read_teams))]
                text, base = team_text(manager), enterprise
                want = [
                    {"E": e, "S": self.kept[e]}
                    for e, b in self.boss.items() if b == manager and e in self.kept
                ]
            else:
                person = self.people[self.rng.randrange(len(self.people))]
                text, base = f"{person}.anc -> A", family
                want = [{"A": a} for a in self.ancestors[person]]
            started = time.perf_counter()
            rows = repro.query_literals(base, repro.parse_body(text))
            out.append(time.perf_counter() - started)
            self.tally.check(
                sorted(map(_row_key, rows)) == sorted(map(_row_key, want)),
                f"embedded read {text!r} answered {rows!r:.200}",
            )


def _row_key(row: dict) -> tuple:
    return tuple(
        (k, round(v, 6) if isinstance(v, float) else v) for k, v in sorted(row.items())
    )


def run_untraced(spec: BatchSpec, seed: int, seconds: float):
    machine = Machine()
    setup_times = []
    for _ in range(SETUPS):  # one at a time: peak memory is one set-up's
        machine.sample()
        batch = Batch(spec, seed)
        setup_times.append(batch.setup_s * machine.scale())
    rounds: list[float] = []
    unscaled: list[float] = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        machine.sample()
        per_program, results = batch.round()
        rounds.append(sum(per_program) * machine.scale())  # each round is a slice
        unscaled.append(sum(per_program))
        batch.reads(results, [])
        batch.verify(results)
    machine.report(
        update_p50_ms=median_ms(unscaled), updates_per_s=len(unscaled) / sum(unscaled))
    metrics = {
        "setup_s": statistics.median(setup_times),
        "update_p50_ms": median_ms(rounds),
        "updates_per_s": len(rounds) / sum(rounds),
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, batch.tally


def run_traced(spec: BatchSpec, seed: int, seconds: float, spans: Spans):
    """The engine rungs of the commit ladder, summed over the round's three
    programs, plus per-program apply times and the exact counts."""
    batch = Batch(spec, seed)
    texts = [(repro.format_program(program), program.name) for program, _base in batch.jobs]
    bases = [base for _program, base in batch.jobs]

    def parsed(index: int):
        text, name = texts[index]
        return repro.UpdateProgram(repro.parse_program(text), name)

    calls = (
        parsed,
        lambda i: repro.UpdateEngine().compile(parsed(i)),
        lambda i: repro.UpdateEngine().evaluate(parsed(i), bases[i]),
        lambda i: repro.UpdateEngine().apply(parsed(i), bases[i]),
    )
    ladder = Rungs(COMMIT_RUNGS[: len(calls)], spans, "commit")
    applies: list[list[float]] = [[] for _ in batch.jobs]
    reads: list[float] = []
    iterations = facts = rounds = 0
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        for rung, call in enumerate(calls):
            results = []
            for index in range(len(batch.jobs)):
                started = time.perf_counter()
                results.append(ladder.timed(rounds, rung, lambda: call(index)))
                if call is calls[-1]:
                    applies[index].append(time.perf_counter() - started)
        batch.reads(results, reads)
        batch.verify(results)
        iterations = sum(result.iterations for result in results)
        facts = sum(len(result.result_base) for result in results)
        rounds += 1
    metrics = ladder.self_times()
    metrics.update({
        "core.enterprise_apply_ms": median_ms(applies[0]),
        "core.raise_apply_ms": median_ms(applies[1]),
        "core.ancestors_apply_ms": median_ms(applies[2]),
        "api.reads_per_s": len(reads) / sum(reads),
        "core.fixpoint_iterations": iterations,
        "core.result_facts": facts,
    })
    return metrics, batch.tally
