"""Stratification errors on all three paths — update-rules, Datalog
predicates and derived-method views — are fixed by the program text.

Each path builds its graph in rule order and hands it to the one stratifier
(:func:`repro.core.stratification.levels`), so the reported strict edge and
its witness cycle never depend on set iteration (``PYTHONHASHSEED``).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.errors import StratificationError
from repro.core.stratification import precedence_edges, stratify
from repro.datalog.parser import parse_datalog_program
from repro.datalog.stratify import stratify_datalog
from repro.ext.derived import parse_derived_program
from repro.lang.parser import parse_program

SRC = Path(__file__).resolve().parents[2] / "src"

DATALOG_CYCLE = """
a(X) :- e(X), not b(X).
b(X) :- e(X), not c(X).
c(X) :- e(X), not a(X).
"""

VIEW_CYCLE = """
va: X.a -> yes <= X.n -> V, not X.b -> yes.
vb: X.b -> yes <= X.n -> V, not X.c -> yes.
vc: X.c -> yes <= X.n -> V, not X.a -> yes.
"""

# The shortest rc ⇝ rb walk is unique (rc -> ra -> rb), so this message is
# the one the networkx-based stratifier printed as well.
CORE_CYCLE = """
ra: ins[a].t -> 1 <= ins(c).t -> 1.
rb: ins[b].t -> 1 <= ins(a).t -> 1.
rc: ins[c].t -> 1 <= b.m -> 1, not ins(b).t -> 1.
"""


def _error(stratify_call) -> StratificationError:
    with pytest.raises(StratificationError) as excinfo:
        stratify_call()
    return excinfo.value


def test_core_cycle_message_is_pinned():
    program = parse_program(CORE_CYCLE)
    error = _error(lambda: stratify(program))
    assert str(error) == (
        "no stratification satisfying conditions (a, b, c, d) exists: rules "
        "rc -> ra -> rb -> rc form a cycle through the strict constraint "
        "rb < rc"
    )
    assert error.cycle == ("rc", "ra", "rb", "rc")
    edges = {(edge.lower, edge.upper) for edge in precedence_edges(program)}
    assert all(step in edges for step in zip(error.cycle, error.cycle[1:]))


def test_datalog_cycle_is_a_closed_walk_ending_in_the_strict_edge():
    error = _error(lambda: stratify_datalog(parse_datalog_program(DATALOG_CYCLE)))
    assert str(error) == (
        "Datalog program is not stratified: predicate c/1 depends negatively "
        "on itself through a/1"
    )
    # edges run body predicate -> head predicate: b -> a, c -> b, a -> c
    assert error.cycle == (("c", 1), ("b", 1), ("a", 1), ("c", 1))


def test_view_cycle_is_a_closed_walk_ending_in_the_strict_edge():
    error = _error(lambda: parse_derived_program(VIEW_CYCLE))
    assert str(error) == "derived method 'c' depends negatively on itself through 'a'"
    assert error.cycle == ("c", "b", "a", "c")


_PROBE = f"""
from repro.core.errors import StratificationError
from repro.datalog.parser import parse_datalog_program
from repro.datalog.stratify import stratify_datalog
from repro.ext.derived import parse_derived_program
for call in (
    lambda: stratify_datalog(parse_datalog_program({DATALOG_CYCLE!r})),
    lambda: parse_derived_program({VIEW_CYCLE!r}),
):
    try:
        call()
    except StratificationError as error:
        print(error, error.cycle)
"""


def test_cycle_errors_do_not_depend_on_the_hash_seed():
    outputs = set()
    for seed in range(6):
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": str(seed)}
        completed = subprocess.run(
            [sys.executable, "-c", _PROBE],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert completed.stdout.count("\n") == 2
        outputs.add(completed.stdout)
    assert len(outputs) == 1
