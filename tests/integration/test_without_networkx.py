"""The package needs no third-party module: ``networkx`` is test-only.

A child interpreter whose ``networkx`` import fails imports the public
packages and runs all three stratifiers — update-rules (the paper's
``{rule1, rule2} < {rule3} < {rule4}``), Datalog predicates and
derived-method views.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

_PROBE = """
import sys
sys.modules["networkx"] = None  # any `import networkx` now raises ImportError

import repro, repro.cli, repro.datalog, repro.ext.derived
from repro.core.stratification import stratify
from repro.datalog.parser import parse_datalog_program
from repro.datalog.stratify import stratify_datalog
from repro.ext.derived import parse_derived_program
from repro.workloads import paper_example_program

print(stratify(paper_example_program()).names())
datalog = stratify_datalog(parse_datalog_program(
    "reach(X, Y) :- edge(X, Y). "
    "reach(X, Z) :- reach(X, Y), edge(Y, Z). "
    "unreached(X, Y) :- node(X), node(Y), not reach(X, Y)."
))
print([[rule.head.name for rule in stratum] for stratum in datalog])
views = parse_derived_program(
    "senior: X.senior -> yes <= X.sal -> S, S > 4000. "
    "junior: X.junior -> yes <= X.sal -> S, not X.senior -> yes."
)
print([[rule.name for rule in stratum] for stratum in views._strata])
"""


def test_stratifiers_run_without_networkx():
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.splitlines() == [
        "[['rule1', 'rule2'], ['rule3'], ['rule4']]",
        "[['reach', 'reach'], ['unreached']]",
        "[['senior'], ['junior']]",
    ]
