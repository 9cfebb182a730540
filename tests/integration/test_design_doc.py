"""Citation drift: ``docs/DESIGN.md`` holds exactly the decisions the code
cites.

Every ``docs/DESIGN.md D<n>`` cited under ``src/`` or ``tests/`` must have
a ``## D<n>`` heading, every heading must be cited somewhere, and every
test a decision names as pinning it must exist.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
DESIGN = ROOT / "docs" / "DESIGN.md"

CITATION = re.compile(r"docs/DESIGN\.md D(\d+)")
HEADING = re.compile(r"^## D(\d+) ", re.MULTILINE)
PINNING_TEST = re.compile(r"^- `(tests/[\w/]+\.py)::([\w:]+)`$", re.MULTILINE)


def _cited() -> dict[str, list[str]]:
    cited: dict[str, list[str]] = {}
    for tree in ("src", "tests"):
        for path in sorted((ROOT / tree).rglob("*.py")):
            for number in CITATION.findall(path.read_text(encoding="utf-8")):
                cited.setdefault(number, []).append(str(path.relative_to(ROOT)))
    return cited


def test_every_cited_decision_has_a_heading_and_every_heading_is_cited():
    cited = _cited()
    headings = HEADING.findall(DESIGN.read_text(encoding="utf-8"))
    assert len(headings) == len(set(headings)), headings
    missing = {f"D{n}": cited[n] for n in sorted(set(cited) - set(headings))}
    assert not missing, f"cited without a heading: {missing}"
    uncited = sorted(f"D{n}" for n in set(headings) - set(cited))
    assert not uncited, f"headings nothing cites: {uncited}"


def test_every_pinning_test_exists():
    pins = PINNING_TEST.findall(DESIGN.read_text(encoding="utf-8"))
    assert pins
    missing = []
    for relative, qualified in pins:
        path = ROOT / relative
        scope = ast.parse(path.read_text(encoding="utf-8")) if path.exists() else None
        for name in qualified.split("::"):
            scope = next(
                (
                    node for node in getattr(scope, "body", ())
                    if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                    and node.name == name
                ),
                None,
            )
        if scope is None:
            missing.append(f"{relative}::{qualified}")
    assert not missing, missing
