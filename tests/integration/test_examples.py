"""Every example script must run clean — examples are executable docs."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[2] / "examples").glob("*.py")
)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script.name} printed nothing"


def test_expected_examples_present():
    names = {path.stem for path in EXAMPLES}
    assert {
        "quickstart",
        "enterprise_hr",
        "hypothetical_reasoning",
        "ancestors",
        "version_audit",
        "control_comparison",
        "inventory_views",
        "live_queries",
    } <= names


class TestExampleOutcomes:
    """Spot checks on the narratives the examples print."""

    def _output_of(self, name, capsys):
        script = next(p for p in EXAMPLES if p.stem == name)
        runpy.run_path(str(script), run_name="__main__")
        return capsys.readouterr().out

    def test_quickstart_shows_raised_salaries(self, capsys):
        out = self._output_of("quickstart", capsys)
        assert "henry: 275" in out
        assert "mod(henry)" in out

    def test_enterprise_shows_figure2_strata(self, capsys):
        out = self._output_of("enterprise_hr", capsys)
        assert "stratum 0: {rule1, rule2}" in out
        assert "ins(mod(phil))" in out

    def test_control_comparison_shows_divergence(self, capsys):
        out = self._output_of("control_comparison", capsys)
        assert "bob wrongly fired" in out
        assert "hpe = {bob, phil}" in out

    def test_inventory_reports_schema_change(self, capsys):
        out = self._output_of("inventory_views", capsys)
        assert "+ class depleted" in out

    def test_live_queries_pushes_only_answer_diffs(self, capsys):
        out = self._output_of("live_queries", capsys)
        assert "committed revision 1 [team-raise]" in out
        # the raise reaches the salary subscription as a diff ...
        assert '"added": [{"E": "ben", "S": 3360.0}' in out
        # ... while the org-chart subscription skipped that commit
        assert "'skipped': 1" in out
