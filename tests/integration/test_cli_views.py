"""CLI tests for the --views option (derived methods from the shell)."""

import pytest

from repro.cli import main

BASE = """
phil.isa -> empl.  phil.sal -> 4000.
bob.isa -> empl.   bob.sal -> 4200.
"""

VIEWS = """
senior: ?W.senior -> yes <= ?W.sal -> S, S > 4000.
"""

PROGRAM = """
cut: mod[E].sal -> (S, S2) <= E.senior -> yes, E.sal -> S, S2 = S - 500.
"""


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, text in (("p.upd", PROGRAM), ("w.ob", BASE), ("v.upd", VIEWS)):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        paths[name] = path
    return paths


def test_apply_with_views(files, capsys):
    code = main([
        "apply",
        "--program", str(files["p.upd"]),
        "--base", str(files["w.ob"]),
        "--views", str(files["v.upd"]),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "bob.sal -> 3700." in out     # the senior got the cut
    assert "phil.sal -> 4000." in out    # phil (not senior) untouched
    assert "senior" not in out           # views are never stored


def test_apply_with_views_traces(files, capsys):
    code = main([
        "apply",
        "--program", str(files["p.upd"]),
        "--base", str(files["w.ob"]),
        "--views", str(files["v.upd"]),
        "--trace",
    ])
    assert code == 0
    assert "stratum 0: {cut}" in capsys.readouterr().err


def test_apply_without_views_rejects_view_reads(files, capsys):
    # without --views the body's `senior` method simply never matches:
    # the rule cannot fire and salaries stay put
    code = main([
        "apply",
        "--program", str(files["p.upd"]),
        "--base", str(files["w.ob"]),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "bob.sal -> 4200." in out


def test_bad_views_file_reports_error(files, tmp_path, capsys):
    bad = tmp_path / "bad.upd"
    bad.write_text("senior: ?W.exists -> X <= ?W.sal -> S.", encoding="utf-8")
    code = main([
        "apply",
        "--program", str(files["p.upd"]),
        "--base", str(files["w.ob"]),
        "--views", str(bad),
    ])
    assert code == 1
    assert "exists" in capsys.readouterr().err
