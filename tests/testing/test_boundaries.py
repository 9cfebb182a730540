"""The boundaries of the one-engine design, held structurally.

* The subpackages form a DAG: every import under ``src/repro``, top-level
  or inside a function, names its own subpackage or one earlier in
  :data:`LAYERS`, and every subpackage on disk has a place there.
* The reference evaluator is an oracle for tests, not a second engine: no
  module of the product imports it.
* The ``REPRO_NO_CODEGEN`` switch is gone, not merely unused.
* The product does not depend on the chaos-guard sweeps that live beside
  the benchmark (``benchmarks/sweeps.py``).
* There are three ``Connection`` implementations — in-process, wire,
  shard router — all in ``repro.api``, and failover is the wire
  connection's job: the replication package defines none.
* The read path keeps no answers across updates: the per-revision memo is
  gone from the store, not bypassed.
"""

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

#: The subpackages bottom-up.  A module may import its own subpackage or an
#: earlier one; ``cli.py``, ``__init__.py`` and ``__main__.py`` sit above
#: all, so importing a name from ``repro`` itself is an upward import too.
LAYERS = (
    "obs", "core", "lang", "datalog", "baselines", "workloads", "ext",
    "analysis", "storage", "testing", "server", "api", "replication",
    "cluster",
)


def _imported_modules(tree: ast.AST):
    """Absolute import targets (``src/repro`` uses no relative imports —
    one would be reported as an offender below, not missed)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                yield "<relative import>"
                continue
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def test_subpackages_import_only_their_own_layer_or_below():
    modules = sorted(SRC.glob("*/**/*.py"))
    on_disk = {path.relative_to(SRC).parts[0] for path in modules}
    assert on_disk == set(LAYERS), f"place every subpackage in LAYERS: {on_disk}"
    rank = {package: index for index, package in enumerate(LAYERS)}
    offenders = []
    for path in modules:
        package = path.relative_to(SRC).parts[0]
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for module in _imported_modules(tree):
            parts = module.split(".")
            if parts[0] not in ("repro", "<relative import>"):
                continue
            target = parts[1] if len(parts) > 1 else "repro"
            if rank.get(target, len(LAYERS)) > rank[package]:
                offenders.append(f"{path.relative_to(SRC.parent)} imports {module}")
    assert not offenders, offenders


def test_only_repro_testing_imports_the_reference_and_the_switch_is_gone():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC.parent)
        text = path.read_text(encoding="utf-8")
        if "REPRO_NO_CODEGEN" in text:
            offenders.append(f"{relative} mentions REPRO_NO_CODEGEN")
        if relative.parts[:2] == ("repro", "testing"):
            continue
        for module in _imported_modules(ast.parse(text)):
            if module.startswith(("repro.testing.reference", "<relative")):
                offenders.append(f"{relative} imports {module}")
    assert not offenders, offenders


def test_exactly_three_connection_classes_and_none_under_replication():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id == "Connection"
                for base in node.bases
            ):
                found[node.name] = path.relative_to(SRC).parts[0]
    assert found == {
        "ServiceConnection": "api",
        "WireConnection": "api",
        "ClusterConnection": "api",
    }


def test_the_answer_memo_is_gone_not_bypassed():
    from repro.storage import StoreOptions, VersionedStore

    assert [field.name for field in dataclasses.fields(StoreOptions)] == [
        "snapshot_interval",
        "materialize_cache",
    ]
    assert not hasattr(VersionedStore, "prepare")
    gone = ("_revalidate_prepared", "prepared_stats", "prepared_cache_size")
    offenders = [
        f"{path.relative_to(SRC.parent)} mentions {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in gone
        if name in path.read_text(encoding="utf-8")
    ]
    assert not offenders, offenders


def test_cli_parser_builds_without_the_benchmarks_package(tmp_path):
    script = (
        "import sys\n"
        "sys.modules['benchmarks'] = None  # any import of it now fails\n"
        "import repro.cli\n"
        "parser = repro.cli.build_parser()\n"
        "assert 'bench' not in parser.format_help().split()\n"
        "try:\n"
        "    parser.parse_args(['bench'])\n"
        "except SystemExit as stop:\n"
        "    assert stop.code == 2  # argparse: unknown command\n"
        "else:\n"
        "    raise AssertionError('bench parsed')\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,  # not the repo root: 'benchmarks' is not on the path
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
