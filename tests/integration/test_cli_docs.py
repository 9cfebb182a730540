"""Doc drift: every CLI line the docs show must parse with today's parser.

The lines come from the README's ``bash`` / ``sh`` blocks, the ``cli.py``
module docstring and the verify skill's ``bash`` blocks.  A ``\\``
continuation is joined, a line is cut at its first unquoted ``|`` or
``#``, and whatever follows ``repro`` / ``repro-updates`` /
``python -m repro`` must be accepted by ``build_parser().parse_args``.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

import repro.cli
from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[2]

#: ``repro ARGS`` / ``repro-updates ARGS`` / ``python -m repro ARGS``,
#: after any leading ``NAME=value`` environment assignments.
COMMAND = re.compile(
    r"^(?:\w+=\S*\s+)*(?:python3?\s+-m\s+repro|repro(?:-updates)?)(?:\s+(.*))?$"
)


def _shell_blocks(text: str):
    """The lines of every fenced ``bash`` / ``sh`` block."""
    in_block = shell = False
    for line in text.splitlines():
        fence = line.strip()
        if fence.startswith("```"):
            if in_block:
                in_block = shell = False
            else:
                in_block, shell = True, fence[3:].strip() in ("bash", "sh")
            continue
        if shell:
            yield line


def _joined(lines):
    pending = ""
    for line in lines:
        if line.rstrip().endswith("\\"):
            pending += line.rstrip()[:-1] + " "
            continue
        yield pending + line
        pending = ""


def _cut(line: str) -> str:
    """``line`` up to its first ``|`` or ``#`` outside quotes."""
    quote = None
    for position, char in enumerate(line):
        if quote:
            if char == quote:
                quote = None
        elif char in "'\"":
            quote = char
        elif char in "|#":
            return line[:position]
    return line


def _commands():
    sources = {
        "README.md": _shell_blocks(
            (ROOT / "README.md").read_text(encoding="utf-8")
        ),
        "cli.py": repro.cli.__doc__.splitlines(),
        "SKILL.md": _shell_blocks(
            (ROOT / ".claude" / "skills" / "verify" / "SKILL.md").read_text(
                encoding="utf-8"
            )
        ),
    }
    for source, lines in sources.items():
        for line in _joined(lines):
            match = COMMAND.match(_cut(line).strip())
            if match:
                yield pytest.param(
                    match.group(1) or "", id=f"{source}: {line.strip()}"
                )


COMMANDS = list(_commands())


def test_the_docs_show_commands():
    assert len(COMMANDS) >= 30


@pytest.mark.parametrize("arguments", COMMANDS)
def test_documented_command_parses(arguments):
    try:
        build_parser().parse_args(shlex.split(arguments))
    except SystemExit as error:
        pytest.fail(f"the parser rejects `{arguments}` (exit {error.code})")
