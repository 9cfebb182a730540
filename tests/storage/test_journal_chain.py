"""Every reader of a journal agrees on which lines count as history.

One table of damaged journals, each read four ways: ``load_store`` (what
it keeps, or the line it refuses), ``verify_journal`` (which lines it
flags), the replication stream's ``read_journal_entries`` (what it would
send a follower, or the line it refuses) and the follower's gate
``parse_journal_record`` (it rejects the same line the others drop or
refuse, given the chain position before it).

The journal under test is a header plus revisions 0–5; revisions 3–5 were
committed after a promotion to epoch 2.  Line ``n`` of the file is
revision ``n - 2``.
"""

import json
import shutil

import pytest

from repro.core.errors import ReproError
from repro.lang.parser import parse_program
from repro.replication.stream import read_journal_entries
from repro.storage import (
    JournalCorruptError,
    StoreOptions,
    VersionedStore,
    load_store,
    save_store,
    verify_journal,
)
from repro.storage.serialize import (
    JOURNAL_FILE,
    _record_crc,
    parse_journal_record,
)
from repro.workloads import paper_example_base

RAISE = "r: mod[phil].sal -> (S, S2) <= phil.sal -> S, S2 = S + 1."
TAGS = ["initial", "r1", "r2", "r3", "r4", "r5"]


def _lines(tmp_path) -> list[str]:
    store = VersionedStore(
        paper_example_base(),
        tag="initial",
        options=StoreOptions(snapshot_interval=100),
    )
    for tag in TAGS[1:]:
        if tag == "r3":
            store.epoch = 2
        store.apply(parse_program(RAISE), tag=tag)
    save_store(store, tmp_path / "pristine")
    return (tmp_path / "pristine" / JOURNAL_FILE).read_text().splitlines()


def _joined(lines):
    return "\n".join(lines) + "\n"


def _torn_tail(lines):
    return "\n".join(lines[:-1]) + "\n" + lines[-1][:40]


def _no_newline(lines):
    return "\n".join(lines)


def _echo_at_tail(lines):
    return _joined(lines + [lines[-1]])


def _echo_mid_journal(lines):
    return _joined(lines[:4] + [lines[3]] + lines[4:])


def _crc_break(lines):
    damaged = lines[3].replace('"tag": "r2"', '"tag": "rX"')
    assert damaged != lines[3]
    return _joined(lines[:3] + [damaged] + lines[4:])


def _index_gap(lines):
    return _joined(lines[:3] + lines[4:])


def _epoch_regression(lines):
    record = json.loads(lines[5])
    record["epoch"] = 1
    record["crc"] = _record_crc(record)
    return _joined(lines[:5] + [json.dumps(record, sort_keys=True)] + lines[6:])


#: damage → (bad: the line every reader drops or refuses; kept: how many
#: revisions ``load_store`` and the stream keep, ``None`` when both refuse
#: the bad line; the lines ``verify_journal`` flags; the chain position
#: ``(expected, epoch)`` the lines before the bad one reached)
ROWS = {
    "torn tail": (_torn_tail, 7, 5, [7], (5, 2)),
    "tail without newline": (_no_newline, 7, 5, [7], (5, 2)),
    "echo at tail": (_echo_at_tail, 8, 6, [8], (6, 2)),
    "echo mid-journal": (_echo_mid_journal, 5, 6, [5], (3, 0)),
    # the line after a CRC break breaks the chain it can no longer join
    "crc break mid-journal": (_crc_break, 4, None, [4, 5], (2, 0)),
    "index gap": (_index_gap, 4, None, [4], (2, 0)),
    "epoch regression": (_epoch_regression, 6, None, [6], (4, 2)),
}


@pytest.mark.parametrize("name", list(ROWS))
def test_every_reader_agrees_on_the_history(tmp_path, name):
    damage, bad, kept, flagged, (expected, epoch) = ROWS[name]
    lines = _lines(tmp_path)
    text = damage(lines)
    directory = tmp_path / "damaged"
    shutil.copytree(tmp_path / "pristine", directory)
    (directory / JOURNAL_FILE).write_text(text)

    # load_store and the stream keep the same revisions, or refuse the
    # same line
    if kept is None:
        for read in (load_store, lambda d: read_journal_entries(d, 0)):
            with pytest.raises(JournalCorruptError) as refused:
                read(directory)
            assert refused.value.line == bad
    else:
        assert [r.tag for r in load_store(directory).revisions()] == TAGS[:kept]
        _header, entries = read_journal_entries(directory, 0)
        assert [entry["line"] for entry in entries] == lines[1:kept + 1]

    # verify_journal flags every line the rule rejects
    report = verify_journal(directory)
    assert [p["line"] for p in report["problems"]] == flagged
    assert report["ok"] is False

    # the follower's gate rejects the bad line at the same chain position
    line = text.split("\n")[bad - 1]
    if name == "tail without newline":
        # the record itself is sound; only its missing newline, which the
        # wire never carries, marks an append that did not finish
        parse_journal_record(line, expected=expected, epoch=epoch)
    else:
        with pytest.raises(ReproError):
            parse_journal_record(line, expected=expected, epoch=epoch)


def test_the_follower_gate_names_what_it_refuses(tmp_path):
    lines = _lines(tmp_path)
    rev4 = json.loads(lines[5])
    with pytest.raises(ReproError, match="broke the chain"):
        parse_journal_record(lines[5], expected=5, epoch=2)
    with pytest.raises(ReproError, match="refusing a fenced"):
        parse_journal_record(lines[5], expected=4, epoch=3)
    assert parse_journal_record(lines[5], expected=4, epoch=2) == rev4
