"""The primary side of replication: serving raw journal lines.

The whole correctness story of replication rests on one invariant — a
follower's journal is a **byte-identical prefix** of the primary's.  This
module never re-serializes history to uphold it:

* :func:`read_journal_entries` reads the journal file's raw lines straight
  off disk (the catch-up batch) — the lines
  :func:`~repro.storage.serialize.journal_history` counts as history, the
  ones ``load_store`` would load — carrying referenced snapshot files
  inline;
* live pushes carry the entry the service's
  :class:`~repro.storage.serialize.JournalWriter` wrote ahead of the
  commit, so nothing is rendered or read back per follower.

:func:`attach` glues both to a :class:`StoreService` for the
``repl-stream`` handler: under the service's writer queue it reads the
catch-up batch (the command's response) and registers a per-subscriber
commit listener (the pushes that follow), so no commit can slip between
the disk read and the listener.  However long the backlog, it travels in
one response, never as a burst of pushes into the connection's outbox.
Commits are written ahead, and listeners fire only once a commit's line
is durable and its revision published — a failed write streams nothing
(:meth:`StoreService.add_replication_listener`) — so followers never hold
a line the primary lost.  Replication needs a journal-backed primary: it
streams *the journal*, not a reconstruction of it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from repro.core.errors import ReproError
from repro.storage.serialize import journal_history

__all__ = ["attach", "read_journal_entries"]


def read_journal_entries(
    directory: str | Path, from_index: int
) -> tuple[str, list[dict]]:
    """``(header_line, entries)`` for every journal line at or past
    ``from_index``, as raw text plus inline snapshot content.

    Each entry is ``{"index", "epoch", "line", "snapshot"}`` where
    ``snapshot`` is ``{"name", "content"}`` for lines that reference one
    (``None`` otherwise).  The lines are those ``load_store`` loads: crash
    residue is not streamed, and earlier damage raises
    :class:`~repro.storage.serialize.JournalCorruptError`.
    """
    directory = Path(directory)
    header, history, _residue = journal_history(directory)
    entries = []
    for _number, _offset, line, record in history:
        if record["index"] < from_index:
            continue
        snapshot = None
        if name := record.get("snapshot"):
            snapshot = {"name": name, "content": (directory / name).read_text(encoding="utf-8")}
        entries.append({
            "index": record["index"],
            "epoch": record.get("epoch", 0),
            "line": line,
            "snapshot": snapshot,
        })
    return header, entries


def attach(
    service, deliver: Callable[[dict], None], from_index: int
) -> tuple[Callable[[], None], dict]:
    """Open a stream: read the catch-up batch — every durable line from
    ``from_index`` on — and register a commit listener pushing each later
    line into ``deliver`` as a ``repl-line`` message.

    Both run under the writer queue, so no commit can fall between the
    batch and the first push.  Returns ``(detach, batch)``, the batch being
    ``{header, entries, from_index, head, epoch}``; the connection teardown
    must call ``detach``.
    """
    if service.journal is None:
        raise ReproError(
            "replication needs a journal-backed primary; serve a journal "
            "directory (repro serve DIR) instead of an in-memory store"
        )
    with service._writer():
        header, entries = read_journal_entries(
            service.journal.directory, from_index
        )
        listener = service.add_replication_listener(
            lambda entry: deliver(dict(entry, push="repl-line"))
        )
        batch = {
            "header": header,
            "entries": entries,
            "from_index": from_index,
            "head": len(service.store) - 1,
            "epoch": service.epoch,
        }
    return lambda: service.remove_replication_listener(listener), batch
