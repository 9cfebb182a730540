"""The primary side of replication: serving raw journal lines.

The whole correctness story of replication rests on one invariant — a
follower's journal is a **byte-identical prefix** of the primary's.  This
module never re-serializes history to uphold it:

* :func:`read_journal_entries` reads the journal file's raw lines straight
  off disk (bootstrap and catch-up) — the lines
  :func:`~repro.storage.serialize.journal_history` counts as history, the
  ones ``load_store`` would load — carrying referenced snapshot files
  inline;
* live pushes carry the entry ``append_revision`` returned for the
  commit: the appended line and the snapshot text it just wrote, so
  nothing is rendered, parsed or read back per follower.

:class:`ReplicationHub` glues both to a :class:`StoreService`: ``sync``
answers one catch-up batch, ``attach`` replays catch-up then registers a
per-subscriber commit listener — both under the service's writer queue, so
no commit can slip between the disk read and the listener registration.
Listeners fire only *after* a commit's journal append succeeded
(:meth:`StoreService.add_replication_listener`), so followers never hold a
line the primary lost.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from repro.core.errors import ReproError
from repro.storage.serialize import journal_history

__all__ = ["ReplicationHub", "hub_for", "read_journal_entries"]


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


class ReplicationHub:
    """Fan-out of a primary's committed journal lines to followers.

    One per :class:`~repro.server.service.StoreService` (see
    :func:`hub_for`); the ``repl-sync`` / ``repl-stream`` protocol handlers
    call into it.  Requires the service to be journal-backed — replication
    streams *the journal*, not a reconstruction of it.
    """

    def __init__(self, service) -> None:
        self.service = service

    def _journal_dir(self) -> Path:
        directory = self.service.journal_dir
        if directory is None:
            raise ReproError(
                "replication needs a journal-backed primary; serve a journal "
                "directory (repro serve DIR) instead of an in-memory store"
            )
        return Path(directory)

    def sync(self, from_index: int) -> dict:
        """One catch-up batch: every durable line from ``from_index`` on."""
        directory = self._journal_dir()
        with self.service._writer():
            header, entries = read_journal_entries(directory, from_index)
            return {
                "header": header,
                "entries": entries,
                "from_index": from_index,
                "head": len(self.service.store) - 1,
                "epoch": self.service.epoch,
            }

    def attach(
        self, deliver: Callable[[dict], None], from_index: int
    ) -> tuple[Callable[[], None], int, int]:
        """Start a live stream: replay catch-up entries into ``deliver``,
        then register a commit listener pushing every future line.

        Runs under the writer queue so the catch-up read and the listener
        registration are atomic against commits — no line can fall into the
        gap.  Returns ``(detach, head, epoch)``; the connection teardown
        must call ``detach``.
        """
        directory = self._journal_dir()
        with self.service._writer():
            _header, entries = read_journal_entries(directory, from_index)
            for entry in entries:
                deliver(dict(entry, push="repl-line"))

            def publish(entry, _deliver=deliver):
                _deliver(dict(entry, push="repl-line"))

            listener = self.service.add_replication_listener(publish)
            head = len(self.service.store) - 1
            epoch = self.service.epoch

        def detach() -> None:
            self.service.remove_replication_listener(listener)

        return detach, head, epoch


def hub_for(service) -> ReplicationHub:
    """The service's hub, created on first use (one per service, so the
    ``followers`` stat counts every attached stream)."""
    hub = getattr(service, "_replication_hub", None)
    if hub is None:
        hub = ReplicationHub(service)
        service._replication_hub = hub
    return hub
