"""Versioned storage substrate.

The paper's VIDs support *single updates*; "several of them may give rise to
introduce a new version in the usual sense" (Section 1) — i.e. long-term
object versioning as in [Kim91].  This subpackage provides that usual sense:

* :class:`~repro.storage.history.VersionedStore` — an append-only delta
  chain of object-base revisions (one per applied update-program /
  transaction) with full snapshots as reconstruction anchors, structural
  sharing between revisions, as-of queries and delta-composed diffs;
* :mod:`~repro.storage.serialize` — text and JSON round-trips for object
  bases, plus the durable JSONL journal format that persists a whole
  revision chain (``save_store`` / ``load_store`` / ``compact_journal``,
  which only read or rewrite it whole); a process that owns a journal
  appends to it through one :class:`~repro.storage.serialize.JournalWriter`,
  which writes snapshot files by journal weight.
"""

from repro.storage.history import (
    StoreOptions,
    StoreRevision,
    VersionedStore,
    resolve_revision_ref,
)
from repro.storage.serialize import (
    DurabilityOptions,
    JournalCorruptError,
    JournalWriter,
    compact_journal,
    dump_base_json,
    dump_base_text,
    load_base_json,
    load_base_text,
    load_store,
    save_store,
    verify_journal,
)

__all__ = [
    "VersionedStore",
    "StoreOptions",
    "StoreRevision",
    "resolve_revision_ref",
    "DurabilityOptions",
    "JournalCorruptError",
    "JournalWriter",
    "dump_base_text",
    "load_base_text",
    "dump_base_json",
    "load_base_json",
    "save_store",
    "load_store",
    "compact_journal",
    "verify_journal",
]
