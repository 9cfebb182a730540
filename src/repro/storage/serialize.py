"""Serialization: object bases (text / JSON) and store journals (JSONL).

Text uses the :mod:`repro.lang` fact syntax (human-editable, diff-friendly);
JSON is a stable machine format that also round-trips derived versions
(VID-hosted facts), which the text loader's ``ensure_exists`` cannot
regenerate.

The **journal** is the durable form of a
:class:`~repro.storage.history.VersionedStore`: a directory holding

* ``journal.jsonl`` — a header line (format, store options) followed by one
  JSON line per revision carrying its tag, program name, ``(added,
  removed)`` fact delta and a CRC-32 of the record, appendable without
  rewriting history;
* ``snap-<index>.json`` — full object-base snapshots (the
  :func:`dump_base_json` format), each only a cache of the base its
  revision reconstructs to.

``save_store`` / ``load_store`` round-trip a whole revision chain, and
``load_store`` never writes.  A process that owns a journal — a service,
a follower — adds bytes to it through one :class:`JournalWriter`: it
creates the directory, opens it for writing (cutting crash residue), and
makes each commit durable in O(|delta|), reading only the journal's last
line.  It writes a ``snapshot_interval`` candidate's O(|base|) file only
once the lines since the last file weigh (``1 + |added| + |removed|``
each) at least the base, so a commit costs its delta, amortized.
``compact_journal`` rewrites a journal under a fresh snapshot interval;
``verify_journal`` audits a journal's checksums without replaying it.

**Which lines count as history** is decided here, once (``_walk``): a
revision line counts when it ends in a newline, is not an exact echo of
the line before it (a retried append), parses and passes its CRC, carries
the next index, and no lower fencing epoch than the lines before it.
``load_store`` and the replication stream (:func:`journal_history`) skip
echoes, drop a damaged *final* line as an append that never finished, and
refuse earlier damage; ``verify_journal`` flags every rejected line; a
follower checks received lines with :func:`parse_journal_record`.

Durability is a policy, not a property of the data: :class:`DurabilityOptions`
selects how hard each append and snapshot write is pushed toward the platter
(``flush``/``fsync``), and every whole-file write — snapshots, the
journal itself on save/compaction, tail repair — goes through an atomic
temp-file + ``os.replace`` so a crash never leaves a half-written file under
a durable name.  All file I/O funnels through a single module-level
filesystem object so the fault-injection harness
(:mod:`repro.testing.faults`) can interpose deterministic crashes, torn
writes and ``ENOSPC`` at exact byte offsets.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass
from functools import partial
from json.encoder import encode_basestring_ascii
from pathlib import Path

from repro.core.errors import ReproError, TermError
from repro.core.facts import Fact
from repro.core.objectbase import ObjectBase
from repro.core.terms import Oid, Term, UpdateKind, VersionId, intern_oid
from repro.lang.parser import parse_object_base
from repro.lang.pretty import format_object_base
from repro.obs import metrics as _obs
from repro.storage.history import (
    JournalStep, SnapshotSource, StoreOptions, StoreRevision, VersionedStore,
)

__all__ = [
    "dump_base_text",
    "load_base_text",
    "dump_base_json",
    "load_base_json",
    "JOURNAL_FILE",
    "DurabilityOptions",
    "JournalCorruptError",
    "TornJournalError",
    "JournalWriter",
    "save_store",
    "load_store",
    "compact_journal",
    "verify_journal",
    "journal_history",
    "parse_journal_record",
    "apply_journal_record",
]

JOURNAL_FILE = "journal.jsonl"
_JOURNAL_FORMAT = "repro-store-journal"

_DURABILITY_MODES = ("flush", "fsync")


@dataclass(frozen=True)
class DurabilityOptions:
    """How hard journal writes are pushed toward stable storage.

    ``mode`` governs each journal line append:

    * ``"flush"`` — hand the bytes to the OS before the append returns
      (the handle is closed, which flushes it); survives process death,
      not power loss.
    * ``"fsync"`` — flush **and** ``os.fsync`` the journal (and the
      directory after a rename), so an acknowledged commit survives power
      loss.  Snapshot files are fsynced under this mode too.
    """

    mode: str = "flush"

    def __post_init__(self):
        if self.mode not in _DURABILITY_MODES:
            raise ReproError(
                f"unknown durability mode {self.mode!r}; "
                f"expected one of {', '.join(_DURABILITY_MODES)}"
            )

    @property
    def fsync(self) -> bool:
        """Every journal append, snapshot and rename is fsynced."""
        return self.mode == "fsync"


#: The durability applied when callers do not pass one explicitly.
DEFAULT_DURABILITY = DurabilityOptions()


class _Filesystem:
    """The single seam between journal logic and the OS.

    Every byte the journal subsystem persists flows through one of these
    methods, so the fault-injection harness can swap in a faulty double
    (see :func:`swap_filesystem`) and interpose crashes at exact byte
    offsets without monkeypatching ``pathlib`` internals.
    """

    def write_text(self, path: Path, text: str, *, fsync: bool = False) -> None:
        """Atomically replace ``path`` with ``text`` (temp file + rename)."""
        temp = path.with_name(path.name + ".tmp")
        with temp.open("w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        self.replace(temp, path, fsync=fsync)

    def append_text(self, path: Path, text: str, *, fsync: bool = False) -> None:
        with path.open("a", encoding="utf-8") as handle:
            handle.write(text)
            if fsync:
                handle.flush()
                start = time.perf_counter()
                os.fsync(handle.fileno())
                _obs.observe(
                    "commit_phase_seconds",
                    time.perf_counter() - start,
                    phase="fsync",
                )

    def replace(self, source: Path, target: Path, *, fsync: bool = False) -> None:
        os.replace(source, target)
        if fsync:
            self.fsync_dir(target.parent)

    def unlink(self, path: Path) -> None:
        path.unlink()

    def fsync_dir(self, directory: Path) -> None:
        """Make a rename durable by fsyncing the containing directory."""
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir-open
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


_fs = _Filesystem()


def swap_filesystem(filesystem) -> object:
    """Install ``filesystem`` as the journal I/O backend; returns the old one.

    The hook behind :mod:`repro.testing.faults` — production code never
    calls this.
    """
    global _fs
    previous = _fs
    _fs = filesystem
    return previous


def dump_base_text(base: ObjectBase, path: str | Path | None = None) -> str:
    """Serialize to concrete syntax; optionally write to ``path``."""
    text = format_object_base(base) + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def load_base_text(source: str | Path, *, ensure_exists: bool = True) -> ObjectBase:
    """Parse a base from a text file path or from literal text."""
    path = Path(source) if isinstance(source, Path) else None
    if path is None and isinstance(source, str) and "\n" not in source:
        candidate = Path(source)
        if candidate.exists():
            path = candidate
    text = path.read_text(encoding="utf-8") if path else str(source)
    return parse_object_base(text, ensure_exists=ensure_exists)


def _term_to_json(term: Term):
    if isinstance(term, Oid):
        return {"oid": term.value}
    if isinstance(term, VersionId):
        return {"kind": term.kind.value, "base": _term_to_json(term.base)}
    raise TermError(f"cannot serialize non-ground term {term}")


def _term_from_json(data) -> Term:
    if "oid" in data:
        return intern_oid(data["oid"])
    return VersionId(UpdateKind.from_name(data["kind"]), _term_from_json(data["base"]))


def _scalar_json(value, memo: dict[str, str]) -> str:
    """``json.dumps(value)`` of an OID payload or a method name; strings
    recur (hosts, method names, class OIDs) and are encoded once."""
    if type(value) is str:
        text = memo.get(value)
        if text is None:
            text = memo[value] = encode_basestring_ascii(value)
        return text
    if type(value) is int:
        return repr(value)
    return json.dumps(value)


def _term_json(term: Term, memo: dict[str, str]) -> str:
    if isinstance(term, Oid):
        return '{"oid":' + _scalar_json(term.value, memo) + "}"
    if isinstance(term, VersionId):
        return (
            '{"base":' + _term_json(term.base, memo)
            + ',"kind":' + _scalar_json(term.kind.value, memo) + "}"
        )
    raise TermError(f"cannot serialize non-ground term {term}")


def dump_base_json(base: ObjectBase, path: str | Path | None = None) -> str:
    """Serialize every fact (including ``exists`` and VID hosts) to JSON.

    The text is what ``json.dumps(payload, sort_keys=True, separators=(",",
    ":"))`` gives for ``{"format", "version", "facts": [_fact_to_json(f),
    ...]}``, written fact by fact: the payload of a 42 k-fact base is 170 k
    dicts and lists, which cost more to build and to walk than to encode
    and, being young and many, set off a full collection of the writer's
    heap in the middle of every snapshot.
    """
    memo: dict[str, str] = {}
    entries = []
    last_host = host = None
    for fact in base.sorted_facts():  # host by host
        if fact.host is not last_host:
            last_host = fact.host
            host = _term_json(last_host, memo)
        args = ",".join([_scalar_json(a.value, memo) for a in fact.args])
        entries.append(
            f'{{"args":[{args}],"host":{host},'
            f'"method":{_scalar_json(fact.method, memo)},'
            f'"result":{_scalar_json(fact.result.value, memo)}}}'
        )
    text = (
        '{"facts":[' + ",".join(entries)
        + '],"format":"repro-object-base","version":1}'
    )
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def load_base_json(source: str | Path) -> ObjectBase:
    """Inverse of :func:`dump_base_json`."""
    path = Path(source) if isinstance(source, Path) else None
    if path is None and isinstance(source, str) and not source.lstrip().startswith("{"):
        path = Path(source)
    if path is not None and not path.exists():
        raise ReproError(f"no object-base JSON file at {path}")
    text = path.read_text(encoding="utf-8") if path else str(source)
    payload = json.loads(text)
    if payload.get("format") != "repro-object-base":
        raise TermError("not a repro object-base JSON document")
    base = ObjectBase()
    for entry in payload["facts"]:
        base.add(_fact_from_json(entry))
    return base


# ----------------------------------------------------------------------
# store journals
# ----------------------------------------------------------------------


def _fact_to_json(fact: Fact) -> dict:
    return {
        "host": _term_to_json(fact.host),
        "method": fact.method,
        "args": [a.value for a in fact.args],
        "result": fact.result.value,
    }


def _fact_from_json(entry: dict) -> Fact:
    return Fact(
        _term_from_json(entry["host"]),
        entry["method"],
        tuple(intern_oid(a) for a in entry["args"]),
        intern_oid(entry["result"]),
    )


def _snapshot_name(index: int) -> str:
    return f"snap-{index:06d}.json"


def _record_crc(record: dict) -> str:
    """CRC-32 (hex) over the canonical JSON of ``record`` minus its ``crc``."""
    payload = {key: value for key, value in record.items() if key != "crc"}
    text = json.dumps(payload, sort_keys=True)
    return format(zlib.crc32(text.encode("utf-8")), "08x")


def _revision_line(revision: StoreRevision, has_snapshot: bool) -> str:
    record = {
        "index": revision.index,
        "tag": revision.tag,
        "program": revision.program_name,
        "added": [_fact_to_json(f) for f in sorted(revision.added, key=str)],
        "removed": [_fact_to_json(f) for f in sorted(revision.removed, key=str)],
        "snapshot": _snapshot_name(revision.index) if has_snapshot else None,
    }
    if revision.epoch:
        # Emitted only when a promotion ever happened, so unreplicated
        # journals keep their exact historical byte layout.  The field sits
        # inside the CRC envelope like every other one.
        record["epoch"] = revision.epoch
    record["crc"] = _record_crc(record)
    return json.dumps(record, sort_keys=True)


def save_store(
    store: VersionedStore,
    directory: str | Path,
    *,
    durability: DurabilityOptions | None = None,
) -> Path:
    """Write the whole revision chain of ``store`` to ``directory``.

    Returns the journal path.  Snapshot files are written exactly where the
    store's revisions carry snapshots; stale snapshot files from earlier
    saves are removed so the directory always mirrors one chain.

    The write order is crash-safe: snapshots land first (each via atomic
    temp-file + rename), then the journal is atomically replaced, and only
    then are stale snapshots unlinked — at no point does the durable
    journal reference a snapshot that is not fully on disk.
    """
    durability = durability or DEFAULT_DURABILITY
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = [
        json.dumps(
            {
                "format": _JOURNAL_FORMAT,
                "version": 1,
                "options": {
                    "snapshot_interval": store.options.snapshot_interval,
                },
            },
            sort_keys=True,
        )
    ]
    kept: set[str] = set()
    for revision in store.revisions():
        has_snapshot = store.has_snapshot(revision.index)
        lines.append(_revision_line(revision, has_snapshot))
        if has_snapshot:
            name = _snapshot_name(revision.index)
            kept.add(name)
            _fs.write_text(
                directory / name,
                dump_base_json(store.snapshot_at(revision.index)),
                fsync=durability.fsync,
            )
    journal = directory / JOURNAL_FILE
    _fs.write_text(journal, "\n".join(lines) + "\n", fsync=durability.fsync)
    for stale in directory.glob("snap-*.json"):
        if stale.name not in kept:
            _fs.unlink(stale)
    return journal


class JournalWriter:
    """The one object through which a process adds bytes to a journal
    directory it owns — a service, a follower — under one durability.  It
    holds the directory and the resolved durability, nothing else: every
    call reads what it needs from the file and opens it anew."""

    __slots__ = ("directory", "durability")

    def __init__(
        self, directory: str | Path, durability: DurabilityOptions | None = None
    ) -> None:
        self.directory = Path(directory)
        self.durability = durability or DEFAULT_DURABILITY

    def create(self, store: VersionedStore) -> None:
        """Write ``store``'s whole chain as this directory's journal
        (``save_store``), and make the snapshot files the reload sources of
        its resident snapshots, as :meth:`open` and :meth:`commit` do for
        theirs.  (``save_store`` alone does not: it also exports stores to
        directories that may not last.)"""
        save_store(store, self.directory, durability=self.durability)
        for revision in store.revisions():
            if revision.snapshot is not None:
                store.snapshot_persisted(
                    revision.index,
                    partial(
                        _load_snapshot,
                        self.directory / _snapshot_name(revision.index),
                    ),
                )

    def open(self, *, options: StoreOptions | None = None) -> VersionedStore:
        """The store this journal holds, as :func:`load_store` reads it,
        with crash residue (retried echoes, a torn final line) cut from the
        file so the next append lines up.  The cut is a temp file and a
        rename under this writer's durability, so a crash mid-repair cannot
        destroy the durable history it protects."""
        store, repaired = _read_journal(self.directory, options)
        if repaired is not None:
            self._write(JOURNAL_FILE, repaired)
        return store

    def start(self, header: str) -> None:
        """Begin a journal of no revisions (a fresh follower's first step):
        ``header`` is its first line."""
        self.directory.mkdir(parents=True, exist_ok=True)
        self._write(JOURNAL_FILE, header + "\n")

    def commit(
        self, revisions: list[StoreRevision]
    ) -> tuple[list[dict], list[SnapshotSource | None]]:
        """The write-ahead step (``commit_updates(journal=...)``): form the
        entries of the unpublished ``revisions`` and make them durable
        together through :meth:`append`.  Returns the entries, each
        ``{"index", "epoch", "line", "snapshot": {"name", "content"} |
        None}`` (the replication stream's shape), and their snapshots'
        reload sources.  A candidate gets its file by the module doc's
        weight rule, the batch's earlier lines counting."""
        start = time.perf_counter()
        weight = revisions[0]._store.journal_weight(revisions[0].index - 1)
        entries = []
        for revision in revisions:
            weight += revision.weight
            snapshot = None
            if revision.snapshot is not None and weight >= len(revision.snapshot):
                weight = 0
                snapshot = {
                    "name": _snapshot_name(revision.index),
                    "content": dump_base_json(revision.snapshot),
                }
            entries.append({
                "index": revision.index,
                "epoch": revision.epoch,
                "line": _revision_line(revision, snapshot is not None),
                "snapshot": snapshot,
            })
        sources = self.append(entries)
        _obs.observe("commit_phase_seconds", time.perf_counter() - start, phase="append")
        return entries, sources

    def append(self, entries: list[dict]) -> list[SnapshotSource | None]:
        """Make entries durable, for primary and follower alike: every
        snapshot file first, then the lines **verbatim** in one append — so
        follower journals stay byte-identical prefixes of the primary's.  A
        crash between leaves dangling snapshots (cleaned by compaction),
        never a line pointing at nothing, and a write that fails without
        leaving bytes leaves none of the entries.  Nothing is written
        unless the journal's last line is the revision before the first
        entry's (:func:`_check_journal_end`).  Returns each entry's
        snapshot reload source."""
        journal = self.directory / JOURNAL_FILE
        _check_journal_end(journal, entries[0]["index"])
        sources = []
        for entry in entries:
            snapshot = entry.get("snapshot")
            source = None
            if snapshot:
                start = time.perf_counter()
                path = self._write(snapshot["name"], snapshot["content"])
                _obs.observe("journal_snapshot_seconds", time.perf_counter() - start)
                source = partial(_load_snapshot, path)
            sources.append(source)
        text = "\n".join(entry["line"] for entry in entries) + "\n"
        _obs.inc("journal_bytes", len(text.encode("utf-8")))
        _fs.append_text(journal, text, fsync=self.durability.fsync)
        return sources

    def discard(self) -> None:
        """Delete this directory's journal, then its snapshot files — the
        journal of a follower that holds nothing recoverable, before it is
        rebuilt from the primary."""
        _fs.unlink(self.directory / JOURNAL_FILE)
        for stale in sorted(self.directory.glob("snap-*.json")):
            _fs.unlink(stale)

    def _write(self, name: str, text: str) -> Path:
        """Atomically write one file of the directory (header, snapshot,
        repaired journal) under this writer's durability."""
        path = self.directory / name
        _fs.write_text(path, text, fsync=self.durability.fsync)
        return path


def parse_journal_record(line: str, *, expected: int, epoch: int) -> dict:
    """Parse and check one journal line by the journal's own rule, as the
    next of a chain whose next index is ``expected`` and that has reached
    fencing epoch ``epoch``: the follower's gate on every received line
    before it is appended verbatim.  Raises
    :class:`~repro.core.errors.ReproError` on any violation."""
    record, problem = _parse_record(line)
    if problem is None:
        problem = _chain_problem(record, expected, epoch)
    if problem is not None:
        raise ReproError(f"journal line rejected: {problem}")
    return record


def apply_journal_record(
    store: VersionedStore, record: dict, *, journal: JournalStep | None = None
) -> StoreRevision:
    """Replay one parsed journal record onto ``store``'s head.

    The follower's apply path: fold the record's ``(added, removed)`` into
    the current base with ``apply_delta`` and commit that same pair with the
    record's own tag/program/epoch — O(delta), like the commit it replays.
    Because commits are deterministic over the totally ordered journal,
    the revision this produces is exactly the one the primary committed —
    commit listeners (subscriptions) fire as if the commit were local,
    once ``journal`` (the follower's write-ahead step) has returned.
    """
    added = frozenset(_fact_from_json(e) for e in record["added"])
    removed = frozenset(_fact_from_json(e) for e in record["removed"])
    new_base = store.current.apply_delta(added, removed)
    epoch, store.epoch = store.epoch, max(store.epoch, record.get("epoch", 0))
    try:
        return store.commit_update(
            new_base,
            tag=record["tag"],
            program_name=record.get("program"),
            added=added,
            removed=removed,
            journal=journal,
        )
    except BaseException:
        store.epoch = epoch  # an entry that was not written moved nothing
        raise


def _check_journal_end(journal: Path, first: int) -> None:
    """Refuse an append of revision ``first`` unless the journal's last
    line (read from the end) is revision ``first - 1``: a journal that
    moved under its writer (another process, the bytes of a failed append)
    fails cleanly instead of forking, and no line is glued onto a torn
    tail."""
    if not journal.exists():
        raise ReproError(f"no journal at {journal}")
    last = _last_journal_index(journal)
    if last != first - 1:
        raise ReproError(
            f"journal at {journal} ends at revision {last}, cannot append "
            f"revision {first}; it was modified since this store "
            f"loaded it (concurrent writer?) — reload and retry"
        )


def _last_journal_index(journal: Path) -> int:
    """Index recorded on the journal's last line (-1 for a header-only
    journal), read backwards from the end of the file: the last 4 KiB,
    doubled until they hold the whole line."""
    with journal.open("rb") as handle:
        end = handle.seek(0, os.SEEK_END)
        size = 4096
        while True:
            start = handle.seek(max(0, end - size))
            tail = handle.read()
            cut = tail.rstrip().rfind(b"\n") + 1
            if cut or not start:
                break
            size *= 2
    error = "no final newline"
    if tail.endswith(b"\n"):
        if start + cut == 0:
            return -1  # the last line is the header
        try:
            return json.loads(tail[cut:])["index"]
        except (ValueError, KeyError, TypeError) as parse_error:
            error = parse_error
    raise TornJournalError(
        f"journal {journal} ends in a torn line ({error}); reopen it for "
        f"writing to recover it, then retry the append"
    )


class TornJournalError(ReproError):
    """The journal's last line is a fragment a failed append left behind:
    nothing can be appended until its writer cuts it
    (:meth:`JournalWriter.open`)."""


def _journal_lines(directory) -> tuple[Path, list[tuple[int, int, str]]]:
    """The journal of ``directory`` and ``(line_number, byte_offset,
    text)`` per newline-separated piece: the last is what follows the
    final newline, empty unless an append was torn.

    Decoding is per-line with replacement, so a corrupt (non-UTF-8) line
    still gets reported with its exact byte offset instead of aborting the
    whole read.
    """
    journal = Path(directory) / JOURNAL_FILE
    if not journal.exists():
        raise ReproError(f"no journal at {journal}")
    data = journal.read_bytes()
    out: list[tuple[int, int, str]] = []
    offset = 0
    for number, raw in enumerate(data.split(b"\n"), start=1):
        out.append((number, offset, raw.decode("utf-8", errors="replace")))
        offset += len(raw) + 1
    return journal, out if data else []


class JournalCorruptError(ReproError):
    """A journal record that cannot be trusted: unparsable, checksum
    mismatch, or chain-order violation.  Carries the 1-based line number
    and the byte offset of the offending line so operators can inspect
    (``dd``, an editor) and surgically repair."""

    def __init__(self, journal: Path, line: int, offset: int, reason: str):
        super().__init__(
            f"journal {journal} is corrupt at line {line} "
            f"(byte offset {offset}): {reason}"
        )
        self.journal = str(journal)
        self.line = line
        self.offset = offset
        self.reason = reason


def _parse_record(line: str) -> tuple[dict, str | None]:
    """Parse one journal line; returns ``(record, problem)`` where
    ``problem`` describes a JSON, shape or checksum violation (``None`` if
    clean)."""
    try:
        record = json.loads(line)
    except ValueError as error:
        return {}, f"unparsable record: {error}"
    if not isinstance(record, dict):
        return {}, "record is not a JSON object"
    for key in ("index", "tag", "added", "removed"):
        if key not in record:
            return record, f"record is missing the {key!r} field"
    if type(record["index"]) is not int:
        return record, f"index {record['index']!r} is not an integer"
    epoch = record.get("epoch", 0)
    if not isinstance(epoch, int) or isinstance(epoch, bool) or epoch < 0:
        return record, f"epoch {epoch!r} is not a non-negative integer"
    crc = record.get("crc")
    if crc is not None and crc != _record_crc(record):
        return record, f"checksum mismatch (stored {crc}, computed {_record_crc(record)})"
    return record, None


def _chain_problem(record: dict, expected: int | None, epoch: int) -> str | None:
    """Why ``record`` cannot follow a chain whose next index is
    ``expected`` (``None``: no line before it) and that reached fencing
    epoch ``epoch``, below which only a fenced zombie primary writes."""
    index, stamped = record["index"], record.get("epoch", 0)
    if expected is not None and index != expected:
        return f"revision {index} broke the chain (expected {expected})"
    if stamped < epoch:
        return (
            f"epoch {stamped} is below the chain's epoch {epoch}; refusing "
            f"a fenced primary's history"
        )
    return None


_ECHO = "exact duplicate of the previous record"


def _walk(lines: list[tuple[int, int, str]]):
    """The rule for which lines count (module doc): ``(number, offset,
    line, record, problem)`` per non-blank line after the header, where
    ``problem`` is the first rule broken and ``record`` is ``None`` unless
    the line parsed.  A parsed line advances the chain even when it breaks
    it, so each break is flagged once."""
    expected = None
    epoch = 0
    previous = None
    for number, offset, line in lines[1:]:
        if not line.strip():
            continue
        record = None
        if number == len(lines):
            problem = "the final line lacks its newline (a torn append)"
        elif line == previous:
            problem = _ECHO
        else:
            previous = line
            parsed, problem = _parse_record(line)
            if problem is None:
                record = parsed
                problem = _chain_problem(record, expected, epoch)
                expected = record["index"] + 1
                epoch = max(epoch, record.get("epoch", 0))
        yield number, offset, line, record, problem


def journal_history(
    directory: str | Path,
) -> tuple[str, list[tuple[int, int, str, dict]], bool]:
    """``(header_line, history, residue)`` as ``load_store`` and the
    replication stream read a journal: ``(number, offset, line, record)``
    per line that counts, and whether the file also holds crash residue —
    retried echoes, or a damaged final line (an append never acknowledged).
    Damage before that, or to the only revision line, raises
    :class:`JournalCorruptError`."""
    journal, lines = _journal_lines(directory)
    if not lines:
        raise ReproError(f"journal {journal} is empty")
    history: list[tuple[int, int, str, dict]] = []
    residue = False
    damaged = None
    for number, offset, line, record, problem in _walk(lines):
        if damaged is not None:
            raise JournalCorruptError(journal, *damaged)
        if problem is None:
            history.append((number, offset, line, record))
        else:
            residue = True
            if problem is not _ECHO:
                damaged = (number, offset, problem)
    if damaged is not None and not history:
        raise JournalCorruptError(journal, *damaged)
    return lines[0][2], history, residue


def load_store(
    directory: str | Path,
    *,
    options: StoreOptions | None = None,
) -> VersionedStore:
    """Reconstruct a :class:`VersionedStore` from a journal directory.

    ``options`` overrides the journalled store options; by default the
    journalled ``snapshot_interval`` is used.  Journals written before the
    full-copy representation was removed carry a ``delta_chain`` key:
    ``true`` is ignored, ``false`` (a snapshot at every revision) loads as
    ``snapshot_interval=1``.

    The revisions loaded are the lines :func:`journal_history` counts, so
    crash residue — retried echoes, a damaged final line — is recovered
    **in memory**, loading the store at the last durable revision, and
    corruption before the final line raises :class:`JournalCorruptError`
    carrying the line number and byte offset.  The file is never written:
    a reader could race a live appender.  Cutting the residue on disk is
    the journal writer's (:meth:`JournalWriter.open`).
    """
    return _read_journal(directory, options)[0]


def _read_journal(
    directory: str | Path, options: StoreOptions | None
) -> tuple[VersionedStore, str | None]:
    """The one journal loader: the store :func:`load_store` returns, and
    the text to cut the file back to when it holds crash residue
    (``None`` when it holds none)."""
    directory = Path(directory)
    journal = directory / JOURNAL_FILE
    header_line, history, residue = journal_history(directory)
    try:
        header = json.loads(header_line)
    except json.JSONDecodeError as error:
        raise ReproError(f"journal {journal} has a corrupt header: {error}") from None
    if header.get("format") != _JOURNAL_FORMAT:
        raise ReproError(f"{journal} is not a repro store journal")
    if options is None:
        journalled = header.get("options", {})
        interval = journalled.get(
            "snapshot_interval", StoreOptions.snapshot_interval
        )
        if not journalled.get("delta_chain", True):
            interval = 1
        options = StoreOptions(snapshot_interval=interval)

    revisions: list[StoreRevision] = []
    snapshot_sources: dict[int, object] = {}
    for number, offset, _line, record in history:
        index = record["index"]
        try:
            added = frozenset(_fact_from_json(e) for e in record["added"])
            removed = frozenset(_fact_from_json(e) for e in record["removed"])
        except (KeyError, TypeError) as error:
            raise JournalCorruptError(
                journal, number, offset, f"malformed fact payload ({error})"
            ) from None
        if record.get("snapshot"):
            # deferred: parsed only when base_at/save actually needs it,
            # so log/append-style work never reads cold snapshots
            snapshot_sources[index] = partial(
                _load_snapshot, directory / record["snapshot"]
            )
        revisions.append(
            StoreRevision(
                index,
                record["tag"],
                record.get("program"),
                added,
                removed,
                None,
                None,
                record.get("epoch", 0),
            )
        )
    repaired = None
    if residue:
        lines = [header_line] + [line for _n, _o, line, _r in history]
        repaired = "\n".join(lines) + "\n"
    store = VersionedStore.from_revisions(
        revisions, options=options, snapshot_sources=snapshot_sources
    )
    return store, repaired


def _load_snapshot(path: Path) -> ObjectBase:
    """Load a journal snapshot file, failing with a store-level message
    (instead of a decoder traceback) when it is missing or unreadable."""
    if not path.exists():
        raise ReproError(
            f"journal snapshot {path} is missing; the journal directory was "
            f"modified outside the store tooling"
        )
    try:
        return load_base_json(path)
    except (json.JSONDecodeError, TermError, KeyError) as error:
        raise ReproError(f"journal snapshot {path} is corrupt: {error}") from None


def verify_journal(directory: str | Path) -> dict:
    """Audit a journal without replaying it.

    Walks every line once, flags each one the journal's rule (module doc)
    rejects — lines written before checksums existed are counted, not
    failed — and checks that every referenced snapshot file exists.
    Returns a report::

        {"ok": bool, "revisions": int, "checksummed": int,
         "unchecksummed": int, "snapshots": int, "max_epoch": int,
         "problems": [{"line": int, "offset": int, "error": str}, ...],
         "missing_snapshots": [name, ...]}

    No facts are interned and no snapshots are parsed, so verification is
    cheap even on journals too large to load comfortably.
    """
    directory = Path(directory)
    _journal, lines = _journal_lines(directory)
    report = {
        "ok": True,
        "revisions": 0,
        "checksummed": 0,
        "unchecksummed": 0,
        "snapshots": 0,
        "max_epoch": 0,
        "problems": [],
        "missing_snapshots": [],
    }

    def flag(number: int, offset: int, error: str) -> None:
        report["ok"] = False
        report["problems"].append({"line": number, "offset": offset, "error": error})

    if not lines:
        flag(1, 0, "journal is empty")
        return report
    try:
        header = json.loads(lines[0][2])
        if header.get("format") != _JOURNAL_FORMAT:
            flag(lines[0][0], lines[0][1], "not a repro store journal header")
    except json.JSONDecodeError as error:
        flag(lines[0][0], lines[0][1], f"corrupt header: {error}")
    for number, offset, _line, record, problem in _walk(lines):
        if problem is not None:
            flag(number, offset, problem)
        if record is None:
            continue
        report["revisions"] += 1
        if record.get("crc") is not None:
            report["checksummed"] += 1
        else:
            report["unchecksummed"] += 1
        report["max_epoch"] = max(report["max_epoch"], record.get("epoch", 0))
        snapshot = record.get("snapshot")
        if snapshot:
            report["snapshots"] += 1
            if not (directory / snapshot).exists():
                report["ok"] = False
                report["missing_snapshots"].append(snapshot)
    return report


def compact_journal(
    directory: str | Path,
    *,
    snapshot_interval: int | None = None,
    durability: DurabilityOptions | None = None,
) -> VersionedStore:
    """Rewrite a journal under a (possibly new) snapshot interval.

    Re-materializes snapshots at the new policy positions and drops the
    rest, so a journal grown with a dense interval shrinks to a sparser
    one.  Returns the compacted store (its
    journal is already on disk), so callers need not reload it.

    The rewrite inherits ``save_store``'s crash-safe ordering: new
    snapshots first, then an atomic journal replace, then stale-snapshot
    cleanup — a crash at any point leaves either the old journal with all
    its snapshots or the new journal with all of its.
    """
    compact_start = time.perf_counter()
    store = load_store(directory)  # save_store below cuts any residue
    interval = snapshot_interval or store.options.snapshot_interval
    new_options = StoreOptions(
        snapshot_interval=interval,
        materialize_cache=store.options.materialize_cache,
    )
    revisions: list[StoreRevision] = []
    for revision in store.revisions():
        wants_snapshot = revision.index % interval == 0
        snapshot = None
        if wants_snapshot:
            snapshot = store.base_at(revision.index)
        revisions.append(
            StoreRevision(
                revision.index,
                revision.tag,
                revision.program_name,
                revision.added,
                revision.removed,
                snapshot,
                None,
                revision.epoch,
            )
        )
    compacted = VersionedStore.from_revisions(revisions, options=new_options)
    save_store(compacted, directory, durability=durability)
    _obs.observe(
        "journal_compaction_seconds", time.perf_counter() - compact_start
    )
    return compacted
