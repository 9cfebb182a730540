"""A process-wide registry of the engine's caches and intern tables.

Long-lived serving processes (the versioned store, any daemon built on
the engine) accumulate state in several places.  The *process-wide* ones
register here: three :class:`TemplateCache` instances — the compile cache of
:mod:`repro.core.codegen` (``codegen.shapes``: rule or body AST with its
constants abstracted → compiled artifact) and the two of
:mod:`repro.lang.shapes` (program text shape → parsed and compiled
program, ``program.shapes``; body text shape → parsed and compiled query,
``query.prepared``) — ``datalog.compile_plan`` and the OID intern table.
A program's own compiled artifact is no cache: it travels with the
program (``program.compiled``) and goes with it.

Each cache registers a zero-argument stats callable under a dotted name;
:func:`cache_stats` snapshots them all into one JSON-ready dict of the
common shape::

    {"hits": ..., "misses": ..., "size": ..., "maxsize": ...}

``maxsize`` is ``None`` for tables that are logically unbounded (the OID
intern table grows with the active symbol universe, which is bounded by
the data, not by a policy); everything keyed by query/program *structure*
carries an explicit limit.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from operator import is_
from typing import Callable

__all__ = ["Template", "TemplateCache", "register_cache", "cache_stats", "clear_caches"]

#: name -> (stats callable, clear callable or None)
_REGISTRY: dict[str, tuple[Callable[[], dict], Callable[[], None] | None]] = {}


def register_cache(
    name: str,
    stats: Callable[[], dict],
    clear: Callable[[], None] | None = None,
) -> None:
    """Register a cache under ``name`` (last registration wins, so module
    reloads don't accumulate dead entries)."""
    _REGISTRY[name] = (stats, clear)


def cache_stats() -> dict[str, dict]:
    """A snapshot of every registered cache's counters, by name."""
    return {name: stats() for name, (stats, _clear) in sorted(_REGISTRY.items())}


def clear_caches() -> None:
    """Clear every registered cache that supports clearing (tests and
    long-run maintenance; correctness never depends on cache contents)."""
    for _stats, clear in _REGISTRY.values():
        if clear is not None:
            clear()


class Template:
    """One shape's first instance: its constants' interned OIDs
    (``values``), its AST, and its artifact (None until built)."""

    __slots__ = ("values", "ast", "artifact")

    def __init__(self, values: tuple, ast, artifact) -> None:
        self.values = values
        self.ast = ast
        self.artifact = artifact

    def constants(self, values) -> dict | None:
        """The template's OIDs mapped to an instance's interned ones, or
        None when they are the template's own."""
        if all(map(is_, self.values, values)):
            return None
        return dict(zip(self.values, values))


class TemplateCache:
    """Templates by shape key, least recently used evicted beyond
    ``maxsize``; callers :meth:`count` their hits.  Thread-safe."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self.hits = self.misses = 0
        self._templates: OrderedDict[object, Template] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key) -> Template | None:
        with self._lock:
            template = self._templates.get(key)
            if template is not None:
                self._templates.move_to_end(key)
        return template

    def put(self, key, template: Template) -> None:
        with self._lock:
            self._templates[key] = template
            self._templates.move_to_end(key)
            while len(self._templates) > self.maxsize:
                self._templates.popitem(last=False)

    def count(self, hit: bool) -> None:
        with self._lock:
            self.hits += hit
            self.misses += not hit

    def stats(self) -> dict:
        size = len(self._templates)
        return dict(hits=self.hits, misses=self.misses, size=size, maxsize=self.maxsize)

    def clear(self) -> None:
        """Forget every template and reset the counters."""
        with self._lock:
            self._templates.clear()
            self.hits = self.misses = 0
