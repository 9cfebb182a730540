"""A process-wide registry of the engine's caches and intern tables.

Long-lived serving processes (the versioned store, any daemon built on
the engine) accumulate state in several places.  The *process-wide* ones
register here: the ``lru_cache``-decorated plan compilers, the
text → compiled query cache (``query.prepared``) and the OID intern table;
:func:`cache_stats` snapshots their counters.  Per-instance state is
bounded and observable at its owner instead: the engine's
compiled-program LRU (``compile_cache_size``).

Each cache registers a zero-argument stats callable under a dotted name;
:func:`cache_stats` snapshots them all into one JSON-ready dict.  The
``lru_cache`` sites register through :func:`register_lru_cache`, which maps
``functools``' ``CacheInfo`` onto the common shape::

    {"hits": ..., "misses": ..., "size": ..., "maxsize": ...}

``maxsize`` is ``None`` for tables that are logically unbounded (the OID
intern table grows with the active symbol universe, which is bounded by
the data, not by a policy); everything keyed by query/program *structure*
carries an explicit limit.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["register_cache", "register_lru_cache", "cache_stats", "clear_caches"]

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


def register_lru_cache(name: str, cached_function) -> None:
    """Register a ``functools.lru_cache``-decorated function."""

    def stats() -> dict:
        info = cached_function.cache_info()
        return {
            "hits": info.hits,
            "misses": info.misses,
            "size": info.currsize,
            "maxsize": info.maxsize,
        }

    register_cache(name, stats, cached_function.cache_clear)


def cache_stats() -> dict[str, dict]:
    """A snapshot of every registered cache's counters, by name."""
    return {name: stats() for name, (stats, _clear) in sorted(_REGISTRY.items())}


def clear_caches() -> None:
    """Clear every registered cache that supports clearing (tests and
    long-run maintenance; correctness never depends on cache contents)."""
    for _stats, clear in _REGISTRY.values():
        if clear is not None:
            clear()
