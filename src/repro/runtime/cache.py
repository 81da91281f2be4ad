"""The bounded shared result/trace cache (LRU, introspectable).

One process-wide :class:`LRUCache` memoises the seeded arrival traces every
entry point shares (see :mod:`repro.runtime.seeds`).  It evicts
least-recently-used entries beyond :data:`DEFAULT_TRACE_CACHE_SIZE` (64)
entries, so long multi-figure sweeps hold a flat amount of trace memory.

:func:`cache_info` exposes hit/miss/size counters in the style of
``functools.lru_cache``.  The Engine does **not** copy them into metrics
documents: cache hits differ between serial runs (one process, warm cache)
and pooled runs (cold per-worker caches), and the merged observability
state must stay bit-for-bit identical across the two.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Hashable, NamedTuple

from .config import DEFAULT_TRACE_CACHE_SIZE


class CacheInfo(NamedTuple):
    """Point-in-time cache statistics (``functools.lru_cache`` style)."""

    hits: int
    misses: int
    size: int
    max_entries: int


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    >>> cache = LRUCache(max_entries=2)
    >>> cache.get_or_create("a", lambda: 1)
    1
    >>> cache.get_or_create("b", lambda: 2)
    2
    >>> cache.get_or_create("a", lambda: -1)    # hit: factory not called
    1
    >>> cache.get_or_create("c", lambda: 3)     # evicts "b" (least recent)
    3
    >>> cache.info()
    CacheInfo(hits=1, misses=3, size=2, max_entries=2)
    """

    def __init__(self, max_entries: int):
        self.max_entries = int(max_entries)
        if self.max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._hits = 0
        self._misses = 0

    def get_or_create(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """The cached value for ``key``, creating it via ``factory`` on miss."""
        entry = self._entries.get(key)
        if entry is not None:
            self._hits += 1
            self._entries.move_to_end(key)
            return entry
        self._misses += 1
        entry = self._entries[key] = factory()
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return entry

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def info(self) -> CacheInfo:
        """Current hit/miss/size counters."""
        return CacheInfo(
            hits=self._hits,
            misses=self._misses,
            size=len(self._entries),
            max_entries=self.max_entries,
        )


#: The process-wide arrival-trace cache.
ARRIVAL_CACHE = LRUCache(DEFAULT_TRACE_CACHE_SIZE)


def cache_info() -> CacheInfo:
    """Statistics of the shared arrival-trace cache (``runtime.cache_info()``)."""
    return ARRIVAL_CACHE.info()


def clear_cache() -> None:
    """Drop every memoised arrival trace (tests, memory-sensitive callers)."""
    ARRIVAL_CACHE.clear()
