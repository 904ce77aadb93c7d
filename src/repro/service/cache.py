"""Thread-safe LRU result cache keyed by request fingerprint.

A deliberately small, dependency-free LRU built on ``OrderedDict``:
``get`` promotes, ``put`` evicts the least recently used entry past
``max_entries``.  The service keys each entry by the content it
answers, so an entry never goes stale: the service removes none, and
only the LRU bound evicts.  All operations take one lock, so the cache
can sit behind the threaded daemon unchanged.
Hit/miss/eviction counters are exposed as an immutable
:class:`CacheStats` snapshot for the diagnostics and analysis layers.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Generic, Optional, TypeVar

__all__ = ["CacheStats", "ResultCache"]

V = TypeVar("V")


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time cache counters."""

    size: int = 0
    max_entries: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when the cache was never queried)."""
        n = self.lookups
        return self.hits / n if n else 0.0


class ResultCache(Generic[V]):
    """Bounded LRU mapping ``fingerprint -> value``.

    ``max_entries <= 0`` disables caching entirely (every ``get`` is a
    miss, ``put`` is a no-op) — useful for benchmarking the uncached
    path without branching at the call sites.
    """

    def __init__(self, max_entries: int = 128) -> None:
        self._max = int(max_entries)
        self._data: "OrderedDict[str, V]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    # ------------------------------------------------------------------
    def get(self, key: str, *, count_miss: bool = True) -> Optional[V]:
        """The cached value (promoted to most-recent), or ``None``.

        ``count_miss=False`` leaves a miss uncounted, for a caller that
        learns only later whether the lookup served a request; it counts
        the miss then with :meth:`note_miss`.  A hit always counts.
        """
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                if count_miss:
                    self._misses += 1
                return None
            self._data.move_to_end(key)
            self._hits += 1
            return value

    def note_miss(self) -> None:
        """Count a miss that ``get(..., count_miss=False)`` left out."""
        with self._lock:
            self._misses += 1

    def put(self, key: str, value: V) -> None:
        """Insert/refresh ``key``, evicting the LRU entry when full."""
        if self._max <= 0:
            return
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self._max:
                self._data.popitem(last=False)
                self._evictions += 1

    def entries(self) -> "list[tuple[str, V]]":
        """``(key, value)`` pairs in LRU order (oldest first).

        Used by the storage layer to snapshot the cache: replaying the
        pairs through :meth:`put` in this order reproduces both the
        contents and the eviction order at capture time.
        """
        with self._lock:
            return list(self._data.items())

    def stats(self) -> CacheStats:
        """Immutable snapshot of size and lifetime counters."""
        with self._lock:
            return CacheStats(
                size=len(self._data),
                max_entries=self._max,
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
            )
