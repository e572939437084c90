"""The engine's LRU result cache with hit/miss/eviction accounting.

One cache instance backs one :class:`~repro.engine.AnalysisEngine`.  Keys
are ``(operation, *input keys, *canonicalized options)`` tuples built by
the engine (input keys: :mod:`repro.core.keys`); values are whatever the
operation produced (view trees, layouts, attribution tables).  The cache
is thread-safe: the engine's worker pool may populate it from several
threads at once.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Tuple


class CacheStats:
    """Counters for one cache: global and per-operation.

    Backed by the atomic :class:`repro.obs.metrics.Counter` primitive:
    the engine's worker pool records hits and misses from several threads
    at once, and a bare ``self.hits += 1`` is an unsynchronized
    read-modify-write that loses increments under that load.  The public
    face is unchanged — ``stats.hits`` and friends still read as plain
    integers.
    """

    __slots__ = ("_hits", "_misses", "_evictions", "_bypasses",
                 "_per_operation", "_ops_lock")

    def __init__(self) -> None:
        from ..obs.metrics import Counter
        self._hits = Counter("engine.cache.hits")
        self._misses = Counter("engine.cache.misses")
        self._evictions = Counter("engine.cache.evictions")
        #: Requests that skipped the cache (uncacheable options such as a
        #: user callback or an arbitrary zoom root).
        self._bypasses = Counter("engine.cache.bypasses")
        self._per_operation: Dict[str, Dict[str, Any]] = {}
        self._ops_lock = threading.Lock()

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def evictions(self) -> int:
        return self._evictions.value

    @property
    def bypasses(self) -> int:
        return self._bypasses.value

    @property
    def per_operation(self) -> Dict[str, Dict[str, int]]:
        with self._ops_lock:
            return {op: {"hits": bucket["hits"].value,
                         "misses": bucket["misses"].value}
                    for op, bucket in self._per_operation.items()}

    def _bucket(self, operation: str) -> Dict[str, Any]:
        from ..obs.metrics import Counter
        with self._ops_lock:
            bucket = self._per_operation.get(operation)
            if bucket is None:
                bucket = {"hits": Counter(), "misses": Counter()}
                self._per_operation[operation] = bucket
            return bucket

    def record(self, operation: str, hit: bool) -> None:
        bucket = self._bucket(operation)
        if hit:
            self._hits.inc()
            bucket["hits"].inc()
        else:
            self._misses.inc()
            bucket["misses"].inc()

    def record_eviction(self) -> None:
        self._evictions.inc()

    def record_bypass(self) -> None:
        self._bypasses.inc()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "bypasses": self.bypasses,
            "hitRate": round(self.hit_rate, 4),
            "operations": dict(sorted(self.per_operation.items())),
        }


class LRUCache:
    """A bounded mapping evicting the least-recently-used entry."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(self, operation: str, key: Hashable) -> Tuple[bool, Any]:
        """Return ``(found, value)``, recording a hit or miss."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.stats.record(operation, hit=False)
                return False, None
            self._entries.move_to_end(key)
            self.stats.record(operation, hit=True)
            return True, value

    def store(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.record_eviction()

    def forget_value(self, value: Any) -> int:
        """Drop every entry whose cached value *is* ``value``.

        Used when a consumer mutates a cached object in place (e.g. the
        formula engine deriving a new metric column onto a view tree): the
        stored result no longer matches its content key.
        """
        with self._lock:
            stale = [key for key, cached in self._entries.items()
                     if cached is value]
            for key in stale:
                del self._entries[key]
            return len(stale)

    def clear(self) -> None:
        """Drop all entries (counters are preserved)."""
        with self._lock:
            self._entries.clear()

    def reset_stats(self) -> None:
        with self._lock:
            self.stats = CacheStats()
