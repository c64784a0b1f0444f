"""Bounded LRU cache with observability counters.

A deliberately small, dependency-free implementation: an
:class:`collections.OrderedDict` under a lock, with hit / miss /
eviction / invalidation / coalesced counters exposed for benchmarks,
the CLI ``--stats`` flag and the engine's
:class:`~repro.obs.metrics.MetricsRegistry`.  Values are stored as-is;
callers that hand out mutable values should copy on the way out (the
engine's result cache does).

Concurrent misses on one key are *single-flighted*: a per-key lock
serialises the computation so one thread computes while the others
wait and then share the stored value (``stats.coalesced`` counts the
duplicate computations avoided).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Hashable, Iterator, List, Optional, Tuple


class CacheStats:
    """Counters for one cache; cheap enough to read on every request.

    Every increment takes the stats' own lock, so counts stay exact no
    matter which thread (or which caller — the cache itself or the
    engine's serving path) performs them: ``hits + misses`` equals the
    number of counted lookups to the unit, even under the batch
    executor's worker pool.
    """

    __slots__ = ("_lock", "hits", "misses", "evictions", "invalidations", "coalesced")

    def __init__(
        self,
        hits: int = 0,
        misses: int = 0,
        evictions: int = 0,
        invalidations: int = 0,
        coalesced: int = 0,
    ):
        self._lock = threading.Lock()
        self.hits = hits
        self.misses = misses
        self.evictions = evictions
        self.invalidations = invalidations
        #: Duplicate computations avoided by per-key single-flighting:
        #: lookups that missed, waited on another thread's in-flight
        #: computation, and were served its stored result.
        self.coalesced = coalesced

    # -- lock-protected increments -------------------------------------
    def record_hit(self, n: int = 1) -> None:
        with self._lock:
            self.hits += n

    def record_miss(self, n: int = 1) -> None:
        with self._lock:
            self.misses += n

    def record_eviction(self, n: int = 1) -> None:
        with self._lock:
            self.evictions += n

    def record_invalidation(self, n: int = 1) -> None:
        with self._lock:
            self.invalidations += n

    def record_coalesced(self, n: int = 1) -> None:
        with self._lock:
            self.coalesced += n

    # -- derived -------------------------------------------------------
    @property
    def requests(self) -> int:
        with self._lock:
            return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        with self._lock:
            hits, misses = self.hits, self.misses
            evictions, invalidations = self.evictions, self.invalidations
            coalesced = self.coalesced
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "invalidations": invalidations,
            "coalesced": coalesced,
            "hit_rate": round(hits / total, 4) if total else 0.0,
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CacheStats):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions}, invalidations={self.invalidations}, "
            f"coalesced={self.coalesced})"
        )


_MISSING = object()


class LRUCache:
    """Thread-safe least-recently-used cache of bounded capacity."""

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        # Per-key single-flight locks with waiter refcounts, so an
        # entry is dropped as soon as its last waiter leaves.
        self._key_locks: Dict[Hashable, List] = {}
        self.stats = CacheStats()

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Fetch *key*, promoting it to most-recently-used on a hit."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is not _MISSING:
                self._data.move_to_end(key)
        if value is _MISSING:
            self.stats.record_miss()
            return default
        self.stats.record_hit()
        return value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Non-counting, non-promoting read (single-flight double-check)."""
        with self._lock:
            value = self._data.get(key, _MISSING)
        return default if value is _MISSING else value

    def touch(self, key: Hashable) -> None:
        """Count a hit on *key* and promote it: a value read with
        :meth:`peek` was used after all."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
        self.stats.record_hit()

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh *key*, evicting the LRU entry when full."""
        evicted = 0
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self._data[key] = value
                return
            self._data[key] = value
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                evicted += 1
        if evicted:
            self.stats.record_eviction(evicted)

    @contextmanager
    def key_lock(self, key: Hashable) -> Iterator[None]:
        """Serialise computations for *key* across threads.

        The serving path brackets its miss-path compute with this so
        concurrent misses on the same key share one computation::

            value = cache.get(key)
            if value is None:
                with cache.key_lock(key):
                    value = cache.peek(key)       # did a peer publish?
                    if value is None:
                        value = compute()
                        cache.put(key, value)
        """
        with self._lock:
            entry = self._key_locks.get(key)
            if entry is None:
                entry = self._key_locks[key] = [threading.Lock(), 0]
            entry[1] += 1
        entry[0].acquire()
        try:
            yield
        finally:
            entry[0].release()
            with self._lock:
                entry[1] -= 1
                if entry[1] == 0:
                    self._key_locks.pop(key, None)

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """``get`` with single-flighted fallback computation.

        Concurrent misses on the same key serialise on a per-key lock:
        exactly one thread runs *compute* (outside the cache-wide lock,
        so unrelated keys are unaffected) and the rest are served the
        stored value, counted in ``stats.coalesced``.  If the compute
        raises, nothing is stored and the next waiter retries.
        """
        value = self.get(key, _MISSING)
        if value is not _MISSING:
            return value
        with self.key_lock(key):
            value = self.peek(key, _MISSING)
            if value is not _MISSING:
                self.stats.record_coalesced()
                return value
            value = compute()
            self.put(key, value)
        return value

    def clear(self) -> None:
        with self._lock:
            had_data = bool(self._data)
            self._data.clear()
        if had_data:
            self.stats.record_invalidation()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def keys(self) -> Tuple[Hashable, ...]:
        """Snapshot of keys, LRU first."""
        with self._lock:
            return tuple(self._data)

    def values(self) -> Tuple[Any, ...]:
        """Snapshot of values, LRU first (no promotion, no counting)."""
        with self._lock:
            return tuple(self._data.values())

    def __repr__(self) -> str:
        return f"LRUCache({len(self)}/{self.capacity}, {self.stats!r})"
