"""The job server's bounded LRU maps, and the result cache among them.

:class:`Lru` is the one bounded, thread-safe least-recently-used map the
job store keeps: the warm store (job id → converged solver state), the
body memo (request-body SHA-256 → accepted submission) and the result
cache are each one.  Eviction is least-recently-used over both reads
and writes, and silent; a capacity of ``0`` disables the map.  All
operations are thread-safe: the server's asyncio thread reads at submit
time while worker threads insert at completion time.

:class:`ResultCache` holds result payloads under
:func:`repro.serve.wire.cache_key` — a hash of the problem's canonical
arrays plus the canonicalized solver config — so a repeated identical
submission is answered instantly with the previously computed payload
and ``"cached": true``, without touching a worker, the admission queue,
or any tenant quota.  It adds lifetime hit and miss counts and, when
the observe bus is active, the ``repro_serve_cache_hits_total`` /
``repro_serve_cache_insertions_total`` counters (see
``docs/observability.md``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

from repro.observe import get_bus

__all__ = ["Lru", "ResultCache"]


class Lru:
    """A bounded, thread-safe LRU map; ``capacity=0`` disables it.

    Args:
        capacity: Resident-entry bound; ``0`` makes every ``put`` drop
            and every ``get`` miss.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._entries: OrderedDict[Any, Any] = OrderedDict()

    def get(self, key: Any) -> Any | None:
        """The value under ``key`` (``None`` on miss); a hit is refreshed."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: Any, value: Any) -> None:
        """Store (or refresh) an entry, evicting the LRU overflow.

        Args:
            key: The entry's key.
            value: The value to keep; never ``None``.
        """
        if self.capacity <= 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def stats(self) -> dict[str, int]:
        """Occupancy report for ``/v1/healthz``: ``{entries, capacity}``."""
        with self._lock:
            return {"entries": len(self._entries),
                    "capacity": self.capacity}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class ResultCache(Lru):
    """The content-addressed result cache, counting hits and misses.

    Args:
        max_entries: Resident-entry bound; ``0`` disables caching
            entirely (every ``get`` misses, every ``put`` drops).
    """

    def __init__(self, max_entries: int = 128) -> None:
        super().__init__(max_entries)
        self._hits = 0
        self._misses = 0

    def get(self, key: str) -> dict[str, Any] | None:
        """Look up a result payload; refreshes LRU order on hit.

        Args:
            key: A :func:`repro.serve.wire.cache_key` address.

        Returns:
            The cached payload dict, or ``None`` on miss.
        """
        payload = super().get(key)
        with self._lock:
            if payload is None:
                self._misses += 1
            else:
                self._hits += 1
        if payload is not None:
            bus = get_bus()
            if bus.active:
                bus.metrics.counter("repro_serve_cache_hits_total").inc()
        return payload

    def put(self, key: str, payload: dict[str, Any]) -> None:
        """Insert (or refresh) a result payload, evicting LRU overflow.

        Args:
            key: The content address of the result.
            payload: The JSON-ready result document to cache.
        """
        super().put(key, payload)
        bus = get_bus()
        if self.capacity > 0 and bus.active:
            bus.metrics.counter("repro_serve_cache_insertions_total").inc()

    def stats(self) -> dict[str, int]:
        """``{entries, capacity, hits, misses}`` for ``/v1/healthz``."""
        stats = super().stats()
        with self._lock:
            stats.update(hits=self._hits, misses=self._misses)
        return stats
