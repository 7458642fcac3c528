"""The content-addressed result cache behind ``POST /v1/jobs``.

Results are cached under :func:`repro.serve.wire.cache_key` — a hash of
the problem's canonical arrays plus the canonicalized solver config —
so a repeated identical submission is answered instantly with the
previously computed payload and ``"cached": true``, without touching a
worker, the admission queue, or any tenant quota.

The cache is a bounded LRU: ``max_entries`` most-recently-used results
stay resident (a full alignment result payload is small — the matching
pairs dominate), and eviction is silent.  All operations are
thread-safe; the server's asyncio thread reads at submit time while
worker threads insert at completion time.

When the observe bus is active, hits and insertions are counted as
``repro_serve_cache_hits_total`` / ``repro_serve_cache_insertions_total``
(see ``docs/observability.md``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

from repro.observe import get_bus

__all__ = ["ResultCache"]


class ResultCache:
    """Bounded, thread-safe LRU of result payloads keyed by content.

    Args:
        max_entries: Resident-entry bound; ``0`` disables caching
            entirely (every ``get`` misses, every ``put`` drops).
    """

    def __init__(self, max_entries: int = 128) -> None:
        self.max_entries = int(max_entries)
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self._hits = 0
        self._misses = 0

    def get(self, key: str) -> dict[str, Any] | None:
        """Look up a result payload; refreshes LRU order on hit.

        Args:
            key: A :func:`repro.serve.wire.cache_key` address.

        Returns:
            The cached payload dict, or ``None`` on miss.
        """
        with self._lock:
            payload = self._entries.get(key)
            if payload is None:
                self._misses += 1
            else:
                self._entries.move_to_end(key)
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
        if self.max_entries <= 0:
            return
        with self._lock:
            self._entries[key] = payload
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        bus = get_bus()
        if bus.active:
            bus.metrics.counter("repro_serve_cache_insertions_total").inc()

    def stats(self) -> dict[str, int]:
        """Return ``{"entries", "hits", "misses"}`` counters.

        Returns:
            A snapshot dict (suitable for the ``/v1/healthz`` payload).
        """
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self._hits,
                "misses": self._misses,
            }

    def clear(self) -> None:
        """Drop every cached entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
