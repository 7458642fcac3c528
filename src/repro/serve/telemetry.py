"""Server telemetry: the always-on metrics behind ``GET /v1/metrics``.

The observe bus is off by default and that stays true — solver
instrumentation costs nothing unless a sink is attached.  A *server*,
though, should be scrapeable out of the box, so
:class:`ServeTelemetry` owns its own
:class:`~repro.observe.metrics.MetricsRegistry`, fed from two places:

* **per-request HTTP metrics** — the server's connection handler calls
  :meth:`ServeTelemetry.request_started` /
  :meth:`ServeTelemetry.request_finished` around every request
  (latency histogram per route template, status-code counters, an
  in-flight gauge);
* **scrape-time gauges** — :meth:`ServeTelemetry.refresh` samples the
  job store (queue depth, cache entries and hit ratio, warm-store and
  active-job occupancy) immediately before a snapshot is rendered.

Everything else the scrape shows — job outcomes, cache traffic, journal
writes, supervised retries (``repro_retries_total``) — is counted once,
in the process observe-bus registry the server merges in; while a
server with telemetry runs, it keeps the bus active.

Route labels are *templates* (``/jobs/{id}/result``, never a concrete
job id) so metric cardinality stays bounded.  The metric-name constants
are the single source of truth shared with
:mod:`repro.observe.dashboards` and ``docs/observability.md``.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.observe.metrics import MetricsRegistry

__all__ = [
    "HTTP_LATENCY_BUCKETS",
    "METRIC_CACHE_ENTRIES",
    "METRIC_CACHE_HIT_RATIO",
    "METRIC_DRAINING",
    "METRIC_IN_FLIGHT",
    "METRIC_LATENCY",
    "METRIC_QUEUE_DEPTH",
    "METRIC_REQUESTS",
    "METRIC_ACTIVE_JOBS",
    "METRIC_WARM_ENTRIES",
    "ServeTelemetry",
    "route_template",
]

#: HTTP request counter, labeled ``method``/``route``/``status``.
METRIC_REQUESTS = "repro_http_requests_total"
#: HTTP request latency histogram (seconds), labeled ``route``.
METRIC_LATENCY = "repro_http_request_seconds"
#: Requests currently being handled (gauge).
METRIC_IN_FLIGHT = "repro_http_requests_in_flight"
#: Jobs waiting in the run queue (gauge, sampled at scrape time).
METRIC_QUEUE_DEPTH = "repro_serve_queue_depth"
#: Admitted-and-unfinished jobs across all tenants (gauge).
METRIC_ACTIVE_JOBS = "repro_serve_active_jobs"
#: Resident result-cache entries (gauge).
METRIC_CACHE_ENTRIES = "repro_serve_cache_entries"
#: Lifetime cache hits / (hits + misses); 0 before any lookup (gauge).
METRIC_CACHE_HIT_RATIO = "repro_serve_cache_hit_ratio"
#: Resident warm-store entries (gauge).
METRIC_WARM_ENTRIES = "repro_serve_warm_entries"
#: Whether the store has stopped admitting jobs (gauge, 0 or 1).
METRIC_DRAINING = "repro_serve_draining"

#: Latency histogram bounds tuned for HTTP round trips (seconds).
HTTP_LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Route templates the request metrics may use (bounded cardinality).
_ROUTES = (
    "/healthz", "/metrics", "/jobs", "/jobs/{id}", "/jobs/{id}/result",
    "/jobs/{id}/events",
)


def route_template(path: str) -> str:
    """Map a version-stripped request path to its route template.

    Args:
        path: The request path with any ``/v1`` prefix already removed
            (e.g. ``"/jobs/j-abc123/result"``).

    Returns:
        One of the known templates (``"/jobs/{id}/result"``), or
        ``"(unmatched)"`` for paths outside the API surface — a single
        bucket, so probes and scanners cannot inflate cardinality.
    """
    if path in ("/healthz", "/metrics", "/jobs"):
        return path
    if path.startswith("/jobs/"):
        rest = path[len("/jobs/"):].split("/")
        if len(rest) == 1:
            return "/jobs/{id}"
        if len(rest) == 2 and rest[1] in ("result", "events"):
            return f"/jobs/{{id}}/{rest[1]}"
    return "(unmatched)"


class ServeTelemetry:
    """Always-on server metrics: request hooks and scrape-time gauges.

    The server keeps the process-default observe bus active while it
    runs, so solver and serve counters (``repro_serve_jobs_total``,
    cache hit/insertion counters, ``repro_retries_total``, …)
    accumulate in ``get_bus().metrics`` and ride along in the merged
    ``/v1/metrics`` snapshot.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self._lock = threading.Lock()
        # Pre-register the scrape-relevant instruments so the very
        # first scrape already exposes them (at zero) instead of
        # appearing only after traffic.
        self.registry.gauge(METRIC_IN_FLIGHT)
        self.registry.gauge(METRIC_QUEUE_DEPTH)
        self.registry.gauge(METRIC_ACTIVE_JOBS)
        self.registry.gauge(METRIC_CACHE_ENTRIES)
        self.registry.gauge(METRIC_CACHE_HIT_RATIO)
        self.registry.gauge(METRIC_WARM_ENTRIES)
        self.registry.gauge(METRIC_DRAINING)
        for route in ("/jobs", "/metrics"):
            self.registry.histogram(
                METRIC_LATENCY, buckets=HTTP_LATENCY_BUCKETS, route=route
            )

    # -- HTTP request hooks -------------------------------------------
    def request_started(self) -> None:
        """Count one request into the in-flight gauge."""
        with self._lock:
            self.registry.gauge(METRIC_IN_FLIGHT).inc()

    def request_finished(self, method: str, route: str, status: int,
                         seconds: float) -> None:
        """Record one finished request.

        Args:
            method: The HTTP method as received (``"GET"``).
            route: The route template (:func:`route_template`).
            status: The response status code (``0`` when the connection
                died before a response was written).
            seconds: Wall-clock request duration.
        """
        with self._lock:
            self.registry.gauge(METRIC_IN_FLIGHT).inc(-1.0)
            self.registry.counter(
                METRIC_REQUESTS, method=method, route=route, status=status,
            ).inc()
            self.registry.histogram(
                METRIC_LATENCY, buckets=HTTP_LATENCY_BUCKETS, route=route
            ).observe(seconds)

    # -- scrape support -----------------------------------------------
    def refresh(self, store: Any) -> None:
        """Sample the job store into the occupancy gauges.

        Called immediately before each snapshot render, so scrape-time
        gauges reflect the store *now*, not as of the last request.

        Args:
            store: The server's :class:`~repro.serve.jobs.JobStore`.
        """
        cache = store.cache.stats()
        lookups = cache["hits"] + cache["misses"]
        ratio = (cache["hits"] / lookups) if lookups else 0.0
        with self._lock:
            self.registry.gauge(METRIC_QUEUE_DEPTH).set(
                store.queue_depth())
            self.registry.gauge(METRIC_ACTIVE_JOBS).set(
                store.quotas.snapshot()["active"])
            self.registry.gauge(METRIC_CACHE_ENTRIES).set(
                cache["entries"])
            self.registry.gauge(METRIC_CACHE_HIT_RATIO).set(ratio)
            self.registry.gauge(METRIC_WARM_ENTRIES).set(
                store.warm.stats()["entries"])
            self.registry.gauge(METRIC_DRAINING).set(
                1.0 if store.draining else 0.0)
