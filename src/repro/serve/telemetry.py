"""Server telemetry: the always-on metrics behind ``GET /v1/metrics``.

The observe bus is off by default and that stays true — solver
instrumentation costs nothing unless a sink is attached.  A *server*,
though, should be scrapeable out of the box, so
:class:`ServeTelemetry` owns its own
:class:`~repro.observe.metrics.MetricsRegistry`, fed from three places:

* **per-request HTTP metrics** — the server's connection handler calls
  :meth:`ServeTelemetry.request_started` /
  :meth:`ServeTelemetry.request_finished` around every request
  (latency histogram per route template, status-code counters, an
  in-flight gauge);
* **resilience events** — the telemetry object doubles as an observe
  bus sink; while the server runs it is attached to the process bus and
  folds ``backend_degraded`` / ``task_retry`` events into degradation
  counters and the circuit-breaker gauge (the gauge *latches*: once a
  breaker opened at a site, it reads 1 until the server restarts —
  breakers themselves are per-dispatch, so the latch is the meaningful
  "has the ladder been walked" signal for dashboards);
* **scrape-time gauges** — :meth:`ServeTelemetry.refresh` samples the
  job store (queue depth, cache entries and hit ratio, warm-store and
  active-job occupancy) immediately before a snapshot is rendered.

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
    "METRIC_BREAKER_OPEN",
    "METRIC_CACHE_ENTRIES",
    "METRIC_CACHE_HIT_RATIO",
    "METRIC_DEGRADED",
    "METRIC_DRAINING",
    "METRIC_IN_FLIGHT",
    "METRIC_LATENCY",
    "METRIC_QUEUE_DEPTH",
    "METRIC_REQUESTS",
    "METRIC_RETRY_EVENTS",
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
#: Latched circuit-breaker indicator per ``site`` (gauge, 0 or 1).
METRIC_BREAKER_OPEN = "repro_serve_breaker_open"
#: Degradation-ladder steps observed, labeled ``site``/``to_backend``.
METRIC_DEGRADED = "repro_serve_degraded_total"
#: Supervised retry events observed while serving, labeled ``site``.
METRIC_RETRY_EVENTS = "repro_serve_retry_events_total"
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
    """Always-on server metrics registry plus observe-bus watcher.

    The instance is attached to the process-default observe bus for the
    server's lifetime (it satisfies the sink protocol), which also
    switches the bus active — so solver counters
    (``repro_serve_jobs_total``, cache hit/insertion counters,
    ``repro_degradations_total``, …) accumulate in ``get_bus().metrics``
    and ride along in the merged ``/v1/metrics`` snapshot.
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
        self.registry.gauge(METRIC_BREAKER_OPEN, site="serve.job")
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

    # -- observe-bus sink protocol ------------------------------------
    def write(self, event: Any) -> None:
        """Fold one bus event into the resilience metrics (or drop it)."""
        if event.type == "backend_degraded":
            f = event.fields
            with self._lock:
                self.registry.counter(
                    METRIC_DEGRADED, site=f["site"],
                    to_backend=f["to_backend"],
                ).inc()
                self.registry.gauge(
                    METRIC_BREAKER_OPEN, site=f["site"]
                ).set(1.0)
        elif event.type == "task_retry":
            with self._lock:
                self.registry.counter(
                    METRIC_RETRY_EVENTS, site=event.fields["site"]
                ).inc()

    def close(self) -> None:
        """Nothing to release (the registry lives on)."""

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
