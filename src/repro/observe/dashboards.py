"""Dashboard panel definitions, generated — never hand-edited.

The committed ``dashboards/*.json`` files are the rendered output of
this module; a drift test regenerates them and fails if the checked-in
copies differ.  Because every panel query is built from the metric-name
constants in :mod:`repro.serve.telemetry` and every annotation from the
closed event schema in :mod:`repro.observe.events`, a renamed metric or
a removed event type breaks the build here — at generation time — not
silently on a wallboard.

Regenerate after changing metrics or the schema::

    python -m repro.observe.dashboards dashboards/

The JSON shape is the familiar Grafana dashboard model (``panels`` with
``targets`` holding PromQL ``expr`` strings against the
``GET /v1/metrics`` scrape); ``docs/dashboards.md`` catalogues the
panels and shows a scrape config.
"""

from __future__ import annotations

import json
import os
import sys

from repro.errors import ObservabilityError
from repro.observe.events import EVENT_TYPES

__all__ = ["DASHBOARD_NAMES", "render_dashboards", "write_dashboards"]

#: The dashboard files this module owns (basenames under ``dashboards/``).
DASHBOARD_NAMES = (
    "serve_latency.json",
    "serve_throughput.json",
    "warm_vs_cold.json",
)

#: Bus-side counters referenced by panels (emitted by ``repro.serve``
#: and the supervisor via the observe bus; names asserted against the
#: source at test time).
_JOBS_TOTAL = "repro_serve_jobs_total"
_CACHE_HITS = "repro_serve_cache_hits_total"
_CACHE_INSERTIONS = "repro_serve_cache_insertions_total"
_RETRIES = "repro_retries_total"


def _require_events(*types: str) -> None:
    """Fail generation if a referenced event type left the schema.

    Args:
        *types: Event-type names a dashboard's annotations rely on.

    Raises:
        ObservabilityError: When any name is no longer in
            :data:`~repro.observe.events.EVENT_TYPES`.
    """
    missing = [t for t in types if t not in EVENT_TYPES]
    if missing:
        raise ObservabilityError(
            f"dashboard references unknown event types: {missing}"
        )


def _panel(title: str, exprs: list[tuple[str, str]], *,
           kind: str = "timeseries", unit: str = "short",
           description: str = "") -> dict:
    """Build one panel object.

    Args:
        title: Panel title.
        exprs: ``(legend, promql)`` pairs, one target each.
        kind: Grafana panel type (``timeseries``, ``stat``, ``gauge``).
        unit: Display unit (``s``, ``reqps``, ``percentunit``, …).
        description: Hover help for the panel.
    """
    return {
        "title": title,
        "type": kind,
        "description": description,
        "fieldConfig": {"defaults": {"unit": unit}},
        "targets": [
            {"legendFormat": legend, "expr": expr}
            for legend, expr in exprs
        ],
    }


def _dashboard(uid: str, title: str, panels: list[dict],
               tags: list[str]) -> dict:
    """Assemble one dashboard document around its panels."""
    return {
        "uid": uid,
        "title": title,
        "tags": ["repro", *tags],
        "schemaVersion": 39,
        "refresh": "10s",
        "time": {"from": "now-1h", "to": "now"},
        "panels": panels,
    }


def render_dashboards() -> dict[str, str]:
    """Render every dashboard to deterministic JSON text.

    Returns:
        Mapping of basename (:data:`DASHBOARD_NAMES`) to the exact file
        content the repository commits under ``dashboards/`` — stable
        key order, two-space indent, trailing newline — so the drift
        test can compare byte-for-byte.
    """
    # Imported lazily: telemetry lives in repro.serve, which imports
    # repro.observe — a module-level import here would be circular.
    from repro.serve import telemetry as t

    _require_events("task_retry", "metric")
    lat = t.METRIC_LATENCY
    req = t.METRIC_REQUESTS

    latency = _dashboard("repro-serve-latency", "Serve · Latency", [
        _panel(
            "Request latency quantiles", [
                (f"p{int(q * 100)} {{{{route}}}}",
                 f"histogram_quantile({q}, sum by (le, route) "
                 f"(rate({lat}_bucket[5m])))")
                for q in (0.5, 0.95, 0.99)
            ], unit="s",
            description="Per-route latency from the request histogram.",
        ),
        _panel(
            "Mean latency", [
                ("{{route}}",
                 f"sum by (route) (rate({lat}_sum[5m])) / "
                 f"sum by (route) (rate({lat}_count[5m]))"),
            ], unit="s",
            description="Rolling mean; compare against the quantiles.",
        ),
        _panel(
            "In-flight requests",
            [("in flight", t.METRIC_IN_FLIGHT)],
            description="Concurrent requests inside the handler.",
        ),
    ], ["serve", "latency"])

    throughput = _dashboard(
        "repro-serve-throughput", "Serve · Throughput", [
            _panel(
                "Requests by route and status", [
                    ("{{route}} {{status}}",
                     f"sum by (route, status) (rate({req}[5m]))"),
                ], unit="reqps",
                description="Request rate split by route template and "
                            "response status code.",
            ),
            _panel(
                "Queue depth and active jobs", [
                    ("queued", t.METRIC_QUEUE_DEPTH),
                    ("active", t.METRIC_ACTIVE_JOBS),
                ],
                description="Jobs waiting for a worker vs admitted and "
                            "unfinished.",
            ),
            _panel(
                "Job outcomes", [
                    ("{{state}}",
                     f"sum by (state) (rate({_JOBS_TOTAL}[5m]))"),
                ], unit="reqps",
                description="Terminal job states per second "
                            "(done / failed / cancelled).",
            ),
            _panel(
                "Supervised retries", [
                    ("{{site}}",
                     f"sum by (site) (rate({_RETRIES}[5m]))"),
                ],
                description="Retries the supervisor ran, per dispatch "
                            "site (one per task_retry event).",
            ),
        ], ["serve", "throughput"])

    warm_vs_cold = _dashboard(
        "repro-warm-vs-cold", "Serve · Warm vs cold", [
            _panel(
                "Cache hit ratio",
                [("hit ratio", t.METRIC_CACHE_HIT_RATIO)],
                kind="gauge", unit="percentunit",
                description="Lifetime hits / (hits + misses) of the "
                            "content-addressed result cache.",
            ),
            _panel(
                "Cache traffic", [
                    ("hits", f"rate({_CACHE_HITS}[5m])"),
                    ("insertions", f"rate({_CACHE_INSERTIONS}[5m])"),
                ], unit="reqps",
                description="Cache hits (warm responses) against "
                            "insertions (cold solves).",
            ),
            _panel(
                "Store occupancy", [
                    ("cache entries", t.METRIC_CACHE_ENTRIES),
                    ("warm entries", t.METRIC_WARM_ENTRIES),
                ],
                description="Result-cache entries and warm-start states "
                            "resident for incremental realignment.",
            ),
        ], ["serve", "cache"])

    docs = {
        "serve_latency.json": latency,
        "serve_throughput.json": throughput,
        "warm_vs_cold.json": warm_vs_cold,
    }
    assert tuple(docs) == DASHBOARD_NAMES
    return {
        name: json.dumps(doc, indent=2, sort_keys=True) + "\n"
        for name, doc in docs.items()
    }


def write_dashboards(directory: str) -> list[str]:
    """Write every rendered dashboard under ``directory``.

    Args:
        directory: Target directory (created if missing).

    Returns:
        The paths written, in :data:`DASHBOARD_NAMES` order.
    """
    os.makedirs(directory, exist_ok=True)
    paths = []
    for name, text in render_dashboards().items():
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths.append(path)
    return paths


if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else "dashboards"
    for p in write_dashboards(out):
        print(f"wrote {p}")
