"""Observability: tracing, metrics, and profiling hooks (zero-dependency).

One coherent, timestamp-ordered event stream covers algorithm progress
(solver iterations, rounding calls, matching invocations) *and*
simulated-machine behavior (replayed loops with per-socket work, barrier
waits, remote-traffic estimates).  The pieces:

* :mod:`~repro.observe.events` — the documented, closed event schema;
* :mod:`~repro.observe.bus` — the :class:`EventBus` (span-style
  ``trace`` context managers + typed ``emit``), the process-default bus
  (:func:`get_bus`), and the :func:`capture` helper;
* :mod:`~repro.observe.metrics` — labeled counters/gauges/histograms
  (:class:`MetricsRegistry`, one per bus at ``bus.metrics``);
* :mod:`~repro.observe.sinks` — :class:`MemorySink` (tests/steering),
  :class:`JSONLSink` (durable capture), :class:`ConsoleSink` (live
  human-readable reporter), :class:`NullSink`, and the sink registry
  (:func:`make_sink` over :data:`SINK_NAMES`);
* :mod:`~repro.observe.export` — metrics exporters:
  :func:`prometheus_text` / :func:`otlp_json` pull snapshots and the
  :class:`PrometheusExporter` / :class:`OTLPExporter` push sinks;
* :mod:`~repro.observe.dashboards` — dashboard panel JSON generated
  from the event schema and serve metric names (the committed
  ``dashboards/`` files); import it from its module, which is also the
  regenerate command (``python -m repro.observe.dashboards DIR``);
* :mod:`~repro.observe.reconstruct` — rebuild
  :class:`~repro.core.result.IterationRecord` history and per-socket
  simulator counters from a captured stream.

Instrumentation is **off by default**: the default bus has no sinks and
every emission point in the solvers, matchers and the machine simulator
is guarded by ``bus.active`` — a disabled run pays one attribute read
per site.  Enable by attaching a sink (``get_bus().add_sink(...)``,
``with capture() as sink: ...``) or via the CLI flags ``--trace-out`` /
``--metrics-out`` / ``--live``.  See ``docs/observability.md`` for the
full schema and worked examples.
"""

from repro.observe.bus import EventBus, capture, get_bus, set_bus
from repro.observe.events import EVENT_TYPES, Event, validate_event
from repro.observe.export import (
    OTLPExporter,
    PrometheusExporter,
    histogram_quantile,
    merged_rows,
    otlp_json,
    prometheus_text,
    text_summary,
)
from repro.observe.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observe.reconstruct import (
    SocketCounters,
    history_from_events,
    history_from_jsonl,
    read_jsonl,
    socket_counters_from_events,
)
from repro.observe.sinks import (
    SINK_NAMES,
    ConsoleSink,
    JSONLSink,
    MemorySink,
    NullSink,
    Sink,
    make_sink,
)

__all__ = [
    "EVENT_TYPES",
    "SINK_NAMES",
    "ConsoleSink",
    "Counter",
    "Event",
    "EventBus",
    "Gauge",
    "Histogram",
    "JSONLSink",
    "MemorySink",
    "MetricsRegistry",
    "NullSink",
    "OTLPExporter",
    "PrometheusExporter",
    "Sink",
    "SocketCounters",
    "capture",
    "get_bus",
    "histogram_quantile",
    "history_from_events",
    "history_from_jsonl",
    "make_sink",
    "merged_rows",
    "otlp_json",
    "prometheus_text",
    "read_jsonl",
    "set_bus",
    "socket_counters_from_events",
    "text_summary",
    "validate_event",
]
