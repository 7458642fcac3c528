"""Metrics exporters: golden rendering, parse-back, schema, registry.

Four layers of coverage:

* a golden-file test — a fixed registry rendered with
  ``prometheus_text`` must match ``tests/golden/metrics.prom``
  byte-for-byte, so any formatting change is a reviewed diff;
* a parse-back test — a small Prometheus text parser re-reads the
  rendered output and checks it against the registry snapshot
  (cumulative bucket monotonicity, ``_count``/``_sum`` consistency,
  label round-trip through escaping);
* an OTLP-JSON schema test — the ``otlp_json`` document carries the
  ``ExportMetricsServiceRequest`` shape with per-bucket (non-cumulative)
  histogram counts;
* push-sink and registry tests — exporter flush/interval semantics,
  ``make_sink`` construction and error reporting, and the
  ``TypeError`` a positional stream now raises.
"""

import io
import json
import re
from pathlib import Path

import pytest

from repro.errors import ObservabilityError
from repro.observe import (
    SINK_NAMES,
    ConsoleSink,
    JSONLSink,
    MemorySink,
    MetricsRegistry,
    NullSink,
    OTLPExporter,
    PrometheusExporter,
    histogram_quantile,
    make_sink,
    merged_rows,
    otlp_json,
    prometheus_text,
    text_summary,
)
from repro.observe.events import Event

GOLDEN = Path(__file__).resolve().parent / "golden" / "metrics.prom"


def golden_registry() -> MetricsRegistry:
    """The fixed registry behind the committed golden file."""
    reg = MetricsRegistry()
    reg.counter("demo_requests_total", route="/jobs", status="200").inc(3)
    reg.counter("demo_requests_total", route="/jobs", status="500").inc()
    reg.gauge("demo_queue_depth").set(2)
    reg.gauge("demo_drift", unit="s").set(-3.5)
    hist = reg.histogram(
        "demo_latency_seconds", buckets=(0.1, 0.5, 1.0), route="/jobs"
    )
    for value in (0.05, 0.2, 0.3, 0.9, 7.0):
        hist.observe(value)
    reg.counter("demo_escapes_total", path='a\\b"c\nd').inc()
    return reg


# --------------------------------------------------------------------
# a minimal Prometheus text parser (for the parse-back tests)
# --------------------------------------------------------------------

_SAMPLE_RE = re.compile(r"^([A-Za-z_:][\w:]*)(?:\{(.*)\})? (\S+)$")
_LABEL_RE = re.compile(r'(\w+)="((?:\\.|[^"\\])*)"')


def _unescape(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def _parse_number(text: str) -> float:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    return float(text)


def parse_prometheus_text(text: str):
    """Parse exposition text into ``(types, samples)``.

    ``types`` maps metric name to its ``# TYPE`` kind; ``samples`` maps
    ``(sample_name, frozen_labels)`` to the parsed float value.
    """
    types: dict[str, str] = {}
    samples: dict[tuple[str, frozenset], float] = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            assert name not in types, f"duplicate # TYPE for {name}"
            types[name] = kind
            continue
        assert not line.startswith("#"), f"unexpected comment: {line!r}"
        match = _SAMPLE_RE.match(line)
        assert match, f"unparseable sample line: {line!r}"
        name, raw_labels, raw_value = match.groups()
        labels = frozenset(
            (k, _unescape(v))
            for k, v in _LABEL_RE.findall(raw_labels or "")
        )
        key = (name, labels)
        assert key not in samples, f"duplicate sample {key}"
        samples[key] = _parse_number(raw_value)
    return types, samples


class TestPrometheusText:
    def test_matches_committed_golden_file(self):
        rendered = prometheus_text(golden_registry())
        assert rendered == GOLDEN.read_text(encoding="utf-8"), (
            "prometheus_text output drifted from tests/golden/metrics.prom"
            " — if the change is intentional, regenerate the golden file"
        )

    def test_parse_back_counters_and_gauges(self):
        reg = golden_registry()
        types, samples = parse_prometheus_text(prometheus_text(reg))
        assert types["demo_requests_total"] == "counter"
        assert types["demo_queue_depth"] == "gauge"
        key = ("demo_requests_total",
               frozenset({("route", "/jobs"), ("status", "200")}))
        assert samples[key] == 3
        assert samples[("demo_queue_depth", frozenset())] == 2
        assert samples[("demo_drift", frozenset({("unit", "s")}))] == -3.5

    def test_parse_back_histogram_is_cumulative_and_consistent(self):
        types, samples = parse_prometheus_text(
            prometheus_text(golden_registry())
        )
        assert types["demo_latency_seconds"] == "histogram"
        route = ("route", "/jobs")
        counts = []
        for bound in ("0.1", "0.5", "1", "+Inf"):
            key = ("demo_latency_seconds_bucket",
                   frozenset({route, ("le", bound)}))
            counts.append(samples[key])
        assert counts == sorted(counts), "bucket counts must be cumulative"
        assert counts == [1, 3, 4, 5]
        count = samples[("demo_latency_seconds_count", frozenset({route}))]
        total = samples[("demo_latency_seconds_sum", frozenset({route}))]
        assert count == counts[-1] == 5
        assert total == pytest.approx(0.05 + 0.2 + 0.3 + 0.9 + 7.0)

    def test_label_escaping_round_trips(self):
        _, samples = parse_prometheus_text(
            prometheus_text(golden_registry())
        )
        key = ("demo_escapes_total",
               frozenset({("path", 'a\\b"c\nd')}))
        assert samples[key] == 1

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""

    def test_merging_sources_and_kind_conflicts(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("shared_total").inc()
        b.gauge("solo").set(1)
        text = prometheus_text(a, b)
        assert "# TYPE shared_total counter" in text
        assert "# TYPE solo gauge" in text
        bad = MetricsRegistry()
        bad.gauge("shared_total").set(2)
        with pytest.raises(ObservabilityError, match="shared_total"):
            prometheus_text(a, bad)

    def test_merged_rows_order_is_source_independent(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("aa_total").inc()
        b.counter("zz_total").inc()
        assert merged_rows(a, b) == merged_rows(b, a)


class TestOTLPJson:
    def test_document_schema(self):
        doc = otlp_json(golden_registry(), time_unix_nano=123)
        (resource,) = doc["resourceMetrics"]
        assert resource["resource"]["attributes"] == [{
            "key": "service.name", "value": {"stringValue": "repro"},
        }]
        (scope,) = resource["scopeMetrics"]
        assert scope["scope"]["name"] == "repro.observe"
        by_name = {m["name"]: m for m in scope["metrics"]}
        assert list(by_name) == sorted(by_name)

        counter = by_name["demo_requests_total"]["sum"]
        assert counter["isMonotonic"] is True
        assert counter["aggregationTemporality"] == 2
        assert {p["asDouble"] for p in counter["dataPoints"]} == {3.0, 1.0}
        assert all(p["timeUnixNano"] == "123"
                   for p in counter["dataPoints"])

        gauge = by_name["demo_queue_depth"]["gauge"]
        assert gauge["dataPoints"][0]["asDouble"] == 2.0

    def test_histogram_buckets_are_per_bucket_not_cumulative(self):
        doc = otlp_json(golden_registry(), time_unix_nano=123)
        scope = doc["resourceMetrics"][0]["scopeMetrics"][0]
        by_name = {m["name"]: m for m in scope["metrics"]}
        (point,) = by_name["demo_latency_seconds"]["histogram"]["dataPoints"]
        assert point["explicitBounds"] == [0.1, 0.5, 1.0]
        assert point["bucketCounts"] == ["1", "2", "1", "1"]
        assert sum(int(c) for c in point["bucketCounts"]) == 5
        assert point["count"] == "5"
        assert point["min"] == 0.05 and point["max"] == 7.0

    def test_service_name_override(self):
        doc = otlp_json(MetricsRegistry(), service_name="aligner",
                        time_unix_nano=1)
        attr = doc["resourceMetrics"][0]["resource"]["attributes"][0]
        assert attr["value"]["stringValue"] == "aligner"


def _tick(sink):
    """Drive a push sink with one (arbitrary) bus event."""
    sink.write(Event("metric", 1, 0.0,
                     {"metric": "x", "labels": {}, "value": 1.0}))


class TestExporterSinks:
    def test_prometheus_path_mode_replaces_atomically(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("flushes_total").inc()
        target = tmp_path / "metrics.prom"
        sink = PrometheusExporter(path=str(target), registry=reg,
                                  interval_s=0.0)
        sink.flush()
        first = target.read_text(encoding="utf-8")
        assert "flushes_total 1" in first
        reg.counter("flushes_total").inc()
        sink.close()
        second = target.read_text(encoding="utf-8")
        assert "flushes_total 2" in second
        assert second.count("# TYPE") == 1, "replaced, not appended"
        assert not (tmp_path / "metrics.prom.tmp").exists()

    def test_interval_gates_rendering(self):
        reg = MetricsRegistry()
        reg.gauge("up").set(1)
        stream = io.StringIO()
        sink = PrometheusExporter(stream=stream, registry=reg,
                                  interval_s=3600.0)
        _tick(sink)  # first write always flushes (last_flush = -inf)
        reg.gauge("up").set(0)
        _tick(sink)  # within the interval: no re-render
        assert "up 1" in stream.getvalue()
        assert "up 0" not in stream.getvalue()
        sink.close()  # close always flushes
        assert "up 0" in stream.getvalue()

    def test_otlp_appends_one_line_per_flush(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("n_total").inc()
        target = tmp_path / "exports.jsonl"
        sink = OTLPExporter(path=str(target), registry=reg,
                            interval_s=0.0, service_name="svc")
        sink.flush()
        sink.close()
        lines = target.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        for line in lines:
            doc = json.loads(line)
            attr = doc["resourceMetrics"][0]["resource"]["attributes"][0]
            assert attr["value"]["stringValue"] == "svc"

    def test_exporters_require_exactly_one_target(self):
        with pytest.raises(ObservabilityError, match="exactly one"):
            PrometheusExporter(registry=MetricsRegistry())
        with pytest.raises(ObservabilityError, match="exactly one"):
            OTLPExporter(path="x", stream=io.StringIO())


class TestSinkRegistry:
    def test_every_registered_name_constructs(self, tmp_path):
        built = {
            "memory": make_sink("memory"),
            "null": make_sink("null"),
            "console": make_sink("console", stream=io.StringIO()),
            "jsonl": make_sink("jsonl", path=str(tmp_path / "a.jsonl")),
            "prometheus": make_sink(
                "prometheus", path=str(tmp_path / "m.prom"),
                registry=MetricsRegistry(),
            ),
            "otlp": make_sink(
                "otlp", path=str(tmp_path / "m.jsonl"),
                registry=MetricsRegistry(),
            ),
        }
        assert set(built) == set(SINK_NAMES)
        expected = {
            "memory": MemorySink, "null": NullSink,
            "console": ConsoleSink, "jsonl": JSONLSink,
            "prometheus": PrometheusExporter, "otlp": OTLPExporter,
        }
        for name, sink in built.items():
            assert type(sink) is expected[name]
            sink.close()

    def test_unknown_name_lists_known_sinks(self):
        with pytest.raises(ObservabilityError) as err:
            make_sink("graphite")
        for name in SINK_NAMES:
            assert name in str(err.value)

    def test_bad_options_reported_with_sink_name(self):
        with pytest.raises(ObservabilityError, match="memory"):
            make_sink("memory", path="nope")

    def test_positional_streams_raise_type_error(self):
        with pytest.raises(TypeError, match="stream="):
            JSONLSink(io.StringIO())
        with pytest.raises(TypeError):
            ConsoleSink(io.StringIO())
        stream = io.StringIO()
        sink = JSONLSink(stream=stream)
        sink.write(Event("span_start", 1, 0.0, {"name": "x"}))
        sink.close()
        assert json.loads(stream.getvalue())["name"] == "x"
        ConsoleSink(stream=io.StringIO()).close()

    def test_jsonl_requires_exactly_one_target(self, tmp_path):
        with pytest.raises(ObservabilityError, match="exactly one"):
            JSONLSink()
        with pytest.raises(ObservabilityError, match="exactly one"):
            JSONLSink(str(tmp_path / "a.jsonl"), stream=io.StringIO())


class TestHistogramQuantile:
    def _row(self, buckets, values):
        reg = MetricsRegistry()
        hist = reg.histogram("q_seconds", buckets=buckets)
        for v in values:
            hist.observe(v)
        return reg.snapshot()[0]

    def test_interpolates_within_buckets(self):
        # Five uniform values in one (0, 10] bucket: the interpolated
        # median sits at the true median because the edges come from
        # the recorded min/max, not the nominal bucket bounds.
        row = self._row((10.0,), [1.0, 2.0, 3.0, 4.0, 5.0])
        assert histogram_quantile(row, 0.5) == pytest.approx(3.0)
        assert histogram_quantile(row, 0.0) == pytest.approx(1.0)
        assert histogram_quantile(row, 1.0) == pytest.approx(5.0)

    def test_spans_multiple_buckets(self):
        row = self._row((0.1, 0.5, 1.0), [0.05, 0.2, 0.3, 0.9, 7.0])
        # rank 2.5 of 5 lands 0.75 of the way through the (0.1, 0.5]
        # bucket, which holds ranks 2 and 3.
        assert histogram_quantile(row, 0.5) == pytest.approx(0.4)
        # The overflow bucket's upper edge is the observed max.
        assert histogram_quantile(row, 0.99) <= 7.0

    def test_empty_histogram_is_none(self):
        row = self._row((1.0,), [])
        assert histogram_quantile(row, 0.5) is None

    def test_rejects_bad_inputs(self):
        row = self._row((1.0,), [0.5])
        with pytest.raises(ObservabilityError):
            histogram_quantile(row, 1.5)
        reg = MetricsRegistry()
        reg.counter("n_total").inc()
        with pytest.raises(ObservabilityError):
            histogram_quantile(reg.snapshot()[0], 0.5)


class TestTextSummary:
    def test_summarizes_all_metric_kinds(self):
        reg = MetricsRegistry()
        reg.counter("demo_requests_total", route="/jobs").inc(3)
        reg.gauge("demo_depth").set(2)
        hist = reg.histogram("demo_seconds", buckets=(0.1, 1.0),
                             route="/jobs")
        for v in (0.05, 0.2, 0.4):
            hist.observe(v)
        text = text_summary(reg)
        assert 'demo_requests_total{route="/jobs"}  3' in text
        assert "demo_depth  2" in text
        line = next(l for l in text.splitlines()
                    if l.startswith("demo_seconds"))
        assert "count=3" in line
        for marker in ("mean=", "p50=", "p95=", "p99="):
            assert marker in line

    def test_empty_histogram_and_registry(self):
        reg = MetricsRegistry()
        reg.histogram("idle_seconds", buckets=(1.0,))
        assert "count=0" in text_summary(reg)
        assert text_summary(MetricsRegistry()) == ""
