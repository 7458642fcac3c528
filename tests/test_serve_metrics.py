"""Serve telemetry: /v1 surface, the metrics scrape, dashboards.

Covers the observability half of the serving layer:

* unit tests for :func:`repro.serve.route_template` (bounded label
  cardinality) and the :class:`ServeTelemetry` request hooks;
* live-server tests over real sockets — the Prometheus scrape is
  parsed back with its ``method``/``route``/``status`` request labels,
  unprefixed paths answer the 404 envelope, plus ``?format=otlp``, the
  enriched ``/v1/healthz`` document, a concurrent scrape-while-solving
  run, and a retried job counted once (by the supervisor);
* drift tests — the committed ``dashboards/*.json`` must equal the
  generated output byte-for-byte, and every metric-name constant must
  be documented in ``docs/observability.md``.
"""

import http.client
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.observe import EventBus, get_bus, set_bus
from repro.observe.dashboards import DASHBOARD_NAMES, render_dashboards
from repro.resilience import FaultPlan, FaultSpec, fault_plan
from repro.serve import (
    API_VERSION,
    ServeConfig,
    ServeTelemetry,
    problem_to_wire,
    route_template,
    serve_in_thread,
)
from repro.serve import telemetry as telemetry_mod
from tests.test_export import parse_prometheus_text

REPO = Path(__file__).resolve().parent.parent


def _request(base_url, method, path, body=None):
    """One HTTP request; returns (status, headers, parsed-or-raw body)."""
    host, port = base_url.removeprefix("http://").rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=60)
    try:
        payload = None
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
        conn.request(method, path, body=payload)
        resp = conn.getresponse()
        raw = resp.read()
        headers = dict(resp.getheaders())
    finally:
        conn.close()
    try:
        return resp.status, headers, json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return resp.status, headers, raw


@pytest.fixture(scope="module")
def wire_problem():
    instance = repro.powerlaw_alignment_instance(
        n=30, expected_degree=4, seed=1
    )
    return problem_to_wire(instance.problem)


def _submission(wire_problem, **overrides):
    doc = {"method": "bp",
           "config": {"n_iter": 8, "matcher": "approx", "batch": 2},
           "problem": wire_problem}
    doc.update(overrides)
    return doc


# --------------------------------------------------------------------
# unit: route templates and request hooks
# --------------------------------------------------------------------

class TestRouteTemplate:
    @pytest.mark.parametrize("path,template", [
        ("/healthz", "/healthz"),
        ("/metrics", "/metrics"),
        ("/jobs", "/jobs"),
        ("/jobs/j-abc123", "/jobs/{id}"),
        ("/jobs/j-abc123/result", "/jobs/{id}/result"),
        ("/jobs/j-abc123/events", "/jobs/{id}/events"),
        ("/jobs/j-abc123/nope", "(unmatched)"),
        ("/jobs/a/b/c", "(unmatched)"),
        ("/", "(unmatched)"),
        ("/admin/../../etc/passwd", "(unmatched)"),
    ])
    def test_known_paths_map_to_templates(self, path, template):
        assert route_template(path) == template


class TestTelemetrySink:
    def _value(self, tele, metric, **labels):
        rows = tele.registry.snapshot()
        for row in rows:
            if row["metric"] == metric and row["labels"] == labels:
                return row["value"]
        raise AssertionError(f"{metric}{labels} not in snapshot")

    def test_request_hooks_feed_counter_histogram_and_gauge(self):
        tele = ServeTelemetry()
        tele.request_started()
        assert self._value(
            tele, telemetry_mod.METRIC_IN_FLIGHT) == 1.0
        tele.request_finished("GET", "/jobs", 200, 0.004)
        assert self._value(
            tele, telemetry_mod.METRIC_IN_FLIGHT) == 0.0
        assert self._value(
            tele, telemetry_mod.METRIC_REQUESTS,
            method="GET", route="/jobs", status="200",
        ) == 1.0


# --------------------------------------------------------------------
# live server
# --------------------------------------------------------------------

@pytest.fixture(scope="class")
def server():
    with serve_in_thread(ServeConfig(port=0, workers=1)) as srv:
        yield srv


class TestLiveMetrics:
    def test_scrape_parses_back_with_expected_series(self, server):
        _request(server.base_url, "GET", "/healthz")
        _request(server.base_url, "GET", "/v1/healthz")
        status, headers, raw = _request(
            server.base_url, "GET", "/v1/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in headers["Content-Type"]
        types, samples = parse_prometheus_text(raw.decode("utf-8"))
        assert types["repro_http_requests_total"] == "counter"
        assert types["repro_http_request_seconds"] == "histogram"
        assert types["repro_serve_queue_depth"] == "gauge"
        assert types["repro_serve_cache_hit_ratio"] == "gauge"
        requests = [
            dict(labels)
            for (name, labels) in samples
            if name == "repro_http_requests_total"
        ]
        assert requests
        assert all(set(r) == {"method", "route", "status"}
                   for r in requests)
        assert {"method": "GET", "route": "/healthz",
                "status": "200"} in requests
        # The unprefixed probe is counted under the unmatched bucket.
        assert {"method": "GET", "route": "(unmatched)",
                "status": "404"} in requests
        # The pre-registered latency histogram is visible immediately.
        key = ("repro_http_request_seconds_count",
               frozenset({("route", "/metrics")}))
        assert key in samples

    @pytest.mark.parametrize("method,path", [
        ("GET", "/healthz"), ("POST", "/jobs"), ("GET", "/metrics"),
        ("GET", "/jobs/j-missing"),
    ])
    def test_unprefixed_routes_answer_404(self, server, method, path):
        status, headers, doc = _request(server.base_url, method, path)
        assert status == 404
        assert doc["api_version"] == API_VERSION
        assert doc["error"]["code"] == "not_found"
        assert "Deprecation" not in headers

    def test_no_response_carries_deprecation(self, server):
        for path in ("/v1/healthz", "/v1/metrics", "/v1/jobs/j-missing"):
            _, headers, _ = _request(server.base_url, "GET", path)
            assert "Deprecation" not in headers, path

    def test_error_envelope_carries_api_version(self, server):
        status, _, doc = _request(
            server.base_url, "GET", "/v1/jobs/j-missing")
        assert status == 404
        assert doc["api_version"] == API_VERSION
        assert doc["error"]["code"] == "not_found"

    def test_healthz_reports_occupancy(self, server):
        status, _, doc = _request(server.base_url, "GET", "/v1/healthz")
        assert status == 200
        assert doc["api_version"] == API_VERSION
        assert doc["queue_depth"] == 0
        assert set(doc) == {"status", "api_version", "version", "jobs",
                            "queue_depth", "cache", "warm", "quotas",
                            "store", "draining"}
        # One LRU shape: occupancy and bound; the cache adds its counts.
        assert set(doc["warm"]) == {"entries", "capacity"}
        assert set(doc["cache"]) == {"entries", "capacity", "hits",
                                     "misses"}
        assert doc["cache"]["capacity"] == ServeConfig().cache_entries
        assert doc["warm"]["capacity"] == ServeConfig().warm_entries

    def test_otlp_format_and_unknown_format(self, server):
        status, _, doc = _request(
            server.base_url, "GET", "/v1/metrics?format=otlp")
        assert status == 200
        scope = doc["resourceMetrics"][0]["scopeMetrics"][0]
        names = {m["name"] for m in scope["metrics"]}
        assert "repro_http_requests_total" in names
        status, _, doc = _request(
            server.base_url, "GET", "/v1/metrics?format=csv")
        assert status == 400
        assert doc["error"]["code"] == "bad_request"

    def test_metrics_rejects_non_get(self, server):
        status, _, doc = _request(server.base_url, "POST", "/v1/metrics")
        assert status == 405
        assert doc["error"]["code"] == "method_not_allowed"

    def test_cache_hit_ratio_rises_after_cached_resubmit(
        self, server, wire_problem,
    ):
        body = _submission(wire_problem)
        status, _, first = _request(
            server.base_url, "POST", "/v1/jobs?wait=1", body)
        assert status == 200 and first["state"] == "done"
        status, _, hit = _request(
            server.base_url, "POST", "/v1/jobs", body)
        assert status == 200 and hit["cached"] is True
        _, _, raw = _request(server.base_url, "GET", "/v1/metrics")
        _, samples = parse_prometheus_text(raw.decode("utf-8"))
        assert samples[
            ("repro_serve_cache_hit_ratio", frozenset())] > 0.0
        assert samples[
            ("repro_serve_cache_entries", frozenset())] >= 1.0
        # The bus-side serve counters ride along in the merged scrape.
        assert samples[
            ("repro_serve_jobs_total", frozenset({("state", "done")}))
        ] >= 1.0

    def test_concurrent_scrapes_while_solving(self, server, wire_problem):
        body = _submission(wire_problem,
                           config={"n_iter": 40, "matcher": "approx"})
        status, _, job = _request(
            server.base_url, "POST", "/v1/jobs", body)
        assert status in (200, 202)

        failures = []

        def scrape():
            for _ in range(5):
                try:
                    code, _, raw = _request(
                        server.base_url, "GET", "/v1/metrics")
                    assert code == 200
                    parse_prometheus_text(raw.decode("utf-8"))
                except Exception as exc:  # noqa: BLE001 - collected
                    failures.append(exc)

        threads = [threading.Thread(target=scrape) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        status, _, done = _request(
            server.base_url, "POST", "/v1/jobs?wait=1",
            _submission(wire_problem,
                        config={"n_iter": 40, "matcher": "approx"}))
        assert status == 200 and done["state"] == "done"


@pytest.mark.chaos
class TestRetriedJob:
    def test_a_retried_job_moves_exactly_one_counter(self, wire_problem):
        # A fresh bus, so the scrape holds only this server's counters.
        previous = set_bus(EventBus())
        plan = FaultPlan([FaultSpec("crash", site="serve.job")], seed=0)
        try:
            with serve_in_thread(ServeConfig(port=0, workers=1,
                                             max_retries=1)) as srv:
                with fault_plan(plan):
                    status, _, job = _request(
                        srv.base_url, "POST", "/v1/jobs?wait=1",
                        _submission(wire_problem))
                _, _, raw = _request(srv.base_url, "GET", "/v1/metrics")
        finally:
            set_bus(previous)
        assert status == 200 and job["state"] == "done"
        assert job["attempts"] == 2 and len(plan.fired()) == 1
        text = raw.decode("utf-8")
        _, samples = parse_prometheus_text(text)
        retries = {labels: value for (name, labels), value in samples.items()
                   if name == "repro_retries_total"}
        assert retries == {
            frozenset({("backend", "serial"), ("site", "serve.job")}): 1.0,
        }
        for name in ("repro_serve_retry_events_total",
                     "repro_serve_degraded_total",
                     "repro_serve_breaker_open"):
            assert name not in text


class TestTelemetryDisabled:
    def test_scrape_still_answers_bus_registry_only(self, wire_problem):
        cfg = ServeConfig(port=0, workers=1, telemetry=False)
        with serve_in_thread(cfg) as srv:
            assert srv.telemetry is None
            _request(srv.base_url, "GET", "/v1/healthz")
            status, headers, raw = _request(
                srv.base_url, "GET", "/v1/metrics")
            assert status == 200
            assert headers["Content-Type"].startswith("text/plain")
            text = raw.decode("utf-8")
            assert "repro_http_requests_total" not in text

    def test_disabled_server_leaves_bus_inactive(self):
        cfg = ServeConfig(port=0, workers=0, telemetry=False)
        was_active = get_bus().active
        with serve_in_thread(cfg):
            assert get_bus().active == was_active


# --------------------------------------------------------------------
# drift guards: dashboards and documentation
# --------------------------------------------------------------------

class TestDashboardsDrift:
    def test_committed_dashboards_match_generated(self):
        rendered = render_dashboards()
        assert tuple(rendered) == DASHBOARD_NAMES
        for name, text in rendered.items():
            path = REPO / "dashboards" / name
            assert path.exists(), f"dashboards/{name} is not committed"
            assert path.read_text(encoding="utf-8") == text, (
                f"dashboards/{name} drifted from the generated output — "
                f"run: python -m repro.observe.dashboards dashboards/"
            )

    def test_regenerate_command_runs_without_warnings(self, tmp_path):
        """The documented regenerate command, with RuntimeWarnings as
        errors (runpy warns when the package imported the module before
        running it as ``__main__``), writes the committed files."""
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "repro.observe.dashboards", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            sorted(DASHBOARD_NAMES)
        for name in DASHBOARD_NAMES:
            assert (tmp_path / name).read_bytes() == \
                (REPO / "dashboards" / name).read_bytes()

    def test_no_stray_dashboard_files(self):
        on_disk = {
            p.name for p in (REPO / "dashboards").glob("*.json")
        }
        assert on_disk == set(DASHBOARD_NAMES)

    def test_panel_queries_reference_live_metric_names(self):
        known = {
            value
            for name, value in vars(telemetry_mod).items()
            if name.startswith("METRIC_")
        }
        known |= {
            "repro_serve_jobs_total", "repro_serve_cache_hits_total",
            "repro_serve_cache_insertions_total", "repro_retries_total",
        }
        for name, text in render_dashboards().items():
            doc = json.loads(text)
            for panel in doc["panels"]:
                for target in panel["targets"]:
                    expr = target["expr"]
                    assert any(metric in expr for metric in known), (
                        f"{name}: panel {panel['title']!r} query "
                        f"{expr!r} uses no known metric"
                    )

    def test_bus_side_names_match_serve_emitters(self):
        # dashboards.py hard-codes four bus-side counter names; they
        # must still be the strings the serving layer and the
        # supervisor emit.
        source = "".join(
            p.read_text(encoding="utf-8")
            for p in (REPO / "src" / "repro" / "serve").glob("*.py")
        )
        for name in ("repro_serve_jobs_total",
                     "repro_serve_cache_hits_total",
                     "repro_serve_cache_insertions_total"):
            assert name in source
        supervise = REPO / "src" / "repro" / "resilience" / "supervise.py"
        assert '"repro_retries_total"' in supervise.read_text(
            encoding="utf-8")


class TestMetricConstantsDocumented:
    def test_every_metric_constant_in_observability_doc(self):
        doc = (REPO / "docs" / "observability.md").read_text(
            encoding="utf-8")
        for name, value in sorted(vars(telemetry_mod).items()):
            if name.startswith("METRIC_"):
                assert f"`{value}`" in doc, (
                    f"docs/observability.md does not document {value!r} "
                    f"({name})"
                )

    def test_dashboard_files_catalogued(self):
        doc = (REPO / "docs" / "dashboards.md").read_text(
            encoding="utf-8")
        for name in DASHBOARD_NAMES:
            assert f"`{name}`" in doc, (
                f"docs/dashboards.md does not catalogue {name}"
            )
