"""Tests for the observability layer (repro.observe).

Covers the contracts docs/observability.md promises: event ordering and
span nesting, metric label handling, the disabled-path no-op guarantee,
JSONL round-trips (including non-finite floats), and the reconstruction
contract — BP and Klau runs captured as events rebuild the *exact*
``IterationRecord`` history, and simulator replays rebuild per-socket
counters.
"""

import dataclasses
import io
import math

import numpy as np
import pytest

from repro.core import BPConfig, KlauConfig, belief_propagation_align, klau_align
from repro.core.result import IterationRecord
from repro.errors import ObservabilityError
from repro.machine.runtime import SimulatedRuntime
from repro.machine.topology import xeon_e7_8870
from repro.machine.trace import LoopTrace, SerialTrace, matching_to_trace
from repro.matching.greedy import greedy_matching
from repro.matching.suitor import suitor_matching
from repro.observe import (
    EVENT_TYPES,
    ConsoleSink,
    Event,
    EventBus,
    JSONLSink,
    MemorySink,
    MetricsRegistry,
    NullSink,
    capture,
    get_bus,
    history_from_events,
    history_from_jsonl,
    read_jsonl,
    set_bus,
    socket_counters_from_events,
    validate_event,
)
from repro.observe.sinks import event_from_json

from tests.helpers import random_bipartite


@pytest.fixture
def bus():
    """A fresh process-default bus, restored afterwards.

    Instrumented modules resolve :func:`get_bus` at call time, so
    swapping the default isolates each test's event stream.
    """
    fresh = EventBus()
    previous = set_bus(fresh)
    try:
        yield fresh
    finally:
        set_bus(previous)


def records_equal(a, b):
    """IterationRecord equality with NaN == NaN (dataclass == is not)."""
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        for field in ("iteration", "objective", "weight_part",
                      "overlap_part", "upper_bound", "gamma"):
            va, vb = getattr(ra, field), getattr(rb, field)
            if isinstance(va, float) and math.isnan(va):
                if not (isinstance(vb, float) and math.isnan(vb)):
                    return False
            elif va != vb:
                return False
        if ra.source != rb.source:
            return False
    return True


class TestSchema:
    def test_unknown_type_rejected(self):
        with pytest.raises(ObservabilityError):
            validate_event("no_such_event", {})

    def test_missing_field_rejected(self):
        with pytest.raises(ObservabilityError):
            validate_event("barrier", {"step": "x", "n_threads": 4})

    def test_extra_fields_allowed(self):
        validate_event(
            "barrier",
            {"step": "x", "n_threads": 4, "seconds": 0.1, "extra": 1},
        )

    def test_emit_validates(self, bus):
        bus.add_sink(MemorySink())
        with pytest.raises(ObservabilityError):
            bus.emit("iteration", method="bp")

    def test_schema_is_closed_and_documented_fields(self):
        # Every type has at least one required field; names are unique.
        assert len(EVENT_TYPES) == 14
        for fields in EVENT_TYPES.values():
            assert fields

    def test_iteration_event_is_method_plus_the_record(self):
        """``record_iteration`` builds each event from the record."""
        record_fields = [f.name for f in dataclasses.fields(IterationRecord)]
        assert list(EVENT_TYPES["iteration"]) == ["method", *record_fields]


class TestOrderingAndSpans:
    def test_seq_strictly_increasing(self, bus):
        sink = bus.add_sink(MemorySink())
        for i in range(5):
            bus.emit("barrier", step=f"s{i}", n_threads=2, seconds=0.0)
        seqs = [e.seq for e in sink.events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_span_pairing_and_nesting(self, bus):
        sink = bus.add_sink(MemorySink())
        with bus.trace("outer") as outer_id:
            with bus.trace("inner") as inner_id:
                bus.emit("barrier", step="b", n_threads=1, seconds=0.0)
        types = [e.type for e in sink.events]
        assert types == ["span_start", "span_start", "barrier",
                         "span_end", "span_end"]
        starts = {e.fields["name"]: e.fields for e in sink.events
                  if e.type == "span_start"}
        assert starts["outer"]["span"] == outer_id
        assert starts["outer"]["parent"] == 0
        assert starts["inner"]["parent"] == outer_id
        assert inner_id != outer_id
        end = sink.events[-1].fields
        assert end["name"] == "outer" and end["seconds"] >= 0.0

    def test_span_labels_carried(self, bus):
        sink = bus.add_sink(MemorySink())
        with bus.trace("bp.align", matcher="approx", n_iter=7):
            pass
        start = sink.of_type("span_start")[0]
        assert start.fields["matcher"] == "approx"
        assert start.fields["n_iter"] == 7

    def test_capture_detaches(self, bus):
        with capture(bus=bus) as sink:
            assert bus.active
            bus.emit("barrier", step="x", n_threads=1, seconds=0.0)
        assert not bus.active
        assert len(sink.events) == 1


class TestDisabledPath:
    def test_inactive_emit_and_trace_are_noops(self, bus):
        # No sink: emit produces nothing, trace yields None.
        bus.emit("barrier", step="x", n_threads=1, seconds=0.0)
        with bus.trace("anything") as span:
            assert span is None
        sink = bus.add_sink(MemorySink())
        assert sink.events == []

    def test_disabled_run_records_nothing(self, bus, small_instance):
        """An uninstrumented run leaves no events and no metrics."""
        res = belief_propagation_align(
            small_instance.problem, BPConfig(n_iter=3)
        )
        assert res.iterations == 3
        assert bus.metrics.snapshot() == []
        assert not bus.active

    def test_results_identical_with_and_without_capture(
        self, bus, small_instance
    ):
        """Instrumentation observes; it must never perturb."""
        p = small_instance.problem
        plain = belief_propagation_align(p, BPConfig(n_iter=6))
        with capture(bus=bus):
            observed = belief_propagation_align(p, BPConfig(n_iter=6))
        assert plain.objective == observed.objective
        assert records_equal(plain.history, observed.history)


class TestMetrics:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("runs_total").inc()
        reg.counter("runs_total").inc(2)
        reg.gauge("best").set(4.5)
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(50.0)
        assert reg.counter("runs_total").value == 3
        assert reg.gauge("best").value == 4.5
        assert h.count == 3 and h.bucket_counts == [1, 1, 1]

    def test_labels_distinguish_and_order_is_irrelevant(self):
        reg = MetricsRegistry()
        reg.counter("m", method="bp").inc()
        reg.counter("m", method="klau").inc(5)
        assert reg.counter("m", method="bp").value == 1
        g1 = reg.gauge("g", a="1", b="2")
        g2 = reg.gauge("g", b="2", a="1")
        assert g1 is g2

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ObservabilityError):
            reg.gauge("x")

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            reg.counter("c").inc(-1)

    def test_snapshot_and_publish(self, bus):
        bus.metrics.counter("a_total", kind="x").inc(2)
        bus.metrics.gauge("b").set(1.5)
        rows = bus.metrics.snapshot()
        assert [r["metric"] for r in rows] == ["a_total", "b"]
        assert rows[0]["labels"] == {"kind": "x"}
        sink = bus.add_sink(MemorySink())
        bus.metrics.publish(bus)
        metric_events = sink.of_type("metric")
        assert {e.fields["metric"] for e in metric_events} == {"a_total", "b"}

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.reset()
        assert reg.snapshot() == []


class TestJsonlRoundTrip:
    def test_round_trip_with_nan(self, tmp_path):
        events = [
            Event("iteration", 0, 1.5, {
                "method": "bp", "iteration": 1, "objective": 2.0,
                "weight_part": 1.0, "overlap_part": 1.0,
                "upper_bound": float("nan"), "source": "y", "gamma": 0.9,
            }),
            Event("barrier", 1, 1.6,
                  {"step": "x", "n_threads": 4, "seconds": 1e-6}),
        ]
        path = str(tmp_path / "events.jsonl")
        with JSONLSink(path) as sink:
            for e in events:
                sink.write(e)
        back = read_jsonl(path)
        assert [e.type for e in back] == ["iteration", "barrier"]
        assert back[0].seq == 0 and back[1].fields["n_threads"] == 4
        assert math.isnan(back[0].fields["upper_bound"])
        assert back[0].fields["objective"] == 2.0

    def test_strict_json(self):
        buf = io.StringIO()
        sink = JSONLSink(stream=buf)
        sink.write(Event("barrier", 0, 0.0, {
            "step": "x", "n_threads": 1, "seconds": float("inf")}))
        sink.close()
        # no bare NaN/Infinity tokens — any JSON parser can read the line
        assert "Infinity" not in buf.getvalue()
        ev = event_from_json(buf.getvalue())
        assert math.isnan(ev.fields["seconds"])


class TestSolverIntegration:
    def test_bp_history_reconstructs_exactly(self, bus, small_instance):
        with capture(bus=bus) as sink:
            res = belief_propagation_align(
                small_instance.problem, BPConfig(n_iter=8, batch=3)
            )
        rebuilt = history_from_events(sink.events, method="bp")
        assert records_equal(rebuilt, res.history)
        spans = sink.of_type("span_start")
        assert spans and spans[0].fields["name"] == "bp.align"

    def test_klau_history_reconstructs_exactly(self, bus, small_instance):
        with capture(bus=bus) as sink:
            res = klau_align(
                small_instance.problem, KlauConfig(n_iter=6)
            )
        rebuilt = history_from_events(sink.events, method="klau")
        assert records_equal(rebuilt, res.history)
        its = sink.of_type("iteration")
        assert all(math.isfinite(e.fields["upper_bound"]) for e in its)

    def test_method_filter_separates_mixed_stream(self, bus, small_instance):
        with capture(bus=bus) as sink:
            bp = belief_propagation_align(
                small_instance.problem, BPConfig(n_iter=4)
            )
            kl = klau_align(small_instance.problem, KlauConfig(n_iter=4))
        assert records_equal(
            history_from_events(sink.events, method="bp"), bp.history
        )
        assert records_equal(
            history_from_events(sink.events, method="klau"), kl.history
        )

    def test_history_from_jsonl(self, bus, small_instance, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with capture(JSONLSink(path), bus=bus):
            res = belief_propagation_align(
                small_instance.problem, BPConfig(n_iter=5)
            )
        assert records_equal(history_from_jsonl(path, method="bp"),
                             res.history)

    def test_rounding_events(self, bus, small_instance):
        with capture(bus=bus) as sink:
            belief_propagation_align(
                small_instance.problem, BPConfig(n_iter=4, matcher="exact")
            )
        rounds = sink.of_type("rounding")
        assert rounds
        assert {e.fields["matcher"] for e in rounds} == {"exact"}
        assert all(e.fields["cardinality"] >= 0 for e in rounds)
        assert bus.metrics.counter(
            "repro_roundings_total", matcher="exact").value > 0


class TestMatchingEvents:
    def test_substrates_emit(self, bus, rng):
        graph = random_bipartite(rng, allow_negative=False)
        with capture(bus=bus) as sink:
            res_g = greedy_matching(graph)
            res_s = suitor_matching(graph)
        events = sink.of_type("matching")
        assert [e.fields["algorithm"] for e in events] == ["greedy", "suitor"]
        assert events[0].fields["cardinality"] == res_g.cardinality
        assert np.isclose(events[1].fields["weight"], res_s.weight)
        assert events[0].fields["n_a"] == graph.n_a

    def test_counters_accumulate(self, bus, rng):
        graph = random_bipartite(rng, allow_negative=False)
        with capture(bus=bus):
            greedy_matching(graph)
            greedy_matching(graph)
        assert bus.metrics.counter(
            "repro_matchings_total", algorithm="greedy").value == 2


class TestSimulatorEvents:
    def test_loop_replay_and_barriers(self, bus):
        rt = SimulatedRuntime(xeon_e7_8870(), 16, "bound", "scatter")
        loop = LoopTrace("othermax", n_items=50_000, uniform_cost=4.0,
                         uniform_bytes=16.0, schedule="static")
        plain = rt.loop_time(loop)
        with capture(bus=bus) as sink:
            observed = rt.loop_time(loop)
        assert observed == plain  # replay unperturbed by capture
        loops = [e for e in sink.of_type("trace_replay")
                 if e.fields["kind"] == "loop"]
        assert len(loops) == 1
        f = loops[0].fields
        assert f["step"] == "othermax" and f["n_threads"] == 16
        assert f["remote_bytes"] + f["local_bytes"] == pytest.approx(
            loop.total_bytes
        )
        barriers = sink.of_type("barrier")
        assert len(barriers) == 1
        assert barriers[0].fields["wait_seconds"] >= 0.0

    def test_socket_counters_reconstruct(self, bus):
        rt = SimulatedRuntime(xeon_e7_8870(), 40, "bound", "scatter")
        loop = LoopTrace("row_match", n_items=80_000, uniform_cost=2.0,
                         uniform_bytes=8.0, schedule="dynamic", chunk=512)
        with capture(bus=bus) as sink:
            rt.loop_time(loop)
            rt.serial_time(SerialTrace("setup", 1e6, 0.0))
        counters = socket_counters_from_events(sink.events)
        # scatter over 40 threads on the 8-socket Xeon touches 8 sockets
        assert len(counters.work_seconds) == 8
        assert all(v > 0 for v in counters.work_seconds.values())
        assert counters.barrier_count == 1
        assert counters.remote_bytes > 0
        assert counters.steps == {"row_match": pytest.approx(
            counters.steps["row_match"])}

    def test_single_thread_no_barrier(self, bus):
        rt = SimulatedRuntime(xeon_e7_8870(), 1)
        with capture(bus=bus) as sink:
            rt.loop_time(LoopTrace("x", n_items=100, uniform_cost=1.0,
                                   uniform_bytes=1.0))
        assert sink.of_type("barrier") == []
        assert socket_counters_from_events(sink.events).work_seconds == {0: pytest.approx(
            sink.of_type("trace_replay")[0].fields["socket_seconds"][0])}

    def test_rounded_loop_emits_matching_kind(self, bus, rng):
        graph = random_bipartite(rng, max_side=20, allow_negative=False)
        res = locally_dominant_rounds(graph)
        rt = SimulatedRuntime(xeon_e7_8870(), 8)
        trace = matching_to_trace("row_match", res, graph)
        with capture(bus=bus) as sink:
            rt.rounded_loop_time(trace)
        kinds = [e.fields["kind"] for e in sink.of_type("trace_replay")]
        assert "matching" in kinds


def locally_dominant_rounds(graph):
    """A matching run with round stats, for replay tests."""
    from repro.matching import locally_dominant_matching

    return locally_dominant_matching(graph, collect_rounds=True)


class TestConsoleSink:
    def test_formats_iteration_lines(self, bus):
        buf = io.StringIO()
        bus.add_sink(ConsoleSink(stream=buf))
        bus.emit("iteration", method="bp", iteration=3, objective=12.5,
                 weight_part=2.5, overlap_part=10.0,
                 upper_bound=float("nan"), source="y", gamma=0.9)
        out = buf.getvalue()
        assert "[bp]" in out and "obj=12.5000" in out and "ub=" not in out

    def test_quiet_by_default_verbose_opt_in(self, bus):
        quiet, loud = io.StringIO(), io.StringIO()
        bus.add_sink(ConsoleSink(stream=quiet))
        bus.add_sink(ConsoleSink(stream=loud, verbose=True))
        bus.emit("barrier", step="x", n_threads=4, seconds=1e-6)
        bus.emit("matching", algorithm="greedy", cardinality=3, weight=1.0,
                 rounds=0)
        assert quiet.getvalue() == ""
        assert "barrier x" in loud.getvalue()
        assert "match greedy" in loud.getvalue()

    def test_live_solver_run_writes_lines(self, bus, small_instance):
        buf = io.StringIO()
        with capture(ConsoleSink(stream=buf), bus=bus):
            belief_propagation_align(
                small_instance.problem, BPConfig(n_iter=3)
            )
        out = buf.getvalue()
        assert ">> bp.align" in out and "<< bp.align" in out
        assert out.count("[bp]") == 3


class TestNullSinkActivates:
    def test_metrics_only_capture(self, bus, small_instance):
        bus.add_sink(NullSink())
        belief_propagation_align(small_instance.problem, BPConfig(n_iter=3))
        assert bus.metrics.counter(
            "repro_solver_iterations_total", method="bp").value == 3


class TestCli:
    def test_trace_and_metrics_flags(self, tmp_path):
        import json

        from repro.cli import main
        from repro.generators.io import save_alignment_problem
        from repro.generators.synthetic import powerlaw_alignment_instance

        inst = powerlaw_alignment_instance(n=25, expected_degree=3, seed=0)
        directory = str(tmp_path / "prob")
        save_alignment_problem(directory, inst.problem)
        trace = str(tmp_path / "run.jsonl")
        metrics = str(tmp_path / "metrics.json")
        main(["--trace-out", trace, "--metrics-out", metrics,
              "solve", directory, "--method", "bp", "--iters", "4"])
        hist = history_from_jsonl(trace, method="bp")
        assert [r.iteration for r in hist] == [1, 2, 3, 4]
        rows = json.loads(open(metrics).read())
        names = {r["metric"] for r in rows}
        assert "repro_solver_iterations_total" in names
        # the default bus is deactivated again after the run
        assert not get_bus().active
