"""Self-tests of the benchmark harness (not of ``repro`` itself).

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
The smoke tests run every workload at ``--size tiny`` for a second.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import hostspeed, serving, spans, spec  # noqa: E402


def _span(id_, parent, name, start, end, job=None):
    return spans.Span(id_, parent, name, start, end, job)


class TestTailRule:
    @pytest.mark.parametrize("n, expected", [
        (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 75.0),
        (199, 75.0), (200, 95.0), (999, 95.0), (1000, 99.0),
    ])
    def test_highest_percentile_with_ten_beyond(self, n, expected):
        assert spec.tail_percentile(n) == expected

    def test_chosen_percentile_leaves_ten_samples_beyond(self):
        for n in range(20, 2001):
            p = spec.tail_percentile(n)
            values = list(range(n))
            cut = spec.percentile(values, p)
            assert sum(v > cut for v in values) >= spec.TAIL_MIN_BEYOND, n

    def test_percentile_interpolates(self):
        assert spec.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
        assert spec.percentile([1.0, 2.0, 3.0], 100) == 3.0
        assert spec.percentile([], 90) == 0.0


class TestSelfTime:
    def test_children_are_subtracted_once(self):
        tree = [
            _span(1, 0, "root", 0.0, 10.0),
            _span(2, 1, "rounding", 1.0, 4.0),
            _span(3, 2, "match_approx", 2.0, 3.5),
            _span(4, 1, "squares", 5.0, 6.0),
        ]
        own = spans.self_times(tree)
        assert own == {1: 6.0, 2: 1.5, 3: 1.5, 4: 1.0}
        table = spans.layer_table(tree)
        assert table["rounding"] == spans.Layer(1, 3.0, 1.5)
        assert sum(layer.own for layer in table.values()) == 10.0

    def test_tracer_nests_spans_per_thread_and_inherits_job(self):
        tracer = spans.Tracer()
        leaf = tracer.wrap(lambda: None, "leaf")
        with tracer.span("outer", job="j-1"):
            leaf()
        inner, outer = tracer.spans
        assert (inner.name, inner.parent, inner.job) == ("leaf", outer.id,
                                                         "j-1")
        assert outer.parent == 0

    def test_core_layers_split_a_traced_solve(self):
        tree = [
            _span(1, 0, "bp", 0.0, 10.0),
            _span(2, 1, "squares", 0.0, 3.0),
            _span(3, 1, "rounding", 3.0, 7.0),
            _span(4, 3, "match_approx", 3.0, 6.0),
            _span(5, 1, "othermax", 7.0, 8.0),
        ]
        out = spans.core_layers(spans.layer_table(tree), 1, bp_span="bp")
        assert out["bp.self_s"] == 2.0
        assert out["rounding.score_s"] == 1.0
        assert sum(out[name] for name in spec.LIBRARY_PARTS) == 10.0


class TestHostClock:
    def test_factor_is_reference_over_mean_kernel_time_at_both_ends(
            self, monkeypatch):
        rounds = iter([0.010] * hostspeed.ROUNDS + [0.030] * hostspeed.ROUNDS)
        monkeypatch.setattr(hostspeed.HostClock, "_round",
                            lambda self: next(rounds))
        monkeypatch.setattr(hostspeed, "REFERENCE_S", 0.010)
        clock = hostspeed.HostClock()
        # An interval between a kernel of 10 ms and one of 30 ms ran at
        # half the reference speed on average: its seconds count half.
        assert clock.factor() == pytest.approx(0.5)
        assert clock.kernel == [0.010, 0.030]


class TestPatcher:
    def test_missing_name_fails_loudly(self):
        import types

        module = types.ModuleType("fake")
        with pytest.raises(spans.TracingError, match="fake.gone"):
            spans.Patcher().patch(module, "gone", lambda fn: fn)

    def test_install_finds_every_layer_and_restores(self):
        import repro.core.bp as bp
        import repro.serve.jobs as jobs

        before = (bp.round_heuristic, jobs.JobStore.submit)
        with spans.Patcher() as patcher:
            spans.install(spans.Tracer(), patcher)
            assert bp.round_heuristic is not before[0]
        assert (bp.round_heuristic, jobs.JobStore.submit) == before


class TestFailureCounting:
    doc = {"id": "j-1", "state": "done", "cached": False, "warm_from": None}
    payload = {"method": "bp[batch=1,approx]", "objective": 1.0,
               "cached": False, "warm_from": None, "parent_digest": None}

    def test_a_clean_cold_operation_passes(self):
        assert serving.response_error("cold", 200, self.doc, 200,
                                      self.payload) is None

    @pytest.mark.parametrize("post, state, get", [
        (429, "done", 200), (200, "failed", 200), (200, "done", 500),
    ])
    def test_non_200_or_unfinished_jobs_fail(self, post, state, get):
        doc = dict(self.doc, state=state)
        assert serving.response_error("cold", post, doc, get, self.payload)

    def test_a_hit_must_repeat_its_first_answer(self):
        doc = dict(self.doc, cached=True)
        hit = dict(self.payload, cached=True)
        assert serving.response_error("hit", 200, doc, 200, hit,
                                      first=self.payload) is None
        changed = dict(hit, objective=2.0)
        assert serving.response_error("hit", 200, doc, 200, changed,
                                      first=self.payload)
        assert serving.response_error("hit", 200, self.doc, 200, hit,
                                      first=self.payload)

    def test_a_realign_must_name_its_parent(self):
        doc = dict(self.doc, warm_from="j-0")
        warm = dict(self.payload, method="bp-warm[approx]")
        assert serving.response_error("realign", 200, doc, 200, warm,
                                      parent="j-0") is None
        assert serving.response_error("realign", 200, doc, 200, warm,
                                      parent="j-9")

    def test_error_frac_counts_failures_against_attempts(self):
        ok = serving.Op("hit", latency=0.1)
        figures = serving._figures([ok] * 30, attempted=40, failed=10)
        assert figures["error_frac"] == 0.25
        assert figures["latency_tail_pct"] == 50.0


def test_benchmark_json_matches_the_catalogue():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(spec.WORKLOADS)
    for key, catalogue in (("end_to_end", spec.END_TO_END),
                           ("per_layer", spec.PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in doc[key]]
        assert declared == [(m.name, m.unit, m.better) for m in catalogue]
    assert {"setup_s"} <= {m["name"] for m in doc["end_to_end"]}
    setup_bound = next(m["bound"] for m in doc["end_to_end"]
                       if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in doc["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    catalogue = spec.PER_LAYER if trace else spec.END_TO_END
    assert list(result["metrics"]) == [m.name for m in catalogue]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values()), values
    elif workload != "serve_mix":
        parts = sum(values[name] for name in spec.LIBRARY_PARTS)
        assert parts == pytest.approx(values["trace.op_s"], rel=1e-9)


def test_run_refuses_a_directory_without_the_sources():
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench"))
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "bp_cold",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
