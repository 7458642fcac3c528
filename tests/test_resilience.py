"""Resilience layer: fault injection, supervision, ladders, checkpoints.

The chaos-marked tests (``pytest -m chaos``) exercise the deterministic
fault-injection harness end to end: seeded plans fire identical
sequences, supervised retries and ladder degradations recover, and the
recovered results are *bit-identical* to fault-free serial runs (the
determinism contract of docs/performance.md makes the serial rung an
exact reference, which is what makes these assertions exact instead of
approximate).
"""

from __future__ import annotations

import json
import math
import pickle

import numpy as np
import pytest

from repro.accel import ParallelConfig
from repro.accel.serve import solve_many
from repro.core.problem import NetworkAlignmentProblem
from repro.errors import (
    BackendUnavailableError,
    ConfigurationError,
    FaultInjectedError,
    TaskFailedError,
    TimeoutExceededError,
    ValidationError,
)
from repro.generators import powerlaw_alignment_instance
from repro.observe.bus import EventBus, capture, set_bus
from repro.observe.sinks import JSONLSink
from repro.registry import align
from repro.resilience import (
    EXECUTION_LADDER,
    FAULT_SITES,
    CheckpointStore,
    FaultPlan,
    FaultSpec,
    MachineFaults,
    ResilienceConfig,
    SolverCheckpoint,
    active_fault_plan,
    fault_plan,
    get_checkpoint_store,
    maybe_inject,
    next_step,
    supervised_map,
)
from repro.sparse.bipartite import BipartiteGraph
from repro.sparse.csr import CSRMatrix


@pytest.fixture
def bus():
    """A fresh default bus, restored afterwards."""
    fresh = EventBus()
    previous = set_bus(fresh)
    try:
        yield fresh
    finally:
        set_bus(previous)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test starts and ends with fault injection disarmed."""
    assert active_fault_plan() is None
    yield
    assert active_fault_plan() is None


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x * 10


def _fail_below_three(x):
    if x < 3:
        raise ValueError(f"task {x} is poisoned")
    return x * 10


# ----------------------------------------------------------------------
# FaultPlan determinism
# ----------------------------------------------------------------------


@pytest.mark.chaos
class TestFaultPlanDeterminism:
    ADDRESSES = [("parallel_map", t) for t in range(40)]

    def _fire_all(self, plan: FaultPlan):
        for site, task in self.ADDRESSES:
            plan.consult(site, task)
        return plan.fired()

    def test_same_seed_same_sequence(self):
        spec = FaultSpec("crash", probability=0.4, max_fires=0)
        a = self._fire_all(FaultPlan([spec], seed=9))
        b = self._fire_all(FaultPlan([spec], seed=9))
        assert a == b
        assert 0 < len(a) < len(self.ADDRESSES)

    def test_reset_replays_identically(self):
        spec = FaultSpec("slow", probability=0.3, max_fires=0, delay_s=0.0)
        plan = FaultPlan([spec], seed=2)
        first = self._fire_all(plan)
        plan.reset()
        assert self._fire_all(plan) == first

    def test_consultation_order_does_not_matter(self):
        """The firing decision is a pure function of the address."""
        spec = FaultSpec("crash", probability=0.5, max_fires=0)
        forward = FaultPlan([spec], seed=4)
        backward = FaultPlan([spec], seed=4)
        for site, task in self.ADDRESSES:
            forward.consult(site, task)
        for site, task in reversed(self.ADDRESSES):
            backward.consult(site, task)
        assert set(
            (r.site, r.task_index) for r in forward.fired()
        ) == set(
            (r.site, r.task_index) for r in backward.fired()
        )

    def test_different_seeds_differ(self):
        spec = FaultSpec("crash", probability=0.5, max_fires=0)
        a = self._fire_all(FaultPlan([spec], seed=0))
        b = self._fire_all(FaultPlan([spec], seed=1))
        assert [r.task_index for r in a] != [r.task_index for r in b]

    def test_firing_addresses_unchanged(self):
        """The firing hash still reads -1 where a worker id used to be,
        so a seeded plan fires where it always did."""
        spec = FaultSpec("crash", probability=0.4, max_fires=0)
        fired = self._fire_all(FaultPlan([spec], seed=9))
        assert [r.task_index for r in fired] == [
            0, 2, 5, 7, 9, 10, 12, 15, 17, 19, 20, 25, 27, 29, 31, 33, 34,
            36,
        ]

    def test_max_fires_budget(self):
        plan = FaultPlan([FaultSpec("crash", max_fires=3)], seed=0)
        assert len(self._fire_all(plan)) == 3

    def test_retried_address_gets_fresh_attempt(self):
        """A probability-1 budget-1 fault kills attempt 0 only."""
        plan = FaultPlan([FaultSpec("crash", task_index=5)], seed=0)
        assert plan.consult("s", 5) is not None
        assert plan.consult("s", 5) is None  # budget spent -> retry lives

    def test_addressing(self):
        plan = FaultPlan(
            [FaultSpec("crash", site="solver.iteration", task_index=2)],
            seed=0,
        )
        assert plan.consult("matching", 2) is None
        assert plan.consult("solver.iteration", 3) is None
        assert plan.consult("solver.iteration", 2) is not None


@pytest.mark.chaos
class TestFaultPlanSerialization:
    def test_round_trip(self):
        plan = FaultPlan(
            [FaultSpec("hang", site="parallel_map", task_index=3,
                       probability=0.5, max_fires=2, delay_s=1.5)],
            seed=7,
        )
        clone = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert clone.seed == plan.seed
        assert clone.faults == plan.faults

    def test_unknown_plan_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown FaultPlan"):
            FaultPlan.from_dict({"seed": 0, "fautls": []})

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown FaultSpec"):
            FaultPlan.from_dict({"faults": [{"kind": "crash", "prob": 1}]})

    def test_worker_id_rejected(self):
        """No consultation names a worker, so a worker address could
        never fire."""
        with pytest.raises(ConfigurationError, match="worker_id"):
            FaultPlan.from_dict(
                {"faults": [{"kind": "crash", "worker_id": 0}]})

    def test_bad_kind_rejected(self):
        for kind in ("explode", "corrupt"):
            with pytest.raises(ConfigurationError,
                               match="unknown fault kind"):
                FaultSpec(kind)

    @pytest.mark.parametrize("site", ["solve", "matching", "rounding"])
    def test_unconsulted_site_rejected(self, site):
        """A spec aimed at a site no code consults could never fire."""
        with pytest.raises(ConfigurationError, match="unknown fault site"):
            FaultSpec("crash", site=site)
        with pytest.raises(ConfigurationError, match="unknown fault site"):
            FaultPlan.from_dict({"faults": [{"kind": "crash", "site": site}]})

    def test_every_site_is_consulted(self):
        """FAULT_SITES names exactly the sites the source consults."""
        import pathlib
        import re

        import repro

        src = pathlib.Path(repro.__file__).parent
        consulted = set()
        pattern = re.compile(
            r"(?:maybe_inject\(|site=)\s*\"([\w.]+)\"")
        for path in src.rglob("*.py"):
            consulted |= set(pattern.findall(path.read_text()))
        # supervised_map's default site.
        consulted.add("parallel_map")
        assert consulted == set(FAULT_SITES) - {"*"}


@pytest.mark.chaos
class TestMaybeInject:
    def test_off_by_default(self):
        assert maybe_inject("anywhere") is None

    def test_crash_raises(self):
        with fault_plan(FaultPlan([FaultSpec("crash")], seed=0)):
            with pytest.raises(FaultInjectedError):
                maybe_inject("site", task_index=4)

    def test_context_restores_previous_plan(self):
        outer = FaultPlan([], seed=1)
        with fault_plan(outer):
            with fault_plan(FaultPlan([], seed=2)):
                assert active_fault_plan().seed == 2
            assert active_fault_plan() is outer

    def test_fired_fault_emits_event_and_metric(self, bus):
        plan = FaultPlan([FaultSpec("slow", delay_s=0.0)], seed=0)
        with fault_plan(plan):
            with capture(bus=bus) as sink:
                maybe_inject("solver.iteration", task_index=2)
        [ev] = sink.of_type("fault_injected")
        assert ev.fields["site"] == "solver.iteration"
        assert ev.fields["kind"] == "slow"
        assert ev.fields["task_index"] == 2
        snap = {
            (m["metric"], tuple(sorted(m["labels"].items()))): m
            for m in bus.metrics.snapshot()
        }
        key = ("repro_faults_injected_total",
               (("kind", "slow"), ("site", "solver.iteration")))
        assert snap[key]["value"] == 1


# ----------------------------------------------------------------------
# Supervision
# ----------------------------------------------------------------------


@pytest.mark.chaos
class TestSupervisedMap:
    def test_all_ok_in_order(self):
        outcomes = supervised_map(
            _square, [1, 2, 3, 4], ParallelConfig(backend="serial")
        )
        assert [o.unwrap() for o in outcomes] == [1, 4, 9, 16]
        assert all(o.attempts == 1 for o in outcomes)

    def test_crash_is_retried(self, bus):
        plan = FaultPlan(
            [FaultSpec("crash", site="parallel_map", task_index=1)], seed=0
        )
        res = ResilienceConfig(max_retries=2, backoff_base_s=0.001)
        with fault_plan(plan), capture(bus=bus) as sink:
            outcomes = supervised_map(
                _square, [1, 2, 3],
                ParallelConfig(backend="serial", resilience=res),
            )
        assert [o.unwrap() for o in outcomes] == [1, 4, 9]
        assert [o.attempts for o in outcomes] == [1, 2, 1]
        [retry] = sink.of_type("task_retry")
        assert retry.fields["task_index"] == 1
        assert retry.fields["attempt"] == 1
        assert retry.fields["backend"] == "serial"
        assert retry.fields["backoff_s"] > 0.0

    def test_real_exception_exhausts_budget(self):
        res = ResilienceConfig(max_retries=1, backoff_base_s=0.0,
                               breaker_threshold=100)
        outcomes = supervised_map(
            _fail_on_three, [1, 3, 5],
            ParallelConfig(backend="serial", resilience=res),
        )
        assert outcomes[0].unwrap() == 10 and outcomes[2].unwrap() == 50
        bad = outcomes[1]
        assert not bad.ok and bad.attempts == 2
        assert isinstance(bad.error, TaskFailedError)
        assert bad.error.task_index == 1
        assert "three is right out" in str(bad.error)
        with pytest.raises(TaskFailedError):
            bad.unwrap()

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_hang_trips_timeout_then_recovers(self, backend, bus):
        # The timeout leaves a fresh process pool ample time to start.
        plan = FaultPlan(
            [FaultSpec("hang", site="parallel_map", task_index=0,
                       delay_s=2.0)],
            seed=0,
        )
        res = ResilienceConfig(timeout_s=0.5, max_retries=1,
                               backoff_base_s=0.001)
        with fault_plan(plan), capture(bus=bus) as sink:
            outcomes = supervised_map(
                _square, [2, 3],
                ParallelConfig(backend=backend, n_workers=2,
                               resilience=res),
            )
        assert [o.unwrap() for o in outcomes] == [4, 9]
        [retry] = sink.of_type("task_retry")
        assert retry.fields["reason"] == "timeout"
        names = {m["metric"] for m in bus.metrics.snapshot()}
        assert "repro_timeouts_total" in names

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_timeout_names_its_site(self, backend):
        plan = FaultPlan(
            [FaultSpec("hang", site="serve.job", task_index=0,
                       delay_s=2.0)],
            seed=0,
        )
        res = ResilienceConfig(timeout_s=0.1, max_retries=0)
        with fault_plan(plan):
            [outcome] = supervised_map(
                abs, [-1],
                ParallelConfig(backend=backend, n_workers=1,
                               resilience=res),
                site="serve.job",
            )
        assert not outcome.ok
        assert "task 0 at site 'serve.job' exceeded its 0.1s timeout" \
            in str(outcome.error)

    def test_timeout_requeue_does_not_charge_other_tasks(self):
        """Tasks killed by a pool reset keep their full retry budget."""
        plan = FaultPlan(
            [FaultSpec("hang", site="parallel_map", task_index=0,
                       delay_s=2.0)],
            seed=0,
        )
        res = ResilienceConfig(timeout_s=0.5, max_retries=1,
                               backoff_base_s=0.001)
        with fault_plan(plan):
            outcomes = supervised_map(
                _square, list(range(5)),
                ParallelConfig(backend="process", n_workers=2,
                               resilience=res),
            )
        assert all(o.ok for o in outcomes)
        # Only the hung task itself consumed a retry.
        assert outcomes[0].attempts == 2
        assert all(o.attempts == 1 for o in outcomes[1:])

    def test_breaker_opens_and_ladder_degrades(self, bus):
        """Consecutive failures abandon the rung; survivors finish on
        the next rung down, bit-identically."""
        plan = FaultPlan(
            [FaultSpec("crash", site="parallel_map", max_fires=2)], seed=0
        )
        res = ResilienceConfig(max_retries=0, breaker_threshold=2,
                               backoff_base_s=0.0)
        with fault_plan(plan), capture(bus=bus) as sink:
            outcomes = supervised_map(
                _square, [1, 2, 3, 4],
                ParallelConfig(backend="process", n_workers=2,
                               resilience=res),
            )
        assert [o.unwrap() for o in outcomes] == [1, 4, 9, 16]
        assert any(o.backend == "serial" for o in outcomes)
        [deg] = sink.of_type("backend_degraded")
        assert deg.fields["from_backend"] == "process"
        assert deg.fields["to_backend"] == "serial"

    def test_fallback_disabled_fails_fast(self):
        plan = FaultPlan(
            [FaultSpec("crash", site="parallel_map", max_fires=0)], seed=0
        )
        res = ResilienceConfig(max_retries=0, breaker_threshold=1,
                               fallback=False)
        with fault_plan(plan):
            outcomes = supervised_map(
                _square, [1, 2],
                ParallelConfig(backend="process", n_workers=2,
                               resilience=res),
            )
        assert not any(o.ok for o in outcomes)
        assert all(isinstance(o.error, TaskFailedError) for o in outcomes)

    def test_serial_floor_failure_is_final(self):
        res = ResilienceConfig(max_retries=0, breaker_threshold=100,
                               backoff_base_s=0.0)
        outcomes = supervised_map(
            _fail_on_three, [3],
            ParallelConfig(backend="serial", resilience=res),
        )
        assert not outcomes[0].ok

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_serial_floor_runs_every_task(self, backend):
        """The floor has no breaker: three failures in a row open the
        process rung's breaker, but every task still runs on serial."""
        outcomes = supervised_map(
            _fail_below_three, list(range(6)),
            ParallelConfig(backend=backend, n_workers=2,
                           resilience=ResilienceConfig(max_retries=0)),
        )
        assert [o.unwrap() for o in outcomes[3:]] == [30, 40, 50]
        for index, outcome in enumerate(outcomes[:3]):
            assert not outcome.ok
            assert f"task {index} is poisoned" in str(outcome.error)


class TestLadder:
    def test_next_step(self):
        assert next_step(EXECUTION_LADDER, "process") == "serial"

    def test_floor_raises(self):
        with pytest.raises(BackendUnavailableError):
            next_step(EXECUTION_LADDER, "serial")

    def test_off_ladder_raises(self):
        with pytest.raises(BackendUnavailableError):
            next_step(EXECUTION_LADDER, "quantum")


class TestResilienceConfig:
    def test_backoff_deterministic_and_capped(self):
        res = ResilienceConfig(backoff_base_s=0.1, backoff_factor=2.0,
                               backoff_max_s=0.5, jitter=0.1)
        a = [res.backoff_s(r, task_index=3) for r in range(6)]
        b = [res.backoff_s(r, task_index=3) for r in range(6)]
        assert a == b
        assert all(x <= 0.5 * 1.1 for x in a)
        assert a[1] > a[0]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(max_retries=-1)
        with pytest.raises(ConfigurationError):
            ResilienceConfig(timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            ResilienceConfig(jitter=2.0)

    def test_parallel_config_round_trip(self):
        cfg = ParallelConfig(
            backend="process", n_workers=2,
            resilience=ResilienceConfig(timeout_s=5.0, max_retries=1),
        )
        clone = ParallelConfig.from_dict(
            json.loads(json.dumps(cfg.to_dict()))
        )
        assert clone == cfg
        assert clone.resilience.timeout_s == 5.0

    def test_parallel_config_rejects_bad_resilience(self):
        with pytest.raises(ConfigurationError):
            ParallelConfig(resilience={"max_retries": 1})

    def test_parallel_config_none_round_trip(self):
        cfg = ParallelConfig()
        assert ParallelConfig.from_dict(cfg.to_dict()) == cfg


class TestErrorPickling:
    @pytest.mark.parametrize("err", [
        FaultInjectedError("solver.iteration", 3),
        TaskFailedError("boom", task_index=2, remote_traceback="tb..."),
        TimeoutExceededError("parallel_map", 4, 1.5),
    ])
    def test_round_trip(self, err):
        clone = pickle.loads(pickle.dumps(err))
        assert type(clone) is type(err)
        assert str(clone) == str(err)
        assert clone.task_index == err.task_index

    def test_remote_traceback_survives(self):
        err = pickle.loads(pickle.dumps(
            TaskFailedError("m", task_index=1, remote_traceback="trace")
        ))
        assert err.remote_traceback == "trace"
        assert "remote traceback" in str(err)


# ----------------------------------------------------------------------
# solve_many: isolation and supervision
# ----------------------------------------------------------------------


def _poisoned_problem(problem: NetworkAlignmentProblem):
    """A problem that constructs fine but explodes inside the solver."""
    bad = NetworkAlignmentProblem(
        problem.a_graph, problem.b_graph, problem.ell,
        problem.alpha, problem.beta, "poisoned",
    )
    bad.ell = None  # solver dereferences L on its first step
    return bad


class TestSolveManyIsolation:
    CFG = {"n_iter": 4, "matcher": "approx"}

    def test_one_bad_task_does_not_poison_batch(self, small_instance):
        good = small_instance.problem
        with pytest.raises(TaskFailedError) as exc_info:
            solve_many([good, _poisoned_problem(good), good], "bp",
                       config=self.CFG)
        assert exc_info.value.task_index == 1
        assert "Traceback" in exc_info.value.remote_traceback

    def test_return_errors_in_band(self, small_instance):
        good = small_instance.problem
        results = solve_many(
            [good, _poisoned_problem(good), good], "bp",
            config=self.CFG, return_errors=True,
        )
        assert isinstance(results[1], TaskFailedError)
        assert results[1].task_index == 1
        baseline = solve_many([good], "bp", config=self.CFG)[0]
        assert results[0].objective == baseline.objective
        assert results[2].objective == baseline.objective

    @pytest.mark.chaos
    def test_poisoned_run_does_not_fail_healthy_tasks(self, small_instance):
        good = small_instance.problem
        bad = _poisoned_problem(good)
        results = solve_many(
            [bad, bad, bad, good, good], "bp", config=self.CFG,
            parallel=ParallelConfig(resilience=ResilienceConfig()),
            return_errors=True,
        )
        assert all(isinstance(r, TaskFailedError) for r in results[:3])
        for result, base in zip(
            results[3:], solve_many([good, good], "bp", config=self.CFG)
        ):
            assert result.objective == base.objective
            assert np.array_equal(result.matching.mate_a,
                                  base.matching.mate_a)

    @pytest.mark.chaos
    def test_supervised_retry_bit_identical(self, small_instance):
        good = small_instance.problem
        baseline = solve_many([good, good], "bp", config=self.CFG)
        plan = FaultPlan(
            [FaultSpec("crash", site="parallel_map", task_index=1)], seed=3
        )
        with fault_plan(plan):
            chaos = solve_many(
                [good, good], "bp", config=self.CFG,
                parallel=ParallelConfig(
                    backend="serial",
                    resilience=ResilienceConfig(backoff_base_s=0.001),
                ),
            )
        assert len(plan.fired()) == 1
        for b, c in zip(baseline, chaos):
            assert b.objective == c.objective
            assert np.array_equal(b.matching.mate_a, c.matching.mate_a)


class TestWorkerSinks:
    """Process workers compute; only the parent writes to the caller's
    sinks, whatever pool the supervisor builds."""

    def _events(self, tmp_path, resilience):
        problems = [
            powerlaw_alignment_instance(n=120, seed=seed).problem
            for seed in range(3)
        ]
        path = tmp_path / "events.jsonl"
        fresh = EventBus()
        previous = set_bus(fresh)
        sink = fresh.add_sink(JSONLSink(str(path)))
        try:
            solve_many(
                problems, "bp", {"n_iter": 5},
                ParallelConfig(backend="process", n_workers=2,
                               resilience=resilience),
            )
        finally:
            fresh.remove_sink(sink)
            sink.close()
            set_bus(previous)
        return [json.loads(line) for line in path.read_text().splitlines()]

    @staticmethod
    def _spans(events):
        return [
            (e["type"], e["name"]) for e in events
            if e["type"] in ("span_start", "span_end")
        ]

    def test_supervised_process_batch_writes_only_its_span(self, tmp_path):
        events = self._events(tmp_path, ResilienceConfig())
        assert self._spans(events) == [
            ("span_start", "accel.solve_many"),
            ("span_end", "accel.solve_many"),
        ]
        assert len(events) == 2

    @pytest.mark.chaos
    def test_rebuilt_pool_stays_silent(self, tmp_path):
        plan = FaultPlan(
            [FaultSpec("hang", site="parallel_map", task_index=0,
                       delay_s=30.0)],
            seed=0,
        )
        res = ResilienceConfig(timeout_s=1.5, max_retries=1,
                               backoff_base_s=0.001)
        with fault_plan(plan):
            events = self._events(tmp_path, res)
        assert self._spans(events) == [
            ("span_start", "accel.solve_many"),
            ("span_end", "accel.solve_many"),
        ]
        # Besides its span, the parent narrates the fault and the retry.
        assert sorted(
            e["type"] for e in events
            if e["type"] not in ("span_start", "span_end")
        ) == ["fault_injected", "task_retry"]


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------


@pytest.mark.chaos
class TestCheckpointResume:
    def test_store_api(self):
        store = CheckpointStore()
        ckpt = SolverCheckpoint(method="bp", iteration=4, state={"x": 1})
        store.save("k", ckpt)
        assert len(store) == 1
        assert store.load("k") is ckpt
        store.discard("k")
        assert store.load("k") is None
        store.discard("k")  # idempotent

    def _interrupt_then_resume(self, problem, method, cfg, crash_at):
        baseline = align(problem, method, cfg)
        store = CheckpointStore()
        plan = FaultPlan(
            [FaultSpec("crash", site="solver.iteration",
                       task_index=crash_at)],
            seed=0,
        )
        with fault_plan(plan):
            with pytest.raises(FaultInjectedError):
                align(problem, method, cfg, checkpoint_every=2,
                      checkpoint_store=store, checkpoint_key="t")
        assert len(store) == 1  # the snapshot survived the crash
        resumed = align(problem, method, cfg, checkpoint_every=2,
                        checkpoint_store=store, checkpoint_key="t",
                        resume=True)
        assert resumed.objective == baseline.objective
        assert np.array_equal(
            resumed.matching.mate_a, baseline.matching.mate_a
        )
        assert resumed.history[-1].iteration == baseline.history[-1].iteration

    def test_bp_resume_matches_uninterrupted(self, small_instance):
        self._interrupt_then_resume(
            small_instance.problem, "bp",
            {"n_iter": 8, "matcher": "approx", "batch": 2}, crash_at=6,
        )

    def test_klau_resume_matches_uninterrupted(self, small_instance):
        # Klau proves optimality on this instance at iteration 3, so the
        # crash lands there (right after the k=2 checkpoint).
        self._interrupt_then_resume(
            small_instance.problem, "klau",
            {"n_iter": 8, "matcher": "approx"}, crash_at=3,
        )

    def test_checkpoint_outlives_a_clean_finish(self, small_instance):
        store = CheckpointStore()
        baseline = align(small_instance.problem, "bp",
                         {"n_iter": 6, "matcher": "approx"})
        res = align(small_instance.problem, "bp",
                    {"n_iter": 6, "matcher": "approx"},
                    checkpoint_every=2, checkpoint_store=store,
                    checkpoint_key="clean")
        assert res.objective == baseline.objective
        assert store.load("clean").iteration == 6

    def test_checkpoint_events_emitted(self, bus, small_instance):
        store = CheckpointStore()
        with capture(bus=bus) as sink:
            align(small_instance.problem, "bp",
                  {"n_iter": 6, "matcher": "approx"},
                  checkpoint_every=2, checkpoint_store=store,
                  checkpoint_key="ev")
        events = sink.of_type("checkpoint")
        assert events and all(e.fields["method"] == "bp" for e in events)
        assert [e.fields["iteration"] for e in events] == [2, 4, 6]

    def test_exact_warm_rejected(self, small_instance):
        """``exact-warm`` is no longer a kind: ``exact`` warm-starts."""
        with pytest.raises(ConfigurationError, match="unknown matcher"):
            align(small_instance.problem, "bp",
                  {"n_iter": 4, "matcher": "exact-warm"},
                  checkpoint_every=2, checkpoint_store=CheckpointStore())

    def test_klau_exact_resume_matches_uninterrupted(self):
        """The resumed run starts a fresh exact matcher (above the dense
        cutoff, so it warm-starts); its answers do not depend on the
        state the crashed run's matcher held."""
        from repro.generators.bio import dmela_scere

        self._interrupt_then_resume(
            dmela_scere(scale=0.2, seed=3).problem, "klau",
            {"n_iter": 8, "matcher": "exact",
             "gap_tolerance": float("-inf")}, crash_at=5,
        )

    def test_solve_many_checkpoints_exact_matcher_solves(
            self, bus, small_instance):
        problem = small_instance.problem
        parallel = ParallelConfig(
            backend="serial",
            resilience=ResilienceConfig(checkpoint_every=2))
        for method, cfg in (
            ("bp", {"n_iter": 4, "matcher": "exact"}),
            ("klau", {"n_iter": 4, "matcher": "exact",
                      "gap_tolerance": float("-inf")}),
        ):
            with capture(bus=bus) as sink:
                [res] = solve_many([problem], method, cfg, parallel)
            assert sink.of_type("checkpoint"), method
            assert res.objective == align(problem, method, cfg).objective

    def test_failed_solve_many_leaves_no_checkpoint(self, medium_instance):
        """A batch discards its checkpoint keys however its tasks end, so
        a later batch never resumes a dead one's snapshot."""
        problem = medium_instance.problem
        parallel = ParallelConfig(resilience=ResilienceConfig(
            checkpoint_every=2, max_retries=0))
        store = get_checkpoint_store()
        store.save("sentinel", SolverCheckpoint("bp", 1, {}))
        before = len(store)
        plan = FaultPlan(
            [FaultSpec("crash", site="solver.iteration", task_index=9)],
            seed=0,
        )
        try:
            with fault_plan(plan):
                [failed] = solve_many([problem], "bp", {"n_iter": 12},
                                      parallel, return_errors=True)
            assert isinstance(failed, TaskFailedError)
            assert len(store) == before
            assert store.load("sentinel") is not None
        finally:
            store.discard("sentinel")
        cfg = {"n_iter": 12, "gamma": 0.5}
        [later] = solve_many([problem], "bp", cfg, parallel)
        fresh = align(problem, "bp", cfg)
        assert later.objective == fresh.objective
        assert np.array_equal(later.matching.mate_a, fresh.matching.mate_a)
        assert [h.objective for h in later.history] == [
            h.objective for h in fresh.history
        ]

    def test_unsupported_method_rejected(self, small_instance):
        with pytest.raises(ConfigurationError, match="checkpoint"):
            align(small_instance.problem, "isorank", checkpoint_every=2)

    def test_mismatched_checkpoint_rejected(self, small_instance):
        store = CheckpointStore()
        store.save("t", SolverCheckpoint(method="klau-mr", iteration=2,
                                         state={}))
        with pytest.raises(ConfigurationError):
            align(small_instance.problem, "bp",
                  {"n_iter": 4, "matcher": "approx"},
                  checkpoint_store=store, checkpoint_key="t", resume=True)

    #: Per method: the name its snapshots carry, and a config that
    #: snapshots at iteration 2 (Klau's default gap stop ends this
    #: instance before then).
    _SNAPSHOTTING = {
        "bp": ("bp", {"n_iter": 4, "matcher": "approx"}),
        "klau": ("klau-mr", {"n_iter": 4, "matcher": "approx",
                             "gap_tolerance": float("-inf")}),
    }

    @pytest.mark.parametrize("writer", ["other_method", "other_size"])
    @pytest.mark.parametrize("method", ["bp", "klau"])
    def test_resume_refuses_a_foreign_snapshot(
            self, small_instance, medium_instance, method, writer):
        label, cfg = self._SNAPSHOTTING[method]
        store = CheckpointStore()
        if writer == "other_method":
            other = "klau" if method == "bp" else "bp"
            other_label, other_cfg = self._SNAPSHOTTING[other]
            align(small_instance.problem, other, other_cfg,
                  checkpoint_every=2, checkpoint_store=store,
                  checkpoint_key="t")
            text = (f"checkpoint 't' was written by method "
                    f"{other_label!r}, not {label!r}; resuming from it "
                    "would silently restart the solve")
        else:
            align(medium_instance.problem, method, cfg, checkpoint_every=2,
                  checkpoint_store=store, checkpoint_key="t")
            text = "checkpoint 't' does not match this problem's dimensions"
        assert store.load("t") is not None
        with pytest.raises(ConfigurationError) as info:
            align(small_instance.problem, method, cfg,
                  checkpoint_store=store, checkpoint_key="t", resume=True)
        assert str(info.value) == text

    @pytest.mark.parametrize("method", ["bp", "klau"])
    def test_resume_refuses_a_snapshot_of_another_config(
            self, small_instance, method):
        _, cfg = self._SNAPSHOTTING[method]
        store = CheckpointStore()
        align(small_instance.problem, method, cfg, checkpoint_every=2,
              checkpoint_store=store, checkpoint_key="t")
        with pytest.raises(ConfigurationError) as info:
            align(small_instance.problem, method, dict(cfg, gamma=0.5),
                  checkpoint_store=store, checkpoint_key="t", resume=True)
        assert str(info.value) == (
            "checkpoint 't' was written under another config; resuming "
            "from it would continue a different run")
        # The same config still resumes it.
        align(small_instance.problem, method, cfg, checkpoint_store=store,
              checkpoint_key="t", resume=True)


# ----------------------------------------------------------------------
# Simulated hardware faults
# ----------------------------------------------------------------------


class TestMachineFaults:
    def _runtime(self, n_threads=8, faults=None):
        from repro.machine.runtime import SimulatedRuntime
        from repro.machine.topology import xeon_e7_8870

        return SimulatedRuntime(xeon_e7_8870(), n_threads, faults=faults)

    def _loop(self, schedule="static"):
        from repro.machine.trace import LoopTrace

        return LoopTrace(name="S", n_items=50_000, uniform_cost=10.0,
                         uniform_bytes=64.0, schedule=schedule)

    def test_resolve_deterministic(self):
        faults = MachineFaults(n_failed=3, n_stragglers=2, seed=11)
        assert faults.resolve(16) == faults.resolve(16)

    def test_explicit_ids_win(self):
        failed, strag = MachineFaults(
            failed_threads=(1, 2), straggler_threads=(3,)
        ).resolve(8)
        assert failed == {1, 2} and strag == {3}

    def test_all_failed_rejected(self):
        with pytest.raises(ConfigurationError):
            self._runtime(2, MachineFaults(failed_threads=(0, 1)))

    @pytest.mark.parametrize("schedule", ["static", "dynamic"])
    def test_failed_threads_slow_the_loop(self, schedule):
        base = self._runtime().loop_time(self._loop(schedule))
        degraded = self._runtime(
            faults=MachineFaults(n_failed=4, seed=1)
        ).loop_time(self._loop(schedule))
        assert degraded > base * 1.5

    def test_stragglers_slow_the_loop(self):
        base = self._runtime().loop_time(self._loop())
        degraded = self._runtime(
            faults=MachineFaults(n_stragglers=2, straggler_factor=4.0,
                                 seed=1)
        ).loop_time(self._loop())
        assert degraded > base

    def test_single_survivor_runs_serially(self):
        lone = self._runtime(4, MachineFaults(failed_threads=(0, 1, 2)))
        solo = self._runtime(1)
        assert lone.loop_time(self._loop()) == pytest.approx(
            solo.loop_time(self._loop()), rel=0.25
        )

    def test_fault_gauges(self, bus):
        with capture(bus=bus):
            self._runtime(faults=MachineFaults(n_failed=2, n_stragglers=1,
                                               seed=3))
        snap = {m["metric"]: m["value"] for m in bus.metrics.snapshot()}
        assert snap["machine_failed_threads"] == 2
        assert snap["machine_straggler_threads"] == 1

    def test_round_trip(self):
        faults = MachineFaults(failed_threads=(1,), n_stragglers=2, seed=5)
        clone = MachineFaults.from_dict(
            json.loads(json.dumps(faults.to_dict()))
        )
        assert clone == faults


# ----------------------------------------------------------------------
# Input validation
# ----------------------------------------------------------------------


class TestValidation:
    def test_bipartite_rejects_nan_and_inf(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError, match="finite"):
                BipartiteGraph.from_edges(
                    2, 2, [0, 1], [0, 1], [1.0, bad]
                )

    def test_bipartite_negative_weights_stay_legal(self):
        g = BipartiteGraph.from_edges(2, 2, [0, 1], [0, 1], [-1.0, 2.0])
        assert g.n_edges == 2

    def test_csr_rejects_non_finite_data(self):
        with pytest.raises(ValidationError, match="finite"):
            CSRMatrix((2, 2), [0, 1, 2], [0, 1], [1.0, math.nan])

    def test_problem_rejects_negative_similarity(self, small_instance):
        problem = small_instance.problem
        w = problem.ell.weights.copy()
        w[0] = -0.5
        with pytest.raises(ValidationError, match="non-negative"):
            NetworkAlignmentProblem(
                problem.a_graph, problem.b_graph,
                problem.ell.with_weights(w),
            )

    def test_problem_rejects_non_finite_similarity(self, small_instance):
        problem = small_instance.problem
        w = problem.ell.weights.copy()
        w[0] = math.inf
        with pytest.raises(ValidationError, match="finite"):
            NetworkAlignmentProblem(
                problem.a_graph, problem.b_graph,
                problem.ell.with_weights(w),
            )

    def test_valid_problem_still_constructs(self, small_instance):
        problem = small_instance.problem
        clone = NetworkAlignmentProblem(
            problem.a_graph, problem.b_graph, problem.ell
        )
        assert clone.n_edges_l == problem.n_edges_l
