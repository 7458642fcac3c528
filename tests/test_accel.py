"""Tests for the execution backend (repro.accel).

The load-bearing contract is *bit-identity*: for every matcher, the
threaded and process backends must produce byte-for-byte the same
objectives, matchings, and solver histories as the serial reference —
workers read the same float64 bytes through shared memory and run the
identical expression sequence.  Plus lifecycle hygiene: the test module
asserts no shared-memory segments are leaked in ``/dev/shm``.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from repro.accel import (
    BACKENDS,
    ParallelConfig,
    RoundingPool,
    SharedArrayBundle,
    SharedProblem,
    parallel_map,
    solve_many,
)
from repro.core import BPConfig, KlauConfig, belief_propagation_align
from repro.errors import ConfigurationError
from repro.observe import EventBus, capture, set_bus


def shm_segments() -> set[str]:
    """Names of POSIX shared-memory segments currently mapped."""
    return {os.path.basename(p) for p in glob.glob("/dev/shm/psm_*")}


@pytest.fixture(autouse=True)
def no_shm_leaks():
    """Every test must leave /dev/shm exactly as it found it."""
    before = shm_segments()
    yield
    leaked = shm_segments() - before
    assert not leaked, f"leaked shared-memory segments: {leaked}"


class TestParallelConfig:
    def test_defaults(self):
        cfg = ParallelConfig()
        assert cfg.backend == "serial"
        assert cfg.resolve_workers() == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_all_backends_valid(self, backend):
        ParallelConfig(backend=backend)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(backend="gpu"),
            dict(n_workers=-1),
            dict(chunk=0),
            dict(start_method="teleport"),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            ParallelConfig(**kwargs)

    def test_resolve_workers_zero_means_per_cpu(self):
        cfg = ParallelConfig(backend="process", n_workers=0)
        assert cfg.resolve_workers() == max(1, os.cpu_count() or 1)
        assert ParallelConfig(
            backend="process", n_workers=3
        ).resolve_workers() == 3


def _square(x):  # module-level: picklable for the process backend
    return x * x


class TestParallelMap:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backends_agree_in_order(self, backend):
        cfg = ParallelConfig(backend=backend, n_workers=2)
        assert parallel_map(_square, range(7), cfg) == [
            x * x for x in range(7)
        ]

    def test_empty(self):
        assert parallel_map(_square, [], ParallelConfig()) == []

    def test_emits_metrics(self):
        bus = EventBus()
        previous = set_bus(bus)
        try:
            with capture(bus=bus):
                parallel_map(_square, [1, 2, 3], ParallelConfig())
                counter = bus.metrics.counter(
                    "repro_backend_tasks_total", backend="serial"
                )
                assert counter.value == 3.0
        finally:
            set_bus(previous)


class TestSharedArrayBundle:
    def test_round_trip_and_readonly(self, rng):
        arrays = {
            "a": rng.random(17),
            "b": rng.integers(0, 100, 23).astype(np.int64),
            "c": np.zeros(0),
        }
        with SharedArrayBundle.create(arrays) as bundle:
            attached = SharedArrayBundle.attach(bundle.handle)
            try:
                for name, arr in arrays.items():
                    assert np.array_equal(attached.arrays[name], arr)
                    assert not attached.arrays[name].flags.writeable
                assert attached.nbytes == bundle.nbytes
            finally:
                attached.close()

    def test_unlink_removes_segment(self, rng):
        bundle = SharedArrayBundle.create({"x": rng.random(5)})
        name = bundle.handle[0]
        assert name in shm_segments()
        bundle.unlink()
        assert name not in shm_segments()


class TestSharedProblem:
    def test_objective_parts_bit_identical(self, small_instance, rng):
        p = small_instance.problem
        x = (rng.random(p.n_edges_l) < 0.3).astype(np.float64)
        with SharedProblem.create(p) as shared:
            attached = SharedProblem.attach(shared.handle)
            try:
                q = attached.to_problem()
                assert q.objective_parts(x) == p.objective_parts(x)
                assert np.array_equal(q.weights, p.weights)
                assert q.squares.nnz == p.squares.nnz
            finally:
                attached.close()


class TestRoundingPool:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backends_bit_identical(self, small_instance, rng, backend):
        p = small_instance.problem
        vectors = [
            np.abs(p.weights + rng.normal(0, 0.2, p.n_edges_l))
            for _ in range(5)
        ]
        with RoundingPool(
            p, "approx", ParallelConfig(backend="serial")
        ) as ref_pool:
            reference = ref_pool.round_many(vectors)
        cfg = ParallelConfig(backend=backend, n_workers=2)
        with RoundingPool(p, "approx", cfg) as pool:
            results = pool.round_many(vectors)
        for (ro, rwp, rop, rm), (o, wp, op, m) in zip(reference, results):
            assert (ro, rwp, rop) == (o, wp, op)  # bit-exact, not approx
            assert np.array_equal(rm.mate_a, m.mate_a)
            assert np.array_equal(rm.edge_ids, m.edge_ids)

    def test_exact_matcher_on_process_matches_serial(self):
        """Each worker warm-starts its own exact matcher, and every
        answer equals a cold solve's, so the process pool rounds with it
        bit-identically to serial (above the dense cutoff)."""
        from repro.generators import powerlaw_alignment_instance

        p = powerlaw_alignment_instance(n=1300, seed=3).problem
        rng = np.random.default_rng(5)
        vectors = [p.weights + rng.normal(0, 0.1, p.n_edges_l)
                   for _ in range(4)]
        with RoundingPool(
            p, "exact", ParallelConfig(backend="serial")
        ) as ref_pool:
            reference = ref_pool.round_many(vectors)
        cfg = ParallelConfig(backend="process", n_workers=2)
        with RoundingPool(p, "exact", cfg) as pool:
            results = pool.round_many(vectors)
        for (ro, rwp, rop, rm), (o, wp, op, m) in zip(reference, results):
            assert (ro, rwp, rop) == (o, wp, op)
            assert np.array_equal(rm.mate_a, m.mate_a)

    def test_exact_warm_allowed_serial(self, small_instance):
        """The exact matcher, warm across a pool's roundings, returns
        what a fresh one-shot rounding does."""
        from repro.core.rounding import round_heuristic

        p = small_instance.problem
        vectors = [p.weights, p.weights * 0.5 + 0.25]
        with RoundingPool(
            p, "exact", ParallelConfig(backend="serial")
        ) as pool:
            results = pool.round_many(vectors)
        for g, (obj, wp, op, m) in zip(vectors, results):
            ref_obj, ref_wp, ref_op, ref_m = round_heuristic(
                p, g, matcher="exact")
            assert (obj, wp, op) == (ref_obj, ref_wp, ref_op) and obj > 0
            assert np.array_equal(m.mate_a, ref_m.mate_a)


class TestBPBackends:
    @pytest.mark.parametrize("backend", ["threaded", "process"])
    def test_bp_histories_bit_identical(self, small_instance, backend):
        """The whole solver — histories, objective, matching — must be
        indistinguishable from serial.  This is the tentpole's 2-worker
        smoke test on a tiny instance (runs in tier-1)."""
        p = small_instance.problem
        cfg = BPConfig(n_iter=8, batch=4)
        serial = belief_propagation_align(p, cfg)
        other = belief_propagation_align(
            p, cfg,
            parallel=ParallelConfig(backend=backend, n_workers=2),
        )
        assert other.objective == serial.objective
        assert np.array_equal(other.matching.mate_a, serial.matching.mate_a)
        assert len(other.history) == len(serial.history)
        for a, b in zip(serial.history, other.history):
            assert (a.iteration, a.objective, a.weight_part,
                    a.overlap_part, a.source) == (
                b.iteration, b.objective, b.weight_part,
                b.overlap_part, b.source)

    def test_parallel_serial_backend_matches_plain_call(
        self, small_instance
    ):
        p = small_instance.problem
        cfg = BPConfig(n_iter=6)
        plain = belief_propagation_align(p, cfg)
        serial = belief_propagation_align(
            p, cfg, parallel=ParallelConfig(backend="serial")
        )
        assert plain.objective == serial.objective


class TestSolveMany:
    def test_process_matches_serial(self, small_instance, medium_instance):
        problems = [small_instance.problem, medium_instance.problem]
        cfg = BPConfig(n_iter=4)
        serial = solve_many(problems, "bp", cfg)
        process = solve_many(
            problems, "bp", cfg,
            parallel=ParallelConfig(backend="process", n_workers=2),
        )
        for a, b in zip(serial, process):
            assert a.objective == b.objective
            assert np.array_equal(a.matching.mate_a, b.matching.mate_a)

    def test_klau_alias(self, small_instance):
        (res,) = solve_many(
            [small_instance.problem], "klau", KlauConfig(n_iter=3)
        )
        assert res.method.startswith("klau-mr")

    def test_unknown_method(self, small_instance):
        with pytest.raises(ConfigurationError):
            solve_many([small_instance.problem], "simplex")

    def test_results_in_input_order(self, small_instance, medium_instance):
        problems = [medium_instance.problem, small_instance.problem]
        results = solve_many(
            problems, "bp", BPConfig(n_iter=3),
            parallel=ParallelConfig(backend="threaded", n_workers=2),
        )
        assert [r.matching.mate_a.shape[0] for r in results] == [
            p.ell.n_a for p in problems
        ]
