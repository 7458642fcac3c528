"""Tests for the execution backend (repro.accel).

The load-bearing contract is *bit-identity*: the process backend must
return byte-for-byte the same results as the serial reference, in input
order.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.accel import BACKENDS, ParallelConfig, parallel_map, solve_many
from repro.core import BPConfig, KlauConfig
from repro.errors import ConfigurationError
from repro.observe import EventBus, capture, set_bus


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
            parallel=ParallelConfig(backend="process", n_workers=2),
        )
        assert [r.matching.mate_a.shape[0] for r in results] == [
            p.ell.n_a for p in problems
        ]
