"""Resilience benchmarks: supervision overhead and chaos recovery.

Every ``solve_many`` batch runs on the supervisor; the baseline here is
its no-policy form (no ``ResilienceConfig``: each task runs once), and
the overhead is what a default ``ResilienceConfig`` adds to it.

Run with ``pytest benchmarks/bench_resilience.py -m bench -s``;
``benchmarks/run_bench.py --group resilience`` times the same
workloads into ``BENCH_5.json``.

Hard assertions are portability-aware (the pattern of
``bench_backend.py``):

* bit-identity is always asserted — a supervised serial run, and a
  chaos run that recovers through retries, must reproduce the
  fault-free objectives byte for byte on any machine;
* the <2% supervision-overhead contract is asserted with a generous
  CI margin (<15%) because container timer noise at these run lengths
  dwarfs the real tax; ``BENCH_5.json`` on a quiet machine is the
  number the contract is judged on.
"""

from __future__ import annotations

import time

import pytest

from repro.accel import ParallelConfig
from repro.accel.serve import solve_many
from repro.generators import powerlaw_alignment_instance
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    ResilienceConfig,
    fault_plan,
)

pytestmark = pytest.mark.bench

N = 800
COUNT = 4
CFG = {"n_iter": 10, "matcher": "approx", "batch": 4}


@pytest.fixture(scope="module")
def problems():
    out = []
    for seed in range(COUNT):
        inst = powerlaw_alignment_instance(
            n=N, expected_degree=4.0, p_perturb=8.0 / N, seed=seed,
            name=f"powerlaw-n{N}-s{seed}",
        )
        inst.problem.squares
        out.append(inst.problem)
    return out


def _timed(fn, repeats=3):
    fn()  # warmup
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        last = fn()
        samples.append(time.perf_counter() - t0)
    return sorted(samples)[len(samples) // 2], last


def test_supervision_overhead(problems):
    """A default ResilienceConfig against the no-policy supervisor:
    identical results, bounded tax."""
    base_t, base = _timed(
        lambda: solve_many(problems, "bp", config=CFG,
                           parallel=ParallelConfig(backend="serial"))
    )
    sup_t, sup = _timed(
        lambda: solve_many(
            problems, "bp", config=CFG,
            parallel=ParallelConfig(
                backend="serial", resilience=ResilienceConfig()),
        )
    )
    assert [r.objective for r in sup] == [r.objective for r in base]
    overhead = sup_t / base_t - 1.0
    print(f"\nsupervision overhead: {overhead * 100:+.2f}% "
          f"(baseline {base_t:.3f} s, supervised {sup_t:.3f} s)")
    assert overhead < 0.15, (
        f"supervision overhead {overhead * 100:.1f}% is far above the "
        f"2% contract even allowing for CI noise"
    )


def test_chaos_recovery_bit_identical(problems):
    """A crashed task is retried and the batch result is unchanged."""
    base = solve_many(problems, "bp", config=CFG,
                      parallel=ParallelConfig(backend="serial"))
    plan = FaultPlan(
        [FaultSpec("crash", site="parallel_map", task_index=1)], seed=5
    )
    with fault_plan(plan):
        chaos = solve_many(
            problems, "bp", config=CFG,
            parallel=ParallelConfig(
                backend="serial", resilience=ResilienceConfig()),
        )
    assert len(plan.fired()) == 1
    assert [r.objective for r in chaos] == [r.objective for r in base]
