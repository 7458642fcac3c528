"""Real-thread parallelism — the honest GIL witness.

This package implements the paper's parallel constructs with *actual*
``threading`` threads.  It exists to measure, not to speed up: CPython's
GIL serializes the fine-grained shared-memory loops the paper
parallelizes, so these implementations scale at ≈1× regardless of thread
count.  The benchmark ``benchmarks/bench_gil_reality.py`` records that
flat curve — it is the empirical justification for reproducing the
paper's scaling study with the trace-driven machine model in
:mod:`repro.machine` instead (DESIGN.md §1).

Fanning whole, independent solves out to processes is a different job;
it lives in :mod:`repro.accel` (``ParallelConfig``, ``parallel_map``,
``solve_many``).
"""

from repro.parallel.threaded import (
    parallel_for_threaded,
    threaded_locally_dominant_matching,
)

__all__ = [
    "parallel_for_threaded",
    "threaded_locally_dominant_matching",
]
