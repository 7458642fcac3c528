"""Real execution backends: fan independent solves out to processes.

The trace-driven machine model (:mod:`repro.machine`) *simulates* the
paper's multithreaded scaling, including BP's batched rounding task
group (§IV-C); this package runs whole, independent work units on the
host.  Two layers (see ``docs/performance.md``):

* :class:`ParallelConfig` / :func:`parallel_map` — backend selection
  (serial | process) and a generic ordered fan-out.
* :func:`solve_many` — the batch-serving API: whole alignment instances
  scheduled across the pool.

BP rounds its stored iterates in the solver's own process: one rounding
costs about 1.5 ms at n=5,000, less than shipping a vector to a worker
and a matching back (docs/performance.md).
"""

from repro.accel.config import BACKENDS, ParallelConfig
from repro.accel.pool import parallel_map
from repro.accel.serve import solve_many

__all__ = [
    "BACKENDS",
    "ParallelConfig",
    "parallel_map",
    "solve_many",
]
