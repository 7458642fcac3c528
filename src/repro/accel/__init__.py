"""Real execution backends: process pools over shared memory.

The trace-driven machine model (:mod:`repro.machine`) *simulates* the
paper's multithreaded scaling; this package delivers actual wall-clock
parallelism on the host.  Three layers (see ``docs/performance.md``):

* :class:`ParallelConfig` / :func:`parallel_map` — backend selection
  (serial | threaded | process) and a generic ordered fan-out.
* :mod:`repro.accel.shm` — one-segment shared-memory export of the
  problem's immutable CSR arrays, attached zero-copy by workers.
* :class:`RoundingPool` — the batched-rounding fan-out used by BP
  (``flush_batch`` rounds ``2 × batch`` independent iterates), with a
  bit-identical-to-serial determinism contract.
* :func:`solve_many` — the batch-serving API: whole alignment instances
  scheduled across the pool.

The exact matcher (:class:`repro.matching.warm.ExactMatcher`, matcher
kind ``"exact"``) attacks the same rounding bottleneck sequentially: it
warm-starts from the dual potentials of its previous call on the same L
structure and still returns the cold solver's answer, so it runs on
every backend.
"""

from repro.accel.config import BACKENDS, ParallelConfig
from repro.accel.pool import RoundingPool, parallel_map
from repro.accel.serve import solve_many
from repro.accel.shm import ArraySpec, SharedArrayBundle, SharedProblem

__all__ = [
    "ArraySpec",
    "BACKENDS",
    "ParallelConfig",
    "RoundingPool",
    "SharedArrayBundle",
    "SharedProblem",
    "parallel_map",
    "solve_many",
]
