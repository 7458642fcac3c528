"""Resilient execution: chaos, supervision, degradation, checkpoints.

The production-hardening layer over :mod:`repro.accel` and the solvers,
in four pieces (see ``docs/resilience.md`` for the full story):

* :mod:`~repro.resilience.faults` — a deterministic fault-injection
  harness (:class:`FaultPlan`: seeded crash/hang/slow faults
  addressable by call site, task index, or worker id) with hooks in
  ``parallel_map``, the solver iterations, the job server, and — via
  :class:`MachineFaults` — simulated core failures and stragglers in
  the machine simulator;
* :mod:`~repro.resilience.supervise` — :func:`supervised_map`:
  per-task timeouts, bounded retries with exponential backoff + jitter,
  dead-worker detection with task requeue, and a per-backend
  :class:`CircuitBreaker`;
* :mod:`~repro.resilience.degrade` — the graceful-degradation ladder
  (``process → serial`` execution), bit-identical by the backend
  contract;
* :mod:`~repro.resilience.checkpoint` — :class:`SolverCheckpoint` /
  :class:`CheckpointStore` so supervised retries of BP and Klau
  warm-resume instead of restarting.

Everything is off by default and zero-cost when off: no
:class:`FaultPlan` armed means every hook is one global read; no
:class:`ResilienceConfig` on the :class:`~repro.accel.ParallelConfig`
means the historical fast paths run unchanged.
"""

from repro.resilience.checkpoint import (
    CheckpointStore,
    FileCheckpointStore,
    SolverCheckpoint,
    get_checkpoint_store,
)
from repro.resilience.config import ResilienceConfig
from repro.resilience.degrade import EXECUTION_LADDER, next_step
from repro.resilience.faults import (
    FAULT_KINDS,
    FAULT_SITES,
    FaultPlan,
    FaultSpec,
    MachineFaults,
    active_fault_plan,
    clear_fault_plan,
    fault_plan,
    install_fault_plan,
    maybe_inject,
)
from repro.resilience.supervise import (
    CircuitBreaker,
    TaskOutcome,
    supervised_map,
)

__all__ = [
    "EXECUTION_LADDER",
    "FAULT_KINDS",
    "FAULT_SITES",
    "CheckpointStore",
    "CircuitBreaker",
    "FaultPlan",
    "FaultSpec",
    "FileCheckpointStore",
    "MachineFaults",
    "ResilienceConfig",
    "SolverCheckpoint",
    "TaskOutcome",
    "active_fault_plan",
    "clear_fault_plan",
    "fault_plan",
    "get_checkpoint_store",
    "install_fault_plan",
    "maybe_inject",
    "next_step",
    "supervised_map",
]
