"""Supervision knobs: :class:`ResilienceConfig`.

Attach one to :class:`repro.accel.ParallelConfig` (its ``resilience``
field) to put every fanned-out task under supervision: a per-task
timeout, a bounded retry budget with exponential backoff + jitter, a
per-backend circuit breaker, and — when ``fallback`` is on — the
graceful-degradation ladder (``process → serial``).

Leaving ``resilience`` unset keeps the historical fast paths: no
supervision wrapper, no timeouts, zero overhead (the acceptance
criterion for the fault-free path).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.configtools import ConfigBase
from repro.errors import ConfigurationError

__all__ = ["ResilienceConfig"]


@dataclass(frozen=True)
class ResilienceConfig(ConfigBase):
    """How supervised execution treats a misbehaving task or backend.

    Attributes
    ----------
    timeout_s:
        Per-task wall-clock budget.  ``inf`` (default) disables the
        timeout.  On the process backend an expired timeout also covers
        dead-worker detection: the pool is terminated (killing hung
        workers) and the remaining tasks are requeued on a fresh pool.
        The serial rung cannot preempt a running task, so timeouts are
        best-effort there (checked between tasks only).
    max_retries:
        Additional attempts per task after the first (``0`` = fail
        fast).  Retries of a crashed solver warm-resume from its latest
        :class:`~repro.resilience.SolverCheckpoint` when checkpointing
        is on.
    backoff_base_s / backoff_factor / backoff_max_s:
        Exponential-backoff schedule: attempt ``k`` (0-based retry
        count) sleeps ``min(base * factor**k, max)`` before re-running.
    jitter:
        Fractional jitter on each backoff sleep, drawn deterministically
        from ``seed`` so chaos runs replay exactly: the sleep becomes
        ``backoff * (1 + u)`` with ``u`` uniform in ``[-jitter, +jitter]``.
    fallback:
        Arm the degradation ladder.  When the circuit breaker opens on a
        backend (or a pool cannot even be built), execution steps down
        ``process → serial`` and re-runs the outstanding
        tasks there.  The serial rung is the reference semantics, so
        results after any number of degradations are bit-identical to a
        fault-free serial run.
    breaker_threshold:
        Consecutive task failures on one backend before its circuit
        breaker opens and the ladder steps down (``fallback`` permitting;
        with ``fallback=False`` an open breaker fails the batch).
    checkpoint_every:
        Snapshot solver iterate state every this many iterations
        (``0`` = checkpointing off).  Forwarded to BP/Klau through
        ``solve_many``/``align``.
    seed:
        Seeds the jitter stream (and is recorded in benchmark
        provenance like every other config seed).
    """

    timeout_s: float = math.inf
    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    jitter: float = 0.1
    fallback: bool = True
    breaker_threshold: int = 3
    checkpoint_every: int = 0
    seed: int | None = None

    def __post_init__(self) -> None:
        if not (self.timeout_s > 0):
            raise ConfigurationError("timeout_s must be positive (inf = off)")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ConfigurationError("backoff times must be non-negative")
        if self.backoff_factor < 1.0:
            raise ConfigurationError("backoff_factor must be >= 1")
        if not (0.0 <= self.jitter < 1.0):
            raise ConfigurationError("jitter must be in [0, 1)")
        if self.breaker_threshold < 1:
            raise ConfigurationError("breaker_threshold must be >= 1")
        if self.checkpoint_every < 0:
            raise ConfigurationError("checkpoint_every must be >= 0")

    def backoff_s(self, retry: int, task_index: int = 0) -> float:
        """The deterministic backoff sleep before retry number ``retry``.

        Jitter is a pure function of ``(seed, task_index, retry)`` —
        zlib.crc32-keyed like the fault plan — so a chaos replay sleeps
        the same amounts in the same places.
        """
        import zlib

        base = min(
            self.backoff_base_s * self.backoff_factor ** retry,
            self.backoff_max_s,
        )
        if self.jitter == 0.0 or base == 0.0:
            return base
        key = f"{self.seed}|{task_index}|{retry}".encode()
        u = zlib.crc32(key) / 0xFFFFFFFF  # uniform-ish in [0, 1]
        return base * (1.0 + self.jitter * (2.0 * u - 1.0))
