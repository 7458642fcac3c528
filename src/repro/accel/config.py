"""Execution-backend configuration for :mod:`repro.accel`.

One frozen dataclass names the two backends the library can run
independent work units on, and the supervision policy every batch runs
under (:func:`repro.resilience.supervised_map` executes them all):

``"serial"``
    In-process loop.  The reference semantics — the process backend is
    required (and tested) to be bit-identical to it.
``"process"``
    ``multiprocessing`` pool; each task (a whole solve for
    :func:`repro.accel.solve_many`) is pickled to a worker.  This is
    the backend that delivers real multicore wall-clock wins.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Mapping

from repro.configtools import ConfigBase
from repro.errors import ConfigurationError
from repro.resilience.config import ResilienceConfig

__all__ = ["BACKENDS", "ParallelConfig"]

#: The recognized execution backends.
BACKENDS = ("serial", "process")


@dataclass(frozen=True)
class ParallelConfig(ConfigBase):
    """How to fan independent work units out.

    Attributes
    ----------
    backend:
        One of :data:`BACKENDS`.
    n_workers:
        Worker count for the process backend; ``0`` means "one per CPU"
        (``os.cpu_count()``).  Ignored by ``"serial"``.
    start_method:
        ``multiprocessing`` start method for the process backend.
        ``"fork"`` (default on Linux) inherits the parent's read-only
        state cheaply; ``"spawn"`` is the portable escape hatch.
    resilience:
        Optional :class:`repro.resilience.ResilienceConfig` putting
        every fanned-out task under supervision (timeouts, retries with
        backoff, circuit breaker, degradation ladder).  ``None``
        (default) runs each task exactly once on ``backend``, with no
        retry, no timeout and no step down.
    """

    backend: str = "serial"
    n_workers: int = 0
    start_method: str = "fork"
    resilience: ResilienceConfig | None = None
    #: Accepted on every public config (common surface, round-tripped by
    #: ``to_dict``/``from_dict``); backend scheduling is deterministic
    #: per the bit-identical contract and does not consume it.
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; expected one of "
                f"{BACKENDS}"
            )
        if self.n_workers < 0:
            raise ConfigurationError("n_workers must be >= 0")
        if self.start_method not in ("fork", "spawn", "forkserver"):
            raise ConfigurationError(
                f"unknown start_method {self.start_method!r}"
            )
        if self.resilience is not None and not isinstance(
            self.resilience, ResilienceConfig
        ):
            raise ConfigurationError(
                "resilience must be a ResilienceConfig or None "
                f"(got {type(self.resilience).__name__}); mappings are "
                "coerced by ParallelConfig.from_dict only"
            )

    def to_dict(self) -> dict[str, Any]:
        """Flat field dict, with ``resilience`` nested as its own dict.

        The one exception to the configs-hold-only-scalars rule: the
        supervision knobs are a config of their own, so they serialize
        as a nested ``ResilienceConfig.to_dict()`` (or ``None``).
        """
        row = super().to_dict()
        if self.resilience is not None:
            row["resilience"] = self.resilience.to_dict()
        return row

    @classmethod
    def from_dict(cls, mapping: Mapping[str, Any]) -> "ParallelConfig":
        """Inverse of :meth:`to_dict`; coerces a nested resilience dict."""
        row = dict(mapping)
        nested = row.get("resilience")
        if isinstance(nested, Mapping):
            row["resilience"] = ResilienceConfig.from_dict(nested)
        return super().from_dict(row)

    def resolve_workers(self) -> int:
        """The actual worker count (resolves the ``0`` = per-CPU default)."""
        if self.backend == "serial":
            return 1
        if self.n_workers > 0:
            return self.n_workers
        return max(1, os.cpu_count() or 1)
