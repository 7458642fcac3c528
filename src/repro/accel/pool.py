"""The generic ordered fan-out: ``parallel_map``.

:func:`parallel_map` is the raising form of
:func:`repro.resilience.supervised_map`, the one executor every batch
runs on: the configured backend, the ``ResilienceConfig`` policy (none
by default: each task runs once), silenced worker buses and the
``repro_backend_*`` metrics all come from the supervisor.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.accel.config import ParallelConfig
from repro.resilience.supervise import supervised_map

__all__ = ["parallel_map"]


def parallel_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    config: ParallelConfig | None = None,
) -> list[Any]:
    """Map ``fn`` over ``items`` on the configured backend, in order.

    ``fn`` must be picklable (module-level) for the process backend.
    Results are returned in input order regardless of completion order.
    Every task runs; then the first task that failed for good raises its
    :class:`~repro.errors.TaskFailedError`.
    """
    outcomes = supervised_map(fn, list(items), config or ParallelConfig())
    return [outcome.unwrap() for outcome in outcomes]
