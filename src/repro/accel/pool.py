"""The execution pool: the generic ordered ``parallel_map``.

:func:`parallel_map` runs a picklable function over a list of items on
the configured backend.  The batch-serving layer
(:func:`repro.accel.serve.solve_many`) schedules whole alignment
instances through it.

Metrics (parent-side, when the bus is active): the
``repro_backend_tasks_total`` counter and the
``repro_backend_dispatch_seconds`` histogram.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Any, Callable, Iterable

from repro.accel.config import ParallelConfig
from repro.observe import get_bus
from repro.resilience.faults import active_fault_plan

__all__ = ["parallel_map"]


def _silence_worker_bus() -> None:
    """Pool initializer: detach inherited sinks in a forked worker.

    A forked child inherits the parent's bus *and its sinks* (open file
    descriptors included); letting workers write would interleave
    garbage into the parent's stream.  Workers compute, the parent
    narrates.
    """
    get_bus().clear_sinks()


def parallel_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    config: ParallelConfig | None = None,
) -> list[Any]:
    """Map ``fn`` over ``items`` on the configured backend, in order.

    ``fn`` must be picklable (module-level) for the process backend.
    Results are returned in input order regardless of completion order.

    When ``config.resilience`` is set (or a chaos
    :class:`~repro.resilience.FaultPlan` is armed) the batch runs under
    :func:`repro.resilience.supervised_map` — per-task timeouts, retry
    with backoff, dead-worker requeue, and the degradation ladder — and
    the first unrecoverable task error is raised as
    :class:`~repro.errors.TaskFailedError`.  Otherwise this is the
    historical zero-overhead fast path.
    """
    config = config or ParallelConfig()
    items = list(items)
    if (
        getattr(config, "resilience", None) is not None
        or active_fault_plan() is not None
    ):
        from repro.resilience.supervise import supervised_map

        outcomes = supervised_map(fn, items, config)
        return [outcome.unwrap() for outcome in outcomes]
    bus = get_bus()
    t0 = time.perf_counter()
    if config.backend == "serial" or len(items) <= 1:
        results = [fn(item) for item in items]
    else:
        ctx = multiprocessing.get_context(config.start_method)
        with ctx.Pool(
            config.resolve_workers(), initializer=_silence_worker_bus
        ) as pool:
            results = pool.map(fn, items, chunksize=config.chunk)
    if bus.active:
        bus.metrics.counter(
            "repro_backend_tasks_total", backend=config.backend
        ).inc(len(items))
        bus.metrics.histogram("repro_backend_dispatch_seconds").observe(
            time.perf_counter() - t0
        )
    return results
