"""The execution pools: generic ``parallel_map`` and the rounding pool.

Two fan-out shapes back the library's parallelism:

* :func:`parallel_map` — run a picklable function over a list of items
  on the configured backend.  The batch-serving layer
  (:func:`repro.accel.serve.solve_many`) schedules whole alignment
  instances through it.
* :class:`RoundingPool` — a pool specialized for BP's batched rounding:
  workers attach the problem's shared-memory export **once** (in the
  pool initializer), keep a matcher and a
  :class:`~repro.core.rounding.RoundingWorkspace` resident, and each
  task ships only one heuristic vector in and one matching out.

Determinism contract: for a *stateless* matcher every backend computes
the same floats in the same order as the serial path, so results are
bit-identical — workers read the very same float64 bytes through shared
memory and score with the same
:func:`repro.core.rounding.score_matching` as
:func:`repro.core.rounding.round_heuristic`.  The parent replays
tracker offers and ``rounding`` events in serial order, so histories and
event streams are backend-independent (per-``matching`` events from
inside process workers are the one exception: worker buses are silenced,
and those events are not replayed).

Metrics (parent-side, when the bus is active): ``repro_backend_workers``
and ``repro_backend_shm_bytes`` gauges, ``repro_backend_tasks_total``
counter, ``repro_backend_dispatch_seconds`` histogram, and
``repro_backend_worker_utilization`` — busy-seconds summed over workers
divided by ``wall seconds × n_workers`` for the last dispatch.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.accel.config import ParallelConfig
from repro.accel.shm import SharedProblem
from repro.core.problem import NetworkAlignmentProblem
from repro.core.rounding import (
    RoundingWorkspace,
    make_matcher,
    score_matching,
)
from repro.matching.result import MatchingResult
from repro.observe import get_bus
from repro.resilience.degrade import emit_degradation
from repro.resilience.faults import active_fault_plan, maybe_inject
from repro.resilience.supervise import CircuitBreaker

__all__ = ["RoundingPool", "parallel_map"]


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
    elif config.backend == "threaded":
        with ThreadPoolExecutor(
            max_workers=config.resolve_workers()
        ) as executor:
            results = list(executor.map(fn, items))
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


# ----------------------------------------------------------------------
# Rounding pool
# ----------------------------------------------------------------------

#: Per-worker-process state installed by :func:`_init_rounding_worker`.
_WORKER: dict[str, Any] = {}


def _init_rounding_worker(handle: tuple, matcher_kind: str) -> None:
    """Process-pool initializer: attach shared memory, build the kit."""
    _silence_worker_bus()
    shared = SharedProblem.attach(handle)
    problem = shared.to_problem()
    _WORKER["shared"] = shared
    _WORKER["problem"] = problem
    _WORKER["matcher"] = make_matcher(matcher_kind)
    _WORKER["workspace"] = RoundingWorkspace.for_problem(problem)


def _round_with(
    problem: NetworkAlignmentProblem,
    matcher,
    workspace: RoundingWorkspace,
    g: np.ndarray,
) -> tuple[float, float, float, MatchingResult]:
    """One rounding: the serial hot path's matcher call and scorer.

    Calls the matcher and :func:`repro.core.rounding.score_matching` the
    way :func:`repro.core.rounding.round_heuristic` does, so the floats
    are bit-identical across backends.

    This is the rounding layer's chaos consultation point (site
    ``"rounding"``): a ``crash`` fault raises here, wherever the task
    runs, and a ``corrupt`` fault poisons the *returned* objective with
    NaN — modelling a corrupted result buffer — which the supervised
    ``round_many`` detects and repairs serially.  The clean inputs are
    never touched, so the retry is bit-identical.
    """
    spec = maybe_inject("rounding")
    matching = matcher(problem.ell, np.asarray(g, dtype=np.float64))
    objective, weight_part, overlap_part = score_matching(
        problem, matching, workspace.x
    )
    if spec is not None and spec.kind == "corrupt":
        return float("nan"), weight_part, overlap_part, matching
    return objective, weight_part, overlap_part, matching


def _rounding_task(
    g: np.ndarray,
) -> tuple[float, float, float, MatchingResult, float]:
    """Process-pool task body: round one vector, report busy seconds."""
    t0 = time.perf_counter()
    obj, wp, op, matching = _round_with(
        _WORKER["problem"], _WORKER["matcher"], _WORKER["workspace"], g
    )
    return obj, wp, op, matching, time.perf_counter() - t0


class RoundingPool:
    """Fan the independent matchings of a rounding batch out to workers.

    One pool serves one problem for its whole solver run: the process
    backend exports the problem to shared memory once and workers attach
    in their initializer, so per-batch traffic is just the heuristic
    vectors (in) and the matchings (out).

    Use as a context manager — ``__exit__`` tears the pool down and
    unlinks the shared segment (no ``/dev/shm`` leaks).
    """

    def __init__(
        self,
        problem: NetworkAlignmentProblem,
        matcher_kind: str,
        config: ParallelConfig,
    ) -> None:
        self.config = config
        self.matcher_kind = matcher_kind
        self.n_workers = config.resolve_workers()
        self._problem = problem
        self._shared: SharedProblem | None = None
        self._pool = None
        self._executor: ThreadPoolExecutor | None = None
        self._tls = threading.local()
        self._serial_kit = None
        self._breaker: CircuitBreaker | None = None
        if config.backend == "process":
            self._shared = SharedProblem.create(problem)
            ctx = multiprocessing.get_context(config.start_method)
            self._pool = ctx.Pool(
                self.n_workers,
                initializer=_init_rounding_worker,
                initargs=(self._shared.handle, matcher_kind),
            )
        elif config.backend == "threaded":
            self._executor = ThreadPoolExecutor(max_workers=self.n_workers)
        bus = get_bus()
        if bus.active:
            bus.metrics.gauge(
                "repro_backend_workers", backend=config.backend
            ).set(self.n_workers)

    # ------------------------------------------------------------------
    def _make_kit(self) -> tuple:
        """Build one (matcher, workspace) kit."""
        return (
            make_matcher(self.matcher_kind),
            RoundingWorkspace.for_problem(self._problem),
        )

    def _thread_task(
        self, g: np.ndarray
    ) -> tuple[float, float, float, MatchingResult, float]:
        t0 = time.perf_counter()
        kit = getattr(self._tls, "kit", None)
        if kit is None:
            kit = self._make_kit()
            self._tls.kit = kit
        obj, wp, op, matching = _round_with(
            self._problem, kit[0], kit[1], g
        )
        return obj, wp, op, matching, time.perf_counter() - t0

    def round_many(
        self, vectors: Sequence[np.ndarray]
    ) -> list[tuple[float, float, float, MatchingResult]]:
        """Round every vector; results in input order.

        Emits the backend metrics on the parent bus; the caller replays
        tracker offers and ``rounding`` events (see
        :func:`repro.core.rounding.emit_rounding`) so the observable
        stream is identical to the serial path.

        With a :class:`~repro.resilience.ResilienceConfig` on the pool's
        config (or a chaos plan armed), a batch whose pooled dispatch
        fails — a worker crash, or a corrupted (non-finite) objective —
        is recomputed on the in-process serial kit, which is the
        bit-identical reference, after emitting ``backend_degraded``.
        A per-pool circuit breaker stops offering work to a backend
        that keeps failing.
        """
        if (
            self.config.resilience is not None
            or active_fault_plan() is not None
        ):
            return self._round_many_supervised(vectors)
        return self._dispatch(vectors)

    def _round_many_supervised(
        self, vectors: Sequence[np.ndarray]
    ) -> list[tuple[float, float, float, MatchingResult]]:
        """The degradation wrapper around :meth:`_dispatch`."""
        res = self.config.resilience
        retries = res.max_retries if res is not None else 2
        threshold = res.breaker_threshold if res is not None else 3
        if self._breaker is None:
            self._breaker = CircuitBreaker(threshold)
        if not self._breaker.open:
            try:
                raw = self._dispatch(vectors)
                if all(np.isfinite(r[0]) for r in raw):
                    self._breaker.record_success()
                    return raw
                reason = "non-finite rounding objective (corrupt result)"
            except Exception as exc:  # noqa: BLE001 - any worker death
                reason = repr(exc)
            self._breaker.record_failure()
        else:
            reason = "rounding circuit breaker open"
        if self.config.backend != "serial":
            emit_degradation("rounding", self.config.backend, "serial",
                             reason)
        # The serial kit is the reference path; injected faults may
        # still fire here (shared budget), so give it the retry budget.
        last_error: Exception | None = None
        for attempt in range(retries + 1):
            try:
                raw = self._dispatch(vectors, force_serial=True)
            except Exception as exc:  # noqa: BLE001 - injected crash
                last_error = exc
                continue
            if all(np.isfinite(r[0]) for r in raw):
                return raw
        if last_error is not None:
            raise last_error
        return raw

    def _dispatch(
        self, vectors: Sequence[np.ndarray], force_serial: bool = False
    ) -> list[tuple[float, float, float, MatchingResult]]:
        """The raw backend dispatch (the historical ``round_many`` body)."""
        t0 = time.perf_counter()
        backend = "serial" if force_serial else self.config.backend
        if self._pool is not None and not force_serial:
            raw = self._pool.map(
                _rounding_task, list(vectors), chunksize=self.config.chunk
            )
        elif self._executor is not None and not force_serial:
            raw = list(self._executor.map(self._thread_task, vectors))
        else:
            if self._serial_kit is None:
                self._serial_kit = self._make_kit()
            raw = []
            for g in vectors:
                t1 = time.perf_counter()
                obj, wp, op, matching = _round_with(
                    self._problem, self._serial_kit[0],
                    self._serial_kit[1], g,
                )
                raw.append((obj, wp, op, matching,
                            time.perf_counter() - t1))
        elapsed = time.perf_counter() - t0
        bus = get_bus()
        if bus.active and raw:
            busy = sum(r[4] for r in raw)
            bus.metrics.counter(
                "repro_backend_tasks_total", backend=backend
            ).inc(len(raw))
            bus.metrics.histogram(
                "repro_backend_dispatch_seconds"
            ).observe(elapsed)
            if elapsed > 0:
                bus.metrics.gauge(
                    "repro_backend_worker_utilization",
                    backend=backend,
                ).set(min(1.0, busy / (elapsed * self.n_workers)))
        return [r[:4] for r in raw]

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear down workers and unlink the shared segment."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._shared is not None:
            self._shared.unlink()
            self._shared = None

    def __enter__(self) -> "RoundingPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
