"""Supervised task execution: timeouts, retries, breakers, the ladder.

:func:`supervised_map` is the resilient twin of
:func:`repro.accel.parallel_map`: it fans ``fn`` out over ``items`` on
the configured backend, but every task runs under supervision —

* a per-task **timeout** (``ResilienceConfig.timeout_s``).  On the
  process backend an expired timeout doubles as **dead-worker
  detection**: the pool is terminated (killing the hung worker), a
  fresh pool is built, and every not-yet-collected task is requeued
  *without* being charged a retry (they were casualties, not failures);
* bounded **retries** with exponential backoff + deterministic jitter
  (``task_retry`` events, ``repro_retries_total``);
* a per-backend **circuit breaker** — ``breaker_threshold`` consecutive
  failures opens it, at which point the **degradation ladder** steps
  the whole remaining batch down ``process → serial``
  (``backend_degraded`` events, ``repro_degradations_total``).  The
  serial rung is the bit-identical reference, so results survive any
  number of degradations unchanged;
* parent-side **fault-plan consultation** per dispatch (site
  ``"parallel_map"`` by default): ``crash`` fails the attempt before
  dispatch, ``hang`` dispatches a sleeper in ``fn``'s place so the real
  timeout/terminate machinery trips, ``slow`` delays the dispatch.
  Deciding in the parent keeps chaos runs deterministic even on the
  process backend (worker-side budget counters would fork into
  independent copies).

Results come back as per-task :class:`TaskOutcome` envelopes — one
poisoned task cannot take down its batch — and the worker-side wrapper
(:func:`_guarded_call`) captures the formatted remote traceback so a
failure that happened three processes away is still debuggable.

The serial rung cannot preempt a running task, so timeouts there are
simulated only for injected hangs; a genuinely stuck serial task
blocks (documented limitation — there is nothing below serial to kill).
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.errors import (
    BackendUnavailableError,
    FaultInjectedError,
    TaskFailedError,
    TimeoutExceededError,
)
from repro.observe import get_bus
from repro.resilience.config import ResilienceConfig
from repro.resilience.degrade import (
    EXECUTION_LADDER,
    emit_degradation,
    next_step,
)
from repro.resilience.faults import consult

__all__ = ["CircuitBreaker", "TaskOutcome", "supervised_map"]


@dataclass
class TaskOutcome:
    """What happened to one task of a supervised batch.

    Exactly one of ``value`` / ``error`` is meaningful (``ok`` says
    which).  ``attempts`` counts executions across every backend rung
    the task touched; ``backend`` is the rung that produced the final
    outcome.
    """

    task_index: int
    ok: bool
    value: Any = None
    error: TaskFailedError | None = None
    attempts: int = 1
    backend: str = "serial"

    def unwrap(self) -> Any:
        """The task's value, or raise its :class:`TaskFailedError`."""
        if self.ok:
            return self.value
        assert self.error is not None
        raise self.error


class CircuitBreaker:
    """Opens after ``threshold`` *consecutive* failures; success resets."""

    def __init__(self, threshold: int) -> None:
        self.threshold = threshold
        self.consecutive = 0
        self.open = False

    def record_success(self) -> None:
        self.consecutive = 0

    def record_failure(self) -> None:
        self.consecutive += 1
        if self.consecutive >= self.threshold:
            self.open = True


def _guarded_call(
    fn: Callable[[Any], Any], item: Any, hang_s: float
) -> tuple[str, Any, str]:
    """Run one task wherever it was dispatched, enveloping the outcome.

    Returns ``("ok", value, "")`` or ``("err", repr(exc), traceback)``.
    The envelope (rather than letting the exception propagate through
    the pool) keeps the remote traceback intact across process
    boundaries.  ``hang_s > 0`` means a parent-side ``hang`` fault fired
    for this dispatch: sleep in ``fn``'s place so the parent's timeout
    machinery sees a genuinely unresponsive task.
    """
    if hang_s > 0.0:
        time.sleep(hang_s)
        return ("err", "FaultInjectedError('hang ran to completion')", "")
    try:
        return ("ok", fn(item), "")
    except BaseException as exc:  # noqa: BLE001 - envelope, re-raised parent-side
        return ("err", repr(exc), traceback.format_exc())


# ----------------------------------------------------------------------
# Backend runners: submit/collect/reset with one shape per backend
# ----------------------------------------------------------------------


class _SerialRunner:
    """Inline execution.  ``submit`` defers; ``collect`` runs the thunk."""

    backend = "serial"

    def __init__(self, config: Any) -> None:
        del config

    def submit(self, fn, item, hang_s):
        return (fn, item, hang_s)

    def collect(self, handle, timeout_s, task_index):
        fn, item, hang_s = handle
        if hang_s > 0.0 and timeout_s != float("inf"):
            # Serial cannot preempt; simulate the detection for injected
            # hangs by waiting out the shorter of hang and timeout.
            time.sleep(min(hang_s, timeout_s))
            raise TimeoutExceededError("parallel_map", task_index, timeout_s)
        return _guarded_call(fn, item, hang_s)

    def reset(self) -> None:
        pass

    def close(self) -> None:
        pass


class _ProcessRunner:
    """multiprocessing pool with ``AsyncResult.get(timeout)`` supervision.

    ``reset`` is the dead-worker answer: ``terminate()`` kills hung or
    wedged workers outright and a fresh pool takes over the requeued
    remainder of the batch.
    """

    backend = "process"

    def __init__(self, config: Any) -> None:
        self._workers = config.resolve_workers()
        self._ctx = mp.get_context(config.start_method)
        self._pool = self._ctx.Pool(processes=self._workers)

    def submit(self, fn, item, hang_s):
        return self._pool.apply_async(_guarded_call, (fn, item, hang_s))

    def collect(self, handle, timeout_s, task_index):
        try:
            if timeout_s == float("inf"):
                return handle.get()
            return handle.get(timeout=timeout_s)
        except mp.TimeoutError:
            raise TimeoutExceededError(
                "parallel_map", task_index, timeout_s
            ) from None

    def reset(self) -> None:
        self._pool.terminate()
        self._pool.join()
        self._pool = self._ctx.Pool(processes=self._workers)

    def close(self) -> None:
        self._pool.terminate()
        self._pool.join()


_RUNNERS = {
    "serial": _SerialRunner,
    "process": _ProcessRunner,
}


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------


def _emit_retry(site: str, task_index: int, attempt: int, backend: str,
                reason: str, backoff_s: float) -> None:
    bus = get_bus()
    if bus.active:
        bus.emit(
            "task_retry", site=site, task_index=task_index,
            attempt=attempt, backend=backend, reason=reason,
            backoff_s=backoff_s,
        )
        bus.metrics.counter(
            "repro_retries_total", site=site, backend=backend
        ).inc()
        if reason == "timeout":
            bus.metrics.counter(
                "repro_timeouts_total", site=site, backend=backend
            ).inc()


def _run_rung(
    fn: Callable[[Any], Any],
    pending: list[tuple[int, Any]],
    backend: str,
    config: Any,
    res: ResilienceConfig,
    site: str,
    outcomes: dict[int, TaskOutcome],
    prior_attempts: dict[int, int],
) -> list[tuple[int, Any]]:
    """Run ``pending`` tasks on one ladder rung.

    Fills ``outcomes`` for tasks that finish (either way) on this rung;
    returns the tasks to hand to the next rung (non-empty only when the
    circuit breaker opened with fallback armed).
    """
    runner = _RUNNERS[backend](config)
    breaker = CircuitBreaker(res.breaker_threshold)
    queue: deque[tuple[int, Any, int]] = deque(
        (idx, item, 0) for idx, item in pending
    )
    items_by_index = dict(pending)
    tripped = False

    def fail_attempt(idx: int, attempt: int, reason: str,
                     err_repr: str, remote_tb: str) -> None:
        """Charge one failed attempt; retry with backoff or finalize."""
        breaker.record_failure()
        total = prior_attempts.get(idx, 0) + attempt + 1
        if attempt < res.max_retries and not breaker.open:
            backoff = res.backoff_s(attempt, task_index=idx)
            _emit_retry(site, idx, attempt + 1, backend, reason, backoff)
            if backoff > 0.0:
                time.sleep(backoff)
            queue.append((idx, items_by_index[idx], attempt + 1))
            return
        error = TaskFailedError(
            f"task {idx} failed after {total} attempt(s) on backend "
            f"{backend!r}: {err_repr}",
            task_index=idx,
            remote_traceback=remote_tb,
        )
        outcomes[idx] = TaskOutcome(
            task_index=idx, ok=False, error=error, attempts=total,
            backend=backend,
        )

    try:
        while queue and not tripped:
            wave = list(queue)
            queue.clear()
            handles: deque[tuple[int, int, Any]] = deque()
            for idx, item, attempt in wave:
                hang_s = 0.0
                spec = consult(site, task_index=idx)
                if spec is not None:
                    if spec.kind == "crash":
                        fail_attempt(
                            idx, attempt, "fault",
                            repr(FaultInjectedError(site, idx)), "",
                        )
                        if breaker.open:
                            break
                        continue
                    if spec.kind == "hang":
                        hang_s = spec.delay_s
                    elif spec.kind == "slow":
                        time.sleep(spec.delay_s)
                handles.append(
                    (idx, attempt, runner.submit(fn, item, hang_s))
                )
            while handles:
                idx, attempt, handle = handles.popleft()
                try:
                    status, payload, remote_tb = runner.collect(
                        handle, res.timeout_s, idx
                    )
                except TimeoutExceededError as exc:
                    fail_attempt(idx, attempt, "timeout", repr(exc), "")
                    # The pool may hold a dead/hung worker: kill it and
                    # requeue every in-flight task uncharged.
                    runner.reset()
                    for idx2, attempt2, _ in handles:
                        queue.append((idx2, items_by_index[idx2], attempt2))
                    handles.clear()
                    break
                if status == "ok":
                    breaker.record_success()
                    outcomes[idx] = TaskOutcome(
                        task_index=idx, ok=True, value=payload,
                        attempts=prior_attempts.get(idx, 0) + attempt + 1,
                        backend=backend,
                    )
                else:
                    fail_attempt(idx, attempt, "error", payload, remote_tb)
                if breaker.open:
                    break
            if breaker.open:
                tripped = True
    finally:
        runner.close()

    # Whatever has no outcome yet (queued, uncollected, or skipped when
    # the breaker opened) moves down the ladder — and failed tasks get a
    # second life on the next rung too, carrying their attempt counts.
    leftover_ids = [
        idx for idx, _ in pending
        if idx not in outcomes or not outcomes[idx].ok
    ]
    if not tripped:
        # Rung completed normally: failures are final on this rung.
        return []
    for idx, _ in pending:
        if idx in outcomes:
            prior_attempts[idx] = outcomes[idx].attempts
    remaining = [(idx, items_by_index[idx]) for idx in leftover_ids]
    for idx in leftover_ids:
        outcomes.pop(idx, None)
    return remaining


def supervised_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    config: Any,
    resilience: ResilienceConfig | None = None,
    site: str = "parallel_map",
) -> list[TaskOutcome]:
    """Map ``fn`` over ``items`` under supervision; never raises per-task.

    ``config`` is a :class:`repro.accel.ParallelConfig` naming the
    starting backend; ``resilience`` defaults to ``config.resilience``
    or a default-constructed :class:`ResilienceConfig`.  Returns one
    :class:`TaskOutcome` per item, in order.  Batch-level errors
    (ladder exhausted with ``fallback=False`` is *not* one — failed
    tasks simply carry their errors) do not exist by construction:
    the serial rung always terminates the ladder.
    """
    res = resilience
    if res is None:
        res = getattr(config, "resilience", None) or ResilienceConfig()
    backend = config.backend
    pending = list(enumerate(items))
    outcomes: dict[int, TaskOutcome] = {}
    prior_attempts: dict[int, int] = {}
    while pending:
        remaining = _run_rung(
            fn, pending, backend, config, res, site, outcomes,
            prior_attempts,
        )
        if not remaining:
            break
        if not res.fallback:
            # Breaker open, ladder disarmed: finalize everything left
            # as failed-fast.
            for idx, _ in remaining:
                if idx not in outcomes:
                    outcomes[idx] = TaskOutcome(
                        task_index=idx, ok=False,
                        error=TaskFailedError(
                            f"task {idx} abandoned: circuit breaker open "
                            f"on backend {backend!r} and fallback disabled",
                            task_index=idx,
                        ),
                        attempts=prior_attempts.get(idx, 0),
                        backend=backend,
                    )
            break
        try:
            lower = next_step(EXECUTION_LADDER, backend)
        except BackendUnavailableError:
            # Already on the serial floor; failures there are final.
            for idx, _ in remaining:
                if idx not in outcomes:
                    outcomes[idx] = TaskOutcome(
                        task_index=idx, ok=False,
                        error=TaskFailedError(
                            f"task {idx} failed on the serial rung with "
                            "the degradation ladder exhausted",
                            task_index=idx,
                        ),
                        attempts=prior_attempts.get(idx, 0),
                        backend=backend,
                    )
            break
        emit_degradation(
            site, backend, lower,
            reason="circuit breaker open after consecutive failures",
        )
        backend = lower
        pending = remaining
    return [outcomes[idx] for idx in range(len(items))]
