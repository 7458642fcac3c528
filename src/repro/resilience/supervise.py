"""Supervised task execution: the one executor every fan-out runs on.

:func:`supervised_map` runs ``fn`` over ``items`` on the configured
backend and returns one :class:`TaskOutcome` per item, in order.
:func:`repro.accel.parallel_map` is its raising form, and
:func:`repro.accel.solve_many` and the job server call it directly.

Without a :class:`~repro.resilience.ResilienceConfig` on the config,
every task runs exactly once on its configured backend: no retry, no
timeout, no step down.  With one, every task runs under supervision —

* a per-task **timeout** (``ResilienceConfig.timeout_s``).  On the
  process backend an expired timeout doubles as **dead-worker
  detection**: the pool is terminated (killing the hung worker), a
  fresh pool is built, and every not-yet-collected task is requeued
  *without* being charged a retry (they were casualties, not failures);
* bounded **retries** with exponential backoff + deterministic jitter
  (``task_retry`` events, ``repro_retries_total``);
* a **circuit breaker** on the process rung when ``fallback`` is on —
  ``breaker_threshold`` consecutive failures open it, and the
  **degradation ladder** steps the rest of the batch down
  ``process → serial`` (``backend_degraded`` events,
  ``repro_degradations_total``).  The serial rung is the bit-identical
  reference, so results survive a degradation unchanged.  A rung with
  nowhere to step down to (the serial floor, or any rung with
  ``fallback`` off) has no breaker: each task there runs until it
  succeeds or spends its own retry budget;
* parent-side **fault-plan consultation** per dispatch (site
  ``"parallel_map"`` by default): ``crash`` fails the attempt before
  dispatch, ``hang`` dispatches a sleeper in ``fn``'s place so the real
  timeout/terminate machinery trips, ``slow`` delays the dispatch.
  Deciding in the parent keeps chaos runs deterministic even on the
  process backend (worker-side budget counters would fork into
  independent copies).

One poisoned task cannot take down its batch: the worker-side wrapper
(:func:`_guarded_call`) envelopes each outcome with its formatted
remote traceback, so a failure that happened three processes away is
still debuggable.  Every pool's workers detach the sinks they inherit
(:func:`_silence_worker_bus`), so only the parent writes to the
caller's sinks, and every batch counts its tasks in
``repro_backend_tasks_total`` and times itself in
``repro_backend_dispatch_seconds``.

The serial rung cannot preempt a running task, so timeouts there are
simulated only for injected hangs; a genuinely stuck serial task
blocks (there is nothing below serial to kill).
"""

from __future__ import annotations

import math
import multiprocessing as mp
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.errors import (
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

#: The policy when the config carries no :class:`ResilienceConfig`:
#: every task runs exactly once on its configured backend — no retry,
#: no timeout (``timeout_s`` stays ``inf``) and no step down.
_RUN_ONCE = ResilienceConfig(max_retries=0, fallback=False)


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
    """Opens after ``threshold`` *consecutive* failures; success resets.

    ``threshold=math.inf`` gives a breaker that never opens.
    """

    def __init__(self, threshold: float) -> None:
        self.threshold = threshold
        self.consecutive = 0
        self.open = False

    def record_success(self) -> None:
        self.consecutive = 0

    def record_failure(self) -> None:
        self.consecutive += 1
        if self.consecutive >= self.threshold:
            self.open = True


def _silence_worker_bus() -> None:
    """Pool initializer: detach inherited sinks in a forked worker.

    A forked child inherits the parent's bus *and its sinks* (open file
    descriptors included); letting workers write would interleave
    garbage into the parent's stream.  Workers compute, the parent
    narrates.
    """
    get_bus().clear_sinks()


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

    def collect(self, handle, timeout_s, site, task_index):
        fn, item, hang_s = handle
        if hang_s > 0.0 and timeout_s != float("inf"):
            # Serial cannot preempt; simulate the detection for injected
            # hangs by waiting out the shorter of hang and timeout.
            time.sleep(min(hang_s, timeout_s))
            raise TimeoutExceededError(site, task_index, timeout_s)
        return _guarded_call(fn, item, hang_s)

    def reset(self) -> None:
        pass

    def close(self) -> None:
        pass


class _ProcessRunner:
    """multiprocessing pool with ``AsyncResult.get(timeout)`` supervision.

    ``reset`` is the dead-worker answer: ``terminate()`` kills hung or
    wedged workers outright and a fresh pool takes over the requeued
    remainder of the batch.  Every pool it builds silences its workers'
    buses.
    """

    backend = "process"

    def __init__(self, config: Any) -> None:
        self._workers = config.resolve_workers()
        self._ctx = mp.get_context(config.start_method)
        self._pool = self._new_pool()

    def _new_pool(self):
        return self._ctx.Pool(
            processes=self._workers, initializer=_silence_worker_bus
        )

    def submit(self, fn, item, hang_s):
        return self._pool.apply_async(_guarded_call, (fn, item, hang_s))

    def collect(self, handle, timeout_s, site, task_index):
        try:
            if timeout_s == float("inf"):
                return handle.get()
            return handle.get(timeout=timeout_s)
        except mp.TimeoutError:
            raise TimeoutExceededError(site, task_index, timeout_s) from None

    def reset(self) -> None:
        self._pool.terminate()
        self._pool.join()
        self._pool = self._new_pool()

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
    circuit breaker opened).  Only a rung with a rung below it and
    ``fallback`` on has a breaker that can open.
    """
    runner = _RUNNERS[backend](config)
    steps_down = res.fallback and backend != EXECUTION_LADDER[-1]
    breaker = CircuitBreaker(
        res.breaker_threshold if steps_down else math.inf
    )
    queue: deque[tuple[int, Any, int]] = deque(
        (idx, item, 0) for idx, item in pending
    )
    items_by_index = dict(pending)

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
        while queue and not breaker.open:
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
                        handle, res.timeout_s, site, idx
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
    finally:
        runner.close()

    if not breaker.open:
        # Rung completed normally: failures are final on this rung.
        return []
    # Whatever has no outcome yet (queued, uncollected, or skipped when
    # the breaker opened) moves down the ladder — and failed tasks get a
    # second life on the next rung too, carrying their attempt counts.
    leftover_ids = [
        idx for idx, _ in pending
        if idx not in outcomes or not outcomes[idx].ok
    ]
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
    site: str = "parallel_map",
) -> list[TaskOutcome]:
    """Map ``fn`` over ``items`` under supervision; never raises per-task.

    ``config`` is a :class:`repro.accel.ParallelConfig` naming the
    starting backend and, in its ``resilience`` field, the policy (see
    the module docstring; ``None`` runs every task once).  ``fn`` must
    be picklable (module-level) for the process backend.  Returns one
    :class:`TaskOutcome` per item, in input order; a task that fails
    for good carries its :class:`TaskFailedError`.  Only a batch-level
    error, such as a pool that cannot be built, raises.
    """
    res = config.resilience if config.resilience is not None else _RUN_ONCE
    t0 = time.perf_counter()
    backend = config.backend
    pending = list(enumerate(items))
    outcomes: dict[int, TaskOutcome] = {}
    prior_attempts: dict[int, int] = {}
    while pending:
        pending = _run_rung(
            fn, pending, backend, config, res, site, outcomes,
            prior_attempts,
        )
        if pending:
            lower = next_step(EXECUTION_LADDER, backend)
            emit_degradation(
                site, backend, lower,
                reason="circuit breaker open after consecutive failures",
            )
            backend = lower
    bus = get_bus()
    if bus.active:
        bus.metrics.counter(
            "repro_backend_tasks_total", backend=config.backend
        ).inc(len(items))
        bus.metrics.histogram("repro_backend_dispatch_seconds").observe(
            time.perf_counter() - t0
        )
    return [outcomes[idx] for idx in range(len(items))]
