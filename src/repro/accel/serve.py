"""Batch serving: schedule whole alignment instances across the pool.

``solve_many`` is the unit of work a traffic-serving deployment sees: a
list of independent problems to align.  Each problem is solved through
the :mod:`repro.registry` facade (the same dispatch as
:func:`repro.align`), so every registered method — ``bp``, ``klau``
(alias ``mr``), ``isorank``, ``multilevel`` — is available; the backend
only decides *where* the runs execute.  Results come back in input
order.

Failure isolation: every task runs in a per-task outcome envelope, so
one poisoned problem no longer aborts the whole batch.  By default the
first failure raises :class:`~repro.errors.TaskFailedError` (carrying
the task index and the remote traceback) *after* every other task has
run; with ``return_errors=True`` the failure comes back in-band — the
result list holds the :class:`TaskFailedError` at the failed task's
position instead of raising.

Supervision: a :class:`~repro.resilience.ResilienceConfig` on
``parallel`` adds per-task timeouts, retries with backoff, dead-worker
requeue, and the ``process → threaded → serial`` degradation ladder.
When ``checkpoint_every`` is set, each solve snapshots its iterate
state into the process-default
:class:`~repro.resilience.CheckpointStore` under a per-task key, so a
supervised retry that runs in the same process (the threaded and
serial rungs) warm-resumes from the last snapshot instead of
recomputing from iteration 1.

The process backend ships each problem to a worker by pickle (problems
are independent here, unlike the batched-rounding path where one problem
is shared read-only).  Lazily derived structures (the squares matrix)
are built in the worker if the caller has not forced them, so the parent
does not pay for them twice.
"""

from __future__ import annotations

import traceback
from typing import Sequence

from repro.accel.config import ParallelConfig
from repro.accel.pool import parallel_map
from repro.core.problem import NetworkAlignmentProblem
from repro.core.result import AlignmentResult
from repro.errors import TaskFailedError
from repro.observe import get_bus

__all__ = ["solve_many"]


def _solve_one_strict(task: tuple) -> AlignmentResult:
    """Module-level task body: solve, raising on failure.

    The optional trailing checkpoint fields wire supervised retries to
    the process-default store: the solve snapshots under ``ckpt_key``
    every ``ckpt_every`` iterations and resumes from any snapshot a
    crashed earlier attempt left there; a clean finish discards the key.
    """
    problem, method, config = task[:3]
    ckpt_every = task[3] if len(task) > 3 else 0
    ckpt_key = task[4] if len(task) > 4 else ""
    # Imported lazily: repro.registry imports this package's config
    # module, so a module-level import here would be circular.
    from repro.registry import align

    kwargs = {}
    if ckpt_every > 0:
        from repro.resilience import get_checkpoint_store

        kwargs = {
            "checkpoint_every": ckpt_every,
            "checkpoint_store": get_checkpoint_store(),
            "checkpoint_key": ckpt_key,
            "resume": True,
        }
    result = align(problem, method, config, **kwargs)
    if ckpt_every > 0:
        from repro.resilience import get_checkpoint_store

        get_checkpoint_store().discard(ckpt_key)
    return result


def _solve_one(task: tuple):
    """The unsupervised task body: an outcome envelope, never raises.

    Returns ``("ok", result, "")`` or ``("err", repr, traceback)`` so
    one poisoned problem yields a per-task error in the parent rather
    than aborting the batch.  (The supervised path uses
    :func:`_solve_one_strict` instead — there the *supervisor* owns the
    envelope, and a raised failure is what triggers retry.)
    """
    try:
        return ("ok", _solve_one_strict(task), "")
    except BaseException as exc:  # noqa: BLE001 - envelope boundary
        return ("err", repr(exc), traceback.format_exc())


def solve_many(
    problems: Sequence[NetworkAlignmentProblem],
    method: str = "bp",
    config=None,
    parallel: ParallelConfig | None = None,
    *,
    return_errors: bool = False,
) -> list[AlignmentResult | TaskFailedError]:
    """Align every problem; returns results in input order.

    Parameters
    ----------
    problems:
        Independent alignment instances.
    method:
        Any method known to the solver registry: ``"bp"``,
        ``"klau"``/``"mr"``, ``"isorank"``, or ``"multilevel"``.
    config:
        Optional solver config (the method's config dataclass or a
        mapping for its ``from_dict``), shared by all runs.
    parallel:
        Backend selection; default serial.  Solver-internal events are
        emitted only by backends sharing the parent process (worker
        buses are silenced); the batch itself is traced as an
        ``accel.solve_many`` span either way.  A ``resilience`` config
        here puts every task under supervision.
    return_errors:
        ``False`` (default): raise the first
        :class:`~repro.errors.TaskFailedError` once the whole batch has
        run.  ``True``: never raise per-task — failed positions hold
        their ``TaskFailedError`` in the returned list.
    """
    from repro.registry import get_solver

    spec = get_solver(method)  # raises ConfigurationError when unknown
    parallel = parallel or ParallelConfig()
    res = parallel.resilience
    ckpt_every = 0
    if (res is not None and res.checkpoint_every > 0
            and spec.supports_checkpoint):
        ckpt_every = res.checkpoint_every
    from repro.resilience import active_fault_plan

    supervised = res is not None or active_fault_plan() is not None
    bus = get_bus()
    with bus.trace(
        "accel.solve_many", method=spec.name, backend=parallel.backend,
        n_problems=len(problems),
    ):
        if ckpt_every > 0:
            tasks = [
                (p, spec.name, config, ckpt_every,
                 f"solve_many:{spec.name}:{i}")
                for i, p in enumerate(problems)
            ]
        else:
            tasks = [(p, spec.name, config) for p in problems]
        if supervised:
            from repro.resilience import supervised_map

            outcomes = supervised_map(_solve_one_strict, tasks, parallel)
            envelopes = [
                ("ok", o.value, "") if o.ok
                else ("err", str(o.error), o.error.remote_traceback)
                for o in outcomes
            ]
        else:
            envelopes = parallel_map(_solve_one, tasks, parallel)
    results: list[AlignmentResult | TaskFailedError] = []
    first_error: TaskFailedError | None = None
    for index, envelope in enumerate(envelopes):
        status, payload, remote_tb = envelope
        if status == "ok":
            results.append(payload)
            continue
        error = TaskFailedError(
            f"solve_many task {index} ({spec.name}) failed: {payload}",
            task_index=index,
            remote_traceback=remote_tb,
        )
        results.append(error)
        if first_error is None:
            first_error = error
    if first_error is not None and not return_errors:
        raise first_error
    return results
