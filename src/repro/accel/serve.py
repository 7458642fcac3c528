"""Batch serving: schedule whole alignment instances across the pool.

``solve_many`` is the unit of work a traffic-serving deployment sees: a
list of independent problems to align.  Each problem is solved through
the :mod:`repro.registry` facade (the same dispatch as
:func:`repro.align`), so every registered method — ``bp``, ``klau``
(alias ``mr``), ``isorank`` — is available; the backend
only decides *where* the runs execute.  Results come back in input
order.

Every batch runs on :func:`repro.resilience.supervised_map`, and every
task — here and in the job server (:mod:`repro.serve.jobs`) — runs
:func:`solve_task`.

Failure isolation: one poisoned problem does not abort the batch.  By
default the first failure raises :class:`~repro.errors.TaskFailedError`
(carrying the task index and the remote traceback) *after* every other
task has run; with ``return_errors=True`` the failure comes back
in-band — the result list holds the :class:`TaskFailedError` at the
failed task's position instead of raising.

Supervision: a :class:`~repro.resilience.ResilienceConfig` on
``parallel`` adds per-task timeouts, retries with backoff, dead-worker
requeue, and the ``process → serial`` degradation ladder.  When its
``checkpoint_every`` is set, each solve snapshots its iterate state into
the process-default :class:`~repro.resilience.CheckpointStore` under a
key scoped to the call, so a supervised retry that runs in the same
process (the serial rung) warm-resumes from the last snapshot instead
of recomputing from iteration 1.  The batch discards its keys when it
returns, so no later batch resumes from them.

The process backend ships each problem to a worker by pickle.  Lazily
derived structures (the squares matrix) are built in the worker if the
caller has not forced them, so the parent does not pay for them twice.
"""

from __future__ import annotations

import secrets
from typing import Any, Sequence

from repro import registry
from repro.accel.config import ParallelConfig
from repro.core.problem import NetworkAlignmentProblem
from repro.core.result import AlignmentResult
from repro.errors import TaskFailedError
from repro.observe import get_bus
from repro.resilience.checkpoint import get_checkpoint_store
from repro.resilience.supervise import supervised_map

__all__ = ["solve_many", "solve_task"]


def solve_task(task: tuple) -> AlignmentResult:
    """The one task body: align one problem, raising on failure.

    ``task`` is ``(problem, method, config, checkpoint_every,
    checkpoint_key, checkpoint_store=None, warm_state=None,
    keep_state=False)``; :func:`solve_many` sends the first five fields,
    the job server all eight.

    When the method supports checkpointing, the solve snapshots every
    ``checkpoint_every`` iterations (``0``: never) under
    ``checkpoint_key`` in ``checkpoint_store`` (``None``: the
    process-default store of the process the task runs in), and
    ``resume=True`` warm-resumes from whatever an earlier crashed
    attempt — or a crashed *process*, for a
    :class:`~repro.resilience.FileCheckpointStore` — left there; a clean
    finish discards the key.  A ``warm_state``
    (:class:`~repro.incremental.WarmState`) seeds the solve
    incrementally via ``warm_from``; an incremental snapshot under the
    key takes precedence over it, and resumes the warm solve even after
    a restart lost the warm state.  ``keep_state`` asks the solver to
    attach its converged messages so the result can itself become a
    warm parent.

    Raises:
        Exception: Whatever the solver raises — the supervisor owns the
            retry decision.
    """
    return _solve(*task)


def _solve(
    problem: NetworkAlignmentProblem,
    method: str,
    config: Any,
    checkpoint_every: int,
    checkpoint_key: str,
    checkpoint_store: Any = None,
    warm_state: Any = None,
    keep_state: bool = False,
) -> AlignmentResult:
    kwargs: dict[str, Any] = {}
    if warm_state is not None:
        kwargs["warm_from"] = warm_state
    if keep_state:
        kwargs["keep_state"] = True
    checkpointing = registry.get_solver(method).supports_checkpoint
    if checkpointing:
        if checkpoint_store is None:
            checkpoint_store = get_checkpoint_store()
        kwargs.update(checkpoint_every=checkpoint_every,
                      checkpoint_store=checkpoint_store,
                      checkpoint_key=checkpoint_key, resume=True)
    # Looked up on the module per call, so a wrapper installed on
    # ``repro.registry.align`` sees every solve.
    result = registry.align(problem, method, config, **kwargs)
    if checkpointing:
        checkpoint_store.discard(checkpoint_key)
    return result


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
        ``"klau"``/``"mr"`` or ``"isorank"``.
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
    spec = registry.get_solver(method)  # ConfigurationError when unknown
    parallel = parallel or ParallelConfig()
    res = parallel.resilience
    ckpt_every = res.checkpoint_every if res is not None else 0
    # A random batch token keeps this call's keys apart from every
    # other call's, earlier, concurrent or later.
    batch = secrets.token_hex(4)
    keys = [f"solve_many:{spec.name}:{batch}:{i}"
            for i in range(len(problems))]
    tasks = [
        (p, spec.name, config, ckpt_every, key)
        for p, key in zip(problems, keys)
    ]
    try:
        with get_bus().trace(
            "accel.solve_many", method=spec.name, backend=parallel.backend,
            n_problems=len(problems),
        ):
            outcomes = supervised_map(solve_task, tasks, parallel)
    finally:
        if spec.supports_checkpoint:
            store = get_checkpoint_store()
            for key in keys:
                store.discard(key)
    if not return_errors:
        for outcome in outcomes:
            outcome.unwrap()
    return [o.value if o.ok else o.error for o in outcomes]
