"""The job store: queue, worker pool, progress capture, lifecycle.

A job moves ``queued → running → done | failed | cancelled`` (plus the
virtual ``cancelling`` the status document shows when cancellation was
requested against a running solve).  The store owns:

* the **submission path** — wire decoding, admission control
  (:mod:`repro.serve.quotas`), the content-addressed cache lookup
  (:mod:`repro.serve.cache`), and job creation;
* the **worker pool** — plain threads draining a deque.  Each job
  executes through :func:`repro.resilience.supervised_map` at site
  ``"serve.job"`` on the serial rung, which (a) runs the solver on the
  worker's own thread so progress events can be attributed to the job,
  (b) gives every job the retry/backoff machinery, and (c) — with
  ``checkpoint_every`` set — lets a crashed attempt *warm-resume* from
  its last :class:`~repro.resilience.SolverCheckpoint` instead of
  recomputing from iteration 1 (the key is ``serve:{job_id}``, in the
  process-default :class:`~repro.resilience.CheckpointStore`);
* **progress capture** — while a job runs, a :class:`_JobProgressSink`
  subscribes to the process-default observe bus and keeps only events
  emitted from the job's worker thread, translating ``iteration`` /
  ``checkpoint`` / ``task_retry`` events into the NDJSON progress
  frames ``GET /jobs/{id}/events`` streams.

Cancellation is cooperative: a *queued* job is removed before it ever
starts; a *running* job cannot be preempted (the solvers have no abort
hook), so it is marked, runs to completion, and its result is dropped
and never cached.

Jobs can also realign **incrementally**: a submission carrying
``warm_from: "<job_id>"`` re-solves its (perturbed) problem starting
from the named job's converged solver state
(:class:`~repro.incremental.WarmState`), kept in a bounded LRU
(:class:`_WarmStore`, ``ServeConfig.warm_entries``).  Warm results get
their own cache lineage — the parent's cache key is folded into the
child's — so a warm solve and a cold solve of the same problem never
answer from each other's cache entry, and both the status document and
the result payload carry ``warm_from`` / ``parent_digest`` so warm
results stay distinguishable.

Three operational layers ride on top of the lifecycle:

* **persistence hooks** — every lifecycle transition funnels through
  ``_persist_submit`` / ``_persist_transition``, no-ops here and
  overridden by :class:`repro.serve.store.SqliteJobStore` to journal
  the job to disk (``ServeConfig.store="sqlite"``), which is what makes
  restart recovery possible;
* **deadlines** — a submission may carry ``deadline_s`` (seconds from
  admission); a queued job past its deadline fails without running, and
  a running one is aborted cooperatively at its next progress event
  (the error code is ``deadline_exceeded``);
* **drain** — :meth:`JobStore.drain` stops admission (submissions
  answer 503 ``draining``) and waits for in-flight work to settle, the
  graceful half of SIGTERM handling.  :meth:`JobStore.retry_after`
  turns an EWMA of observed service times into the ``Retry-After``
  hint backpressure responses carry.
"""

from __future__ import annotations

import math
import secrets
import threading
import time
from collections import deque
from typing import Any, Mapping

from repro.accel.config import ParallelConfig
from repro.errors import ValidationError
from repro.observe import get_bus
from repro.resilience.config import ResilienceConfig
from repro.serve.cache import ResultCache
from repro.serve.config import ServeConfig
from repro.serve.quotas import AdmissionError, TenantQuotas
from repro.serve.wire import (
    cache_key,
    error_envelope,
    problem_digest,
    problem_from_wire,
    result_to_wire,
)

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "Job",
    "JobStore",
    "WarmUnavailableError",
]

#: Every state a job document can report, in lifecycle order.
JOB_STATES = ("queued", "running", "cancelling", "done", "failed",
              "cancelled")
#: The states that end a job (set its terminal event, release its slot).
TERMINAL_STATES = ("done", "failed", "cancelled")


def _clean(value: Any) -> Any:
    """Make one frame field JSON-strict (non-finite floats → ``None``)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


class WarmUnavailableError(ValidationError):
    """A ``warm_from`` submission names no usable warm state.

    Raised when the referenced job is unknown, not ``done``, was a pure
    cache hit (no solver ran, so no state was captured), its state has
    been evicted from the warm LRU (or ``warm_entries=0`` disables the
    store), the method does not support warm realignment, or the warm
    state's vertex sets do not match the submitted problem.  The server
    maps this to HTTP 400 with error code ``warm_unavailable``.
    """


class _WarmStore:
    """A bounded LRU of per-job warm solver states, keyed by job id.

    Every successfully *executed* (not cache-answered) job of a
    warm-capable method deposits its converged
    :class:`~repro.incremental.WarmState` here, so any recent job can be
    the parent of an incremental realignment.  Eviction is
    least-recently-used over both reads and writes; ``capacity=0``
    disables the store.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._states: dict[str, tuple[Any, str]] = {}

    def put(self, job_id: str, state: Any, key: str) -> None:
        """Store ``(state, parent_cache_key)``, evicting the oldest."""
        if self.capacity <= 0:
            return
        with self._lock:
            self._states.pop(job_id, None)
            self._states[job_id] = (state, key)
            while len(self._states) > self.capacity:
                self._states.pop(next(iter(self._states)))

    def get(self, job_id: str) -> tuple[Any, str] | None:
        """Fetch ``(state, parent_cache_key)``; refreshes LRU order."""
        with self._lock:
            hit = self._states.pop(job_id, None)
            if hit is not None:
                self._states[job_id] = hit
            return hit

    def stats(self) -> dict[str, int]:
        """Occupancy report for ``/healthz``."""
        with self._lock:
            return {"entries": len(self._states),
                    "capacity": self.capacity}


class Job:
    """One submitted alignment job and everything observed about it.

    Fields are written by the submitting thread and one worker thread;
    the job's lock guards all mutable state, and ``_terminal`` (a
    :class:`threading.Event`) supports ``?wait=1`` submissions.
    """

    def __init__(self, job_id: str, tenant: str, method: str,
                 config: dict[str, Any], problem: Any, digest: str,
                 key: str, warm_from: str | None = None,
                 parent_digest: str | None = None,
                 warm_state: Any | None = None,
                 deadline_s: float | None = None) -> None:
        self.id = job_id
        self.tenant = tenant
        self.method = method
        self.config = config
        self.problem = problem
        self.digest = digest
        self.key = key
        self.warm_from = warm_from
        self.parent_digest = parent_digest
        self.warm_state = warm_state
        self.deadline_s = deadline_s
        self.state = "queued"
        self.cached = False
        self.cancel_requested = False
        self.recovered = False
        self.created_s = time.time()
        self.started_s: float | None = None
        self.finished_s: float | None = None
        self.attempts = 0
        self.iterations = 0
        self.last_objective: float | None = None
        self.result: dict[str, Any] | None = None
        self.error: dict[str, Any] | None = None
        self._lock = threading.Lock()
        self._frames: list[dict[str, Any]] = []
        self._terminal = threading.Event()
        self._finished = False
        self._deadline_hit = False
        # One-shot stash of the submission's raw wire problem so a
        # journaling store can serialize it without rebuilding the wire
        # form from the parsed arrays; cleared right after the submit
        # journal write.
        self._wire_problem: Any | None = None

    # -- progress frames ----------------------------------------------
    def add_frame(self, frame: dict[str, Any]) -> None:
        """Append one NDJSON progress frame (thread-safe)."""
        with self._lock:
            self._frames.append(frame)

    def frames_since(self, start: int) -> list[dict[str, Any]]:
        """Frames appended at or after index ``start`` (a snapshot)."""
        with self._lock:
            return self._frames[start:]

    @property
    def terminal(self) -> bool:
        """Whether the job reached ``done``/``failed``/``cancelled``."""
        return self._terminal.is_set()

    def deadline_expired(self) -> bool:
        """Whether the job's ``deadline_s`` budget has run out."""
        return (self.deadline_s is not None
                and time.time() - self.created_s > self.deadline_s)

    def wait_terminal(self, timeout: float | None = None) -> bool:
        """Block until terminal; ``False`` if ``timeout`` expired first."""
        return self._terminal.wait(timeout)

    # -- documents -----------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """The status document ``GET /jobs/{id}`` returns.

        Returns:
            A JSON-ready dict; ``state`` reports the virtual
            ``"cancelling"`` while a running job has cancellation
            pending.
        """
        with self._lock:
            state = self.state
            if state == "running" and self.cancel_requested:
                state = "cancelling"
            doc: dict[str, Any] = {
                "id": self.id,
                "state": state,
                "method": self.method,
                "config": self.config,
                "tenant": self.tenant,
                "problem_digest": self.digest,
                "warm_from": self.warm_from,
                "parent_digest": self.parent_digest,
                "cached": self.cached,
                "created": self.created_s,
                "started": self.started_s,
                "finished": self.finished_s,
                "attempts": self.attempts,
                "deadline_s": self.deadline_s,
                "progress": {
                    "iterations": self.iterations,
                    "objective": _clean(self.last_objective),
                },
            }
            if self.error is not None:
                doc["error"] = self.error["error"]
            return doc


class _DeadlineExceeded(RuntimeError):
    """Raised from the progress sink to abort a job past its deadline."""


class _JobProgressSink:
    """Observe-bus sink keeping only the owning worker thread's events.

    The process-default bus is shared by every concurrent job; filtering
    on :func:`threading.get_ident` of the thread that runs this job's
    solve (the serial supervision rung executes in the worker thread
    itself) attributes each event stream to exactly one job.

    The sink is also the cooperative cancellation point for per-job
    deadlines: ``write`` runs synchronously on the solver thread, so
    raising :class:`_DeadlineExceeded` here unwinds the solve at the
    next progress event (the solvers have no abort hook of their own).
    """

    def __init__(self, job: Job, thread_ident: int) -> None:
        self._job = job
        self._ident = thread_ident

    def write(self, event: Any) -> None:
        """Translate one bus event into a progress frame (or drop it)."""
        if threading.get_ident() != self._ident:
            return
        if event.type == "iteration" and self._job.deadline_expired():
            # Raising on the solver thread (bus sinks run synchronously)
            # unwinds the solve; ``_run`` maps the failure to the
            # ``deadline_exceeded`` error code via the flag.
            self._job._deadline_hit = True
            raise _DeadlineExceeded(
                f"job {self._job.id} exceeded its deadline of "
                f"{self._job.deadline_s:g}s"
            )
        f = event.fields
        if event.type == "iteration":
            frame = {
                "type": "iteration",
                "iteration": f["iteration"],
                "objective": _clean(f["objective"]),
                "weight_part": _clean(f["weight_part"]),
                "overlap_part": _clean(f["overlap_part"]),
                "upper_bound": _clean(f["upper_bound"]),
            }
            with self._job._lock:
                self._job.iterations = f["iteration"]
                self._job.last_objective = f["objective"]
                self._job._frames.append(frame)
        elif event.type == "checkpoint":
            self._job.add_frame(
                {"type": "checkpoint", "iteration": f["iteration"]}
            )
        elif event.type == "task_retry":
            self._job.add_frame({
                "type": "retry", "attempt": f["attempt"],
                "reason": f["reason"], "backoff_s": f["backoff_s"],
            })

    def close(self) -> None:
        """Nothing to release (frames live on the job)."""


def _execute_job_task(task: tuple) -> Any:
    """Supervised task body: one alignment solve with checkpoint wiring.

    Args:
        task: ``(problem, method, config, checkpoint_every, key,
            ckpt_store, warm_state, keep_state)``.  When the method
            supports checkpointing and the config is
            :func:`~repro.resilience.checkpoint.checkpointable` (a
            stateful matcher is not: such jobs run without
            checkpoints), the solve snapshots every
            ``checkpoint_every`` iterations (``0``: never) under
            ``key`` in ``ckpt_store`` (the job store's checkpoint store
            — the process-default one, or a
            :class:`~repro.resilience.FileCheckpointStore` under a
            persistent job store) and ``resume=True`` warm-resumes from
            whatever an earlier crashed attempt — or a crashed
            *process*, for the file-backed store — left there; a clean
            finish discards the key.  A ``warm_state``
            (:class:`~repro.incremental.WarmState`) seeds the solve
            incrementally via ``warm_from``; an incremental snapshot
            under ``key`` takes precedence over it, and resumes the
            warm solve even after a restart lost the warm state.
            ``keep_state`` asks the solver to attach its converged
            messages so the job can itself become a warm parent.

    Returns:
        The :class:`~repro.core.result.AlignmentResult`.

    Raises:
        Exception: Whatever the solver raises — the supervisor owns the
            retry decision.
    """
    (problem, method, config, ckpt_every, ckpt_key, ckpt_store,
     warm_state, keep) = task
    from repro.registry import align, get_solver
    from repro.resilience.checkpoint import checkpointable

    spec = get_solver(method)
    kwargs: dict[str, Any] = {}
    if warm_state is not None:
        kwargs["warm_from"] = warm_state
    checkpointing = spec.supports_checkpoint and checkpointable(
        spec.config_cls.from_dict(config))
    if checkpointing:
        kwargs.update(checkpoint_every=ckpt_every,
                      checkpoint_store=ckpt_store,
                      checkpoint_key=ckpt_key, resume=True)
    if keep:
        kwargs["keep_state"] = True
    result = align(problem, method, config, **kwargs)
    if checkpointing:
        ckpt_store.discard(ckpt_key)
    return result


class JobStore:
    """Owns every job, the run queue, and the worker pool.

    Args:
        config: The serving policy (worker count, bounds, supervision).
        cache: Optional externally owned :class:`ResultCache` (the
            server shares one across its lifetime); built from
            ``config.cache_entries`` when omitted.
    """

    def __init__(self, config: ServeConfig,
                 cache: ResultCache | None = None) -> None:
        self.config = config
        self.cache = cache if cache is not None else ResultCache(
            config.cache_entries)
        self.quotas = TenantQuotas(config.max_queue,
                                   config.max_active_per_tenant)
        self.warm = _WarmStore(config.warm_entries)
        from repro.resilience import get_checkpoint_store

        self.checkpoints = get_checkpoint_store()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._jobs: dict[str, Job] = {}
        self._queue: deque[str] = deque()
        self._closed = False
        self._draining = False
        self._ewma_s: float | None = None
        self._workers = [
            threading.Thread(target=self._worker_loop,
                             name=f"serve-worker-{i}", daemon=True)
            for i in range(config.workers)
        ]
        for t in self._workers:
            t.start()

    # -- submission ----------------------------------------------------
    def submit(self, doc: Mapping[str, Any], tenant: str) -> Job:
        """Admit one job submission (the body of ``POST /jobs``).

        Args:
            doc: The decoded request body: ``method`` (default
                ``"bp"``), optional ``config`` mapping, the wire
                ``problem``, and optional ``warm_from`` (a prior job id
                whose converged solver state seeds this solve).
            tenant: The submitting tenant (``X-Tenant`` header).

        Returns:
            The created :class:`Job` — already terminal with
            ``cached=True`` on a content-address hit, else queued.

        Raises:
            ConfigurationError: Unknown method or bad config fields.
            WarmUnavailableError: ``warm_from`` names no usable state.
            ValidationError: Malformed problem document.
            AdmissionError: Queue full, tenant over quota, problem over
                the ``max_edges_l`` size gate, or the store is draining
                (``code="draining"``, mapped to HTTP 503).
        """
        if not isinstance(doc, Mapping):
            raise ValidationError("request body must be a JSON object")
        if self._draining or self._closed:
            raise AdmissionError(
                "draining",
                "server is draining and no longer admits jobs; "
                "retry against a fresh instance",
                tenant,
            )
        from repro.registry import canonical_config, get_solver

        method = doc.get("method", "bp")
        if not isinstance(method, str):
            raise ValidationError("'method' must be a string")
        spec = get_solver(method)
        config = canonical_config(method, doc.get("config"))
        if "problem" not in doc:
            raise ValidationError("request body is missing 'problem'")
        problem = problem_from_wire(doc["problem"])
        if 0 < self.config.max_edges_l < problem.n_edges_l:
            raise AdmissionError(
                "too_large",
                f"problem has {problem.n_edges_l} candidate edges; this "
                f"server accepts at most {self.config.max_edges_l}",
                tenant,
            )
        digest = problem_digest(problem)
        key = cache_key(spec.name, digest, config)
        warm_from, parent_digest, warm_state, parent_key = (
            self._resolve_warm(doc.get("warm_from"), spec, problem)
        )
        if warm_from is not None:
            # Fold the parent's cache key into the child's: a warm solve
            # and a cold solve of the same problem are distinct results.
            key = f"{key}|warm:{parent_key}"
        deadline_s = doc.get("deadline_s")
        if deadline_s is not None:
            if not isinstance(deadline_s, (int, float)) or \
                    isinstance(deadline_s, bool) or deadline_s <= 0:
                raise ValidationError(
                    "'deadline_s' must be a positive number of seconds"
                )
            deadline_s = float(deadline_s)
        job_id = "j-" + secrets.token_hex(6)
        job = Job(job_id, tenant, spec.name, config, problem, digest, key,
                  warm_from=warm_from, parent_digest=parent_digest,
                  warm_state=warm_state, deadline_s=deadline_s)

        hit = self.cache.get(key)
        if hit is not None:
            job.result = dict(hit)
            job.result["warm_from"] = warm_from
            job.result["parent_digest"] = parent_digest
            job.cached = True
            job.problem = None  # the arrays are not needed again
            job.warm_state = None
            self._finish(job, "done", release=False)
            with self._lock:
                self._jobs[job_id] = job
            self._persist_submit(job)
            return job

        self.quotas.acquire(tenant)
        job.add_frame({"type": "state", "state": "queued"})
        job._wire_problem = doc["problem"]
        with self._lock:
            self._jobs[job_id] = job
        # Journal before the job becomes runnable: a worker must never
        # pick up a submission the write-ahead journal does not know.
        self._persist_submit(job)
        job._wire_problem = None
        with self._lock:
            self._queue.append(job_id)
            self._cond.notify()
        return job

    def _resolve_warm(
        self, warm_from: Any, spec: Any, problem: Any
    ) -> tuple[str | None, str | None, Any | None, str | None]:
        """Resolve a submission's ``warm_from`` member to a warm state.

        Args:
            warm_from: The raw ``warm_from`` member (``None`` = cold).
            spec: The resolved :class:`~repro.registry.SolverSpec`.
            problem: The submitted problem (vertex-set compatibility).

        Returns:
            ``(warm_from, parent_digest, warm_state, parent_key)`` —
            all ``None`` for a cold submission.

        Raises:
            ValidationError: ``warm_from`` is not a string.
            WarmUnavailableError: No usable state under that job id.
        """
        if warm_from is None:
            return None, None, None, None
        if not isinstance(warm_from, str):
            raise ValidationError("'warm_from' must be a job-id string")
        if not spec.supports_warm:
            raise WarmUnavailableError(
                f"method {spec.name!r} does not support warm realignment"
            )
        hit = self.warm.get(warm_from)
        if hit is None:
            raise WarmUnavailableError(
                f"no warm state for job {warm_from!r} (unknown id, job "
                "not done, answered from cache, or state evicted)"
            )
        state, parent_key = hit
        n_a, n_b = problem.a_graph.n, problem.b_graph.n
        if (state.n_a, state.n_b) != (n_a, n_b):
            raise WarmUnavailableError(
                f"warm state of job {warm_from!r} is over a "
                f"{state.n_a}x{state.n_b} vertex set; the submitted "
                f"problem is {n_a}x{n_b}"
            )
        return warm_from, state.digest, state, parent_key

    # -- lookup / cancel ----------------------------------------------
    def get(self, job_id: str) -> Job | None:
        """The job under ``job_id``, or ``None``."""
        with self._lock:
            return self._jobs.get(job_id)

    def cancel(self, job_id: str) -> str | None:
        """Cancel a job (the body of ``DELETE /jobs/{id}``).

        Args:
            job_id: The job to cancel.

        Returns:
            The resulting state — ``"cancelled"`` for a queued job
            (removed before it starts), ``"cancelling"`` for a running
            one (marked; its result will be dropped), ``"conflict"``
            for an already-terminal job — or ``None`` when unknown.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if job.terminal:
                return "conflict"
            if job.state == "queued":
                try:
                    self._queue.remove(job_id)
                except ValueError:
                    pass
            else:
                job.cancel_requested = True
                self._persist_transition(job)
                return "cancelling"
        self._finish(job, "cancelled")
        return "cancelled"

    def queue_depth(self) -> int:
        """Jobs currently waiting for a worker (the scrape-time gauge)."""
        with self._lock:
            return len(self._queue)

    def jobs(self) -> list[Job]:
        """Every known job, in submission order."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.created_s)

    @property
    def closed(self) -> bool:
        """Whether :meth:`shutdown` has begun (streams should end)."""
        return self._closed

    @property
    def draining(self) -> bool:
        """Whether the store has stopped admitting submissions."""
        return self._draining or self._closed

    def describe(self) -> dict[str, Any]:
        """The store's identity for ``/healthz`` (kind, persistence)."""
        return {"kind": "memory", "path": None}

    # -- persistence hooks ---------------------------------------------
    def _persist_submit(self, job: Job) -> None:
        """Journal a newly admitted job (no-op for the memory store)."""

    def _persist_transition(self, job: Job) -> None:
        """Journal a lifecycle transition (no-op for the memory store)."""

    # -- backpressure / drain ------------------------------------------
    def retry_after(self) -> int:
        """Seconds a rejected client should wait before retrying.

        Computed from the observed service rate: an exponentially
        weighted moving average of per-job service times, multiplied by
        the queue depth ahead of the client and divided across the
        worker pool.  Before any job has finished, a one-second floor
        answers — there is no observation to extrapolate from.
        """
        with self._lock:
            depth = len(self._queue)
            ewma = self._ewma_s
        if ewma is None:
            return 1
        workers = max(self.config.workers, 1)
        return max(1, math.ceil((depth + 1) * ewma / workers))

    def drain(self, timeout: float = 10.0) -> bool:
        """Stop admitting jobs and wait for in-flight work to settle.

        New submissions reject with the ``draining`` error code (HTTP
        503) the moment this is called; queued and running jobs are
        given ``timeout`` seconds to finish.  Jobs still unfinished when
        the budget runs out stay journaled in their current state —
        under a persistent store the next process recovers them, which
        is the graceful half of SIGTERM handling.

        Args:
            timeout: Wall-clock budget for the settle phase.

        Returns:
            ``True`` when every job reached a terminal state in time.
        """
        with self._lock:
            self._draining = True
            active = [job for job in self._jobs.values()
                      if not job.terminal]
        deadline = time.monotonic() + timeout
        for job in active:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not job.wait_terminal(remaining):
                return False
        return True

    def counts(self) -> dict[str, int]:
        """Jobs per state (the ``/healthz`` occupancy report)."""
        out = {state: 0 for state in JOB_STATES}
        with self._lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            out[job.snapshot()["state"]] += 1
        return out

    # -- execution -----------------------------------------------------
    def _worker_loop(self) -> None:
        """One worker thread: pop, run, repeat until shutdown."""
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if self._closed:
                    return
                job_id = self._queue.popleft()
                job = self._jobs[job_id]
            self._run(job)

    def _run(self, job: Job) -> None:
        """Execute one job under supervision on this worker thread."""
        with self._lock:
            if job.cancel_requested:
                cancelled = True
            else:
                cancelled = False
                job.state = "running"
                job.started_s = time.time()
        if cancelled:
            self._finish(job, "cancelled")
            return
        if job.deadline_expired():
            # The budget ran out while the job sat in the queue; fail
            # it without wasting a worker on a doomed solve.
            job.error = error_envelope(
                "deadline_exceeded",
                f"job {job.id} spent its {job.deadline_s:g}s deadline "
                f"waiting in the queue",
            )
            self._finish(job, "failed")
            return
        job.add_frame({"type": "state", "state": "running"})
        self._persist_transition(job)
        resilience = ResilienceConfig(
            timeout_s=self.config.timeout_s,
            max_retries=self.config.max_retries,
        )
        parallel = ParallelConfig(backend="serial", resilience=resilience)
        from repro.registry import get_solver

        keep = (self.config.warm_entries > 0
                and get_solver(job.method).supports_warm)
        task = (job.problem, job.method, job.config,
                self.config.checkpoint_every, f"serve:{job.id}",
                self.checkpoints, job.warm_state, keep)
        bus = get_bus()
        sink = _JobProgressSink(job, threading.get_ident())
        bus.add_sink(sink)
        try:
            from repro.resilience import supervised_map

            outcome = supervised_map(
                _execute_job_task, [task], parallel, site="serve.job"
            )[0]
        finally:
            bus.remove_sink(sink)
        job.attempts = outcome.attempts
        if not outcome.ok:
            if job._deadline_hit:
                job.error = error_envelope(
                    "deadline_exceeded",
                    f"job {job.id} exceeded its deadline of "
                    f"{job.deadline_s:g}s while running",
                    {"attempts": outcome.attempts},
                )
            else:
                job.error = error_envelope(
                    "internal", str(outcome.error.message),
                    {"attempts": outcome.attempts},
                )
            self._finish(job, "failed")
            return
        payload = result_to_wire(outcome.value)
        payload["warm_from"] = job.warm_from
        payload["parent_digest"] = job.parent_digest
        if job.cancel_requested:
            # The solve could not be preempted; honor the cancellation
            # by dropping (and never caching) its result.
            self._finish(job, "cancelled")
            return
        if keep and outcome.value.solver_state is not None:
            from repro.incremental import WarmState

            self.warm.put(
                job.id,
                WarmState.from_result(job.problem, outcome.value,
                                      digest=job.digest),
                job.key,
            )
        job.result = payload
        self.cache.put(job.key, payload)
        self._finish(job, "done")

    def _finish(self, job: Job, state: str, release: bool = True) -> None:
        """Move ``job`` to a terminal state exactly once.

        The final ``state`` frame is appended *before* the terminal
        event is set: a client streaming ``/jobs/{id}/events`` that
        observes ``job.terminal`` is therefore guaranteed to find the
        closing frame on its last drain instead of a truncated stream.
        """
        with self._lock:
            if job._finished:
                return
            job._finished = True
            job.state = state
            job.finished_s = time.time()
            if job.started_s is not None:
                span = job.finished_s - job.started_s
                self._ewma_s = span if self._ewma_s is None else (
                    0.7 * self._ewma_s + 0.3 * span
                )
            job.problem = None  # free the arrays; the wire result remains
            job.warm_state = None
        job.add_frame({"type": "state", "state": state})
        job._terminal.set()
        self._persist_transition(job)
        if release:
            self.quotas.release(job.tenant)
        bus = get_bus()
        if bus.active:
            bus.metrics.counter(
                "repro_serve_jobs_total", state=state
            ).inc()

    # -- lifecycle -----------------------------------------------------
    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the workers: cancel queued jobs, join the pool.

        The join budget is *shared* across the pool (one deadline, not
        ``timeout`` per thread), so shutdown latency is bounded no
        matter how many workers are configured, and every worker that
        exits in time has flushed its job's final NDJSON frames —
        ``_finish`` appends them before the terminal event, so no
        stream observed through the store truncates mid-drain.

        Args:
            timeout: Total join budget for the whole pool; a worker
                mid-solve finishes its job before exiting (solves
                cannot be preempted).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending = [self._jobs[j] for j in self._queue]
            self._queue.clear()
            self._cond.notify_all()
        for job in pending:
            self._finish(job, "cancelled")
        deadline = time.monotonic() + timeout
        for t in self._workers:
            t.join(max(0.0, deadline - time.monotonic()))
