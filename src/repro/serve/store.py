"""The persistent job store: a write-ahead journal in SQLite (WAL).

:class:`SqliteJobStore` subclasses :class:`~repro.serve.jobs.JobStore`
and overrides its two persistence hooks, so every job lifecycle
transition — submitted → queued → running → done/failed/cancelled — is
journaled to a single-file SQLite database (stdlib :mod:`sqlite3`,
``journal_mode=WAL``) before or immediately after it takes effect in
memory.  The journal carries everything needed to reconstruct a job:
tenant, method, canonical config, problem digest and wire form, cache
key, deadline, the result envelope or error, and timestamps; a second
``transitions`` table is the append-only audit log.

On construction the store **replays the journal**:

* terminal jobs are rebuilt from their stored result/error and served
  from disk (``done`` results also repopulate the in-memory result
  cache, so a restarted server keeps answering content-address hits);
* queued jobs re-enter the run queue in their original submission
  order, with their quota slots restored;
* jobs that were mid-run when the process died are requeued *ahead* of
  the queued backlog and resume through the checkpoint path — the
  store's :class:`~repro.resilience.FileCheckpointStore` (under
  ``<store_path>/checkpoints``) survives the crash, and the solvers'
  resume contract makes the recovered result bit-identical to an
  uninterrupted run (a cold job that never checkpointed simply
  cold-starts, which is bit-identical too — the solvers are
  deterministic);
* a ``warm_from`` job that was mid-run resumes the same way when its
  ``serve:<id>`` checkpoint is on disk: an incremental snapshot carries
  everything the warm solve needs.  Any other non-terminal ``warm_from``
  job fails with ``warm_unavailable`` — the parent's converged solver
  state lived in the in-memory warm LRU and did not survive the
  process, and re-solving cold would silently change the answer;
* a non-terminal job whose method is no longer registered (a journal
  written by another version) fails with ``bad_request``, as its
  submission would now.

Layout under ``ServeConfig.store_path``: ``jobs.db`` (plus SQLite's
WAL side files) and ``checkpoints/``.  One connection is shared across
the worker threads behind a lock — journal writes are short and the
solver dominates, so contention is negligible (measured <3% of
service time on the durability benchmark, BENCH_10).

:func:`make_store` builds this store whenever ``ServeConfig.store_path``
is set and the in-memory :class:`~repro.serve.jobs.JobStore` otherwise.

:func:`list_jobs` and :func:`gc_jobs` operate on the database file
directly without starting a worker pool — the backing for the
``repro.cli jobs ls`` / ``jobs gc`` admin commands.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError
from repro.observe import get_bus
from repro.serve.config import ServeConfig
from repro.serve.jobs import TERMINAL_STATES, Job, JobStore
from repro.serve.wire import error_envelope, problem_from_wire, \
    problem_to_wire

__all__ = ["SqliteJobStore", "gc_jobs", "list_jobs", "make_store"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id            TEXT PRIMARY KEY,
    tenant        TEXT NOT NULL,
    method        TEXT NOT NULL,
    config        TEXT NOT NULL,
    digest        TEXT NOT NULL,
    key           TEXT NOT NULL,
    warm_from     TEXT,
    parent_digest TEXT,
    state         TEXT NOT NULL,
    cached        INTEGER NOT NULL DEFAULT 0,
    created       REAL NOT NULL,
    started       REAL,
    finished      REAL,
    attempts      INTEGER NOT NULL DEFAULT 0,
    deadline_s    REAL,
    problem       TEXT,
    result        TEXT,
    error         TEXT
);
CREATE TABLE IF NOT EXISTS transitions (
    seq    INTEGER PRIMARY KEY AUTOINCREMENT,
    job_id TEXT NOT NULL,
    state  TEXT NOT NULL,
    at     REAL NOT NULL
);
"""


def _connect(path: Path) -> sqlite3.Connection:
    """Open (and initialize) the journal database at ``path``.

    Args:
        path: The ``jobs.db`` file; parent directories must exist.

    Returns:
        A connection in WAL mode with ``synchronous=NORMAL`` — commits
        survive a process kill (the crash model the store defends
        against); only a whole-OS crash can lose the last write.
    """
    conn = sqlite3.connect(str(path), check_same_thread=False)
    conn.execute("PRAGMA journal_mode=WAL")
    conn.execute("PRAGMA synchronous=NORMAL")
    conn.executescript(_SCHEMA)
    conn.commit()
    return conn


def _json(value: Any) -> str | None:
    """One journal column: compact, key-sorted JSON (``None`` → NULL)."""
    if value is None:
        return None
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class SqliteJobStore(JobStore):
    """A :class:`~repro.serve.jobs.JobStore` journaled to SQLite.

    Args:
        config: The serving policy; ``config.store_path`` names the
            store directory (created if missing).  Recovered ``done``
            results are folded back into the result cache.

    Raises:
        ConfigurationError: ``config.store_path`` is empty (``Path("")``
            is the current directory, which would silently become the
            journal).
    """

    def __init__(self, config: ServeConfig) -> None:
        from repro.resilience import FileCheckpointStore

        if not config.store_path:
            raise ConfigurationError(
                "SqliteJobStore needs a store_path (the store directory); "
                "an empty one would journal into the current directory"
            )
        root = Path(config.store_path)
        root.mkdir(parents=True, exist_ok=True)
        self._db_lock = threading.Lock()
        self._db = _connect(root / "jobs.db")
        self._root = root
        super().__init__(config)
        self.checkpoints = FileCheckpointStore(root / "checkpoints")
        self.recovered: dict[str, int] = {}
        self._recover()

    def describe(self) -> dict[str, Any]:
        """The store's identity for ``/v1/healthz`` (kind, path, totals)."""
        with self._db_lock:
            row = self._db.execute("SELECT COUNT(*) FROM jobs").fetchone()
        return {"kind": "sqlite", "path": str(self._root),
                "journaled_jobs": int(row[0])}

    # -- journal writes ------------------------------------------------
    def _persist_submit(self, job: Job) -> None:
        """Insert the job's full row plus its first transition."""
        with job._lock:
            problem = job.problem
            wire_doc = job._wire_problem
            row = (
                job.id, job.tenant, job.method, _json(job.config),
                job.digest, job.key, job.warm_from, job.parent_digest,
                job.state, int(job.cached), job.created_s, job.started_s,
                job.finished_s, job.attempts, job.deadline_s,
                _json(job.result), _json(job.error),
            )
        if problem is not None and wire_doc is None:
            # The submit path stashes the client's wire dict so the
            # journal write skips rebuilding it from the parsed arrays
            # (which costs more than the insert itself on big problems).
            wire_doc = problem_to_wire(problem)
        wire = None if problem is None else _json(wire_doc)
        with self._db_lock:
            self._db.execute(
                "INSERT OR REPLACE INTO jobs (id, tenant, method, config,"
                " digest, key, warm_from, parent_digest, state, cached,"
                " created, started, finished, attempts, deadline_s,"
                " problem, result, error)"
                " VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)",
                row[:15] + (wire,) + row[15:],
            )
            self._db.execute(
                "INSERT INTO transitions (job_id, state, at) VALUES (?,?,?)",
                (job.id, row[8], time.time()),
            )
            self._db.commit()
        self._count_write("submit")

    def _persist_transition(self, job: Job) -> None:
        """Update the job's row and append one transition record."""
        with job._lock:
            state = job.reported_state
            terminal = job._finished
            row = (state, job.started_s, job.finished_s, job.attempts,
                   _json(job.result), _json(job.error))
        with self._db_lock:
            if terminal:
                # The wire problem is dead weight once a result or
                # error exists; drop it from the journal as the memory
                # store drops the arrays.
                self._db.execute(
                    "UPDATE jobs SET state=?, started=?, finished=?,"
                    " attempts=?, result=?, error=?, problem=NULL"
                    " WHERE id=?",
                    row + (job.id,),
                )
            else:
                self._db.execute(
                    "UPDATE jobs SET state=?, started=?, finished=?,"
                    " attempts=?, result=?, error=? WHERE id=?",
                    row + (job.id,),
                )
            self._db.execute(
                "INSERT INTO transitions (job_id, state, at) VALUES (?,?,?)",
                (job.id, state, time.time()),
            )
            self._db.commit()
        self._count_write("transition")

    def _count_write(self, op: str) -> None:
        """Count one journal write into the bus metrics (when active)."""
        bus = get_bus()
        if bus.active:
            bus.metrics.counter(
                "repro_serve_journal_writes_total", op=op
            ).inc()

    # -- recovery ------------------------------------------------------
    def _recover(self) -> None:
        """Replay the journal into memory (runs once, at construction).

        Populates :attr:`recovered` with per-outcome counts:
        ``terminal`` (served from disk), ``queued`` (re-entered the
        queue), ``requeued`` (interrupted mid-run, resuming via
        checkpoint), ``failed`` (non-terminal warm jobs with no
        checkpoint to resume from, whose parent state died with the
        process, and non-terminal jobs of an unregistered method).
        """
        from repro.registry import available_methods

        methods = available_methods()
        with self._db_lock:
            rows = self._db.execute(
                "SELECT id, tenant, method, config, digest, key,"
                " warm_from, parent_digest, state, cached, created,"
                " started, finished, attempts, deadline_s, problem,"
                " result, error FROM jobs ORDER BY rowid"
            ).fetchall()
        counts = {"terminal": 0, "queued": 0, "requeued": 0, "failed": 0}
        requeue: list[str] = []
        enqueue: list[str] = []
        for row in rows:
            (job_id, tenant, method, config, digest, key, warm_from,
             parent_digest, state, cached, created, started, finished,
             attempts, deadline_s, problem, result, error) = row
            job = Job(job_id, tenant, method, json.loads(config), None,
                      digest, key, warm_from=warm_from,
                      parent_digest=parent_digest, deadline_s=deadline_s)
            job.created_s = created
            job.started_s = started
            job.attempts = attempts or 0
            job.cached = bool(cached)
            job.recovered = True
            if state in TERMINAL_STATES:
                job.result = None if result is None else json.loads(result)
                job.error = None if error is None else json.loads(error)
                job.end(state, finished)
                if state == "done" and job.result is not None:
                    self.cache.put(job.key, job.result)
                counts["terminal"] += 1
            elif warm_from is not None and not (
                state == "running"
                and self.checkpoints.load(f"serve:{job_id}") is not None
            ):
                # The parent's warm state lived in the in-memory LRU;
                # it did not survive the restart, and no checkpoint of
                # this job's own warm solve did either.
                job.error = error_envelope(
                    "warm_unavailable",
                    f"job {job_id} was recovered after a restart, but "
                    f"the warm state of its parent {warm_from!r} did "
                    f"not survive the process; resubmit cold",
                )
                job.end("failed")
                self._persist_transition(job)
                counts["failed"] += 1
            elif state == "cancelling":
                # Honor the pre-crash cancellation instead of finishing
                # the solve nobody wants anymore.
                job.end("cancelled")
                self._persist_transition(job)
                counts["terminal"] += 1
            elif method not in methods:
                job.error = error_envelope(
                    "bad_request",
                    f"job {job_id} was recovered after a restart, but "
                    f"its method {method!r} is not registered; expected "
                    f"one of {methods}",
                )
                job.end("failed")
                self._persist_transition(job)
                counts["failed"] += 1
            else:
                if problem is not None:
                    job.problem = problem_from_wire(json.loads(problem))
                job._frames.append({"type": "state", "state": "queued"})
                self.quotas.restore(tenant)
                if state == "running":
                    job.state = "queued"
                    job.started_s = None
                    requeue.append(job_id)
                    self._persist_transition(job)
                    counts["requeued"] += 1
                else:
                    enqueue.append(job_id)
                    counts["queued"] += 1
            with self._lock:
                self._jobs[job_id] = job
        with self._lock:
            # Interrupted jobs go first: they already waited once.
            for job_id in requeue + enqueue:
                self._queue.append(job_id)
            self._cond.notify_all()
        self.recovered = counts
        bus = get_bus()
        if bus.active:
            for outcome, n in counts.items():
                if n:
                    bus.metrics.counter(
                        "repro_serve_recovered_jobs_total", outcome=outcome
                    ).inc(n)

    # -- lifecycle -----------------------------------------------------
    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the workers and close the journal.

        Unlike the memory store, queued jobs are *not* cancelled: they
        stay journaled as ``queued`` and re-enter the queue when the
        next process opens the same ``store_path`` — shutting down a
        persistent store loses nothing.

        Args:
            timeout: Total join budget for the worker pool.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._queue.clear()
            self._cond.notify_all()
        deadline = time.monotonic() + timeout
        for t in self._workers:
            t.join(max(0.0, deadline - time.monotonic()))
        with self._db_lock:
            self._db.commit()
            self._db.close()


def make_store(config: ServeConfig) -> JobStore:
    """Build the job store ``config.store_path`` selects.

    Args:
        config: The serving policy; a ``store_path`` builds the
            persistent :class:`SqliteJobStore` rooted there, an empty
            one the plain in-memory :class:`~repro.serve.jobs.JobStore`.

    Returns:
        The constructed store (recovery already replayed for sqlite).
    """
    if config.store_path:
        return SqliteJobStore(config)
    return JobStore(config)


def list_jobs(store_path: str) -> list[dict[str, Any]]:
    """Read the journal's job rows without starting a worker pool.

    The backing for ``repro.cli jobs ls``: opens the database under
    ``store_path`` read-only-in-spirit (no schema changes beyond
    ``CREATE IF NOT EXISTS``) and returns one summary dict per job in
    submission order.

    Args:
        store_path: A store directory previously used by a server.

    Returns:
        Dicts with ``id``, ``tenant``, ``method``, ``state``,
        ``cached``, ``created``, ``finished``, ``attempts``.
    """
    conn = _connect(Path(store_path) / "jobs.db")
    try:
        rows = conn.execute(
            "SELECT id, tenant, method, state, cached, created, finished,"
            " attempts FROM jobs ORDER BY rowid"
        ).fetchall()
    finally:
        conn.close()
    return [
        {"id": r[0], "tenant": r[1], "method": r[2], "state": r[3],
         "cached": bool(r[4]), "created": r[5], "finished": r[6],
         "attempts": r[7]}
        for r in rows
    ]


def gc_jobs(store_path: str, older_than_s: float = 0.0) -> int:
    """Delete terminal jobs (and their journal rows) from a store.

    The backing for ``repro.cli jobs gc``.  Only terminal jobs are
    eligible — queued and interrupted jobs are exactly what the journal
    exists to preserve.  Any leftover checkpoint snapshot for a
    collected job is removed too.

    Args:
        store_path: A store directory previously used by a server.
        older_than_s: Only collect jobs whose terminal transition is at
            least this many seconds old (``0`` collects every terminal
            job).

    Returns:
        The number of jobs deleted.
    """
    from repro.resilience import FileCheckpointStore

    cutoff = time.time() - older_than_s
    conn = _connect(Path(store_path) / "jobs.db")
    try:
        placeholders = ",".join("?" for _ in TERMINAL_STATES)
        rows = conn.execute(
            f"SELECT id FROM jobs WHERE state IN ({placeholders})"
            f" AND COALESCE(finished, 0) <= ?",
            TERMINAL_STATES + (cutoff,),
        ).fetchall()
        ids = [r[0] for r in rows]
        if ids:
            id_marks = ",".join("?" for _ in ids)
            conn.execute(
                f"DELETE FROM jobs WHERE id IN ({id_marks})", ids)
            conn.execute(
                f"DELETE FROM transitions WHERE job_id IN ({id_marks})",
                ids)
            conn.commit()
    finally:
        conn.close()
    checkpoints = FileCheckpointStore(Path(store_path) / "checkpoints")
    for job_id in ids:
        checkpoints.discard(f"serve:{job_id}")
    return len(ids)
