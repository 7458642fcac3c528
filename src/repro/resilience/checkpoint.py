"""Checkpoint/resume for the iterative solvers.

Both solvers are naturally restartable: BP's full state between
iterations is three message vectors (**y**, **z**, **S**:sup:`(k)`) and
Klau's is the multiplier vector **U** plus three step-control scalars.
A :class:`SolverCheckpoint` snapshots exactly that — the iterate arrays
(copied), the :class:`~repro.core.result.BestTracker` contents, and the
iteration history — every ``checkpoint_every`` iterations, so a
supervised retry after a mid-solve crash *warm-resumes* from the last
snapshot instead of recomputing from iteration 1.  Resume is
bit-identical to the uninterrupted run: BP checkpoints only at batch
flush boundaries (no pending rounding work is ever lost), damping uses
the absolute iteration number, and Klau's step-control scalars
(``gamma``, ``best_upper``, ``stall``) ride along.

:class:`CheckpointStore` is an in-memory, thread-safe keyed store.  The
process-default store (:func:`get_checkpoint_store`) is what
``solve_many``'s supervised retries read: a retry that runs in the same
process as the crashed attempt (the serial rung — where retries land
after degradation) finds the snapshot under its task key.
Checkpoints do not cross process boundaries: a process-pool retry on a
*different* worker cold-starts (documented limitation; the snapshot
arrays live where the solver ran).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import re
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.observe import get_bus

__all__ = [
    "CheckpointStore",
    "FileCheckpointStore",
    "SolverCheckpoint",
    "get_checkpoint_store",
]


@dataclass(frozen=True)
class SolverCheckpoint:
    """One resumable solver snapshot.

    ``state`` maps state names to copies of the solver's arrays and
    scalars (the contract per method is documented in
    ``docs/resilience.md``); ``iteration`` is the last *completed*
    iteration, so resume starts at ``iteration + 1``.
    """

    method: str
    iteration: int
    state: dict[str, Any] = field(default_factory=dict)

    @staticmethod
    def snapshot_tracker(tracker: Any) -> dict[str, Any]:
        """Copy a :class:`~repro.core.result.BestTracker` into plain state."""
        return {
            "best_objective": tracker.best_objective,
            "best_weight_part": tracker.best_weight_part,
            "best_overlap_part": tracker.best_overlap_part,
            "best_matching": tracker.best_matching,
            "best_vector": (
                None if tracker.best_vector is None
                else tracker.best_vector.copy()
            ),
            "best_source": tracker.best_source,
            "best_iteration": tracker.best_iteration,
        }

    @staticmethod
    def restore_tracker(tracker: Any, state: dict[str, Any]) -> None:
        """Inverse of :meth:`snapshot_tracker`, in place."""
        tracker.best_objective = state["best_objective"]
        tracker.best_weight_part = state["best_weight_part"]
        tracker.best_overlap_part = state["best_overlap_part"]
        tracker.best_matching = state["best_matching"]
        vec = state["best_vector"]
        tracker.best_vector = None if vec is None else np.array(
            vec, dtype=np.float64, copy=True
        )
        tracker.best_source = state["best_source"]
        tracker.best_iteration = state["best_iteration"]


class CheckpointStore:
    """Thread-safe keyed snapshot store (latest snapshot wins per key)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._snapshots: dict[str, SolverCheckpoint] = {}

    def save(self, key: str, checkpoint: SolverCheckpoint) -> None:
        """Store ``checkpoint`` under ``key`` and publish the event."""
        with self._lock:
            self._snapshots[key] = checkpoint
        bus = get_bus()
        if bus.active:
            bus.emit(
                "checkpoint", method=checkpoint.method,
                iteration=checkpoint.iteration, key=key,
            )
            bus.metrics.counter(
                "repro_checkpoints_total", method=checkpoint.method
            ).inc()

    def load(self, key: str) -> SolverCheckpoint | None:
        """The latest snapshot under ``key``, or ``None``."""
        with self._lock:
            return self._snapshots.get(key)

    def discard(self, key: str) -> None:
        """Forget ``key`` (e.g. after its solve completed cleanly)."""
        with self._lock:
            self._snapshots.pop(key, None)

    def clear(self) -> None:
        """Forget every snapshot."""
        with self._lock:
            self._snapshots.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._snapshots)


class FileCheckpointStore(CheckpointStore):
    """A :class:`CheckpointStore` that also persists snapshots to disk.

    Snapshots live as one pickle file per key under ``directory`` and
    survive process restarts — the durability layer the persistent job
    store (:mod:`repro.serve.store`) resumes interrupted solves from.
    Writes are atomic (write-to-temp, ``fsync``, rename), so a process
    killed mid-save leaves the previous snapshot intact, never a torn
    file.  The in-memory fast path of the base class is kept: a resume
    in the same process never touches disk.

    Args:
        directory: Where snapshot files live; created if missing.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        super().__init__()
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        """The snapshot file for ``key`` (sanitized, collision-proof)."""
        slug = re.sub(r"[^\w.-]", "_", key)[:80]
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:12]
        return self._dir / f"{slug}-{digest}.ckpt"

    def save(self, key: str, checkpoint: SolverCheckpoint) -> None:
        """Store ``checkpoint`` in memory and atomically on disk."""
        path = self._path(key)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "wb") as fh:
            pickle.dump(checkpoint, fh, protocol=pickle.HIGHEST_PROTOCOL)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        super().save(key, checkpoint)

    def load(self, key: str) -> SolverCheckpoint | None:
        """The latest snapshot under ``key``, reading disk on a miss."""
        hit = super().load(key)
        if hit is not None:
            return hit
        path = self._path(key)
        if not path.is_file():
            return None
        try:
            with open(path, "rb") as fh:
                checkpoint = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError):
            return None
        with self._lock:
            self._snapshots[key] = checkpoint
        return checkpoint

    def discard(self, key: str) -> None:
        """Forget ``key`` in memory and remove its snapshot file."""
        super().discard(key)
        try:
            self._path(key).unlink()
        except OSError:
            pass

    def clear(self) -> None:
        """Forget every snapshot, in memory and on disk."""
        super().clear()
        for path in self._dir.glob("*.ckpt"):
            try:
                path.unlink()
            except OSError:
                pass


#: The process-default store supervised retries warm-resume from.
_DEFAULT_STORE = CheckpointStore()


def get_checkpoint_store() -> CheckpointStore:
    """The process-default :class:`CheckpointStore`."""
    return _DEFAULT_STORE
