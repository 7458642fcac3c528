"""The event schema: every event type the instrumentation can emit.

An :class:`Event` is a flat record — a type name, a monotonically
increasing sequence number (total order within one process), a wall-clock
timestamp, and a dict of typed fields.  The schema is *closed*: only the
types registered in :data:`EVENT_TYPES` may be emitted, and each type
declares the fields that must be present.  ``docs/observability.md``
documents the same schema for humans; ``tests/test_docs_consistency.py``
asserts the two never drift apart.

Event types
-----------

``span_start`` / ``span_end``
    Span-style tracing (:meth:`repro.observe.bus.EventBus.trace`): marks
    the begin/end of a named region (an alignment run, a simulation).
``iteration``
    One solver iteration — the event-stream twin of
    :class:`repro.core.result.IterationRecord` (``method`` plus the
    record's fields); emitted by
    :func:`repro.core.result.record_iteration` on behalf of
    ``core/bp.py``, ``core/klau.py`` and ``core/isorank.py``.
``rounding``
    One rounding call (heuristic vector → matching → objective);
    emitted by ``core/rounding.py``.
``matching``
    One bipartite-matching invocation; emitted by every matching
    substrate (``exact``, ``locally_dominant``, ``suitor``, ``greedy``,
    ``auction``).
``trace_replay``
    Machine-simulator activity: a replayed parallel loop, a whole
    simulated iteration, or a captured iteration trace; emitted by
    ``machine/runtime.py`` and ``machine/trace.py``.
``barrier``
    One simulated OpenMP barrier (fork/join + log-tree wait); emitted by
    ``machine/runtime.py``.
``metric``
    A metrics-registry snapshot row, published via
    :meth:`repro.observe.metrics.MetricsRegistry.publish`.
``fault_injected``
    One fired chaos fault from an armed
    :class:`repro.resilience.FaultPlan`; emitted at every consultation
    point (``resilience/faults.py``).
``task_retry``
    One supervised retry of a failed or timed-out task, with the
    backoff it slept; emitted by ``resilience/supervise.py``.
``backend_degraded``
    One taken step down the execution-backend degradation ladder;
    emitted by ``resilience/degrade.py``.
``checkpoint``
    One saved :class:`repro.resilience.SolverCheckpoint`; emitted by
    ``resilience/checkpoint.py`` on behalf of BP and Klau.
``delta_applied``
    One applied :class:`repro.incremental.ProblemDelta` edit script,
    with the edit volume and how much cached structure was recomputed;
    emitted by ``incremental/delta.py``.
``active_set_size``
    One incremental-BP iteration's active-set restriction (how many of
    the ``m`` L edges were updated, and whether the iteration fell back
    to a full sweep); emitted by the warm path in ``core/bp.py``.  The
    first one of a warm run reports the edit's footprint: the seed
    :func:`repro.incremental.state.seed_from_warm` computed.

>>> validate_event("iteration", {
...     "method": "bp", "iteration": 1, "objective": 2.0,
...     "weight_part": 1.0, "overlap_part": 1.0,
...     "upper_bound": float("nan"), "source": "y", "gamma": 0.99,
... })
>>> try:
...     validate_event("no_such_event", {})
... except Exception as exc:
...     print(type(exc).__name__)
ObservabilityError
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import ObservabilityError

__all__ = ["Event", "EVENT_TYPES", "validate_event"]


#: The closed event schema: event type → fields required at emission.
#: Emitters may attach extra (optional) fields; required ones are checked.
EVENT_TYPES: dict[str, tuple[str, ...]] = {
    "span_start": ("name", "span"),
    "span_end": ("name", "span", "seconds"),
    "iteration": (
        "method", "iteration", "objective", "weight_part",
        "overlap_part", "upper_bound", "source", "gamma",
    ),
    "rounding": (
        "source", "iteration", "matcher", "objective",
        "weight_part", "overlap_part", "cardinality",
    ),
    "matching": ("algorithm", "cardinality", "weight", "rounds"),
    "trace_replay": ("kind", "step", "seconds"),
    "barrier": ("step", "n_threads", "seconds"),
    "metric": ("metric", "metric_kind", "labels", "value"),
    "fault_injected": ("site", "kind", "task_index"),
    "task_retry": (
        "site", "task_index", "attempt", "backend", "reason", "backoff_s",
    ),
    "backend_degraded": ("site", "from_backend", "to_backend", "reason"),
    "checkpoint": ("method", "iteration", "key"),
    "delta_applied": (
        "structural", "l_added", "l_dropped", "l_reweighted",
        "graph_edited", "rows_recomputed", "n_edges_old", "n_edges_new",
    ),
    "active_set_size": ("iteration", "active", "total", "full_sweep"),
}


@dataclass(frozen=True)
class Event:
    """One emitted observation.

    ``seq`` is assigned by the emitting bus and is strictly increasing,
    so sorting by ``seq`` recovers emission order even when wall-clock
    timestamps collide.
    """

    type: str
    seq: int
    time: float
    fields: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """Flatten to one JSON-serializable dict (JSONL row shape).

        >>> Event("barrier", 3, 0.0,
        ...       {"step": "othermax", "n_threads": 4, "seconds": 1e-6}
        ...       ).to_dict()["step"]
        'othermax'
        """
        row: dict[str, Any] = {
            "type": self.type, "seq": self.seq, "time": self.time,
        }
        row.update(self.fields)
        return row

    @classmethod
    def from_dict(cls, row: Mapping[str, Any]) -> "Event":
        """Inverse of :meth:`to_dict` (used by the JSONL reader)."""
        fields = {
            k: v for k, v in row.items() if k not in ("type", "seq", "time")
        }
        return cls(
            type=str(row["type"]), seq=int(row["seq"]),
            time=float(row["time"]), fields=fields,
        )


def validate_event(type_name: str, fields: Mapping[str, Any]) -> None:
    """Raise :class:`~repro.errors.ObservabilityError` on a schema breach."""
    required = EVENT_TYPES.get(type_name)
    if required is None:
        raise ObservabilityError(
            f"unknown event type {type_name!r}; "
            f"known types: {sorted(EVENT_TYPES)}"
        )
    missing = [f for f in required if f not in fields]
    if missing:
        raise ObservabilityError(
            f"event {type_name!r} is missing required fields {missing}"
        )
