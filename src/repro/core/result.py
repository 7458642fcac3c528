"""Result containers for the alignment methods."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.matching.result import MatchingResult

__all__ = [
    "IterationRecord", "AlignmentResult", "BestTracker", "record_iteration",
]


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration diagnostics.

    ``objective`` is the rounded lower bound at this iteration (the best
    of the vectors rounded here); ``upper_bound`` is Klau's per-iteration
    upper bound (``NaN`` for BP, which has none); ``source`` names the
    heuristic vector that was rounded ("wbar", "y", "z").
    """

    iteration: int
    objective: float
    weight_part: float
    overlap_part: float
    upper_bound: float
    source: str
    gamma: float


def record_iteration(
    history: list[IterationRecord],
    record: IterationRecord,
    method: str,
    bus: Any,
    best_objective: float | None = None,
    count: int = 1,
) -> None:
    """Append ``record`` to ``history`` and publish it.

    The one emitter of ``iteration`` events (for BP, Klau and IsoRank):
    each event is ``method`` plus the record's fields, so the event
    schema and the record cannot drift apart.  With sinks attached it
    also adds ``count`` iterations to ``repro_solver_iterations_total``
    and, when given, sets the ``repro_best_objective`` gauge.
    """
    history.append(record)
    if bus.active:
        bus.emit("iteration", method=method, **vars(record))
        bus.metrics.counter(
            "repro_solver_iterations_total", method=method
        ).inc(count)
        if best_objective is not None:
            bus.metrics.gauge(
                "repro_best_objective", method=method
            ).set(best_objective)


@dataclass
class BestTracker:
    """Tracks the best rounded solution seen, per Table I's round_heuristic.

    Keeps the full heuristic vector ``g`` that produced the best rounded
    objective so the caller can re-round it exactly at the end (§VII:
    "we perform one final step of exact maximum weight matching").
    """

    best_objective: float = -np.inf
    best_weight_part: float = 0.0
    best_overlap_part: float = 0.0
    best_matching: MatchingResult | None = None
    best_vector: np.ndarray | None = None
    best_source: str = ""
    best_iteration: int = -1

    def offer(
        self,
        objective: float,
        weight_part: float,
        overlap_part: float,
        matching: MatchingResult,
        vector: np.ndarray,
        source: str,
        iteration: int,
    ) -> bool:
        """Record a candidate; return True if it became the new best."""
        if objective > self.best_objective:
            self.best_objective = objective
            self.best_weight_part = weight_part
            self.best_overlap_part = overlap_part
            self.best_matching = matching
            self.best_vector = vector.copy()
            self.best_source = source
            self.best_iteration = iteration
            return True
        return False

    def result(
        self,
        polished: tuple[float, float, float, MatchingResult] | None,
        history: list[IterationRecord],
        best_upper_bound: float,
        method: str,
        params: dict[str, Any],
    ) -> "AlignmentResult":
        """Package the run around the best rounded solution.

        ``polished`` is the final exact rounding of :attr:`best_vector`
        as ``(objective, weight_part, overlap_part, matching)``, or
        ``None`` when the run skips it; it replaces the best solution
        when it scores at least as well.
        """
        best = (self.best_objective, self.best_weight_part,
                self.best_overlap_part, self.best_matching)
        if polished is not None and polished[0] >= best[0]:
            best = polished
        objective, weight_part, overlap_part, matching = best
        return AlignmentResult(
            matching=matching, objective=objective, weight_part=weight_part,
            overlap_part=overlap_part, best_upper_bound=best_upper_bound,
            history=history, method=method, params=params,
        )


@dataclass
class AlignmentResult:
    """Outcome of one alignment run.

    Attributes
    ----------
    matching:
        The returned matching (after the optional final exact rounding).
    objective, weight_part, overlap_part:
        Objective value and its two components for ``matching``.
    best_upper_bound:
        Klau's best (smallest) upper bound, ``inf`` for BP.
    history:
        One :class:`IterationRecord` per iteration.
    method, params:
        Provenance for reports.
    """

    matching: MatchingResult
    objective: float
    weight_part: float
    overlap_part: float
    best_upper_bound: float
    history: list[IterationRecord] = field(default_factory=list)
    method: str = ""
    params: dict[str, Any] = field(default_factory=dict)
    #: Final message state (``{"y", "z", "sk"}``) captured when the run
    #: was asked to keep it (``keep_state=True``); feeds warm
    #: realignment (:mod:`repro.incremental`).  ``None`` otherwise.
    solver_state: dict[str, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def iterations(self) -> int:
        """Number of iterations executed."""
        return len(self.history)

    def objective_trace(self) -> np.ndarray:
        """Per-iteration rounded objective values."""
        return np.array([r.objective for r in self.history])

    def upper_bound_trace(self) -> np.ndarray:
        """Per-iteration upper bounds (Klau) as an array."""
        return np.array([r.upper_bound for r in self.history])

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.method}: objective={self.objective:.4f} "
            f"(weight={self.weight_part:.4f}, overlap={self.overlap_part:.0f}) "
            f"after {self.iterations} iterations, "
            f"|M|={self.matching.cardinality}"
        )
