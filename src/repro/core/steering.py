"""Computational steering of alignments (paper §IX).

The paper motivates its speedup with interactive use: *"given the result
of a network alignment problem, users may want to fix certain problematic
alignments by removing potential matches from L and recompute."*  This
module provides exactly that workflow:

* :func:`forbid_pairs` — remove candidate edges from L;
* :func:`pin_pairs` — force chosen pairs into every solution (their
  endpoints' other candidates are removed, the pinned edge is kept);
* :class:`SteeringSession` — an iterative wrapper: solve → inspect →
  pin/forbid → re-solve, tracking the constraint history.

Both edits are :class:`~repro.incremental.ProblemDelta` edit scripts
applied by :func:`~repro.incremental.apply_delta`, so a cached squares
matrix **S** is maintained rather than rebuilt, and each edit emits a
``delta_applied`` event.  Pinning *restricts* L rather than playing
weight tricks, so any matcher and either method can be used unchanged,
and pinned pairs are guaranteed to be matchable (they have no
competitors left).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro._util import numeric_rows, vertex_ids
from repro.core.bp import BPConfig, belief_propagation_align
from repro.core.klau import KlauConfig, klau_align
from repro.core.problem import NetworkAlignmentProblem
from repro.core.result import AlignmentResult
from repro.errors import ConfigurationError, ValidationError
from repro.incremental.delta import ProblemDelta, apply_delta
from repro.sparse.bipartite import BipartiteGraph

__all__ = ["forbid_pairs", "pin_pairs", "SteeringSession"]


def _edge_ids(
    problem: NetworkAlignmentProblem, pairs: Iterable[tuple[int, int]],
    verb: str,
) -> np.ndarray:
    """L edge ids of ``(a, b)`` pairs; a pair with a non-integer id or
    that is not a candidate edge raises (a typo'd pin or forbid should
    not pass silently, nor truncate ``2.7`` to vertex 2)."""
    rows = numeric_rows(list(pairs), 2)
    ab = None if rows is None else vertex_ids(rows)
    if ab is None:
        raise ValidationError(
            f"cannot {verb} pairs that are not (a, b) integer vertex ids")
    eids = problem.ell.lookup_edges(ab[:, 0], ab[:, 1])
    if (eids < 0).any():
        bad = [tuple(p) for p in ab[eids < 0].tolist()]
        raise ValidationError(f"cannot {verb} non-candidate pairs {bad[:5]}")
    return eids


def _edges(ell: BipartiteGraph, eids: np.ndarray) -> np.ndarray:
    """The ``(a, b)`` rows of L edges ``eids``."""
    return np.column_stack([ell.edge_a[eids], ell.edge_b[eids]])


def forbid_pairs(
    problem: NetworkAlignmentProblem, pairs: Iterable[tuple[int, int]]
) -> NetworkAlignmentProblem:
    """Return a problem with the given ``(a, b)`` candidate edges removed.

    Unknown pairs are rejected loudly; a pair named twice is removed once.
    """
    eids = np.unique(_edge_ids(problem, pairs, "forbid"))
    if not len(eids):
        return problem
    delta = ProblemDelta(l_drop=_edges(problem.ell, eids))
    return apply_delta(problem, delta)[0]


def pin_pairs(
    problem: NetworkAlignmentProblem, pairs: Iterable[tuple[int, int]]
) -> NetworkAlignmentProblem:
    """Return a problem where each given pair is forced into the solution.

    All other candidates incident on a pinned vertex (on either side) are
    removed; the pinned edge remains the unique, strictly positive choice
    for its endpoints (a weight below ``1e-6`` is lifted to ``1e-6``), so
    every matcher selects it.
    """
    eids = _edge_ids(problem, pairs, "pin")
    if not len(eids):
        return problem
    ell = problem.ell
    a, b = ell.edge_a[eids], ell.edge_b[eids]
    if len(np.unique(a)) != len(a) or len(np.unique(b)) != len(b):
        raise ConfigurationError("pinned pairs must be vertex-disjoint")
    lift = eids[ell.weights[eids] < 1e-6]
    delta = ProblemDelta(
        l_drop=_edges(ell, np.setdiff1d(ell.incident_edges(a, b), eids)),
        l_reweight=_edges(ell, lift),
        l_reweight_w=np.full(len(lift), 1e-6),
    )
    return apply_delta(problem, delta)[0]


@dataclass
class SteeringSession:
    """Iterative solve → inspect → constrain → re-solve loop (§IX).

    Parameters
    ----------
    problem:
        The starting alignment problem.
    method:
        ``"bp"`` or ``"mr"``.
    config:
        Optional method config (defaults favor the fast approximate
        rounding — the interactive setting is the whole point of the
        paper's speedup).
    """

    problem: NetworkAlignmentProblem
    method: str = "bp"
    config: BPConfig | KlauConfig | None = None
    history: list[AlignmentResult] = field(default_factory=list)
    pinned: list[tuple[int, int]] = field(default_factory=list)
    forbidden: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.method not in ("bp", "mr"):
            raise ConfigurationError(f"unknown method {self.method!r}")
        if self.config is None:
            self.config = (
                BPConfig(n_iter=50, matcher="approx")
                if self.method == "bp"
                else KlauConfig(n_iter=50, matcher="approx")
            )

    def solve(self) -> AlignmentResult:
        """Solve the current (constrained) problem and record the result."""
        if self.method == "bp":
            result = belief_propagation_align(self.problem, self.config)
        else:
            result = klau_align(self.problem, self.config)
        self.history.append(result)
        return result

    def pin(self, pairs: Sequence[tuple[int, int]]) -> None:
        """Force pairs into all subsequent solutions."""
        self.problem = pin_pairs(self.problem, pairs)
        self.pinned.extend((int(a), int(b)) for a, b in pairs)

    def forbid(self, pairs: Sequence[tuple[int, int]]) -> None:
        """Remove candidate pairs from all subsequent solutions."""
        self.problem = forbid_pairs(self.problem, pairs)
        self.forbidden.extend((int(a), int(b)) for a, b in pairs)

    @property
    def latest(self) -> AlignmentResult:
        """The most recent result."""
        if not self.history:
            raise ConfigurationError("no solve() has been run yet")
        return self.history[-1]

    def disagreements(
        self, reference_mate_a: np.ndarray
    ) -> list[tuple[int, int, int]]:
        """Pairs where the latest solution differs from a reference.

        Returns ``(a, solved_b, reference_b)`` triples — the natural
        worklist for an analyst deciding what to pin or forbid.
        """
        mate = self.latest.matching.mate_a
        out = []
        for a in np.flatnonzero(mate != reference_mate_a).tolist():
            out.append((a, int(mate[a]), int(reference_mate_a[a])))
        return out
