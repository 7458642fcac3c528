"""The locally-dominant rounds kernel and its group plans.

The paper's §V matcher is already a *round* algorithm — every round, each
still-active vertex does local work against the state left by the
previous round, then all updates commit at a barrier.
:func:`locally_dominant_rounds` runs those rounds as segmented array
operations (``reduceat`` plus mutual-pointer detection): per round, a
segmented argmax over still-free vertices (heavier edge wins; equal
weights prefer the smaller vertex id), then every mutually-pointing pair
commits at once.  It is the implementation behind the ``"approx"``
matcher (:func:`repro.matching.locally_dominant
.locally_dominant_matching_vectorized`), and reports the same
:class:`~repro.matching.result.RoundStats` stream the machine simulator
replays through
:func:`repro.machine.trace.matching_to_trace`.  An interpreted version
of the same rounds lives in ``tests/oracles.py``; the tests pin the
kernel's mates and round stats against it.

FindMate only ever takes a positive edge, and the vectors BP rounds are
mostly non-positive (about one positive entry per A- and B-group, the
"other max" structure of its messages).  So each call compacts the plan
to its positive half-edges once and runs the rounds there; when every
half-edge is positive (BP's first iterate) it uses the plan as it is.
The work per call grows with the positive half-edges, plus, in
productive rounds after the first, the full adjacency of the vertices
the previous round matched, which the stats need.  The
:class:`~repro.matching.result.RoundStats` are unchanged: they model the
paper's full-adjacency FindMate scans.

A :class:`GroupPlan` is the kernel's view of L as a general graph: it
wraps :attr:`~repro.sparse.bipartite.BipartiteGraph.general_view`, which
the graph builds once and shares with its ``with_weights`` views, so
iterative solvers that round the same L every iteration convert it once
and per-call weights are one gather.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import asarray_f64, concat_ranges
from repro.errors import DimensionError
from repro.matching.result import RoundStats
from repro.sparse.bipartite import BipartiteGraph

__all__ = ["GroupPlan", "locally_dominant_rounds"]


# ----------------------------------------------------------------------
# Group plans
# ----------------------------------------------------------------------

@dataclass
class GroupPlan:
    """Precomputed segmented-reduction structure of a general graph.

    ``indptr``/``neighbors`` is the half-edge CSR adjacency over ``n``
    vertices, each row's neighbors in increasing order (the kernel's
    tie-break relies on it), and ``degrees`` its row lengths.  The first
    ``n_a`` vertices are L's A side and ``half_eid`` maps half-edges
    back to L edge ids (so per-call weights are one gather).
    """

    n: int
    indptr: np.ndarray
    neighbors: np.ndarray
    degrees: np.ndarray
    half_eid: np.ndarray

    @property
    def n_half(self) -> int:
        """Number of half-edges (2·|E| for a bipartite plan)."""
        return len(self.neighbors)

    @classmethod
    def from_graph(cls, graph: BipartiteGraph) -> "GroupPlan":
        """The plan of a bipartite L: its held general-graph view, whose
        rows already list their neighbors in increasing order."""
        indptr, neighbors, half_eid = graph.general_view
        return cls(n=len(indptr) - 1, indptr=indptr, neighbors=neighbors,
                   degrees=np.diff(indptr), half_eid=half_eid)


def _check_half_weights(plan: GroupPlan, hw: np.ndarray) -> np.ndarray:
    hw = asarray_f64(hw)
    if hw.shape != (plan.n_half,):
        raise DimensionError("half_weights has wrong length")
    return hw


# ----------------------------------------------------------------------
# Locally-dominant rounds (paper §V, Algorithm 1 in rounds form)
# ----------------------------------------------------------------------

def _stale_scan(plan: GroupPlan, newly: np.ndarray, free: np.ndarray) -> int:
    """Full-plan degrees summed over the free neighbours of ``newly``.

    This is the FindMate work the queue algorithm attributes to a round:
    every free vertex next to a newly matched one rescans its whole
    adjacency, whatever the sign of the edges it scans.
    """
    nhidx, _ = concat_ranges(plan.indptr[newly], plan.indptr[newly + 1])
    stale = np.zeros(plan.n, dtype=bool)
    stale[plan.neighbors[nhidx]] = True
    return int(plan.degrees[stale & free].sum())


def locally_dominant_rounds(
    plan: GroupPlan,
    half_weights: np.ndarray,
    *,
    collect_rounds: bool = True,
) -> tuple[np.ndarray, np.ndarray, list[RoundStats]]:
    """Vectorized locally-dominant matching over a general graph.

    Each round recomputes, for every still-free vertex, its heaviest
    free positive neighbor (ties to the smaller id) with segmented
    reductions, then commits every mutually-pointing pair at once.
    Returns the symmetric mate array (``-1`` = unmatched), the plan
    half-edge each matched vertex took (``-1`` = unmatched) and the
    per-round stats.

    FindMate only ever takes a positive edge, so the rounds run on the
    plan compacted to its positive half-edges, built once per call (when
    every half-edge is positive the plan's own arrays are used).  The
    work per call grows with the positive half-edges, plus, in
    productive rounds after the first, the full adjacency of the
    vertices the previous round matched: the stats need it.  The
    :class:`RoundStats` are those of the paper's full-adjacency FindMate
    (this round's scans are the whole adjacency of every free vertex
    next to a newly matched one), which the machine simulator replays.
    """
    n = plan.n
    mate = np.full(n, -1, dtype=np.int64)
    took = np.full(n, -1, dtype=np.int64)
    rounds: list[RoundStats] = []
    if plan.n_half == 0:
        return mate, took, rounds
    hw = _check_half_weights(plan, half_weights)
    positive = hw > 0.0
    if positive.all():
        kept = None
        indptr, neighbors, weights = plan.indptr, plan.neighbors, hw
    else:
        kept = np.flatnonzero(positive)
        indptr = np.searchsorted(kept, plan.indptr)  # positives before
        neighbors = plan.neighbors[kept]
        weights = hw[kept]
    neg_inf = -np.inf

    # Incremental FindMate: a vertex's candidate only changes when a
    # positive neighbor's free status does, and every such vertex is
    # marked stale when the neighbor matches — so each round recomputes
    # candidates for the stale frontier only.  The interpreted oracle
    # recomputes every free vertex each round; the results are identical
    # because a non-stale vertex's recomputation sees an unchanged
    # positive neighborhood.
    free = np.ones(n, dtype=bool)
    candidate = np.full(n, -1, dtype=np.int64)
    cand_half = np.zeros(n, dtype=np.int64)  # half-edge to the candidate
    stale = np.zeros(n, dtype=bool)
    # Round 0 scans every vertex with a positive edge: every half-edge.
    work = np.flatnonzero(indptr[1:] > indptr[:-1])
    hidx = np.arange(len(neighbors))
    counts = indptr[work + 1] - indptr[work]
    round_index = 0
    queue_size = int(n)  # phase-1 "queue" is every vertex
    while True:
        if len(work):
            starts = np.cumsum(counts) - counts
            masked = np.where(free[neighbors[hidx]], weights[hidx], neg_inf)
            seg_max = np.maximum.reduceat(masked, starts)
            # Rows list their neighbors in increasing order, so the first
            # half-edge at the segment max has the smallest neighbor id.
            # Every segment attains its max, so ``pick`` is a half-edge.
            at_max = masked == np.repeat(seg_max, counts)
            pick = np.minimum.reduceat(
                np.where(at_max, hidx, len(neighbors)), starts
            )
            candidate[work] = np.where(seg_max > neg_inf, neighbors[pick], -1)
            cand_half[work] = pick
        idx = np.flatnonzero(free & (candidate >= 0))
        cand = candidate[idx]
        mutual = candidate[cand] == idx
        new_lo = idx[mutual & (idx < cand)]
        if len(new_lo) == 0:
            break
        new_hi = candidate[new_lo]
        if collect_rounds:
            if round_index == 0:
                rescans = plan.n_half  # every vertex scans its adjacency
            elif kept is None:
                rescans = int(plan.degrees[work].sum())
            else:
                rescans = _stale_scan(plan, newly, free)
            rounds.append(
                RoundStats(
                    round_index=round_index,
                    queue_size=queue_size,
                    vertices_matched=2 * len(new_lo),
                    adjacency_scanned=rescans,
                    atomics=2 * len(new_lo),
                )
            )
        newly = np.concatenate([new_lo, new_hi])
        mate[new_lo] = new_hi
        mate[new_hi] = new_lo
        took[newly] = cand_half[newly]
        free[newly] = False
        # Only vertices joined to a newly matched one by a positive edge
        # can lose their candidate.
        nhidx, _ = concat_ranges(indptr[newly], indptr[newly + 1])
        stale[:] = False
        stale[neighbors[nhidx]] = True
        work = np.flatnonzero(stale & free)
        hidx, counts = concat_ranges(indptr[work], indptr[work + 1])
        queue_size = len(newly)
        round_index += 1

    if kept is not None:
        matched = took >= 0
        took[matched] = kept[took[matched]]
    return mate, took, rounds
