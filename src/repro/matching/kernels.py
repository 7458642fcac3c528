"""The locally-dominant rounds kernel and its cached group plans.

The paper's §V matcher is already a *round* algorithm — every round, each
still-active vertex does local work against the state left by the
previous round, then all updates commit at a barrier.
:func:`locally_dominant_rounds` runs those rounds as segmented array
operations (``reduceat`` plus mutual-pointer detection): per round, a
segmented argmax over still-free vertices (heavier edge wins; equal
weights prefer the smaller vertex id), then every mutually-pointing pair
commits at once.  It is the implementation behind the ``"approx"``
matcher (:func:`repro.matching.locally_dominant
.locally_dominant_matching_vectorized`) and the multilevel coarsener
(:func:`repro.matching.locally_dominant.locally_dominant_mates`), and
reports the same :class:`~repro.matching.result.RoundStats` stream the
machine simulator replays through
:func:`repro.machine.trace.matching_to_trace`.  An interpreted version
of the same rounds lives in ``tests/oracles.py``; the tests pin the
kernel's mates and round stats against it.

FindMate only ever takes a positive edge, and the vectors BP rounds are
mostly non-positive (about one positive entry per A- and B-group, the
"other max" structure of its messages).  So each call compacts the plan
to its positive half-edges once and runs the rounds there; when every
half-edge is positive (BP's first iterate, the coarsener's heavy-edge
weights) it uses the plan as it is.  The work per call grows with the
positive half-edges, plus, in productive rounds after the first, the
full adjacency of the vertices the previous round matched, which the
stats need.  The :class:`~repro.matching.result.RoundStats` are
unchanged: they model the paper's full-adjacency FindMate scans.

Group plans
-----------

Feeding L to a general-graph matcher costs an ``as_general_graph()``
conversion plus the segmented-reduction index arrays — pure structure,
independent of the weights.  Iterative solvers round the *same* L with
drifting weights every iteration (BP rounds ``2×batch`` vectors per
flush; Klau rounds twice per step), so :func:`get_plan` memoizes that
structure in a small LRU keyed by the identity of the endpoint arrays
(the :class:`~repro.matching.warm.ExactMatcher` idiom — ``with_weights``
views share endpoint arrays and therefore share the plan).  Unlike the
warm matcher's key, the cached plan holds strong references to the
arrays it is keyed on, so an entry can never alias a collected graph
whose ``id()`` was reused.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro._util import asarray_f64, asarray_i64, concat_ranges
from repro.errors import DimensionError
from repro.matching.result import RoundStats
from repro.observe import get_bus
from repro.sparse.bipartite import BipartiteGraph

__all__ = [
    "GroupPlan",
    "get_plan",
    "clear_plan_cache",
    "plan_cache_stats",
    "locally_dominant_rounds",
]


# ----------------------------------------------------------------------
# Group plans
# ----------------------------------------------------------------------

@dataclass
class GroupPlan:
    """Precomputed segmented-reduction structure of a general graph.

    ``indptr``/``neighbors`` is the half-edge CSR adjacency over ``n``
    vertices, each row's neighbors in increasing order (the kernel's
    tie-break relies on it), and ``degrees`` its row lengths.  For plans
    built from a :class:`BipartiteGraph` the first ``n_a`` vertices are
    the A side and ``half_eid`` maps half-edges back to L edge ids (so
    per-call weights are one gather).  Building them once per L
    structure instead of once per call is the plan's whole point.
    """

    n: int
    indptr: np.ndarray
    neighbors: np.ndarray
    degrees: np.ndarray
    half_eid: np.ndarray | None = None
    #: Strong references pinning the structure key (see module docs).
    edge_a: np.ndarray | None = None
    edge_b: np.ndarray | None = None

    @property
    def n_half(self) -> int:
        """Number of half-edges (2·|E| for a bipartite plan)."""
        return len(self.neighbors)

    @classmethod
    def from_csr(cls, indptr: np.ndarray, neighbors: np.ndarray) -> "GroupPlan":
        """Build a plan from a raw half-edge CSR adjacency.

        Rows whose neighbors are not in increasing order are sorted;
        ``half_eid`` then maps each plan half-edge to its position in
        ``neighbors``, the order the caller's half-edge weights are in
        (``None`` when every row already was sorted).
        """
        indptr = asarray_i64(indptr)
        neighbors = asarray_i64(neighbors)
        plan = cls(
            n=len(indptr) - 1,
            indptr=indptr,
            neighbors=neighbors,
            degrees=np.diff(indptr),
        )
        descents = np.diff(neighbors) < 0
        cuts = indptr[1:-1]  # a descent across a row boundary is fine
        descents[cuts[(cuts > 0) & (cuts < len(neighbors))] - 1] = False
        if descents.any():
            rows = np.repeat(np.arange(plan.n), plan.degrees)
            plan.half_eid = np.lexsort((neighbors, rows))
            plan.neighbors = neighbors[plan.half_eid]
        return plan

    @classmethod
    def from_graph(cls, graph: BipartiteGraph) -> "GroupPlan":
        """Build the general-graph plan of a bipartite L.

        ``as_general_graph`` lists every row's neighbors in increasing
        order already.
        """
        indptr, neighbors, half_eid, _ = graph.as_general_graph()
        return cls(
            n=len(indptr) - 1,
            indptr=indptr,
            neighbors=neighbors,
            degrees=np.diff(indptr),
            half_eid=half_eid,
            edge_a=graph.edge_a,
            edge_b=graph.edge_b,
        )


#: LRU of structure key -> plan.  Small: solvers touch one or two L
#: structures at a time (the fine problem plus perhaps a coarse level).
_PLAN_CACHE: "OrderedDict[tuple, GroupPlan]" = OrderedDict()
_PLAN_CACHE_CAPACITY = 8
_plan_builds = 0
_plan_hits = 0


def _structure_key(graph: BipartiteGraph) -> tuple:
    return (
        id(graph.edge_a), id(graph.edge_b),
        graph.n_a, graph.n_b, graph.n_edges,
    )


def get_plan(graph: BipartiteGraph) -> GroupPlan:
    """Return the (cached) :class:`GroupPlan` for ``graph``'s structure.

    ``with_weights`` views share endpoint arrays and hit the same entry,
    which is the warm-rounding case iterative solvers exercise on every
    iteration.
    """
    global _plan_builds, _plan_hits
    key = _structure_key(graph)
    plan = _PLAN_CACHE.get(key)
    bus = get_bus()
    if plan is not None:
        _PLAN_CACHE.move_to_end(key)
        _plan_hits += 1
        if bus.active:
            bus.metrics.counter("repro_matching_plan_hits_total").inc()
        return plan
    plan = GroupPlan.from_graph(graph)
    _PLAN_CACHE[key] = plan
    while len(_PLAN_CACHE) > _PLAN_CACHE_CAPACITY:
        _PLAN_CACHE.popitem(last=False)
    _plan_builds += 1
    if bus.active:
        bus.metrics.counter("repro_matching_plan_builds_total").inc()
    return plan


def clear_plan_cache() -> None:
    """Drop all cached plans (tests; long-lived processes between jobs)."""
    _PLAN_CACHE.clear()


def plan_cache_stats() -> dict:
    """Cache counters: ``{"builds", "hits", "size"}`` (process-wide)."""
    return {
        "builds": _plan_builds,
        "hits": _plan_hits,
        "size": len(_PLAN_CACHE),
    }


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
