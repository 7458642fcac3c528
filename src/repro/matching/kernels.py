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
    vertices and ``degrees`` its row lengths; for plans built from a
    :class:`BipartiteGraph` the first ``n_a`` vertices are the A side
    and ``half_eid`` maps half-edges back to L edge ids (so per-call
    weights are one gather).  Building them once per L structure
    instead of once per call is the plan's whole point.
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
        """Build a plan from a raw half-edge CSR adjacency."""
        indptr = asarray_i64(indptr)
        neighbors = asarray_i64(neighbors)
        return cls(
            n=len(indptr) - 1,
            indptr=indptr,
            neighbors=neighbors,
            degrees=np.diff(indptr),
        )

    @classmethod
    def from_graph(cls, graph: BipartiteGraph) -> "GroupPlan":
        """Build the general-graph plan of a bipartite L."""
        indptr, neighbors, half_eid, _ = graph.as_general_graph()
        plan = cls.from_csr(indptr, neighbors)
        plan.half_eid = half_eid
        plan.edge_a = graph.edge_a
        plan.edge_b = graph.edge_b
        return plan


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
            bus.metrics.counter("repro_matching_backend_plan_hits_total").inc()
        return plan
    plan = GroupPlan.from_graph(graph)
    _PLAN_CACHE[key] = plan
    while len(_PLAN_CACHE) > _PLAN_CACHE_CAPACITY:
        _PLAN_CACHE.popitem(last=False)
    _plan_builds += 1
    if bus.active:
        bus.metrics.counter("repro_matching_backend_plan_builds_total").inc()
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

def locally_dominant_rounds(
    plan: GroupPlan,
    half_weights: np.ndarray,
    *,
    collect_rounds: bool = True,
    max_rounds: int | None = None,
) -> tuple[np.ndarray, list[RoundStats]]:
    """Vectorized locally-dominant matching over a general graph.

    Each round recomputes, for every still-free vertex, its heaviest
    free positive neighbor (ties to the smaller id) with a pair of
    segmented reductions, then commits every mutually-pointing pair at
    once.  Returns the symmetric mate array (``-1`` = unmatched) plus
    per-round stats; work attribution mirrors the queue algorithm (this
    round's FindMate scans are the adjacency of vertices whose candidate
    was invalidated — all still-free vertices re-scan).
    """
    n = plan.n
    mate = np.full(n, -1, dtype=np.int64)
    rounds: list[RoundStats] = []
    if plan.n_half == 0:
        return mate, rounds
    hw = _check_half_weights(plan, half_weights)
    indptr, neighbors, degrees = plan.indptr, plan.neighbors, plan.degrees
    neg_inf = -np.inf
    positive = hw > 0.0

    # Incremental FindMate: a vertex's candidate only changes when a
    # neighbor's free status does, and every such vertex is marked stale
    # when the neighbor matches — so each round recomputes candidates
    # for the stale frontier only.  The interpreted oracle recomputes
    # every free vertex each round; the results are identical because a
    # non-stale vertex's recomputation sees an unchanged neighborhood.
    candidate = np.full(n, -1, dtype=np.int64)
    candidate_stale = np.ones(n, dtype=bool)  # vertices needing FindMate
    round_index = 0
    limit = max_rounds if max_rounds is not None else n + 1
    queue_size = int(n)  # phase-1 "queue" is every vertex
    while round_index <= limit:
        free = mate < 0
        work = np.flatnonzero(candidate_stale & free)
        if len(work):
            counts = degrees[work]
            nz = counts > 0
            candidate[work[~nz]] = -1
            wv = work[nz]
            if len(wv):
                hidx, counts = concat_ranges(indptr[wv], indptr[wv + 1])
                starts = np.cumsum(counts) - counts
                t_k = neighbors[hidx]
                usable = positive[hidx] & free[t_k]
                masked = np.where(usable, hw[hidx], neg_inf)
                seg_max = np.maximum.reduceat(masked, starts)
                # Tie-break: among half-edges achieving the segment max,
                # take the smallest neighbor id.
                at_max = usable & (masked == np.repeat(seg_max, counts))
                nbr_or_inf = np.where(at_max, t_k, n)
                best_nbr = np.minimum.reduceat(nbr_or_inf, starts)
                candidate[wv] = np.where(seg_max > neg_inf, best_nbr, -1)
        idx = np.flatnonzero(free & (candidate >= 0))
        cand = candidate[idx]
        mutual = candidate[cand] == idx
        new_lo = idx[mutual & (idx < cand)]
        if len(new_lo) == 0:
            break
        new_hi = candidate[new_lo]
        mate[new_lo] = new_hi
        mate[new_hi] = new_lo
        if collect_rounds:
            # Work attribution mirrors the queue algorithm: this round's
            # FindMate scans are the adjacency of vertices whose candidate
            # was invalidated (here: the stale frontier re-scans).
            rescans = int(degrees[work].sum())
            rounds.append(
                RoundStats(
                    round_index=round_index,
                    queue_size=queue_size,
                    vertices_matched=2 * len(new_lo),
                    adjacency_scanned=rescans,
                    atomics=2 * len(new_lo),
                )
            )
        # Vertices adjacent to newly matched ones will need new candidates.
        candidate_stale[:] = False
        newly = np.concatenate([new_lo, new_hi])
        nhidx, _ = concat_ranges(indptr[newly], indptr[newly + 1])
        candidate_stale[neighbors[nhidx]] = True
        queue_size = len(newly)
        round_index += 1

    return mate, rounds
