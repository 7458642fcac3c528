"""The locally-dominant ½-approximate matcher (paper §V, Algorithms 1–3).

Two implementations with identical output:

* :func:`locally_dominant_matching` — a faithful transcription of
  PARALLELMATCH / FINDMATE / MATCHVERTEX with the two queues ``Q_C`` and
  ``Q_N``; executed serially but *round-structured* exactly like the
  parallel algorithm, and instrumented so every round reports the queue
  size, adjacency words scanned, and atomic queue updates.  Those
  :class:`~repro.matching.result.RoundStats` are what the machine model
  replays to produce the paper's scaling behaviour of the matching step.
* :func:`locally_dominant_matching_vectorized` — a NumPy formulation that
  recomputes candidates round-by-round with segmented reductions; used for
  large graphs where the Python loop is too slow.

Both support the paper's two initializations: ``init="general"`` (spawn
from both vertex sets, treating L as a general graph) and
``init="one-sided"`` (spawn only from ``V_A``, the bipartite-tailored
variant the paper reports as "noticeably" faster).

Tie-breaking: heavier edge wins; equal weights prefer the smaller
neighbor id ("unique vertex ids are used to break ties consistently").
With strictly distinct weights the result equals the sorted-greedy
matching and is unique.
"""

from __future__ import annotations

import numpy as np

from repro._util import asarray_f64
from repro.errors import ConfigurationError, DimensionError
from repro.matching.instrument import observed_matcher
from repro.matching.kernels import GroupPlan, locally_dominant_rounds
from repro.matching.result import MatchingResult, RoundStats
from repro.sparse.bipartite import BipartiteGraph

__all__ = [
    "locally_dominant_matching",
    "locally_dominant_matching_vectorized",
]


def _general_graph_arrays(
    graph: BipartiteGraph, weights: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (indptr, neighbors, half_weights) of L as a general graph."""
    w_vec = graph.weights if weights is None else asarray_f64(weights)
    if w_vec.shape != (graph.n_edges,):
        raise DimensionError("weights has wrong length")
    indptr, neighbors, half_eid = graph.general_view
    return indptr, neighbors, w_vec[half_eid]


@observed_matcher("locally-dominant")
def locally_dominant_matching(
    graph: BipartiteGraph,
    weights: np.ndarray | None = None,
    *,
    init: str = "general",
    collect_rounds: bool = True,
) -> MatchingResult:
    """Faithful queue-based locally-dominant ½-approximation.

    Parameters
    ----------
    graph, weights:
        The bipartite graph L and an optional replacement weight vector.
    init:
        ``"general"`` runs Phase-1 from every vertex of ``V_A ∪ V_B``
        (Algorithm 1 as printed); ``"one-sided"`` spawns only from ``V_A``
        and checks dominance through the candidate's adjacency (paper §V,
        last paragraph).  The matching produced is identical; the work
        profile differs and is visible in the round stats.
    collect_rounds:
        Record :class:`RoundStats` per round (cheap; on by default).
    """
    if init not in ("general", "one-sided"):
        raise ConfigurationError(f"unknown init {init!r}")
    indptr_np, neighbors_np, hw_np = _general_graph_arrays(graph, weights)
    n = graph.n_a + graph.n_b
    indptr = indptr_np.tolist()
    adj = neighbors_np.tolist()
    hw = hw_np.tolist()

    mate = [-1] * n
    # -2 = FindMate never ran for this vertex (possible under one-sided
    # init, where B-side candidates are computed on demand);
    # -1 = FindMate ran and found no matchable neighbor.
    candidate = [-2] * n
    rounds: list[RoundStats] = []
    scanned = 0
    atomics = 0

    def find_mate(s: int) -> int:
        """FINDMATE: heaviest unmatched positive neighbor, ties to smaller id."""
        nonlocal scanned
        best_w = 0.0
        best_t = -1
        for k in range(indptr[s], indptr[s + 1]):
            t = adj[k]
            w = hw[k]
            scanned += 1
            if mate[t] != -1 or w <= 0.0:
                continue
            if w > best_w or (w == best_w and best_t != -1 and t < best_t):
                best_w = w
                best_t = t
        return best_t

    def match_vertex(s: int, queue: list[int]) -> bool:
        """MATCHVERTEX: commit a locally-dominant edge, enqueue endpoints."""
        nonlocal atomics
        c = candidate[s]
        if c < 0 or mate[s] != -1:
            return False
        if candidate[c] == -2:
            # One-sided init: the candidate's own preference is resolved on
            # demand by scanning its adjacency (paper §V, last paragraph).
            candidate[c] = find_mate(c)
        if candidate[c] != s:
            return False
        mate[s] = c
        mate[c] = s
        queue.append(s)
        queue.append(c)
        atomics += 2  # two __sync_fetch_and_add queue slots
        return True

    # ---------------- Phase 1 ----------------
    q_current: list[int] = []
    matched_now = 0
    if init == "general":
        for v in range(n):
            candidate[v] = find_mate(v)
        for v in range(n):
            if match_vertex(v, q_current):
                matched_now += 1
    else:  # one-sided: spawn from V_A only, probe the candidate's side
        for a in range(graph.n_a):
            candidate[a] = find_mate(a)
        for a in range(graph.n_a):
            if match_vertex(a, q_current):
                matched_now += 1
    if collect_rounds:
        rounds.append(
            RoundStats(
                round_index=0,
                queue_size=n if init == "general" else graph.n_a,
                vertices_matched=2 * matched_now,
                adjacency_scanned=scanned,
                atomics=atomics,
            )
        )

    # ---------------- Phase 2 ----------------
    round_index = 0
    while q_current:
        round_index += 1
        scanned_before = scanned
        atomics_before = atomics
        matched_now = 0
        q_next: list[int] = []
        for u in q_current:
            for k in range(indptr[u], indptr[u + 1]):
                v = adj[k]
                scanned += 1
                if mate[v] == -1 and candidate[v] == u:
                    candidate[v] = find_mate(v)
                    if match_vertex(v, q_next):
                        matched_now += 1
        if collect_rounds:
            rounds.append(
                RoundStats(
                    round_index=round_index,
                    queue_size=len(q_current),
                    vertices_matched=2 * matched_now,
                    adjacency_scanned=scanned - scanned_before,
                    atomics=atomics - atomics_before,
                )
            )
        q_current = q_next  # the pointer swap of Algorithm 1, line 15

    mate_a = np.array(
        [mate[a] - graph.n_a if mate[a] >= 0 else -1 for a in range(graph.n_a)],
        dtype=np.int64,
    )
    w_vec = graph.weights if weights is None else asarray_f64(weights)
    return MatchingResult.from_mates(graph, mate_a, weights=w_vec, rounds=rounds)


@observed_matcher("locally-dominant-vectorized")
def locally_dominant_matching_vectorized(
    graph: BipartiteGraph,
    weights: np.ndarray | None = None,
    *,
    collect_rounds: bool = True,
) -> MatchingResult:
    """Vectorized rounds formulation of the locally-dominant matcher.

    Each round recomputes, for every still-unmatched vertex, its heaviest
    unmatched neighbor with a pair of segmented reductions, then commits
    every mutually-pointing pair at once.  Produces the same matching as
    the queue algorithm (identical tie-breaking); rounds correspond to the
    Phase-2 ``while`` iterations.

    The rounds core is :func:`repro.matching.kernels
    .locally_dominant_rounds` running on the
    :class:`~repro.matching.kernels.GroupPlan` of the graph's held
    general-graph view, so repeated rounding of the same L converts it
    once.  The kernel reports the half-edge each vertex took, so the matched
    edge ids are one gather through the plan's ``half_eid``.
    """
    w_vec = graph.weights if weights is None else asarray_f64(weights)
    if w_vec.shape != (graph.n_edges,):
        raise DimensionError("weights has wrong length")
    plan = GroupPlan.from_graph(graph)
    mate, took, rounds = locally_dominant_rounds(
        plan, w_vec[plan.half_eid], collect_rounds=collect_rounds
    )
    n_a = graph.n_a
    head = mate[:n_a]
    matched_a = head >= 0
    # A-side half-edge k is L edge k, so these ids come out sorted.
    eids = plan.half_eid[took[:n_a][matched_a]]
    return MatchingResult(
        mate_a=np.where(matched_a, head - n_a, -1),
        mate_b=mate[n_a:],
        edge_ids=eids,
        weight=float(w_vec[eids].sum()) if len(eids) else 0.0,
        rounds=rounds,
    )
