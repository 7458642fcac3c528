"""Exact sparse maximum-weight bipartite matching.

Successive shortest augmenting paths with dual potentials (the
Jonker–Volgenant / Crouse form of the Hungarian algorithm), run directly
on the sparse graph.  Non-perfect matchings are handled with the classic
padding trick: every row gets a private zero-weight "stay unmatched" dummy
column, which makes the assignment feasible for every row while leaving
the optimum weight unchanged.

Costs are ``W - w`` (with ``W`` the maximum weight), so all costs are
non-negative and the zero initial potentials are dual feasible; Dijkstra
with a binary heap is then valid throughout.  Complexity is
``O(n (m + n log n))`` in the worst case, but each row's search typically
touches only a small neighborhood of the sparse graph.

This is the ``bipartite_match`` oracle of Table I in the paper; the
experiments swap it for the locally-dominant approximation of §V.
"""

from __future__ import annotations

from heapq import heappop, heappush

import numpy as np

from repro.matching.result import MatchingResult
from repro.sparse.bipartite import BipartiteGraph

__all__ = ["max_weight_matching"]

_INF = float("inf")

#: Below this ``n_a * n_b``, densify and use SciPy's C++ rectangular LSAP
#: (much faster than the Python sparse search for small vertex sets).
_DENSE_CUTOFF = 1_500_000


def _augment_row(
    r: int,
    ptr_l: list,
    b_l: list,
    cost_l: list,
    shift: float,
    u: list,
    v: list,
    match_row: list,
    match_col: list,
    n_b: int,
) -> int:
    """One augmenting-path search from free row ``r`` (Dijkstra step).

    Maintains the successive-shortest-path invariant: dual feasibility
    (all reduced costs non-negative) plus tightness of matched edges.
    Any caller that establishes the same invariant — a cold solve with
    zero duals, or a warm start with repaired duals from a previous call
    (both in :mod:`repro.matching.warm`) — may augment rows in any order
    and reach an optimal assignment.

    Returns the number of columns finalized by the search (the Dijkstra
    "depth"; the warm-start layer reports it as the residual search
    work).
    """
    lo, hi = ptr_l[r], ptr_l[r + 1]
    dist: dict[int, float] = {}
    pred: dict[int, int] = {}
    done: dict[int, float] = {}
    heap: list[tuple[float, int]] = []
    u_r = u[r]
    for k in range(lo, hi):
        j = b_l[k]
        nd = cost_l[k] - u_r - v[j]
        if nd < dist.get(j, _INF):
            dist[j] = nd
            pred[j] = r
            heappush(heap, (nd, j))
    j_dummy = n_b + r
    nd = shift - u_r - v[j_dummy]
    if nd < dist.get(j_dummy, _INF):
        dist[j_dummy] = nd
        pred[j_dummy] = r
        heappush(heap, (nd, j_dummy))

    sink = -1
    min_val = 0.0
    while heap:
        d, j = heappop(heap)
        if j in done or d > dist.get(j, _INF):
            continue
        done[j] = d
        if match_col[j] == -1:
            sink = j
            min_val = d
            break
        i = match_col[j]
        u_i = u[i]
        ilo, ihi = ptr_l[i], ptr_l[i + 1]
        for k in range(ilo, ihi):
            col = b_l[k]
            if col in done:
                continue
            nd = d + cost_l[k] - u_i - v[col]
            if nd < dist.get(col, _INF):
                dist[col] = nd
                pred[col] = i
                heappush(heap, (nd, col))
        col = n_b + i
        if col not in done:
            nd = d + shift - u_i - v[col]
            if nd < dist.get(col, _INF):
                dist[col] = nd
                pred[col] = i
                heappush(heap, (nd, col))
    if sink < 0:  # pragma: no cover - own dummy is always reachable
        raise RuntimeError("augmenting search failed to reach a free column")

    # Dual updates keep all reduced costs non-negative and the matched
    # edges tight (complementary slackness).
    for j, dj in done.items():
        if j == sink:
            continue
        v[j] += dj - min_val
        u[match_col[j]] += min_val - dj
    u[r] += min_val

    # Augment along the predecessor chain.
    j = sink
    i = pred[j]
    while True:
        prev = match_row[i]
        match_row[i] = j
        match_col[j] = i
        if i == r:
            break
        j = prev
        i = pred[j]
    return len(done)


def max_weight_matching(
    graph: BipartiteGraph,
    weights: np.ndarray | None = None,
    *,
    dense_cutoff: int = _DENSE_CUTOFF,
) -> MatchingResult:
    """Compute an exact maximum-weight matching in ``graph``.

    Parameters
    ----------
    graph:
        The bipartite graph L.
    weights:
        Optional replacement weight vector over L's edges (the iterative
        methods repeatedly match the same structure under new weights).
        Defaults to ``graph.weights``.  It must be finite.
    dense_cutoff:
        Vertex-product threshold under which the dense LSAP fast path is
        used (identical results; pass 0 to force the sparse search).

    Edges with non-positive weight are never selected: they cannot
    increase the matching weight, so the optimum over positive edges is a
    global optimum.  This is the single call of a fresh
    :class:`~repro.matching.warm.ExactMatcher`, which with no previous
    call solves from zero duals; a matcher kept across calls returns
    the same answers, cheaper.
    """
    from repro.matching.warm import ExactMatcher

    return ExactMatcher()(graph, weights, dense_cutoff=dense_cutoff)
