"""Serial sorted-greedy half-approximate matching, and its certificate.

The classical ½-approximation: scan edges in decreasing weight order and
take every edge whose endpoints are both free.  Ties are broken by edge
id, and L's edge ids are sorted by ``(a, b)``, so at every vertex the
scan order is the locally-dominant matcher's own preference (heavier
edge first, equal weights to the smaller neighbour id; paper §V).  Under
that one strict order (−g_e, e) over the positive edges the greedy
matching is unique, and the locally-dominant matchers of §V return it
too, ties included.

:func:`is_greedy_matching` checks a given matching against that order
without running a matcher: M is the greedy matching exactly when every M
edge is positive and every other positive edge shares an endpoint with
an M edge ahead of it in the order.  (Induction along the order: the
first edge is in M, since nothing is ahead of it; an M edge has no
earlier M edge at its endpoints, which by induction are the greedy
edges, so greedy takes it; a non-M edge has one, so greedy skips it.)
"""

from __future__ import annotations

import numpy as np

from repro._util import asarray_f64
from repro.errors import DimensionError
from repro.matching.instrument import observed_matcher
from repro.matching.result import MatchingResult
from repro.sparse.bipartite import BipartiteGraph

__all__ = ["greedy_matching", "is_greedy_matching"]


@observed_matcher("greedy")
def greedy_matching(
    graph: BipartiteGraph, weights: np.ndarray | None = None
) -> MatchingResult:
    """Greedy ½-approximate maximum-weight matching.

    Ties are broken by the lexicographic ``(a, b)`` edge key, which is the
    same "vertex ids break ties" rule the locally-dominant matcher uses.
    Only positive-weight edges are considered.
    """
    w_vec = graph.weights if weights is None else asarray_f64(weights)
    if w_vec.shape != (graph.n_edges,):
        raise DimensionError("weights has wrong length")
    positive = np.flatnonzero(w_vec > 0)
    # Sort by weight descending; edge ids are already (a, b)-lexicographic,
    # so a stable sort gives the deterministic tie order for free.
    order = positive[np.argsort(-w_vec[positive], kind="stable")]
    # Gather both endpoint sequences vectorized, once, instead of
    # indexing full-graph lists edge by edge inside the scan.
    mate = [-1] * graph.n_a
    used = [False] * graph.n_b
    for a, b in zip(graph.edge_a[order].tolist(), graph.edge_b[order].tolist()):
        if mate[a] < 0 and not used[b]:
            mate[a] = b
            used[b] = True
    mate_a = np.array(mate, dtype=np.int64)
    return MatchingResult.from_mates(graph, mate_a, weights=w_vec)


def is_greedy_matching(
    graph: BipartiteGraph, weights: np.ndarray, matching: MatchingResult
) -> bool:
    """Whether ``matching`` is :func:`greedy_matching` of ``weights``.

    True exactly when the edges ``matching.edge_ids`` form a matching,
    every one of them has a positive weight, and every other positive
    edge e shares an endpoint with one of them, f, that comes first in
    the order: ``w[f] > w[e]``, or ``w[f] == w[e]`` and ``f < e``.  That
    is the matching the ``greedy``, ``approx`` and ``approx-queue``
    kinds return, whatever the ties (see the module docstring); NaN
    and −0.0 are not positive, +inf is.  The cost is one
    ``flatnonzero(w > 0)`` and a few gathers over the matched edges and
    the positive edges outside the matching; nothing is sorted.
    """
    w_vec = asarray_f64(weights)
    if w_vec.shape != (graph.n_edges,):
        raise DimensionError("weights has wrong length")
    eids = matching.edge_ids
    rest = w_vec > 0
    if not rest[eids].all():
        return False
    rest[eids] = False
    rest = np.flatnonzero(rest)  # the positive edges outside M
    w_rest = w_vec[rest]
    ok = np.zeros(len(rest), dtype=bool)
    for n_side, side in ((graph.n_a, graph.edge_a), (graph.n_b, graph.edge_b)):
        # The M edge covering each vertex (-1: none).
        v_m = side[eids]
        cover = np.full(n_side, -1, dtype=np.int64)
        cover[v_m] = eids
        if not np.array_equal(cover[v_m], eids):
            return False  # two edges share a vertex
        f = cover[side[rest]]
        w_f = w_vec[f]  # f = -1 reads a stray weight; masked out below
        ok |= (f >= 0) & ((w_f > w_rest) | ((w_f == w_rest) & (f < rest)))
    return bool(ok.all())
