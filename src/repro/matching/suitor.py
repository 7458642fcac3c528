"""The Suitor ½-approximate matching algorithm (Manne & Halappanavar).

A companion to the locally-dominant matcher of §V from the same research
line ([15] investigates several such algorithms on multicore hardware):
instead of pointer symmetry, each vertex *proposes* to its heaviest
eligible neighbor, dethroning a weaker current suitor, who then proposes
elsewhere.  With distinct weights the result is exactly the same unique
locally-dominant matching, reached with a different (often smaller)
amount of re-scanning — Suitor never recomputes a full neighborhood scan
for vertices whose suitor stands.

Included as an alternative rounding oracle; its equivalence to the §V
matcher under distinct weights is property-tested.
"""

from __future__ import annotations

import numpy as np

from repro._util import asarray_f64
from repro.errors import DimensionError
from repro.matching.instrument import observed_matcher
from repro.matching.result import MatchingResult
from repro.sparse.bipartite import BipartiteGraph

__all__ = ["suitor_matching"]


@observed_matcher("suitor")
def suitor_matching(
    graph: BipartiteGraph, weights: np.ndarray | None = None
) -> MatchingResult:
    """Compute a ½-approximate max-weight matching with the Suitor rule.

    Ties broken by smaller vertex id, consistent with
    :func:`repro.matching.locally_dominant_matching`; with distinct
    weights the outputs are identical.
    """
    w_vec = graph.weights if weights is None else asarray_f64(weights)
    if w_vec.shape != (graph.n_edges,):
        raise DimensionError("weights has wrong length")
    indptr_np, neighbors_np, half_eid = graph.general_view
    hw_np = w_vec[half_eid]
    n = graph.n_a + graph.n_b
    indptr = indptr_np.tolist()
    adj = neighbors_np.tolist()
    hw = hw_np.tolist()

    # suitor[v] = vertex currently proposing to v (or -1);
    # suitor_w[v] = weight of that proposal.
    suitor = [-1] * n
    suitor_w = [0.0] * n
    # Per-vertex scan frontier: neighbors are rescanned from the top each
    # time the vertex must propose again; `banned` is its failed target.
    stack = list(range(n - 1, -1, -1))
    while stack:
        u = stack.pop()
        # Find the heaviest neighbor that would accept u's proposal.
        best_t = -1
        best_w = 0.0
        for k in range(indptr[u], indptr[u + 1]):
            t = adj[k]
            w = hw[k]
            if w <= 0.0:
                continue
            # t accepts iff u's offer beats t's current suitor
            # (ties: smaller proposer id wins).
            sw = suitor_w[t]
            if w < sw or (w == sw and suitor[t] != -1 and u > suitor[t]):
                continue
            if w > best_w or (w == best_w and best_t != -1 and t < best_t):
                best_w = w
                best_t = t
        if best_t == -1:
            continue
        # Propose: dethrone the previous suitor, who must re-propose.
        previous = suitor[best_t]
        suitor[best_t] = u
        suitor_w[best_t] = best_w
        if previous != -1:
            stack.append(previous)

    # Matched pairs are mutual suitors.
    mate_a = np.full(graph.n_a, -1, dtype=np.int64)
    for a in range(graph.n_a):
        t = suitor[a]
        if t != -1 and suitor[t] == a:
            mate_a[a] = t - graph.n_a
    return MatchingResult.from_mates(graph, mate_a, weights=w_vec)
