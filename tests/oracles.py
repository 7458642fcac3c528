"""Reference implementations the tests compare kernels against.

:func:`locally_dominant_rounds_python` is the executable specification
of :func:`repro.matching.kernels.locally_dominant_rounds`: the same
rounds, the same tie-breaks (heavier edge wins; equal weights prefer the
smaller vertex id) and the same :class:`~repro.matching.result.RoundStats`
stream, written as plain loops.

:func:`squares_coo_cartesian` is the direct reading of the squares
matrix's definition, the reference for :mod:`repro.core.squares`: every
L edge expands the full product of its endpoints' adjacency lists and
probes L for each candidate pair.  :func:`count_squares_bruteforce` is
the O(|E_L|²) definition itself.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DimensionError
from repro.graph.graph import Graph
from repro.matching.kernels import GroupPlan
from repro.matching.result import RoundStats
from repro.sparse.bipartite import BipartiteGraph

__all__ = [
    "count_squares_bruteforce",
    "locally_dominant_rounds_python",
    "squares_coo_cartesian",
]


def locally_dominant_rounds_python(
    plan: GroupPlan,
    half_weights: np.ndarray,
    *,
    collect_rounds: bool = True,
) -> tuple[np.ndarray, list[RoundStats]]:
    """Interpreted reference of the locally-dominant rounds kernel.

    Every round recomputes the candidate of every free vertex (the
    kernel recomputes only the stale frontier; a non-stale vertex sees
    an unchanged neighborhood, so the candidates agree).
    """
    n = plan.n
    rounds: list[RoundStats] = []
    if plan.n_half == 0:
        return np.full(n, -1, dtype=np.int64), rounds
    hw = np.asarray(half_weights, dtype=np.float64)
    if hw.shape != (plan.n_half,):
        raise DimensionError("half_weights has wrong length")
    hw = hw.tolist()
    indptr = plan.indptr.tolist()
    adj = plan.neighbors.tolist()
    deg = plan.degrees.tolist()
    neg_inf = float("-inf")

    mate = [-1] * n
    stale = [True] * n
    round_index = 0
    queue_size = n
    while True:
        candidate = [-1] * n
        for v in range(n):
            if mate[v] != -1:
                continue
            best_w = neg_inf
            best_t = -1
            for k in range(indptr[v], indptr[v + 1]):
                w = hw[k]
                t = adj[k]
                if w <= 0.0 or mate[t] != -1:
                    continue
                if w > best_w:
                    best_w = w
                    best_t = t
                elif w == best_w and t < best_t:
                    best_t = t
            candidate[v] = best_t
        new_lo = [
            v for v in range(n)
            if candidate[v] > v and candidate[candidate[v]] == v
        ]
        if not new_lo:
            break
        if collect_rounds:
            rescans = sum(
                deg[v] for v in range(n) if stale[v] and mate[v] == -1
            )
            rounds.append(
                RoundStats(
                    round_index=round_index,
                    queue_size=queue_size,
                    vertices_matched=2 * len(new_lo),
                    adjacency_scanned=rescans,
                    atomics=2 * len(new_lo),
                )
            )
        newly = list(new_lo)
        for v in new_lo:
            u = candidate[v]
            mate[v] = u
            mate[u] = v
            newly.append(u)
        stale = [False] * n
        for v in newly:
            for k in range(indptr[v], indptr[v + 1]):
                stale[adj[k]] = True
        queue_size = len(newly)
        round_index += 1

    return np.array(mate, dtype=np.int64), rounds


def squares_coo_cartesian(
    a_graph: Graph,
    b_graph: Graph,
    ell: BipartiteGraph,
    row_ids: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Reference of :func:`repro.core.squares.squares_coo`.

    Row ``e = (i, i')`` expands every ``(j, j')`` in N_A(i) × N_B(i')
    and keeps the pairs that are L edges ``f``, found by binary search
    in L's sorted edge keys.
    """
    if row_ids is None:
        row_ids = np.arange(ell.n_edges, dtype=np.int64)
    e_ids = np.asarray(row_ids, dtype=np.int64)
    deg_a = a_graph.degrees()[ell.edge_a[e_ids]]
    deg_b = b_graph.degrees()[ell.edge_b[e_ids]]
    counts = deg_a * deg_b
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    e_rep = np.repeat(e_ids, counts)
    # Position of each candidate within its edge's Cartesian block.
    block_starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        block_starts, counts
    )
    deg_b_rep = np.repeat(deg_b, counts)
    j_a = a_graph.adj[a_graph.indptr[ell.edge_a[e_rep]] + offsets // deg_b_rep]
    j_b = b_graph.adj[b_graph.indptr[ell.edge_b[e_rep]] + offsets % deg_b_rep]
    f = ell.lookup_edges(j_a, j_b)
    hit = f >= 0
    return e_rep[hit], f[hit]


def count_squares_bruteforce(
    a_graph: Graph, b_graph: Graph, ell: BipartiteGraph
) -> int:
    """O(|E_L|²) count of nnz(S), straight from the definition."""
    count = 0
    for e in range(ell.n_edges):
        i, ip = int(ell.edge_a[e]), int(ell.edge_b[e])
        for f in range(ell.n_edges):
            j, jp = int(ell.edge_a[f]), int(ell.edge_b[f])
            if a_graph.has_edge(i, j) and b_graph.has_edge(ip, jp):
                count += 1
    return count
