"""Maximum-cardinality matching: Hopcroft–Karp and Karp–Sipser.

§V notes the locally-dominant matcher is *maximal*, "which guarantees an
approximation ratio of half for the cardinality as well", and cites the
initialization studies of Langguth et al. [25] and Kaya et al. [26].
This module supplies the cardinality side of that discussion:

* :func:`hopcroft_karp` — exact maximum-cardinality bipartite matching in
  ``O(E √V)`` (the oracle the ½-cardinality guarantee is tested against);
* :func:`karp_sipser_matching` — the classic degree-1-rule initializer
  from that literature: repeatedly match forced (degree-1) vertices, fall
  back to random picks, and leave a near-maximum matching in near-linear
  time.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro._util import as_rng
from repro.matching.result import MatchingResult
from repro.sparse.bipartite import BipartiteGraph

__all__ = ["hopcroft_karp", "karp_sipser_matching"]

_INF = float("inf")


def hopcroft_karp(graph: BipartiteGraph) -> MatchingResult:
    """Exact maximum-cardinality matching (weights ignored).

    Classic Hopcroft–Karp: BFS layers from free A-vertices, then
    vertex-disjoint augmenting DFS passes, ``O(E √V)`` phases overall.
    """
    n_a, n_b = graph.n_a, graph.n_b
    adj = [graph.edge_b[graph.edges_of_a(a)].tolist() for a in range(n_a)]
    mate_a = [-1] * n_a
    mate_b = [-1] * n_b
    dist = [0.0] * n_a

    def bfs() -> bool:
        queue = deque()
        for a in range(n_a):
            if mate_a[a] == -1:
                dist[a] = 0.0
                queue.append(a)
            else:
                dist[a] = _INF
        found = False
        while queue:
            a = queue.popleft()
            for b in adj[a]:
                nxt = mate_b[b]
                if nxt == -1:
                    found = True
                elif dist[nxt] == _INF:
                    dist[nxt] = dist[a] + 1
                    queue.append(nxt)
        return found

    def dfs(a: int) -> bool:
        for b in adj[a]:
            nxt = mate_b[b]
            if nxt == -1 or (dist[nxt] == dist[a] + 1 and dfs(nxt)):
                mate_a[a] = b
                mate_b[b] = a
                return True
        dist[a] = _INF
        return False

    while bfs():
        for a in range(n_a):
            if mate_a[a] == -1:
                dfs(a)
    return MatchingResult.from_mates(
        graph, np.array(mate_a, dtype=np.int64)
    )


def karp_sipser_matching(
    graph: BipartiteGraph,
    seed: int | np.random.Generator | None = 0,
) -> MatchingResult:
    """Karp–Sipser cardinality heuristic (degree-1 rule + random picks).

    While any vertex has degree 1, its unique edge is *forced* (some
    maximum matching contains it); otherwise pick a random remaining
    edge.  Produces a maximal matching, near-maximum on sparse random
    graphs — the initializer studied in [25]/[26].
    """
    rng = as_rng(seed)
    n_a, n_b = graph.n_a, graph.n_b
    n = n_a + n_b
    indptr, neighbors, _ = graph.general_view
    adj = [neighbors[indptr[v] : indptr[v + 1]].tolist() for v in range(n)]
    degree = [len(a) for a in adj]
    mate = [-1] * n

    def match(u: int, v: int) -> None:
        mate[u] = v
        mate[v] = u
        for x in (u, v):
            for w in adj[x]:
                degree[w] -= 1
        degree[u] = 0
        degree[v] = 0

    def first_free_neighbor(u: int) -> int:
        for w in adj[u]:
            if mate[w] == -1:
                return w
        return -1

    ones = deque(v for v in range(n) if degree[v] == 1)
    order = rng.permutation(n).tolist()
    cursor = 0
    while True:
        # Degree-1 rule: forced edges first.
        while ones:
            u = ones.popleft()
            if mate[u] != -1 or degree[u] == 0:
                continue
            v = first_free_neighbor(u)
            if v == -1:
                continue
            match(u, v)
            for x in (u, v):
                for w in adj[x]:
                    if mate[w] == -1 and degree[w] == 1:
                        ones.append(w)
        # Random rule: pick any remaining vertex with free neighbors.
        while cursor < n:
            u = order[cursor]
            if mate[u] == -1 and degree[u] > 0:
                break
            cursor += 1
        else:
            break
        u = order[cursor]
        v = first_free_neighbor(u)
        if v == -1:
            degree[u] = 0
            continue
        match(u, v)
        for x in (u, v):
            for w in adj[x]:
                if mate[w] == -1 and degree[w] == 1:
                    ones.append(w)

    mate_a = np.array(
        [mate[a] - n_a if mate[a] >= 0 else -1 for a in range(n_a)],
        dtype=np.int64,
    )
    return MatchingResult.from_mates(graph, mate_a)
