"""Interpreted reference implementations the tests compare kernels against.

:func:`locally_dominant_rounds_python` is the executable specification
of :func:`repro.matching.kernels.locally_dominant_rounds`: the same
rounds, the same tie-breaks (heavier edge wins; equal weights prefer the
smaller vertex id) and the same :class:`~repro.matching.result.RoundStats`
stream, written as plain loops.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DimensionError
from repro.matching.kernels import GroupPlan
from repro.matching.result import RoundStats

__all__ = ["locally_dominant_rounds_python"]


def locally_dominant_rounds_python(
    plan: GroupPlan,
    half_weights: np.ndarray,
    *,
    collect_rounds: bool = True,
    max_rounds: int | None = None,
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
    limit = max_rounds if max_rounds is not None else n + 1
    queue_size = n
    while round_index <= limit:
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
