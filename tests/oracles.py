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

:func:`warm_start_loops` is the loop form of the exact matcher's warm
repair (:meth:`repro.matching.warm.ExactMatcher._warm`): seed lookup,
free-column reset, dual repair, tightness test, drop cascade,
re-tightening and residual augmentation, one scalar at a time, with the
same arithmetic in the same order.

:func:`problem_from_wire_loops` is the per-row wire decoder that
:func:`repro.serve.wire.problem_from_wire` replaced: every id through
``int()``, every weight, ``alpha`` and ``beta`` through ``float()``.
It coerces more than the vectorized decoder accepts; on what both
accept, they must build the same problem.  :func:`delta_build_loops` is
the same kind of per-row decoder for an edit script, the one
:meth:`repro.incremental.ProblemDelta.build` replaced with
:meth:`~repro.incremental.ProblemDelta.from_dict`'s row checks.

:func:`othermax_grouped_full` and :func:`segment_sum_masked` are the
kernels :func:`repro.core.othermax.othermax_grouped` and
:func:`repro.sparse.ops._segment_sum` replaced.  The first reduces over
every entry (the group max, its first occurrence, the max without it,
then the clip); the second masks the empty rows out.  Both kernels
must return their bits exactly.

:func:`edit_footprint` is the definition of what an edit touched, the
reference for the warm seed's active set
(:func:`repro.incremental.state.seed_from_warm`), written with Python
sets over edge keys.

:func:`restrict_l` is the mask-based restriction of L that steering's
:func:`~repro.core.steering.pin_pairs` and
:func:`~repro.core.steering.forbid_pairs` replaced with edit scripts: a
keep mask over L's edges, ``subgraph`` and a fresh problem whose **S**
is rebuilt from scratch.
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import NetworkAlignmentProblem
from repro.errors import DimensionError, ValidationError
from repro.graph.graph import Graph
from repro.incremental import ProblemDelta
from repro.matching.exact import _augment_row
from repro.matching.kernels import GroupPlan
from repro.matching.result import RoundStats
from repro.sparse.bipartite import BipartiteGraph

__all__ = [
    "count_squares_bruteforce",
    "delta_build_loops",
    "edit_footprint",
    "locally_dominant_rounds_python",
    "othermax_grouped_full",
    "problem_from_wire_loops",
    "restrict_l",
    "segment_sum_masked",
    "squares_coo_cartesian",
    "warm_start_loops",
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


def warm_start_loops(
    graph: BipartiteGraph,
    weights: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    prev_row: np.ndarray,
    tol: float,
) -> tuple:
    """Warm-start one exact matching from the duals ``(u, v)`` and the
    previous row -> column assignment ``prev_row``, in loops.

    Returns ``(u, v, match_row, rows_reused, rows_searched,
    search_depth)`` after every free matchable row has been augmented.
    """
    n_a, n_b = graph.n_a, graph.n_b
    keep = weights > 0.0
    b_f = graph.edge_b[keep]
    w_f = weights[keep]
    ptr = np.zeros(n_a + 1, dtype=np.int64)
    np.add.at(ptr, graph.edge_a[keep] + 1, 1)
    np.cumsum(ptr, out=ptr)
    shift = float(w_f.max())
    ptr_l, b_l = ptr.tolist(), b_f.tolist()
    cost_l = (shift - w_f).tolist()
    u, v, prev_row = u.tolist(), v.tolist(), prev_row.tolist()
    n_cols = n_b + n_a
    matchable = [r for r in range(n_a) if ptr_l[r] != ptr_l[r + 1]]
    eps = tol * (1.0 + shift)
    live: dict[int, tuple[int, float]] = {}
    for r in matchable:
        prev_j = prev_row[r]
        if prev_j == n_b + r:
            live[r] = (prev_j, shift)
        elif prev_j >= 0:
            for k in range(ptr_l[r], ptr_l[r + 1]):
                if b_l[k] == prev_j:
                    live[r] = (prev_j, cost_l[k])
                    break
    matched_cols = {j for j, _ in live.values()}
    for j in range(n_cols):
        if v[j] != 0.0 and j not in matched_cols:
            v[j] = 0.0
    for r in matchable:
        best = shift - v[n_b + r]
        for k in range(ptr_l[r], ptr_l[r + 1]):
            nd = cost_l[k] - v[b_l[k]]
            if nd < best:
                best = nd
        u[r] = best
    a_f = graph.edge_a[keep]
    order = np.argsort(b_f, kind="stable")
    col_rows = a_f[order].tolist()
    col_edge = order.tolist()
    cptr = np.zeros(n_b + 1, dtype=np.int64)
    np.add.at(cptr, b_f + 1, 1)
    np.cumsum(cptr, out=cptr)
    cptr_l = cptr.tolist()
    queue = [r for r, (j, c) in live.items() if c - v[j] - u[r] > eps]
    while queue:
        r = queue.pop()
        entry = live.pop(r, None)
        if entry is None:
            continue
        j = entry[0]
        v_j = v[j]
        v[j] = 0.0
        if v_j == 0.0 or j >= n_b:
            continue
        for idx in range(cptr_l[j], cptr_l[j + 1]):
            r2 = col_rows[idx]
            nd = cost_l[col_edge[idx]]
            if nd < u[r2]:
                u[r2] = nd
                seed = live.get(r2)
                if seed is not None and seed[1] - v[seed[0]] - nd > eps:
                    queue.append(r2)
    match_row = [-1] * n_a
    match_col = [-1] * n_cols
    for r, (j, c) in live.items():
        v[j] = c - u[r]
        match_row[r] = j
        match_col[j] = r
    searched = depth = 0
    for r in matchable:
        if match_row[r] == -1:
            searched += 1
            depth += _augment_row(r, ptr_l, b_l, cost_l, shift, u, v,
                                  match_row, match_col, n_b)
    return (np.array(u), np.array(v), np.array(match_row), len(live),
            searched, depth)


def problem_from_wire_loops(doc) -> NetworkAlignmentProblem:
    """Decode a wire problem one row at a time, as the server once did.

    Args:
        doc: A wire problem (``a``, ``b``, ``l``, optional ``alpha``,
            ``beta`` and ``name``).

    Returns:
        The problem built from ``int()`` ids and ``float()`` weights.
    """
    def graph(g):
        us, vs = [], []
        for row in g["edges"]:
            us.append(int(row[0]))
            vs.append(int(row[1]))
        return Graph.from_edges(g["n"], np.asarray(us, dtype=np.int64),
                                np.asarray(vs, dtype=np.int64))

    a, b = graph(doc["a"]), graph(doc["b"])
    aa, bb, ww = [], [], []
    for row in doc["l"]["edges"]:
        aa.append(int(row[0]))
        bb.append(int(row[1]))
        ww.append(float(row[2]))
    ell = BipartiteGraph.from_edges(
        a.n, b.n, np.asarray(aa, dtype=np.int64),
        np.asarray(bb, dtype=np.int64), np.asarray(ww, dtype=np.float64))
    return NetworkAlignmentProblem(
        a, b, ell, alpha=float(doc.get("alpha", 1.0)),
        beta=float(doc.get("beta", 2.0)), name=str(doc.get("name", "wire")))


def delta_build_loops(
    *, l_add=(), l_drop=(), l_reweight=(), a_add=(), a_drop=(), b_add=(),
    b_drop=(),
) -> ProblemDelta:
    """Build an edit script one row at a time, as ``build`` once did.

    ``l_add`` and ``l_reweight`` rows are ``(a, b, weight)`` triples with
    ids through ``int()`` and weights through ``float()``; the pair
    fields go to the :class:`~repro.incremental.ProblemDelta`
    constructor as they are.
    """
    def split(rows, what):
        rows = [tuple(r) for r in rows]
        if any(len(r) != 3 for r in rows):
            raise ValidationError(
                f"{what} entries must be (a, b, weight) triples"
            )
        return ([(int(r[0]), int(r[1])) for r in rows],
                [float(r[2]) for r in rows])

    add_pairs, add_w = split(l_add, "l_add")
    rw_pairs, rw_w = split(l_reweight, "l_reweight")
    return ProblemDelta(
        l_add=add_pairs, l_add_w=add_w, l_drop=list(l_drop),
        l_reweight=rw_pairs, l_reweight_w=rw_w, a_add=list(a_add),
        a_drop=list(a_drop), b_add=list(b_add), b_drop=list(b_drop),
    )


def othermax_grouped_full(
    values: np.ndarray, indptr: np.ndarray
) -> np.ndarray:
    """othermax within each CSR-style group, reducing over every entry.

    Per group: the max, the first position holding it, the max with
    that position masked out; every entry takes the group max except
    that position, which takes the second; then ``bound_{0,∞}``.
    """
    values = np.asarray(values, dtype=np.float64)
    n_items = len(values)
    if int(indptr[-1]) != n_items or int(indptr[0]) != 0:
        raise DimensionError("indptr does not partition values")
    out = np.empty(n_items, dtype=np.float64)
    if n_items == 0:
        return out
    n_groups = len(indptr) - 1
    starts = indptr[:-1]
    lengths = np.diff(indptr)
    nonempty = lengths > 0
    group_of = np.repeat(np.arange(n_groups, dtype=np.int64), lengths)

    gmax = np.full(n_groups, -np.inf)
    gmax[nonempty] = np.maximum.reduceat(values, starts[nonempty])

    pos = np.arange(n_items, dtype=np.int64)
    at_max_pos = np.where(values == gmax[group_of], pos, n_items)
    first_max = np.full(n_groups, n_items, dtype=np.int64)
    first_max[nonempty] = np.minimum.reduceat(at_max_pos, starts[nonempty])

    masked = values.copy()
    masked[first_max[nonempty]] = -np.inf
    gsecond = np.full(n_groups, -np.inf)
    gsecond[nonempty] = np.maximum.reduceat(masked, starts[nonempty])

    is_the_max = pos == first_max[group_of]
    np.copyto(out, np.where(is_the_max, gsecond[group_of], gmax[group_of]))
    np.maximum(out, 0.0, out=out)
    return out


def segment_sum_masked(
    values: np.ndarray, indptr: np.ndarray, out: np.ndarray
) -> None:
    """Sum ``values`` into ``out`` per CSR row through a non-empty mask.

    ``np.add.reduceat`` returns the next element for an empty segment,
    so it runs over the masked starts and scatters through the mask.
    """
    n_rows = len(out)
    starts = indptr[:-1]
    nonempty = indptr[1:] > starts
    if not nonempty.any():
        return
    sums = np.add.reduceat(values, starts[nonempty])
    out[np.arange(n_rows)[nonempty]] = sums


def edit_footprint(
    old: NetworkAlignmentProblem, new: NetworkAlignmentProblem
) -> np.ndarray:
    """The L edges (new ids) whose BP update an edit changed.

    BP updates an edge from its weight, its row of **S** and the
    othermax groups of its two ends.  So the footprint is every edge of
    ``new`` that is inserted, is reweighted, has a set of square
    partners (by edge key) other than in ``old``, or shares an A- or
    B-vertex with an inserted or dropped edge.
    """
    def edges(p):
        return {(a, b): w for a, b, w in zip(
            p.ell.edge_a.tolist(), p.ell.edge_b.tolist(),
            p.ell.weights.tolist())}

    def partners(p, keys):
        nbr_a = {v: set(p.a_graph.neighbors(v).tolist())
                 for v in range(p.a_graph.n)}
        nbr_b = {v: set(p.b_graph.neighbors(v).tolist())
                 for v in range(p.b_graph.n)}
        return {(i, ip): {(j, jp) for (j, jp) in keys
                          if j in nbr_a[i] and jp in nbr_b[ip]}
                for (i, ip) in keys}

    w_old, w_new = edges(old), edges(new)
    s_old, s_new = partners(old, w_old), partners(new, w_new)
    churned = (w_new.keys() - w_old.keys()) | (w_old.keys() - w_new.keys())
    ends_a = {a for a, _ in churned}
    ends_b = {b for _, b in churned}
    touched = {
        key for key in w_new
        if key not in w_old or w_new[key] != w_old[key]
        or s_new[key] != s_old[key] or key[0] in ends_a or key[1] in ends_b
    }
    return np.array([e for e, key in enumerate(sorted(w_new))
                     if key in touched], dtype=np.int64)


def restrict_l(
    problem: NetworkAlignmentProblem, pairs, *, pin: bool
) -> NetworkAlignmentProblem:
    """``problem`` with candidate pairs forbidden, or pinned (``pin``).

    Forbidding removes the pairs' L edges.  Pinning removes every other
    edge on a pinned vertex and lifts a pinned weight below ``1e-6`` to
    ``1e-6``.  Every pair must be a candidate edge.
    """
    ell = problem.ell
    a = np.array([p[0] for p in pairs], dtype=np.int64)
    b = np.array([p[1] for p in pairs], dtype=np.int64)
    eids = ell.lookup_edges(a, b)
    if (eids < 0).any():
        raise ValidationError("restrict_l: non-candidate pair")
    keep = np.ones(ell.n_edges, dtype=bool)
    keep[eids] = False
    if pin:
        pinned_a = np.zeros(ell.n_a, dtype=bool)
        pinned_b = np.zeros(ell.n_b, dtype=bool)
        pinned_a[a] = True
        pinned_b[b] = True
        keep = ~keep | (~pinned_a[ell.edge_a] & ~pinned_b[ell.edge_b])
    sub = ell.subgraph(keep)
    if pin:
        w = sub.weights.copy()
        sub_eids = sub.lookup_edges(a, b)
        w[sub_eids] = np.maximum(w[sub_eids], 1e-6)
        sub = sub.with_weights(w)
    return NetworkAlignmentProblem(problem.a_graph, problem.b_graph, sub,
                                   alpha=problem.alpha, beta=problem.beta,
                                   name=problem.name)
