"""The exact matcher: warm-started, and always the cold solver's answer.

The iterative methods call ``bipartite_match`` on the *same* L structure
over and over with slowly drifting weight vectors (Klau rounds ``wbar``
every iteration, on one fixed L).  The successive-shortest-path solver
of :mod:`repro.matching.exact` started every call from zero duals and an
empty matching.  :class:`ExactMatcher` keeps the dual potentials
``(u, v)`` and the previous matching between calls and restores the
successive-shortest-path invariant cheaply:

1. **Seeds** — every matchable row (one with a positive edge) whose
   previous column is still reachable: its dummy column, or a real
   column whose edge is still positive (found by ``searchsorted`` on
   the row-major keys of the positive edges).
2. **Dual repair** — with the new costs ``c' = shift' − w'``, free
   columns are priced zero (the column constraints are inequalities)
   and ``u[r] = min_j (c'_rj − v[j])`` over row ``r``'s positive edges
   and its private dummy column (``np.minimum.reduceat``).  All reduced
   costs become non-negative, so the repaired duals are feasible.
3. **Seed reuse** — a seed is kept when its reduced cost is at most
   ``eps = tol·(1 + shift)`` (the stored duals are accumulated float
   increments, so an exact-zero test would drop seeds that are tight up
   to an ulp) and then re-tightened exactly by raising ``v[j]`` by that
   residual.  Dropping a seed frees its column and zeroes its price,
   which can lower the repaired ``u`` of rows adjacent to it and break
   *their* seeds.  The drops run in vectorized rounds until none fails
   (:func:`_drop_untight`).  A drop only lowers ``u`` and a lower ``u``
   only breaks seeds, so the drop set is a least fixed point: the same
   in any order, and so are the bits of ``u``, a minimum.
4. **Residual augmentation** — the shared
   :func:`~repro.matching.exact._augment_row` search runs only for the
   rows left free, on Python lists; L's lists are held per set of
   positive edges (:class:`_Views`).  Near a fixed point every row
   stays tight and the call costs a few vectorized passes over the
   edges.

Two rules make every answer equal to the cold solver's, so the answer
is a pure function of ``(L, weights)``:

* **Low reuse goes cold.**  When fewer than half of the matchable rows
  keep a tight seed, a warm attempt would cost more than it saves.  The
  call zeroes the duals and augments every row in row order, which is
  exactly :func:`~repro.matching.exact.max_weight_matching`'s algorithm
  (same row order, same heap order), so the answer is the cold one by
  construction.
* **A certificate, or a cold re-solve.**  A warm optimum is returned
  only when :func:`_optimum_is_unique` proves that no other assignment
  comes within ``tol·(1 + shift)`` of its cost; then the cold solver,
  whose rounding error is far below that margin, must return the same
  matching.  Otherwise (a tie, or a near-tie) the call re-solves cold
  in place.

Below the dense cutoff the matcher delegates to SciPy's LSAP, with no
state, as the cold solver does.  Because no answer depends on the
state, a checkpoint needs none of it: a solver resumed with a fresh
matcher is bit-identical to the uninterrupted run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

from repro._util import asarray_f64, concat_ranges
from repro.errors import ConfigurationError, DimensionError, ValidationError
from repro.matching.dense import max_weight_matching_dense
from repro.matching.exact import _DENSE_CUTOFF, _augment_row
from repro.matching.instrument import emit_matching
from repro.matching.result import MatchingResult
from repro.observe import get_bus
from repro.sparse.bipartite import BipartiteGraph

__all__ = ["ExactMatcher", "WarmStartStats"]


@dataclass(frozen=True)
class WarmStartStats:
    """What one :class:`ExactMatcher` call did.

    ``path`` names where the answer came from: ``"warm"`` (a certified
    warm optimum), ``"cold"`` (no usable state: the first call on an L
    structure, or no positive edge), ``"low_reuse"`` (too few seeds
    stayed tight, so the call solved cold), ``"tie"`` (the warm optimum
    was not certified unique, so the call re-solved cold) or
    ``"dense"`` (below the dense cutoff: SciPy's LSAP, all counts 0).
    ``rows_reused`` counts the seeds the answer kept (0 unless
    ``warm``); ``rows_searched`` and ``search_depth`` (columns finalized
    by the Dijkstra searches) count every search the call ran,
    including a discarded warm attempt.
    """

    path: str
    rows_total: int
    rows_reused: int
    rows_searched: int
    search_depth: int

    @property
    def hit_ratio(self) -> float:
        """Fraction of matchable rows carried over from the last call."""
        if self.rows_total == 0:
            return 0.0
        return self.rows_reused / self.rows_total


class _Sparse:
    """The positive edges of one call, as a row CSR (row-major order)."""

    def __init__(self, graph: BipartiteGraph, w_vec: np.ndarray) -> None:
        self.keep = w_vec > 0.0
        self.a = graph.edge_a[self.keep]
        self.b = graph.edge_b[self.keep]
        w_f = w_vec[self.keep]
        counts = np.bincount(self.a, minlength=graph.n_a)
        self.ptr = np.zeros(graph.n_a + 1, dtype=np.int64)
        np.cumsum(counts, out=self.ptr[1:])
        self.rows = np.flatnonzero(counts)  # the matchable rows
        # cost = shift - w >= 0; a row's dummy column costs shift.
        self.shift = float(w_f.max()) if len(w_f) else 0.0
        self.cost = self.shift - w_f

    def row_minima(self, v: np.ndarray, n_b: int) -> np.ndarray:
        """``min(shift − v[dummy], min_k (cost_k − v[b_k]))`` per row.

        The dummy bound stays unless an edge is strictly smaller, as in
        a scan that starts from the dummy and keeps the first minimum.
        """
        edge_min = np.minimum.reduceat(self.cost - v[self.b],
                                       self.ptr[self.rows])
        dummy = self.shift - v[n_b + self.rows]
        return np.where(edge_min < dummy, edge_min, dummy)


class _Views:
    """L's search views for one set of positive edges.

    The seed lookup searches the positive edges' keys, the Dijkstra
    search indexes the row CSR as Python lists (``ptr_l``, ``b_l``) and
    the drop closure gathers through the column adjacency.  All are
    functions of L and of which of its edges are positive, so a matcher
    holds them while that set is unchanged: a whole Klau run, whose
    ``wbar`` is positive everywhere, builds them once.
    """

    def __init__(self, graph: BipartiteGraph, sp: _Sparse) -> None:
        self.edge_keys = graph.edge_keys
        self.keep = sp.keep
        self.positive_keys = graph.edge_keys[sp.keep]
        self.ptr_l = sp.ptr.tolist()
        self.b_l = sp.b.tolist()
        self._columns: tuple | None = None

    def columns(self, graph: BipartiteGraph) -> tuple:
        """``(cptr, rows, edges)``: the positive edges by column.

        ``edges`` index the positive edges (``_Sparse.cost``); the
        graph's column permutation is already in ``(b, a)`` order.
        Built on the first call that drops a seed.
        """
        if self._columns is None:
            cp = graph.col_perm[self.keep[graph.col_perm]]
            cptr = np.zeros(graph.n_b + 1, dtype=np.int64)
            np.cumsum(np.bincount(graph.edge_b[cp], minlength=graph.n_b),
                      out=cptr[1:])
            self._columns = (cptr, graph.edge_a[cp],
                             (np.cumsum(self.keep) - 1)[cp])
        return self._columns


class ExactMatcher:
    """Exact maximum-weight matching that warm-starts from its last call.

    The ``bipartite_match`` oracle :func:`repro.core.rounding.make_matcher`
    returns for ``"exact"`` (one instance per solve), and the engine of
    :func:`~repro.matching.exact.max_weight_matching` (a fresh instance
    per call).  Every call returns the cold solver's answer; the state
    carried between calls only makes it cheaper.  State is kept per L
    structure, the identity of the graph's edge-key array, so
    ``with_weights`` views of one graph warm-start each other.
    """

    kind = "exact"

    #: Default relative tightness tolerance (scaled by ``1 + shift``).
    #: Large enough to absorb the ulp-level drift the incremental dual
    #: updates accumulate, far below any generic optimality gap.
    DEFAULT_TOL = 1e-9

    def __init__(self, *, tol: float | None = None) -> None:
        self.tol = self.DEFAULT_TOL if tol is None else float(tol)
        if self.tol < 0.0:
            raise ConfigurationError("tol must be non-negative")
        self.last_stats: WarmStartStats | None = None
        self._keys: np.ndarray | None = None
        self._u: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self._match_row: np.ndarray | None = None
        self._views: _Views | None = None

    def __call__(
        self,
        graph: BipartiteGraph,
        weights: np.ndarray | None = None,
        *,
        dense_cutoff: int = _DENSE_CUTOFF,
    ) -> MatchingResult:
        """Match ``graph`` under ``weights`` (default: its own weights).

        Below ``n_a·n_b = dense_cutoff`` the call delegates to SciPy's
        dense LSAP (pass 0 to force the sparse search).  Edges with
        non-positive weight are never selected.

        Raises:
            DimensionError: ``weights`` has the wrong length.
            ValidationError: ``weights`` holds a NaN or an infinity.
        """
        w_vec = graph.weights if weights is None else asarray_f64(weights)
        if w_vec.shape != (graph.n_edges,):
            raise DimensionError(
                f"weights has shape {w_vec.shape}, expected "
                f"({graph.n_edges},)"
            )
        if not np.isfinite(w_vec).all():
            raise ValidationError(
                "matching weights must be finite (NaN/inf found); a NaN "
                "edge would silently drop out of the matching"
            )
        if 0 < graph.n_a * graph.n_b <= dense_cutoff:
            result = max_weight_matching_dense(graph, w_vec)
            self.last_stats = WarmStartStats("dense", 0, 0, 0, 0)
        else:
            result = self._match_sparse(graph, w_vec)
            bus = get_bus()
            if bus.active:
                stats = self.last_stats
                bus.metrics.counter(
                    "repro_warm_start_rows_reused_total"
                ).inc(stats.rows_reused)
                bus.metrics.counter(
                    "repro_warm_start_rows_searched_total"
                ).inc(stats.rows_searched)
                bus.metrics.histogram(
                    "repro_warm_start_search_depth"
                ).observe(float(stats.search_depth))
        emit_matching(self.kind, graph, result)
        return result

    def _match_sparse(
        self, graph: BipartiteGraph, w_vec: np.ndarray
    ) -> MatchingResult:
        n_a, n_b = graph.n_a, graph.n_b
        sp = _Sparse(graph, w_vec)
        rows_total = len(sp.rows)
        path, reused, searched, depth = "cold", 0, 0, 0
        solved = None
        if self._keys is graph.edge_keys and rows_total:
            solved, reused, searched, depth = self._warm(graph, sp)
            if solved is None:
                path = "low_reuse"
            elif _optimum_is_unique(sp, n_b, *solved, self.tol):
                path = "warm"
            else:
                path, reused, solved = "tie", 0, None
        if solved is None:
            solved, depth_cold = _solve_cold(
                sp, self._search_views(graph, sp), n_a, n_b)
            searched += rows_total
            depth += depth_cold
        self._keys = graph.edge_keys
        self._u, self._v, self._match_row = solved
        self.last_stats = WarmStartStats(
            path, rows_total, reused, searched, depth
        )
        match_row = solved[2]
        mate_a = np.where(match_row < n_b, match_row, -1)
        return MatchingResult.from_mates(graph, mate_a, weights=w_vec)

    def _search_views(self, graph: BipartiteGraph, sp: _Sparse) -> _Views:
        """The held views of ``graph`` under ``sp``'s positive edges,
        built anew when L or that edge set changed."""
        views = self._views
        if (views is None or views.edge_keys is not graph.edge_keys
                or not np.array_equal(views.keep, sp.keep)):
            views = self._views = _Views(graph, sp)
        return views

    def _warm(self, graph: BipartiteGraph, sp: _Sparse):
        """Repair the stored duals and reuse the stored matching.

        Returns ``(solved, rows_reused, rows_searched, search_depth)``
        with ``solved = (u, v, match_row)``, or ``solved = None`` when
        fewer than half of the matchable rows keep a tight seed.
        """
        n_a, n_b = graph.n_a, graph.n_b
        views = self._search_views(graph, sp)
        u, v = self._u.copy(), self._v.copy()
        rows, shift = sp.rows, sp.shift
        eps = self.tol * (1.0 + shift)

        # Seeds: each matchable row's previous column, if it survives.
        prev = self._match_row[rows]
        probe = rows * n_b + prev
        keys = views.positive_keys
        pos = np.minimum(np.searchsorted(keys, probe), len(keys) - 1)
        on_edge = (prev >= 0) & (prev < n_b) & (keys[pos] == probe)
        on_dummy = prev == n_b + rows
        seeded = on_edge | on_dummy
        s_rows = rows[seeded]
        s_cols = prev[seeded]
        s_cost = np.where(on_dummy, shift, sp.cost[pos])[seeded]

        # Free columns are priced zero (inequality duals); then the dual
        # repair makes every reduced cost non-negative with v fixed.
        seed_col = np.zeros(n_b + n_a, dtype=bool)
        seed_col[s_cols] = True
        v[~seed_col & (v != 0.0)] = 0.0
        u[rows] = sp.row_minima(v, n_b)
        live = s_cost - v[s_cols] - u[s_rows] <= eps
        if 2 * int(live.sum()) < len(rows):
            return None, 0, 0, 0
        if not live.all():
            _drop_untight(u, v, sp.cost, views.columns(graph), s_rows,
                          s_cols, s_cost, live, eps, n_b)

        # Re-tighten the survivors exactly: each residual is <= eps, so
        # raising v[j] by it restores c - u - v == 0 on the seed while
        # lowering other rows' reduced costs through j by at most eps.
        k_rows, k_cols = s_rows[live], s_cols[live]
        v[k_cols] = s_cost[live] - u[k_rows]
        match_row = np.full(n_a, -1, dtype=np.int64)
        match_row[k_rows] = k_cols
        free = rows[match_row[rows] == -1]
        if not len(free):
            return (u, v, match_row), len(k_rows), 0, 0

        # Search from each free row in row order, on lists: the held row
        # CSR, and this call's costs, duals and matching.
        match_col = np.full(n_b + n_a, -1, dtype=np.int64)
        match_col[k_cols] = k_rows
        cost_l = sp.cost.tolist()
        u_l, v_l = u.tolist(), v.tolist()
        match_row_l, match_col_l = match_row.tolist(), match_col.tolist()
        depth = 0
        for r in free.tolist():
            depth += _augment_row(
                r, views.ptr_l, views.b_l, cost_l, shift, u_l, v_l,
                match_row_l, match_col_l, n_b,
            )
        solved = (np.array(u_l), np.array(v_l),
                  np.array(match_row_l, dtype=np.int64))
        return solved, len(k_rows), len(free), depth


def _solve_cold(sp: _Sparse, views: _Views, n_a: int, n_b: int):
    """Zero duals, then one augmenting search per matchable row in order.

    Returns ``((u, v, match_row), search_depth)``.
    """
    # Plain Python lists: the Dijkstra inner loop is scalar-indexed and
    # lists are markedly faster than NumPy scalars there.
    cost_l = sp.cost.tolist()
    n_cols = n_b + n_a  # real columns then one private dummy per row
    u = [0.0] * n_a
    v = [0.0] * n_cols
    match_row = [-1] * n_a  # row -> column (possibly dummy)
    match_col = [-1] * n_cols  # column -> row
    depth = 0
    for r in sp.rows.tolist():
        depth += _augment_row(
            r, views.ptr_l, views.b_l, cost_l, sp.shift, u, v, match_row,
            match_col, n_b,
        )
    solved = (np.array(u), np.array(v), np.array(match_row, dtype=np.int64))
    return solved, depth


def _drop_untight(
    u: np.ndarray,
    v: np.ndarray,
    cost: np.ndarray,
    columns: tuple,
    s_rows: np.ndarray,
    s_cols: np.ndarray,
    s_cost: np.ndarray,
    live: np.ndarray,
    eps: float,
    n_b: int,
) -> None:
    """Drop the untight seeds and every seed their drops untighten.

    ``live`` marks the tight seeds; it, ``u`` and ``v`` are updated in
    place.  Freeing column j prices it 0, which lowers the reduced cost
    through j of each adjacent row to its cost ``c`` and so can lower
    that row's ``u`` below what keeps *its* seed tight.  Each round
    frees the columns of every seed that failed, lowers ``u`` once over
    their adjacency, and tests the live seeds again.  A private dummy
    column touches no other row, and a column already priced 0 lowers
    no ``u`` (every ``u ≤ c − 0`` there already).
    """
    cptr, col_rows, col_edge = columns
    drop = ~live
    while True:
        cols = s_cols[drop]
        v[cols] = 0.0
        real = cols[cols < n_b]
        idx, _ = concat_ranges(cptr[real], cptr[real + 1])
        np.minimum.at(u, col_rows[idx], cost[col_edge[idx]])
        drop = live & (s_cost - v[s_cols] - u[s_rows] > eps)
        if not drop.any():
            return
        live[drop] = False


def _optimum_is_unique(
    sp: _Sparse,
    n_b: int,
    u: np.ndarray,
    v: np.ndarray,
    match_row: np.ndarray,
    tol: float,
) -> bool:
    """Whether ``match_row`` is the only assignment within the tolerance.

    Every matchable row is assigned a column (a real one, or its private
    dummy).  The duals are first made exactly feasible: ``u`` becomes
    the row minima of ``c − v``, so every reduced cost
    ``rc = c − u − v`` is ≥ 0.  Let ``S`` be M's total slack under them:
    the reduced costs of M's pairs plus ``max(v, 0)`` over M's columns
    (the column duals of the ``≤ 1`` constraints should be ≤ 0; warm
    re-tightening can leave one up to ``eps`` above).  Free columns are
    priced exactly 0 by construction.  Then for any other assignment M'

        cost(M') − cost(M) = Σ_{M'∖M} rc − Σ_{M∖M'} rc
                             − Σ_{j ∈ cols(M)∖cols(M')} v_j
                           ≥ Σ_{M'∖M} rc + Σ_{cols(M)∖cols(M')} (−v_j)⁺ − S.

    M ⊕ M' splits into alternating cycles and alternating paths, and a
    path runs from a column only M uses to a column only M' uses (free
    in M).  Draw an arc a → b when the row M matches to column a has
    reduced cost ≤ δ to column b (its own dummy included).  If the
    digraph has no cycle, and no path from an M-column priced
    ``v ≥ −δ`` to a free column, then every component of M ⊕ M' holds
    an M' pair with rc > δ or an end column with −v > δ, so
    ``cost(M') − cost(M) > δ − S``.  With ``δ = tol·(1 + shift) + S``,
    every other assignment costs more than M by over ``tol·(1 + shift)``:
    M is the unique optimum with that margin, and the cold solver, whose
    float error is orders of magnitude smaller (the reduced costs here
    are exact to ~1e-16 relative as well), returns M.  The converse
    holds up to δ: a cycle or such a path is an alternative assignment
    within δ per pair, so a real tie is never certified.

    The cycle test is one strongly-connected-components pass; the path
    test one breadth-first search on the transpose from a sink that
    every free column points to.
    """
    rows = sp.rows
    n_cols = len(v)
    u_r = np.zeros(len(match_row))
    u_r[rows] = sp.row_minima(v, n_b)
    rc = sp.cost - v[sp.b] - u_r[sp.a]
    dummy_rc = sp.shift - v[n_b + rows] - u_r[rows]
    cols = match_row[rows]  # every matchable row is assigned
    on_m = sp.b == match_row[sp.a]
    to_dummy = cols >= n_b
    slack = (float(rc[on_m].sum()) + float(dummy_rc[to_dummy].sum())
             + float(np.maximum(v[cols], 0.0).sum()))
    delta = tol * (1.0 + sp.shift) + slack

    near = ~on_m & (rc <= delta)
    near_dummy = ~to_dummy & (dummy_rc <= delta)
    src = np.concatenate([match_row[sp.a[near]], cols[near_dummy]])
    dst = np.concatenate([sp.b[near], n_b + rows[near_dummy]])
    if not len(src):
        return True
    taken = np.zeros(n_cols, dtype=bool)
    taken[cols] = True
    free = np.unique(dst[~taken[dst]])
    sink = n_cols
    # The transpose digraph: strongly connected components are the same
    # as the original's, and its BFS from the sink finds every column
    # with a path to a free column.
    t_src = np.concatenate([dst, np.full(len(free), sink)])
    t_dst = np.concatenate([src, free])
    digraph = csr_matrix(
        (np.ones(len(t_src), dtype=np.int8), (t_src, t_dst)),
        shape=(n_cols + 1, n_cols + 1),
    )
    n_comp, _ = connected_components(digraph, directed=True,
                                     connection="strong")
    if n_comp < n_cols + 1:
        return False  # an alternating cycle
    reach = np.zeros(n_cols + 1, dtype=bool)
    reach[breadth_first_order(digraph, sink, directed=True,
                              return_predecessors=False)] = True
    return not (reach[cols] & (v[cols] >= -delta)).any()
