"""Construction of the squares matrix **S** (paper §II).

``S`` is |E_L|-by-|E_L|; ``S[(i,i'), (j,j')] = 1`` exactly when ``(i, j)``
is an edge of A and ``(i', j')`` is an edge of B.  Each nonzero therefore
witnesses a *square* ``i–j`` / ``i'–j'`` / the two L edges, i.e. a
potential overlapped edge pair.  ``S`` is structurally symmetric and
0/1-valued, and its row distribution is highly irregular (the paper's
motivation for dynamic loop scheduling).

The construction is a sort-based equi-join on the key ``(j, i')``, the
vertex pair a square shares between its A edge and its B edge.  Row
``e = (i, i')`` offers one key per A-neighbour ``j`` of ``i``; column
``f = (j, j')`` offers one key per B-neighbour ``i'`` of ``j'``; each
equal key pairs one ``e`` with one ``f``, and each pair of S is found
exactly once.  Memory is Σ deg_A over the requested rows, plus Σ deg_B
over the L edges those rows can reach, plus nnz(S).  No row costs
deg_A·deg_B, so an L edge between two hubs is as cheap as its squares
allow; many L edges on one hub still cost that hub's degree each.
"""

from __future__ import annotations

import numpy as np

from repro._util import asarray_i64, concat_ranges
from repro.errors import DimensionError
from repro.graph.graph import Graph
from repro.sparse.bipartite import BipartiteGraph
from repro.sparse.build import coo_to_csr
from repro.sparse.csr import CSRMatrix

__all__ = ["build_squares", "squares_coo"]


def squares_coo(
    a_graph: Graph,
    b_graph: Graph,
    ell: BipartiteGraph,
    row_ids: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The squares of a set of L edges as COO ``(rows, cols)``.

    Returns one ``(e, f)`` pair per nonzero ``S[e, f]`` with ``e`` in
    ``row_ids`` (all L edges when ``None``; any order, no repeats), in
    no particular order.  :func:`build_squares` runs it over all rows;
    the incremental delta path (:mod:`repro.incremental`) runs it over
    just the dirty rows of a perturbed problem.

    The join keys are packed as ``j·n_B + i'``, like L's own edge keys.
    The column side is cut to what the requested rows can meet: L
    edges ``(j, j')`` with ``j`` an A-neighbour of a requested row and
    ``j'`` a B-neighbour of one, and keys whose ``i'`` is a requested
    row's B end.  So a few rows cost little more than their own
    neighbourhoods, plus O(n + |E_L|) for the marks.
    """
    if a_graph.n != ell.n_a or b_graph.n != ell.n_b:
        raise DimensionError(
            "L vertex sets do not match A and B "
            f"({ell.n_a}/{a_graph.n}, {ell.n_b}/{b_graph.n})"
        )
    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    n_b = ell.n_b
    rows = (np.arange(ell.n_edges, dtype=np.int64) if row_ids is None
            else asarray_i64(row_ids))
    if len(rows) == 0:
        return empty
    a_ptr, b_ptr = a_graph.indptr, b_graph.indptr
    # Each temporary is dropped once used, so the peak is the two sides
    # plus one sort's scratch rather than every intermediate at once.

    # Row side: (j·n_B + i', e) for e = (i, i') and j in N_A(i).
    row_a, row_b = ell.edge_a[rows], ell.edge_b[rows]
    pos, lens = concat_ranges(a_ptr[row_a], a_ptr[row_a + 1])
    j = a_graph.adj[pos]
    del pos, row_a
    reached = np.zeros(ell.n_a, dtype=bool)
    reached[j] = True
    left_keys = j * n_b + np.repeat(row_b, lens)
    left_ids = np.repeat(rows, lens)
    del j, lens
    order = np.argsort(left_keys)
    left_keys = left_keys[order]
    left_ids = left_ids[order]
    del order

    # Column side: (j·n_B + i', f) for f = (j, j') and i' in N_B(j'),
    # kept to the f and i' the row side can meet.
    is_end = np.zeros(n_b, dtype=bool)
    is_end[row_b] = True
    ends = np.flatnonzero(is_end)
    pos, _ = concat_ranges(b_ptr[ends], b_ptr[ends + 1])
    near_end = np.zeros(n_b, dtype=bool)
    near_end[b_graph.adj[pos]] = True
    del pos, ends, row_b
    f = np.flatnonzero(reached[ell.edge_a] & near_end[ell.edge_b])
    del reached, near_end
    f_b = ell.edge_b[f]
    pos, lens = concat_ranges(b_ptr[f_b], b_ptr[f_b + 1])
    i_b = b_graph.adj[pos]
    del pos, f_b
    keep = is_end[i_b]
    right_keys = (np.repeat(ell.edge_a[f] * n_b, lens) + i_b)[keep]
    right_ids = np.repeat(f, lens)[keep]
    del i_b, keep, f, lens
    order = np.argsort(right_keys)
    right_keys = right_keys[order]
    right_ids = right_ids[order]
    del order
    if len(left_keys) == 0 or len(right_keys) == 0:
        return empty

    # Match equal keys: each row entry pairs with the run of column
    # entries holding its key.
    lo = np.searchsorted(right_keys, left_keys)
    hit = right_keys.take(lo, mode="clip") == left_keys
    hi = np.searchsorted(right_keys, left_keys[hit], side="right")
    pos, counts = concat_ranges(lo[hit], hi)
    return np.repeat(left_ids[hit], counts), right_ids[pos]


def build_squares(
    a_graph: Graph,
    b_graph: Graph,
    ell: BipartiteGraph,
) -> CSRMatrix:
    """Build **S** for the alignment instance ``(A, B, L)``.

    Parameters
    ----------
    a_graph, b_graph:
        The two undirected input graphs.
    ell:
        The candidate-match graph L; rows/cols of **S** are its edges.
    """
    m = ell.n_edges
    rows, cols = squares_coo(a_graph, b_graph, ell)
    # Each (e, f) pair is produced at most once, so "error" dedup doubles
    # as a structural sanity check.
    return coo_to_csr(rows, cols, 1.0, (m, m), dedup="error")
