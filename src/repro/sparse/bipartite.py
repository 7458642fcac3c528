"""The weighted bipartite graph *L* between the vertex sets of A and B.

Every heuristic weight vector in the paper (w, y, z, d, ...) is indexed by
the edges of L, so the central design decision is a single canonical edge-id
space shared by all of them, and four views of L over it:

* Edge ids ``0..m-1`` are assigned in row-major order (sorted by
  ``(a, b)``), so the *row view* (grouping by A-vertex) is just an
  ``indptr`` array — the edge arrays themselves are already row-grouped.
* The *column view* (grouping by B-vertex) is a precomputed permutation of
  edge ids plus its own ``indptr`` — this is the same permutation trick the
  paper uses for transposes, applied to L.
* The *edge keys* ``a·n_b + b`` are therefore strictly increasing, so an
  ``(a, b)`` lookup or a key-set edit is a ``searchsorted`` against them.
* The *general-graph view* lists L over ``n_a + n_b`` vertices "by not
  making a distinction between the two sets of vertices" (paper §V), the
  form the general-graph matchers take.  It is built on first use.

Each view is built once per graph, and :meth:`BipartiteGraph.with_weights`
views share all four; per-iteration work only gathers through them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import (
    asarray_f64,
    asarray_i64,
    check_same_length,
    concat_ranges,
    sorted_lookup,
    sorted_union,
)
from repro.errors import DimensionError, ValidationError

__all__ = ["BipartiteGraph"]


@dataclass
class BipartiteGraph:
    """Weighted bipartite graph with a canonical row-major edge-id space.

    Attributes
    ----------
    n_a, n_b:
        Sizes of the two vertex sets (graph A side and graph B side).
    edge_a, edge_b:
        Endpoint arrays of length ``m``; edge ``e`` joins A-vertex
        ``edge_a[e]`` to B-vertex ``edge_b[e]``.  Sorted by ``(a, b)``.
    weights:
        ``float64`` edge weights (the vector **w** of the paper).

    Use :meth:`from_edges` to construct from an arbitrary-order edge list.
    """

    n_a: int
    n_b: int
    edge_a: np.ndarray
    edge_b: np.ndarray
    weights: np.ndarray
    _row_ptr: np.ndarray = field(default=None, repr=False, compare=False)
    _col_ptr: np.ndarray = field(default=None, repr=False, compare=False)
    _col_perm: np.ndarray = field(default=None, repr=False, compare=False)
    _keys: np.ndarray = field(default=None, repr=False, compare=False)
    #: Views built on first use; ``with_weights`` views share the dict.
    _lazy: dict = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        n_a: int,
        n_b: int,
        edge_a: np.ndarray,
        edge_b: np.ndarray,
        weights: np.ndarray | float = 1.0,
        *,
        dedup: str = "max",
    ) -> "BipartiteGraph":
        """Build from an unsorted edge list, deduplicating repeats.

        ``dedup`` follows :func:`repro.sparse.build.coo_to_csr` semantics;
        the default ``"max"`` matches how text-similarity L graphs are
        built (keep the best score for a candidate pair).
        """
        edge_a = asarray_i64(edge_a)
        edge_b = asarray_i64(edge_b)
        m = check_same_length(edge_a, edge_b)
        if np.isscalar(weights):
            weights = np.full(m, float(weights))
        weights = asarray_f64(weights)
        if len(weights) != m:
            raise DimensionError("weights length mismatch")
        if m:
            if edge_a.min() < 0 or edge_a.max() >= n_a:
                raise ValidationError("A-side endpoint out of range")
            if edge_b.min() < 0 or edge_b.max() >= n_b:
                raise ValidationError("B-side endpoint out of range")
        order = np.lexsort((edge_b, edge_a))
        a, b, w = edge_a[order], edge_b[order], weights[order]
        if m:
            is_new = np.empty(m, dtype=bool)
            is_new[0] = True
            is_new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
            if not is_new.all():
                starts = np.flatnonzero(is_new)
                if dedup == "max":
                    w = np.maximum.reduceat(w, starts)
                elif dedup == "sum":
                    w = np.add.reduceat(w, starts)
                elif dedup == "first":
                    w = w[starts]
                elif dedup == "error":
                    raise ValidationError("duplicate L edges present")
                else:
                    raise ValidationError(f"unknown dedup policy {dedup!r}")
                a, b = a[starts], b[starts]
        return cls(n_a, n_b, a, b, w)

    def __post_init__(self) -> None:
        self.edge_a = asarray_i64(self.edge_a)
        self.edge_b = asarray_i64(self.edge_b)
        self.weights = asarray_f64(self.weights)
        m = check_same_length(self.edge_a, self.edge_b, self.weights)
        self._keys = self.edge_a * self.n_b + self.edge_b
        self._lazy = {}
        if m:
            if self.edge_a.min() < 0 or self.edge_a.max() >= self.n_a:
                raise ValidationError("A-side endpoint out of range")
            if self.edge_b.min() < 0 or self.edge_b.max() >= self.n_b:
                raise ValidationError("B-side endpoint out of range")
            if np.any(np.diff(self._keys) <= 0):
                raise ValidationError(
                    "edges must be strictly sorted by (a, b); "
                    "use from_edges() for arbitrary input"
                )
            if not np.isfinite(self.weights).all():
                raise ValidationError(
                    "edge weights must be finite (NaN/inf found); "
                    "a corrupted weight silently poisons every objective "
                    "built on this graph"
                )
        # Row view: indptr over A vertices (edges already row-grouped).
        row_ptr = np.zeros(self.n_a + 1, dtype=np.int64)
        np.add.at(row_ptr, self.edge_a + 1, 1)
        np.cumsum(row_ptr, out=row_ptr)
        self._row_ptr = row_ptr
        # Column view: permutation sorting edge ids by (b, a) + indptr.
        col_perm = np.lexsort((self.edge_a, self.edge_b))
        col_ptr = np.zeros(self.n_b + 1, dtype=np.int64)
        np.add.at(col_ptr, self.edge_b + 1, 1)
        np.cumsum(col_ptr, out=col_ptr)
        self._col_perm = asarray_i64(col_perm)
        self._col_ptr = col_ptr

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def n_edges(self) -> int:
        """Number of edges ``m = |E_L|``."""
        return len(self.edge_a)

    @property
    def row_ptr(self) -> np.ndarray:
        """``indptr`` over A vertices; row ``i`` owns edges ``row_ptr[i]:row_ptr[i+1]``."""
        return self._row_ptr

    @property
    def col_ptr(self) -> np.ndarray:
        """``indptr`` over B vertices for the column view (use with :attr:`col_perm`)."""
        return self._col_ptr

    @property
    def col_perm(self) -> np.ndarray:
        """Edge-id permutation grouping edges by B-vertex (sorted by ``(b, a)``)."""
        return self._col_perm

    @property
    def edge_keys(self) -> np.ndarray:
        """The strictly increasing edge keys ``edge_a·n_b + edge_b``."""
        return self._keys

    def degrees_a(self) -> np.ndarray:
        """Per-A-vertex edge counts."""
        return np.diff(self._row_ptr)

    def degrees_b(self) -> np.ndarray:
        """Per-B-vertex edge counts."""
        return np.diff(self._col_ptr)

    def edges_of_a(self, i: int) -> np.ndarray:
        """Edge ids incident on A-vertex ``i`` (a contiguous range)."""
        return np.arange(self._row_ptr[i], self._row_ptr[i + 1], dtype=np.int64)

    def edges_of_b(self, j: int) -> np.ndarray:
        """Edge ids incident on B-vertex ``j``."""
        return self._col_perm[self._col_ptr[j] : self._col_ptr[j + 1]]

    def lookup_edges(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized ``(a, b) -> edge id`` lookup; ``-1`` where absent.

        The edge keys ``a·n_b + b`` are already sorted, so a
        ``searchsorted`` suffices.  A pair outside ``[0, n_a) × [0, n_b)``
        is absent too: its packed key could equal another edge's.
        """
        a, b = asarray_i64(a), asarray_i64(b)
        inside = (a >= 0) & (a < self.n_a) & (b >= 0) & (b < self.n_b)
        return sorted_lookup(self._keys, np.where(inside, a * self.n_b + b, -1))

    def incident_edges(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Sorted ids of the edges with an A end in ``a`` or a B end in ``b``.

        These are the othermax groups of those vertices (BP's row and
        column competitions), gathered from the row and column views'
        ranges.  Either side may be empty, unsorted or repeat ids.
        """
        rows = sorted_union(self.n_a, a)
        cols = sorted_union(self.n_b, b)
        e_rows, _ = concat_ranges(self._row_ptr[rows], self._row_ptr[rows + 1])
        pos_cols, _ = concat_ranges(self._col_ptr[cols],
                                    self._col_ptr[cols + 1])
        return sorted_union(self.n_edges, e_rows, self._col_perm[pos_cols])

    # ------------------------------------------------------------------
    # Views for the matching substrate
    # ------------------------------------------------------------------
    @property
    def general_view(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """L as a general undirected graph over ``n_a + n_b`` vertices.

        Returns ``(indptr, neighbors, half_eid)``: vertices ``0..n_a-1``
        are the A side and ``n_a..n_a+n_b-1`` the B side, and each L edge
        appears as two half-edges carrying its edge id.  Every vertex
        lists its neighbors in increasing order.  Built on first use.
        """
        view = self._lazy.get("general")
        if view is None:
            # A-side half-edges are the row view in order, B-side ones the
            # column view, so every vertex lists its neighbors sorted.
            m = self.n_edges
            view = self._lazy["general"] = (
                np.concatenate([self._row_ptr, m + self._col_ptr[1:]]),
                np.concatenate([self.n_a + self.edge_b,
                                self.edge_a[self._col_perm]]),
                np.concatenate([np.arange(m, dtype=np.int64), self._col_perm]),
            )
        return view

    def as_general_graph(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return L as a general undirected graph, with half-edge weights.

        The paper feeds L to the locally-dominant matcher "by not making a
        distinction between the two sets of vertices".  Returns
        ``(indptr, neighbors, half_edge_eid, half_edge_weight)``: the
        :attr:`general_view` plus this graph's weights gathered onto its
        half-edges.
        """
        indptr, neighbors, half_eid = self.general_view
        return indptr, neighbors, half_eid, self.weights[half_eid]

    def subgraph(self, edge_mask: np.ndarray) -> "BipartiteGraph":
        """Return the bipartite graph keeping only edges where ``edge_mask``.

        Vertex ids are preserved (no compaction) so weight vectors indexed
        by the original edge ids can be sliced with the same mask.
        """
        edge_mask = np.asarray(edge_mask)
        if edge_mask.shape != (self.n_edges,):
            raise DimensionError("edge_mask has wrong length")
        return BipartiteGraph(
            self.n_a,
            self.n_b,
            self.edge_a[edge_mask],
            self.edge_b[edge_mask],
            self.weights[edge_mask],
        )

    def with_weights(self, weights: np.ndarray) -> "BipartiteGraph":
        """Return a view of this graph carrying a different weight vector."""
        weights = asarray_f64(weights)
        if weights.shape != (self.n_edges,):
            raise DimensionError("weights has wrong length")
        g = BipartiteGraph.__new__(BipartiteGraph)
        g.n_a, g.n_b = self.n_a, self.n_b
        g.edge_a, g.edge_b = self.edge_a, self.edge_b
        g.weights = weights
        g._row_ptr = self._row_ptr
        g._col_ptr = self._col_ptr
        g._col_perm = self._col_perm
        g._keys = self._keys
        g._lazy = self._lazy
        return g
