"""A compact undirected graph stored as a CSR adjacency structure.

The alignment inputs A and B are simple undirected graphs; the only
operations the algorithms need are neighbor iteration (for building the
squares matrix **S**) and membership tests, so the representation is a
sorted CSR adjacency plus an edge list, whose packed keys ``u·n + v``
are kept for edge-set edits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import asarray_i64, check_same_length
from repro.errors import ValidationError

__all__ = ["Graph"]


@dataclass
class Graph:
    """Simple undirected graph (no self-loops, no multi-edges).

    Attributes
    ----------
    n:
        Number of vertices, ids ``0..n-1``.
    edge_u, edge_v:
        Endpoint arrays with ``edge_u < edge_v``, sorted lexicographically;
        each undirected edge stored once.
    """

    n: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    _indptr: np.ndarray = field(default=None, repr=False, compare=False)
    _adj: np.ndarray = field(default=None, repr=False, compare=False)
    _keys: np.ndarray = field(default=None, repr=False, compare=False)

    @classmethod
    def from_edges(
        cls, n: int, edge_u: np.ndarray, edge_v: np.ndarray
    ) -> "Graph":
        """Build from an arbitrary edge list.

        Self-loops are dropped; duplicate and reversed duplicates collapse
        to a single undirected edge.
        """
        u = asarray_i64(edge_u)
        v = asarray_i64(edge_v)
        check_same_length(u, v)
        if len(u):
            if min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n:
                raise ValidationError("vertex id out of range")
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        keep = lo != hi  # drop self-loops
        lo, hi = lo[keep], hi[keep]
        keys = lo * n + hi
        keys = np.unique(keys)
        return cls(n, keys // n, keys % n)

    def __post_init__(self) -> None:
        self.edge_u = asarray_i64(self.edge_u)
        self.edge_v = asarray_i64(self.edge_v)
        check_same_length(self.edge_u, self.edge_v)
        self._keys = self.edge_u * self.n + self.edge_v
        if len(self.edge_u):
            if np.any(self.edge_u >= self.edge_v):
                raise ValidationError(
                    "edges must satisfy u < v; use from_edges() for raw input"
                )
            if np.any(np.diff(self._keys) <= 0):
                raise ValidationError(
                    "edges must be sorted and unique; use from_edges()"
                )
            if self.edge_v.max() >= self.n:
                raise ValidationError("vertex id out of range")
        # CSR adjacency with both directions, sorted per vertex.
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.add.at(indptr, self.edge_u + 1, 1)
        np.add.at(indptr, self.edge_v + 1, 1)
        np.cumsum(indptr, out=indptr)
        heads = np.concatenate([self.edge_u, self.edge_v])
        tails = np.concatenate([self.edge_v, self.edge_u])
        order = np.lexsort((tails, heads))
        self._indptr = indptr
        self._adj = tails[order]

    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return len(self.edge_u)

    @property
    def indptr(self) -> np.ndarray:
        """CSR adjacency row pointer (length ``n + 1``)."""
        return self._indptr

    @property
    def edge_keys(self) -> np.ndarray:
        """The strictly increasing edge keys ``edge_u·n + edge_v``."""
        return self._keys

    @property
    def adj(self) -> np.ndarray:
        """Flat neighbor array; vertex ``v`` owns ``adj[indptr[v]:indptr[v+1]]``."""
        return self._adj

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of vertex ``v`` (a view, do not mutate)."""
        return self._adj[self._indptr[v] : self._indptr[v + 1]]

    def degrees(self) -> np.ndarray:
        """Per-vertex degrees."""
        return np.diff(self._indptr)

    def has_edge(self, u: int, v: int) -> bool:
        """Membership test via binary search in the sorted adjacency."""
        if u == v:
            return False
        nbrs = self.neighbors(u)
        k = np.searchsorted(nbrs, v)
        return bool(k < len(nbrs) and nbrs[k] == v)

    def edge_set(self) -> set[tuple[int, int]]:
        """Return edges as a set of ``(min, max)`` tuples (tests/small graphs)."""
        return set(zip(self.edge_u.tolist(), self.edge_v.tolist()))

    def union_edges(self, other: "Graph") -> "Graph":
        """Return the union graph of two graphs on the same vertex set."""
        if other.n != self.n:
            raise ValidationError("vertex-set sizes differ")
        return Graph.from_edges(
            self.n,
            np.concatenate([self.edge_u, other.edge_u]),
            np.concatenate([self.edge_v, other.edge_v]),
        )
