"""The ``othermax`` kernels of the BP method (paper §III-B).

For a weight vector **g** over the edges of L::

    [othermaxrow(g)]_{i,i'} = bound_{0,∞}[ max_{(i,k') ∈ E_L, k' ≠ i'} g_{i,k'} ]

i.e. within each row (edges sharing the A-vertex ``i``), every entry is
replaced by the row maximum — except the maximum itself, which is replaced
by the second largest — then clipped below at 0.  ``othermaxcol`` is the
same over columns (edges sharing a B-vertex).

Vectorization: the clip decides most of the answer.  An entry's output
is the largest *positive* other entry of its group, or 0 when there is
none, so the kernel reduces over the positive entries only: each
group's largest positive value, how many entries reach it, and the
largest positive value below it.  Every output is then the group's
largest positive value (0 for a group without one), except at an entry
that alone holds that maximum, which gets the value below it.  Max is
exact and a positive value is never a signed zero, so the result is
bit-for-bit the definition's, whatever order the entries come in.  From
BP's second iteration on an iterate holds about one positive entry per
group, so the kernel's full passes over the m entries are one
comparison, one index scan and one gather of the group maxima.

Group ids come from ``indptr`` (:func:`othermax_grouped`) or straight
from L's endpoint arrays: ``edge_a`` is the row kernel's group of each
edge, and ``edge_b`` lets the column kernel read **g** in edge order,
with no pass through L's column permutation.
"""

from __future__ import annotations

import numpy as np

from repro._util import asarray_f64
from repro.errors import DimensionError
from repro.sparse.bipartite import BipartiteGraph

__all__ = ["othermax_grouped", "othermax_row", "othermax_col"]


def _othermax(
    values: np.ndarray,
    group_of: np.ndarray,
    n_groups: int,
    out: np.ndarray | None,
) -> np.ndarray:
    """othermax of ``values`` with ``group_of[e]`` the group of entry ``e``."""
    if out is None:
        out = np.empty(len(values), dtype=np.float64)
    pos = np.flatnonzero(values > 0)
    pos_vals = values[pos]
    pos_groups = group_of[pos]
    top = np.zeros(n_groups)
    np.maximum.at(top, pos_groups, pos_vals)
    at_top = pos_vals == top[pos_groups]
    n_top = np.bincount(pos_groups[at_top], minlength=n_groups)
    below = ~at_top
    second = np.zeros(n_groups)
    np.maximum.at(second, pos_groups[below], pos_vals[below])
    np.take(top, group_of, out=out, mode="clip")  # ids are in range
    alone = at_top
    alone &= n_top[pos_groups] == 1
    out[pos[alone]] = second[pos_groups[alone]]
    return out


def othermax_grouped(
    values: np.ndarray, indptr: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Apply the othermax transform within each CSR-style group.

    ``values`` is any float vector; ``indptr`` delimits groups (must cover
    ``values`` exactly).  Elements of singleton groups have no "other"
    edge, so they get ``bound_{0,∞}(max ∅) = 0``.
    """
    values = asarray_f64(values)
    n_items = len(values)
    if int(indptr[-1]) != n_items or int(indptr[0]) != 0:
        raise DimensionError("indptr does not partition values")
    n_groups = len(indptr) - 1
    group_of = np.repeat(np.arange(n_groups, dtype=np.int64), np.diff(indptr))
    return _othermax(values, group_of, n_groups, out)


def othermax_row(
    ell: BipartiteGraph, g: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``othermaxrow``: groups are edges sharing an A-vertex."""
    g = asarray_f64(g)
    if g.shape != (ell.n_edges,):
        raise DimensionError("g has wrong length")
    return _othermax(g, ell.edge_a, ell.n_a, out)


def othermax_col(
    ell: BipartiteGraph,
    g: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``othermaxcol``: groups are edges sharing a B-vertex.

    The paper pulls the column groups together through L's column
    permutation (§IV-A); grouping by ``edge_b`` reads **g** in edge
    order instead, so no permuted copy is made.
    """
    g = asarray_f64(g)
    if g.shape != (ell.n_edges,):
        raise DimensionError("g has wrong length")
    return _othermax(g, ell.edge_b, ell.n_b, out)
