"""Vectorized sparse kernels used by both alignment methods.

These mirror the paper's hand-written OpenMP "parallel for" loops (which
beat MKL there because the operations are so simple).  In Python the
corresponding idiom is a single NumPy expression over the flat value
arrays; every kernel accepts an ``out`` argument so iteration loops can be
allocation-free, matching the paper's preallocate-everything discipline.
"""

from __future__ import annotations

import numpy as np

from repro._util import asarray_f64
from repro.errors import DimensionError
from repro.sparse.csr import CSRMatrix

__all__ = [
    "spmv",
    "row_sums",
    "row_scale",
    "bound",
    "daxpy",
    "quadratic_form",
]


def spmv(mat: CSRMatrix, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Compute ``mat @ x`` for a dense vector ``x``.

    Vectorized as a gather (``x[indices] * data``) followed by a segmented
    sum per row via ``np.add.reduceat`` — no Python-level loop.
    """
    x = asarray_f64(x)
    if x.shape != (mat.n_cols,):
        raise DimensionError(f"x has shape {x.shape}, expected ({mat.n_cols},)")
    if out is None:
        out = np.zeros(mat.n_rows, dtype=np.float64)
    else:
        if out.shape != (mat.n_rows,):
            raise DimensionError(
                f"out has shape {out.shape}, expected ({mat.n_rows},)"
            )
        out[:] = 0.0
    if mat.nnz == 0 or mat.n_rows == 0:
        return out
    products = mat.data * x[mat.indices]
    _segment_sum(products, mat.indptr, out)
    return out


def row_sums(mat: CSRMatrix, out: np.ndarray | None = None) -> np.ndarray:
    """Compute per-row sums of the stored values (``mat @ e``)."""
    if out is None:
        out = np.zeros(mat.n_rows, dtype=np.float64)
    else:
        if out.shape != (mat.n_rows,):
            raise DimensionError(
                f"out has shape {out.shape}, expected ({mat.n_rows},)"
            )
        out[:] = 0.0
    if mat.nnz == 0 or mat.n_rows == 0:
        return out
    _segment_sum(mat.data, mat.indptr, out)
    return out


def _segment_sum(values: np.ndarray, indptr: np.ndarray, out: np.ndarray) -> None:
    """Sum ``values`` into ``out`` per CSR row, leaving empty rows alone.

    ``np.add.reduceat`` mishandles empty segments (it returns the *next*
    element instead of 0), so it runs over the starts of the non-empty
    rows only; a start equal to ``len(values)`` would be illegal but
    cannot occur for a non-empty row.
    """
    rows = np.flatnonzero(indptr[1:] != indptr[:-1])
    if len(rows):
        out[rows] = np.add.reduceat(values, indptr[rows])


def row_scale(
    mat: CSRMatrix, scale: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Return the value array of ``diag(scale) @ mat`` (structure unchanged).

    Used by Klau step 5 (``X @ triu(S_L)``) and BP step 4
    (``diag(y+z-d) @ S``): the paper notes "there is no need to form the
    diagonal matrix".
    """
    scale = asarray_f64(scale)
    if scale.shape != (mat.n_rows,):
        raise DimensionError(
            f"scale has shape {scale.shape}, expected ({mat.n_rows},)"
        )
    expanded = np.repeat(scale, mat.row_lengths())
    if out is None:
        return expanded * mat.data
    np.multiply(expanded, mat.data, out=out)
    return out


def bound(
    values: np.ndarray,
    lower: float,
    upper: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Elementwise ``bound_{l,u}`` from Table I of the paper (clip)."""
    if lower > upper:
        raise ValueError(f"lower {lower} > upper {upper}")
    return np.clip(values, lower, upper, out=out)


def daxpy(
    alpha: float,
    x: np.ndarray,
    y: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Compute ``alpha * x + y`` (the paper's "Step 2: daxpy")."""
    x = asarray_f64(x)
    y = asarray_f64(y)
    if x.shape != y.shape:
        raise DimensionError(f"shape mismatch {x.shape} vs {y.shape}")
    if out is None:
        return alpha * x + y
    np.multiply(x, alpha, out=out)
    out += y
    return out


def quadratic_form(mat: CSRMatrix, x: np.ndarray) -> float:
    """Compute ``x.T @ mat @ x`` without materializing intermediates."""
    return float(np.dot(x, spmv(mat, x)))
