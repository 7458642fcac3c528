"""Small internal helpers shared across :mod:`repro` subpackages."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "as_rng",
    "asarray_i64",
    "asarray_f64",
    "check_same_length",
    "concat_ranges",
    "numeric_rows",
    "sorted_lookup",
    "sorted_union",
    "vertex_ids",
]

#: float64 holds every integer of magnitude below 2**53 exactly.
_EXACT_FLOAT_INT = 2.0 ** 53


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Accepts ``None`` (fresh entropy), an integer seed, or an existing
    generator (returned unchanged so callers can thread one RNG through a
    pipeline deterministically).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def asarray_i64(values: Iterable[int] | np.ndarray) -> np.ndarray:
    """Return ``values`` as a contiguous ``int64`` array (copy only if needed)."""
    return np.ascontiguousarray(values, dtype=np.int64)


def asarray_f64(values: Iterable[float] | np.ndarray) -> np.ndarray:
    """Return ``values`` as a contiguous ``float64`` array (copy only if needed)."""
    return np.ascontiguousarray(values, dtype=np.float64)


def check_same_length(*arrays: Sequence | np.ndarray) -> int:
    """Return the common length of ``arrays`` or raise ``ValueError``."""
    lengths = {len(a) for a in arrays}
    if len(lengths) > 1:
        raise ValueError(f"arrays have mismatched lengths: {sorted(lengths)}")
    return lengths.pop() if lengths else 0


def concat_ranges(
    starts: np.ndarray, stops: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate the ``[start, stop)`` index ranges into one array.

    Returns ``(indices, lengths)``; empty ranges contribute nothing but
    keep their slot in ``lengths`` (callers need per-range boundaries).
    This is how CSR rows are gathered without a Python loop.
    """
    lens = stops - starts
    ends = np.cumsum(lens)
    total = int(ends[-1]) if len(ends) else 0
    if total == 0:
        return np.empty(0, dtype=np.int64), lens
    # Output k of range r is starts[r] + (k - range r's first output).
    return np.repeat(starts - (ends - lens), lens) + np.arange(
        total, dtype=np.int64
    ), lens


def sorted_lookup(keys: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Positions of ``probe`` in the strictly increasing ``keys``.

    Returns an ``int64`` array shaped like ``probe``: the index of each
    probe in ``keys``, or ``-1`` where the key is absent.  It joins
    packed edge keys (``a·n_b + b``, behind
    :meth:`~repro.sparse.bipartite.BipartiteGraph.lookup_edges`) and the
    warm seed's square keys (``row·m + col``).
    """
    probe = np.asarray(probe, dtype=np.int64)
    if len(keys) == 0:
        return np.full(probe.shape, -1, dtype=np.int64)
    pos = np.minimum(np.searchsorted(keys, probe), len(keys) - 1)
    return np.where(keys[pos] == probe, pos, -1).astype(np.int64, copy=False)


def sorted_union(n: int, *index_arrays: np.ndarray) -> np.ndarray:
    """The distinct values of ``index_arrays`` (all in ``[0, n)``), sorted.

    A mark array and ``flatnonzero``: what ``np.unique`` of their
    concatenation returns, without its sort.
    """
    mark = np.zeros(n, dtype=bool)
    for idx in index_arrays:
        mark[idx] = True
    return np.flatnonzero(mark)


def numeric_rows(rows: list, width: int) -> np.ndarray | None:
    """Decode a JSON list of fixed-width number rows with one ``np.asarray``.

    The row check of every JSON edge list the package reads: the wire
    problem's graphs and L (:mod:`repro.serve.wire`) and an edit
    script's fields (:meth:`repro.incremental.ProblemDelta.from_dict`),
    and of steering's pairs (:mod:`repro.core.steering`).

    Args:
        rows: The JSON list of rows.
        width: The row length (2 for ``[u, v]``, 3 for ``[a, b, w]``).

    Returns:
        An ``(m, width)`` array of bools, ints or floats, or ``None``
        when the rows are ragged, of another width, or hold anything
        but numbers (``null``, strings, nested lists, objects, ints
        beyond int64).
    """
    if not rows:
        return np.zeros((0, width))
    try:
        arr = np.asarray(rows)
    except (ValueError, TypeError, OverflowError):
        return None
    if arr.ndim != 2 or arr.shape[1] != width or \
            arr.dtype.kind not in "bif":
        return None
    return arr


def vertex_ids(columns: np.ndarray) -> np.ndarray | None:
    """Numeric id columns as int64, or ``None`` if one is not an integer.

    A float id counts when it has an integral value below 2**53 (``1.0``
    is vertex 1); ``0.7``, NaN and ±inf do not.
    """
    if columns.dtype.kind == "f" and not (
        np.all(np.abs(columns) < _EXACT_FLOAT_INT)
        and np.all(np.floor(columns) == columns)
    ):
        return None
    return columns.astype(np.int64)
