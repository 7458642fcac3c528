"""Zero-copy problem export over ``multiprocessing.shared_memory``.

The alignment problem's big arrays — L's endpoint/weight/view arrays and
the squares matrix's CSR triplet — are immutable after construction
(the paper's fixed-structure discipline).  That makes them ideal for
POSIX shared memory: the parent packs them into **one** segment, workers
map the segment and reconstruct NumPy views at the recorded offsets, and
no array bytes ever cross a pipe.

Lifecycle: the creating process owns the segment and must call
:meth:`SharedArrayBundle.unlink` (or use the bundle as a context
manager).  Attaching processes only :meth:`close`.  The attach path
unregisters the segment from ``multiprocessing.resource_tracker`` so a
worker exiting does not tear the segment down under the parent (the
tracker assumes whoever opens a segment owns it, which is wrong for this
read-only broadcast pattern).
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.core.problem import NetworkAlignmentProblem
from repro.errors import ValidationError
from repro.observe import get_bus
from repro.sparse.bipartite import BipartiteGraph
from repro.sparse.csr import CSRMatrix

__all__ = ["ArraySpec", "SharedArrayBundle", "SharedProblem"]

_ALIGN = 64  # cache-line align each array inside the segment


@dataclass(frozen=True)
class ArraySpec:
    """Placement of one named array inside the shared segment."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    offset: int

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape)))


class SharedArrayBundle:
    """A set of named immutable NumPy arrays in one shared segment.

    Create with :meth:`create` in the parent, ship :attr:`handle` (a
    small picklable tuple) to workers, re-open with :meth:`attach`.
    Attached views are marked read-only.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        specs: tuple[ArraySpec, ...],
        *,
        owner: bool,
    ) -> None:
        self._shm = shm
        self._specs = specs
        self._owner = owner
        self._closed = False
        self.arrays: dict[str, np.ndarray] = {}
        for spec in specs:
            view = np.ndarray(
                spec.shape, dtype=spec.dtype,
                buffer=shm.buf, offset=spec.offset,
            )
            if not owner:
                view.flags.writeable = False
            self.arrays[spec.name] = view

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, arrays: dict[str, np.ndarray]) -> "SharedArrayBundle":
        """Pack ``arrays`` (copied once) into a fresh shared segment."""
        specs: list[ArraySpec] = []
        offset = 0
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
            specs.append(
                ArraySpec(name, arr.dtype.str, tuple(arr.shape), offset)
            )
            offset += arr.nbytes
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        bundle = cls(shm, tuple(specs), owner=True)
        for name, arr in arrays.items():
            bundle.arrays[name][...] = arr
        bus = get_bus()
        if bus.active:
            bus.metrics.gauge("repro_backend_shm_bytes").set(shm.size)
        return bundle

    @property
    def handle(self) -> tuple:
        """Picklable re-open token: ``(segment_name, specs)``."""
        return (self._shm.name, self._specs)

    @classmethod
    def attach(cls, handle: tuple) -> "SharedArrayBundle":
        """Map an existing segment from its :attr:`handle`.

        The attach is deliberately *not* registered with
        ``multiprocessing.resource_tracker``: the tracker would unlink
        the segment when the attaching process exits, but only the
        creator owns the segment's lifetime (and with forked workers the
        shared tracker dedups names in a set, so register/unregister
        pairs from several attachers would double-remove and spew
        KeyErrors).  Python 3.13 exposes this as ``track=False``; on
        older runtimes the registration hook is stubbed for the call.
        """
        name, specs = handle
        register = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            shm = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = register
        return cls(shm, tuple(specs), owner=False)

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Size of the shared segment in bytes."""
        return self._shm.size

    def close(self) -> None:
        """Drop this process's mapping (both sides)."""
        if self._closed:
            return
        self._closed = True
        self.arrays.clear()
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (owner side only; implies :meth:`close`)."""
        self.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "SharedArrayBundle":
        return self

    def __exit__(self, *exc) -> None:
        self.unlink() if self._owner else self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.unlink() if self._owner else self.close()
        except Exception:
            pass


class _Vertices:
    """Stand-in for a :class:`repro.graph.Graph` carrying only ``n``.

    The worker-side problem only evaluates objectives — the solvers
    never touch A/B adjacency after the squares matrix is built, and
    :class:`NetworkAlignmentProblem` validation reads nothing but ``n``.
    """

    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        self.n = n


def _rebuild_bipartite(
    n_a: int,
    n_b: int,
    edge_a: np.ndarray,
    edge_b: np.ndarray,
    weights: np.ndarray,
    row_ptr: np.ndarray,
    col_ptr: np.ndarray,
    col_perm: np.ndarray,
) -> BipartiteGraph:
    """Reassemble a :class:`BipartiteGraph` from prevalidated views.

    Bypasses ``__post_init__`` — the arrays come from a graph that was
    validated in the parent, and re-deriving the views would copy the
    shared buffers.
    """
    g = BipartiteGraph.__new__(BipartiteGraph)
    g.n_a, g.n_b = n_a, n_b
    g.edge_a, g.edge_b = edge_a, edge_b
    g.weights = weights
    g._row_ptr = row_ptr
    g._col_ptr = col_ptr
    g._col_perm = col_perm
    return g


class SharedProblem:
    """A :class:`NetworkAlignmentProblem` exported through shared memory.

    The parent builds one (forcing the squares matrix), passes
    :attr:`handle` to workers, and each worker materializes a problem
    whose array payloads alias the shared segment — a matching scored
    in a worker is bit-identical to the parent's because it reads the
    very same float64 bytes.
    """

    def __init__(
        self, bundle: SharedArrayBundle, meta: dict, *, owner: bool
    ) -> None:
        self._bundle = bundle
        self._meta = meta
        self._owner = owner

    @classmethod
    def create(cls, problem: NetworkAlignmentProblem) -> "SharedProblem":
        ell = problem.ell
        squares = problem.squares  # force construction in the parent
        bundle = SharedArrayBundle.create(
            {
                "ell_edge_a": ell.edge_a,
                "ell_edge_b": ell.edge_b,
                "ell_weights": ell.weights,
                "ell_row_ptr": ell.row_ptr,
                "ell_col_ptr": ell.col_ptr,
                "ell_col_perm": ell.col_perm,
                "s_indptr": squares.indptr,
                "s_indices": squares.indices,
                "s_data": squares.data,
            }
        )
        meta = {
            "n_a": ell.n_a,
            "n_b": ell.n_b,
            "s_shape": squares.shape,
            "alpha": problem.alpha,
            "beta": problem.beta,
            "name": problem.name,
        }
        return cls(bundle, meta, owner=True)

    @property
    def handle(self) -> tuple:
        """Picklable token: ``(bundle_handle, meta)``."""
        return (self._bundle.handle, self._meta)

    @classmethod
    def attach(cls, handle: tuple) -> "SharedProblem":
        bundle_handle, meta = handle
        return cls(SharedArrayBundle.attach(bundle_handle), meta, owner=False)

    @property
    def nbytes(self) -> int:
        return self._bundle.nbytes

    def to_problem(self) -> NetworkAlignmentProblem:
        """Materialize the problem over the shared array views."""
        if not self._bundle.arrays:
            raise ValidationError("shared problem already closed")
        a = self._bundle.arrays
        meta = self._meta
        ell = _rebuild_bipartite(
            meta["n_a"], meta["n_b"],
            a["ell_edge_a"], a["ell_edge_b"], a["ell_weights"],
            a["ell_row_ptr"], a["ell_col_ptr"], a["ell_col_perm"],
        )
        squares = CSRMatrix(
            tuple(meta["s_shape"]), a["s_indptr"], a["s_indices"],
            a["s_data"], _checked=True,
        )
        problem = NetworkAlignmentProblem(
            a_graph=_Vertices(meta["n_a"]),  # type: ignore[arg-type]
            b_graph=_Vertices(meta["n_b"]),  # type: ignore[arg-type]
            ell=ell,
            alpha=meta["alpha"],
            beta=meta["beta"],
            name=meta["name"],
        )
        problem._squares = squares
        return problem

    def close(self) -> None:
        self._bundle.close()

    def unlink(self) -> None:
        self._bundle.unlink()

    def __enter__(self) -> "SharedProblem":
        return self

    def __exit__(self, *exc) -> None:
        self.unlink() if self._owner else self.close()
