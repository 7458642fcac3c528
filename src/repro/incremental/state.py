"""Warm solver state and the seeding that maps it onto an edited problem.

:class:`WarmState` captures everything a converged BP run knows — the
message vectors **y**, **z**, the square messages **S**:sup:`(k)`, the
matching it returned — *keyed by the L edges that indexed them*, so the
state survives re-numbering when the problem is edited.
:func:`seed_from_warm` transfers a warm state onto a (possibly
perturbed) problem: messages on surviving edges and squares carry over
verbatim, new structure starts cold, and the set of L edges whose local
computation actually changed becomes the initial *active set* of
incremental BP (:func:`repro.core.bp.belief_propagation_align` with
``warm_from=``).

When the edit is empty the seeding detects it (``unchanged=True``) and
the solver returns the prior matching bit-identically without iterating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.problem import NetworkAlignmentProblem
from repro.errors import ValidationError
from repro.matching.result import MatchingResult
from repro.sparse.csr import CSRMatrix

__all__ = ["WarmState", "seed_from_warm"]


@dataclass
class WarmState:
    """A converged solver state, keyed by L edges rather than edge ids.

    Attributes:
        n_a, n_b: Vertex-set sizes of the problem the state came from.
        edge_a, edge_b: The L edges (sorted by ``(a, b)``) the message
            vectors are indexed by.
        weights: The similarity weights **w** at capture time (used to
            detect reweighted edges when seeding).
        y, z: The converged message vectors (length ``m``).
        sk: The square messages **S**:sup:`(k)` (length ``nnz(S)``),
            stored alongside the structure that indexes them.
        s_indptr, s_indices: The CSR structure of **S** at capture time.
        mate_a: A-side mate array of the returned matching.
        objective: The returned objective (provenance only).
        method: Solver that produced the state (``"bp"``).
        digest: Optional problem digest for lineage bookkeeping.
    """

    n_a: int
    n_b: int
    edge_a: np.ndarray
    edge_b: np.ndarray
    weights: np.ndarray
    y: np.ndarray
    z: np.ndarray
    sk: np.ndarray
    s_indptr: np.ndarray
    s_indices: np.ndarray
    mate_a: np.ndarray
    objective: float
    method: str = "bp"
    digest: str | None = None

    def __post_init__(self) -> None:
        m = len(self.edge_a)
        if not (len(self.edge_b) == len(self.weights) == len(self.y)
                == len(self.z) == m):
            raise ValidationError("warm state edge arrays disagree on m")
        if len(self.s_indptr) != m + 1:
            raise ValidationError("warm state S structure disagrees on m")
        if len(self.sk) != len(self.s_indices):
            raise ValidationError("warm state sk does not match nnz(S)")

    @property
    def n_edges(self) -> int:
        """``m``, the number of L edges the state is indexed by."""
        return len(self.edge_a)

    @classmethod
    def from_result(
        cls,
        problem: NetworkAlignmentProblem,
        result: Any,
        digest: str | None = None,
    ) -> "WarmState":
        """Capture a warm state from an :class:`AlignmentResult`.

        Args:
            problem: The problem ``result`` was solved on.
            result: The result; must carry ``solver_state`` (run the
                solver with ``keep_state=True``).
            digest: Optional problem digest to record as lineage.
        """
        state = getattr(result, "solver_state", None)
        if not state:
            raise ValidationError(
                "result carries no solver state; run align() with "
                "keep_state=True to capture one"
            )
        s_mat = problem.squares
        return cls(
            n_a=problem.ell.n_a,
            n_b=problem.ell.n_b,
            edge_a=problem.ell.edge_a.copy(),
            edge_b=problem.ell.edge_b.copy(),
            weights=problem.ell.weights.copy(),
            y=np.asarray(state["y"], dtype=np.float64).copy(),
            z=np.asarray(state["z"], dtype=np.float64).copy(),
            sk=np.asarray(state["sk"], dtype=np.float64).copy(),
            s_indptr=s_mat.indptr.copy(),
            s_indices=s_mat.indices.copy(),
            mate_a=result.matching.mate_a.copy(),
            objective=float(result.objective),
            method="bp",
            digest=digest,
        )

    @classmethod
    def from_checkpoint(
        cls, problem: NetworkAlignmentProblem, checkpoint: Any
    ) -> "WarmState":
        """Capture a warm state from a BP :class:`SolverCheckpoint`.

        The checkpoint's tracker snapshot supplies the matching; its
        ``y``/``z``/``sk`` arrays supply the messages.
        """
        if checkpoint.method != "bp":
            raise ValidationError(
                f"warm realignment needs a 'bp' checkpoint, got "
                f"{checkpoint.method!r}"
            )
        state = checkpoint.state
        tracker = state.get("tracker", {})
        matching = tracker.get("best_matching")
        if matching is None:
            raise ValidationError(
                "checkpoint has no rounded matching to warm-start from"
            )
        s_mat = problem.squares
        return cls(
            n_a=problem.ell.n_a,
            n_b=problem.ell.n_b,
            edge_a=problem.ell.edge_a.copy(),
            edge_b=problem.ell.edge_b.copy(),
            weights=problem.ell.weights.copy(),
            y=np.asarray(state["y"], dtype=np.float64).copy(),
            z=np.asarray(state["z"], dtype=np.float64).copy(),
            sk=np.asarray(state["sk"], dtype=np.float64).copy(),
            s_indptr=s_mat.indptr.copy(),
            s_indices=s_mat.indices.copy(),
            mate_a=matching.mate_a.copy(),
            objective=float(tracker.get("best_objective", float("-inf"))),
            method="bp",
            digest=None,
        )

    def save(self, path: str) -> None:
        """Persist to an ``.npz`` file (inverse of :meth:`load`)."""
        np.savez_compressed(
            path,
            n_a=self.n_a, n_b=self.n_b,
            edge_a=self.edge_a, edge_b=self.edge_b, weights=self.weights,
            y=self.y, z=self.z, sk=self.sk,
            s_indptr=self.s_indptr, s_indices=self.s_indices,
            mate_a=self.mate_a,
            objective=self.objective,
            method=np.array(self.method),
            digest=np.array(self.digest if self.digest is not None else ""),
        )

    @classmethod
    def load(cls, path: str) -> "WarmState":
        """Load a state persisted by :meth:`save`."""
        with np.load(path) as npz:
            digest = str(npz["digest"])
            return cls(
                n_a=int(npz["n_a"]), n_b=int(npz["n_b"]),
                edge_a=npz["edge_a"], edge_b=npz["edge_b"],
                weights=npz["weights"],
                y=npz["y"], z=npz["z"], sk=npz["sk"],
                s_indptr=npz["s_indptr"], s_indices=npz["s_indices"],
                mate_a=npz["mate_a"],
                objective=float(npz["objective"]),
                method=str(npz["method"]),
                digest=digest or None,
            )


@dataclass(frozen=True)
class _Seed:
    """Output of :func:`seed_from_warm` (internal to the BP warm path)."""

    y: np.ndarray
    z: np.ndarray
    sk: np.ndarray
    active: np.ndarray
    prior: MatchingResult
    unchanged: bool
    carried_edges: int
    carried_squares: int


def seed_from_warm(
    problem: NetworkAlignmentProblem,
    warm: WarmState,
    s_mat: CSRMatrix,
) -> _Seed:
    """Map a warm state onto ``problem``, computing the active seed.

    Messages transfer by L-edge key (surviving edges keep their values,
    new edges start at zero) and square messages by square key; the
    prior matching keeps every pair whose L edge survived.  The
    returned active set contains every L edge whose next-iteration
    computation differs from the converged fixed point: inserted or
    reweighted edges, edges sharing an othermax group with an inserted
    or deleted edge, and edges whose **S** row gained or lost squares.

    Args:
        problem: The (edited) problem to seed.
        warm: The prior converged state.
        s_mat: ``problem.squares`` (passed in so the caller controls
            when it is built).

    Raises:
        ValidationError: If the vertex sets disagree (deltas never
            resize them, so a mismatch means the state belongs to a
            different problem family).
    """
    ell = problem.ell
    if warm.n_a != ell.n_a or warm.n_b != ell.n_b:
        raise ValidationError(
            "warm state vertex sets do not match the problem "
            f"({warm.n_a}/{ell.n_a}, {warm.n_b}/{ell.n_b})"
        )
    m_new = ell.n_edges
    m_old = warm.n_edges
    new_keys = ell.edge_a * ell.n_b + ell.edge_b
    old_keys = warm.edge_a * ell.n_b + warm.edge_b

    # --- edge-level transfer -----------------------------------------
    pos = np.searchsorted(new_keys, old_keys)
    pos_c = np.minimum(pos, max(m_new - 1, 0))
    hit = ((pos < m_new) & (new_keys[pos_c] == old_keys)) if m_new \
        else np.zeros(m_old, dtype=bool)
    old_to_new = np.where(hit, pos_c, -1).astype(np.int64)
    y0 = np.zeros(m_new)
    z0 = np.zeros(m_new)
    surviving_new = old_to_new[hit]
    y0[surviving_new] = warm.y[hit]
    z0[surviving_new] = warm.z[hit]

    seeded = np.zeros(m_new, dtype=bool)
    seeded[surviving_new] = True
    inserted = np.flatnonzero(~seeded)
    deleted_old = np.flatnonzero(~hit)
    reweighted = surviving_new[
        warm.weights[hit] != ell.weights[surviving_new]
    ]

    # --- square-level transfer ---------------------------------------
    nnz_new = s_mat.nnz
    sk0 = np.zeros(nnz_new)
    rows_old = np.repeat(
        np.arange(m_old, dtype=np.int64), np.diff(warm.s_indptr)
    )
    old_r = old_to_new[rows_old]
    old_c = old_to_new[warm.s_indices]
    valid = (old_r >= 0) & (old_c >= 0)
    # CSR with sorted columns ⇒ (row, col) keys are strictly increasing,
    # so square values join by searchsorted just like edge values.
    new_sq_keys = s_mat.row_of_nonzero() * m_new + s_mat.indices
    probe = old_r[valid] * m_new + old_c[valid]
    spos = np.searchsorted(new_sq_keys, probe)
    spos_c = np.minimum(spos, max(nnz_new - 1, 0))
    shit = ((spos < nnz_new) & (new_sq_keys[spos_c] == probe)) if nnz_new \
        else np.zeros(len(probe), dtype=bool)
    sk0[spos_c[shit]] = warm.sk[valid][shit]
    sk_seeded = np.zeros(nnz_new, dtype=bool)
    sk_seeded[spos_c[shit]] = True

    # --- active seed --------------------------------------------------
    marks = [inserted, reweighted]
    # Rows with unseeded squares (gained a square) and surviving rows of
    # vanished squares (lost one): their F-row sums change.
    if nnz_new:
        marks.append(np.unique(s_mat.row_of_nonzero()[~sk_seeded]))
    lost = valid.copy()
    lost[valid] = ~shit
    if lost.any():
        marks.append(np.unique(old_r[lost]))
    # Othermax groups touched by an inserted or deleted edge: every edge
    # sharing an A- or B-vertex with one sees a different competition.
    touched_a: list[np.ndarray] = []
    touched_b: list[np.ndarray] = []
    if len(inserted):
        touched_a.append(ell.edge_a[inserted])
        touched_b.append(ell.edge_b[inserted])
    if len(deleted_old):
        touched_a.append(warm.edge_a[deleted_old])
        touched_b.append(warm.edge_b[deleted_old])
    if touched_a:
        verts_a = np.unique(np.concatenate(touched_a))
        verts_b = np.unique(np.concatenate(touched_b))
        marks.append(np.flatnonzero(np.isin(ell.edge_a, verts_a)))
        marks.append(np.flatnonzero(np.isin(ell.edge_b, verts_b)))
    active = np.unique(np.concatenate(marks).astype(np.int64)) \
        if marks else np.empty(0, dtype=np.int64)

    # --- prior matching: pairs whose L edge vanished go unmatched -----
    mate_a = warm.mate_a.copy()
    matched = np.flatnonzero(mate_a >= 0)
    if len(matched):
        eids = ell.lookup_edges(matched, mate_a[matched])
        mate_a[matched[eids < 0]] = -1

    unchanged = (
        m_new == m_old and len(active) == 0 and bool(hit.all())
        and bool(sk_seeded.all()) and nnz_new == len(warm.sk)
    )
    return _Seed(
        y=y0,
        z=z0,
        sk=sk0,
        active=active,
        prior=MatchingResult.from_mates(ell, mate_a),
        unchanged=unchanged,
        carried_edges=int(hit.sum()),
        carried_squares=int(shit.sum()),
    )
