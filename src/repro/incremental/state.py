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

from repro._util import sorted_lookup, sorted_union
from repro.core.problem import NetworkAlignmentProblem
from repro.errors import ValidationError
from repro.incremental.delta import _remap_squares
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
        alpha, beta: The objective weights (α, β) the state converged
            under; NaN when unknown (a file saved before they were
            recorded), which the seed treats as changed.
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
    alpha: float = float("nan")
    beta: float = float("nan")

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
        return cls._capture(problem, state, result.matching,
                            result.objective, digest)

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
        return cls._capture(
            problem, state, matching,
            tracker.get("best_objective", float("-inf")), None,
        )

    @classmethod
    def _capture(
        cls,
        problem: NetworkAlignmentProblem,
        state: Any,
        matching: MatchingResult,
        objective: float,
        digest: str | None,
    ) -> "WarmState":
        """Copy BP's ``y``/``z``/``sk`` out of ``state``, keyed by
        ``problem``'s L edges and **S** structure."""
        ell, s_mat = problem.ell, problem.squares
        return cls(
            n_a=ell.n_a,
            n_b=ell.n_b,
            edge_a=ell.edge_a.copy(),
            edge_b=ell.edge_b.copy(),
            weights=ell.weights.copy(),
            y=np.asarray(state["y"], dtype=np.float64).copy(),
            z=np.asarray(state["z"], dtype=np.float64).copy(),
            sk=np.asarray(state["sk"], dtype=np.float64).copy(),
            s_indptr=s_mat.indptr.copy(),
            s_indices=s_mat.indices.copy(),
            mate_a=matching.mate_a.copy(),
            objective=float(objective),
            method="bp",
            digest=digest,
            alpha=problem.alpha,
            beta=problem.beta,
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
            alpha=self.alpha, beta=self.beta,
        )

    @classmethod
    def load(cls, path: str) -> "WarmState":
        """Load a state persisted by :meth:`save`."""
        with np.load(path) as npz:
            digest = str(npz["digest"])
            alpha_beta = {k: float(npz[k]) for k in ("alpha", "beta")
                          if k in npz.files}
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
                **alpha_beta,
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
    returned active set is the only account of what an edit touched:
    every L edge whose next-iteration computation differs from the
    converged fixed point.  BP updates an edge from its weight, its row
    of **S** and the othermax groups of its two ends, so these are the
    inserted or reweighted edges, the edges sharing an A- or B-vertex
    with an inserted or deleted edge, and the edges whose **S** row
    gained or lost a square (also to a deleted partner).  Under another
    objective (α, β) than the state's, it is every edge.  The first
    ``active_set_size`` event of a warm run reports its size.

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

    # --- edge-level transfer -----------------------------------------
    old_to_new = ell.lookup_edges(warm.edge_a, warm.edge_b)
    hit = old_to_new >= 0
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
    rows_new = s_mat.row_of_nonzero()
    old_r, old_c, valid = _remap_squares(warm.s_indptr, warm.s_indices,
                                         old_to_new)
    # CSR with sorted columns ⇒ (row, col) keys are strictly increasing,
    # so square values join like edge values.
    sq = sorted_lookup(rows_new * m_new + s_mat.indices,
                       old_r[valid] * m_new + old_c[valid])
    shit = sq >= 0
    sk0 = np.zeros(s_mat.nnz)
    sk0[sq[shit]] = warm.sk[valid][shit]
    sk_seeded = np.zeros(s_mat.nnz, dtype=bool)
    sk_seeded[sq[shit]] = True

    # --- active seed --------------------------------------------------
    if (warm.alpha, warm.beta) != (problem.alpha, problem.beta):
        # Another objective (α, β) changes every edge's update.
        active = np.arange(m_new, dtype=np.int64)
    else:
        # Rows with unseeded squares (gained a square) and surviving rows
        # of vanished squares (lost one, also to a deleted partner):
        # their F-row sums change.
        lost = old_r >= 0
        lost[valid] = ~shit
        # Othermax groups touched by an inserted or deleted edge: every
        # edge sharing an A- or B-vertex with one sees another
        # competition.
        regrouped = ell.incident_edges(
            np.concatenate([ell.edge_a[inserted],
                            warm.edge_a[deleted_old]]),
            np.concatenate([ell.edge_b[inserted],
                            warm.edge_b[deleted_old]]),
        )
        active = sorted_union(m_new, inserted, reweighted,
                              rows_new[~sk_seeded], old_r[lost], regrouped)

    # --- prior matching: pairs whose L edge vanished go unmatched -----
    mate_a = warm.mate_a.copy()
    matched = np.flatnonzero(mate_a >= 0)
    mate_a[matched[ell.lookup_edges(matched, mate_a[matched]) < 0]] = -1

    unchanged = (
        m_new == warm.n_edges and len(active) == 0 and bool(hit.all())
        and bool(sk_seeded.all()) and s_mat.nnz == len(warm.sk)
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
