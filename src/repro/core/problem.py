"""The network alignment problem instance (paper §II).

Bundles the inputs ``(A, B, L, w, α, β)`` with the derived squares matrix
**S**, its transpose permutation, and the objective helpers.  Everything
derived is computed once and cached — the iterative methods never touch
graph structure after construction, mirroring the paper's
preallocate-and-fix-structure discipline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.squares import build_squares
from repro.errors import ConfigurationError, DimensionError, ValidationError
from repro.graph.graph import Graph
from repro.sparse.bipartite import BipartiteGraph
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import spmv
from repro.sparse.permutation import transpose_permutation

__all__ = ["NetworkAlignmentProblem", "ProblemStats"]


@dataclass(frozen=True)
class ProblemStats:
    """The Table II row for a problem: sizes of the instance."""

    name: str
    n_a: int
    n_b: int
    n_edges_l: int
    nnz_s: int

    def as_row(self) -> str:
        """Format like Table II of the paper."""
        return (
            f"{self.name:<16} {self.n_a:>9,} {self.n_b:>9,} "
            f"{self.n_edges_l:>12,} {self.nnz_s:>11,}"
        )


@dataclass
class NetworkAlignmentProblem:
    """An instance of the network alignment problem.

    Attributes
    ----------
    a_graph, b_graph:
        The undirected graphs A and B.
    ell:
        The weighted bipartite candidate graph L (its ``weights`` are the
        vector **w**).
    alpha, beta:
        Objective weights: ``α·(matching weight) + β·(overlap count)``.
    name:
        Label used in reports.
    """

    a_graph: Graph
    b_graph: Graph
    ell: BipartiteGraph
    alpha: float = 1.0
    beta: float = 2.0
    name: str = "alignment"
    _squares: CSRMatrix | None = field(default=None, repr=False, compare=False)
    _strans: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.a_graph.n != self.ell.n_a or self.b_graph.n != self.ell.n_b:
            raise DimensionError("L does not connect V_A to V_B")
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise ValidationError(
                "alpha and beta must be finite (NaN/inf found)"
            )
        if self.alpha < 0 or self.beta < 0:
            raise ConfigurationError("alpha and beta must be non-negative")
        w = self.ell.weights
        if len(w):
            if not np.isfinite(w).all():
                raise ValidationError(
                    "similarity weights w must be finite (NaN/inf found)"
                )
            if w.min() < 0:
                raise ValidationError(
                    "similarity weights w must be non-negative; the "
                    "objective α·wᵀx assumes similarity scores"
                )

    # ------------------------------------------------------------------
    # Derived structures (built lazily, cached)
    # ------------------------------------------------------------------
    @property
    def squares(self) -> CSRMatrix:
        """The squares matrix **S** (0/1, |E_L|², structurally symmetric)."""
        if self._squares is None:
            self._squares = build_squares(self.a_graph, self.b_graph, self.ell)
        return self._squares

    @property
    def squares_transpose_perm(self) -> np.ndarray:
        """Value permutation realizing **Sᵀ** on S's structure (§IV-A)."""
        if self._strans is None:
            self._strans = transpose_permutation(self.squares)
        return self._strans

    @property
    def weights(self) -> np.ndarray:
        """The weight vector **w** over L's edges."""
        return self.ell.weights

    @property
    def n_edges_l(self) -> int:
        """|E_L|, the dimension of all heuristic weight vectors."""
        return self.ell.n_edges

    # ------------------------------------------------------------------
    # Objective
    # ------------------------------------------------------------------
    def overlap(self, x: np.ndarray) -> float:
        """Number of overlapped edges ``xᵀSx / 2`` for indicator ``x``.

        This is the definition, one full SpMV over **S**: correctness
        checks recompute a solver's objective with it.  Solvers score
        their matchings with :func:`repro.core.rounding.score_matching`,
        which touches only the matched rows and must agree exactly.
        """
        return float(np.dot(x, spmv(self.squares, x))) / 2.0

    def objective(self, x: np.ndarray) -> float:
        """The alignment objective ``α·wᵀx + (β/2)·xᵀSx``."""
        return float(
            self.alpha * np.dot(self.weights, x)
            + self.beta * self.overlap(x)
        )

    def objective_parts(self, x: np.ndarray) -> tuple[float, float, float]:
        """Return ``(objective, matching weight wᵀx, overlap count)``."""
        weight_part = float(np.dot(self.weights, x))
        overlap_part = self.overlap(x)
        return (
            self.alpha * weight_part + self.beta * overlap_part,
            weight_part,
            overlap_part,
        )

    def stats(self) -> ProblemStats:
        """Sizes for the Table II report."""
        return ProblemStats(
            name=self.name,
            n_a=self.a_graph.n,
            n_b=self.b_graph.n,
            n_edges_l=self.ell.n_edges,
            nnz_s=self.squares.nnz,
        )

    def with_objective(self, alpha: float, beta: float) -> "NetworkAlignmentProblem":
        """Return a problem sharing all structure with new (α, β).

        The parameter sweeps of Fig. 3 re-solve the same instance under
        many objectives; sharing **S** avoids rebuilding it per point.
        """
        clone = NetworkAlignmentProblem(
            self.a_graph, self.b_graph, self.ell, alpha, beta, self.name
        )
        clone._squares = self._squares
        clone._strans = self._strans
        return clone

    def apply_delta(self, delta):
        """Apply a :class:`repro.incremental.ProblemDelta` edit script.

        Returns ``(new_problem, report)`` where ``report`` is a
        :class:`repro.incremental.DeltaReport`; the cached squares
        matrix is maintained incrementally instead of being rebuilt
        (see :func:`repro.incremental.apply_delta`).
        """
        from repro.incremental.delta import apply_delta

        return apply_delta(self, delta)
