"""IsoRank-style spectral baseline for network alignment.

The dmela-scere instance the paper evaluates on comes from Singh, Xu &
Berger's IsoRank (§VI-B, [5]); its algorithmic idea is a natural third
baseline next to the LP relaxation: iterate a PageRank-like operator on
the candidate-pair space,

    x ← μ · P x + (1 − μ) · w̃,

where ``P`` is the column-normalized squares matrix **S** (a random walk
over *pairs of overlapping candidate pairs*) and ``w̃`` the normalized
similarity prior, then round the stationary scores with one bipartite
matching.  The heuristic weight space is exactly the one BP and MR search
(edges of L), so the same rounding oracles apply — which makes quality
comparisons across all three methods meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.configtools import ConfigBase
from repro.core.problem import NetworkAlignmentProblem
from repro.core.result import (
    AlignmentResult,
    IterationRecord,
    record_iteration,
)
from repro.core.rounding import round_heuristic
from repro.errors import ConfigurationError
from repro.observe import get_bus
from repro.sparse.ops import spmv

__all__ = ["IsoRankConfig", "isorank_align", "isorank_scores"]


@dataclass(frozen=True)
class IsoRankConfig(ConfigBase):
    """Parameters of the IsoRank-style iteration.

    ``mu`` balances topology (the S walk) against the similarity prior
    **w** — IsoRank's α parameter; ``tolerance`` stops the power
    iteration on the L1 change of the score vector.
    """

    mu: float = 0.85
    n_iter: int = 100
    tolerance: float = 1e-9
    matcher: str = "exact"
    #: Accepted on every public config (common surface, round-tripped by
    #: ``to_dict``/``from_dict``); the power iteration is deterministic
    #: and does not consume it.
    seed: int | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.mu < 1.0):
            raise ConfigurationError("mu must be in [0, 1)")
        if self.n_iter < 1:
            raise ConfigurationError("n_iter must be >= 1")
        if self.tolerance < 0:
            raise ConfigurationError("tolerance must be non-negative")


def isorank_scores(
    problem: NetworkAlignmentProblem, config: IsoRankConfig | None = None
) -> tuple[np.ndarray, int]:
    """Run the power iteration; return (scores over L's edges, iterations).

    The operator column-normalizes **S** (dangling pairs redistribute to
    the prior, PageRank-style) and the prior is **w** normalized to sum
    one; scores therefore stay a probability vector — tested.
    """
    config = config or IsoRankConfig()
    s_mat = problem.squares
    m = problem.n_edges_l
    if m == 0:
        return np.empty(0), 0
    w = problem.weights.clip(min=0.0)
    prior = (
        w / w.sum() if w.sum() > 0 else np.full(m, 1.0 / m)
    )
    # Column sums of S (== row sums: S is structurally symmetric with
    # unit values, but we compute columns explicitly for clarity).
    col_sums = np.zeros(m)
    np.add.at(col_sums, s_mat.indices, s_mat.data)
    inv_cols = np.divide(
        1.0, col_sums, out=np.zeros(m), where=col_sums > 0
    )

    x = prior.copy()
    scaled = np.empty(m)
    iterations = 0
    for k in range(1, config.n_iter + 1):
        iterations = k
        np.multiply(x, inv_cols, out=scaled)
        walked = spmv(s_mat, scaled)
        dangling = float(x[col_sums == 0].sum())
        x_new = config.mu * (walked + dangling * prior) + (
            1.0 - config.mu
        ) * prior
        delta = float(np.abs(x_new - x).sum())
        x = x_new
        if delta <= config.tolerance:
            break
    return x, iterations


def isorank_align(
    problem: NetworkAlignmentProblem, config: IsoRankConfig | None = None
) -> AlignmentResult:
    """IsoRank iteration + one rounding step."""
    config = config or IsoRankConfig()
    bus = get_bus()
    with bus.trace("isorank.align", matcher=config.matcher, mu=config.mu):
        scores, iterations = isorank_scores(problem, config)
        obj, weight_part, overlap_part, matching = round_heuristic(
            problem, scores, matcher=config.matcher
        )
    history: list[IterationRecord] = []
    record_iteration(history, IterationRecord(
        iteration=iterations, objective=obj, weight_part=weight_part,
        overlap_part=overlap_part, upper_bound=float("nan"),
        source="isorank", gamma=float("nan"),
    ), "isorank", bus, count=iterations)
    return AlignmentResult(
        matching=matching,
        objective=obj,
        weight_part=weight_part,
        overlap_part=overlap_part,
        best_upper_bound=float("inf"),
        history=history,
        method=f"isorank[{config.matcher}]",
        params={
            "mu": config.mu,
            "n_iter": config.n_iter,
            "matcher": config.matcher,
            "alpha": problem.alpha,
            "beta": problem.beta,
        },
    )
