"""The rounding step: heuristic weights → matching → objective (Table I).

``round_heuristic(g)`` computes ``x = bipartite_match(g)``, evaluates the
alignment objective, and keeps track of which ``g`` produced the largest
objective.  The whole paper turns on which ``bipartite_match`` is plugged
in here:

* ``"exact"`` — sparse successive-shortest-path Hungarian
  (:class:`repro.matching.warm.ExactMatcher`, one per solve): each call
  warm-starts from the previous call's duals and returns exactly the
  cold solver's answer (:func:`repro.matching.exact.max_weight_matching`);
* ``"approx"`` — the parallel locally-dominant ½-approximation of §V
  (vectorized rounds formulation);
* ``"approx-queue"`` — the same algorithm in its faithful queue form
  (slower; exposes per-round stats);
* ``"greedy"`` — serial sorted greedy (equivalent output, different cost);
* ``"suitor"`` — the proposal-based ½-approximation (same output as the
  locally-dominant matcher under distinct weights);
* ``"auction"`` — Bertsekas auction with an additive n·ε guarantee.

:data:`MATCHER_KINDS` lists these kinds; the CLI's ``--matcher``
choices come from it.

:func:`score_matching` is the one scorer for every matching a solver
rounds: ``round_heuristic``, Klau's Step 4 and BP's warm prior.  Its
weight part is ``wᵀx`` over the full 0/1 indicator; its overlap part
sums ``x`` only over the columns of the matched rows of **S**, so it
costs what the matching touches instead of a full SpMV.
:meth:`NetworkAlignmentProblem.objective_parts
<repro.core.problem.NetworkAlignmentProblem.objective_parts>` stays the
definition, and correctness checks recompute with it.

``RoundingWorkspace`` lets hot loops (BP's batched rounding) reuse the
indicator buffer across calls instead of allocating ``O(|E_L|)`` per
rounding.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from repro._util import concat_ranges
from repro.core.problem import NetworkAlignmentProblem
from repro.core.result import BestTracker
from repro.errors import ConfigurationError, DimensionError
from repro.matching.auction import auction_matching
from repro.matching.greedy import greedy_matching
from repro.matching.locally_dominant import (
    locally_dominant_matching,
    locally_dominant_matching_vectorized,
)
from repro.matching.result import MatchingResult
from repro.matching.suitor import suitor_matching
from repro.matching.warm import ExactMatcher
from repro.observe import get_bus
from repro.sparse.bipartite import BipartiteGraph

__all__ = [
    "Matcher",
    "RoundingWorkspace",
    "make_matcher",
    "round_heuristic",
    "score_matching",
    "MATCHER_KINDS",
]


class Matcher(Protocol):
    """A ``bipartite_match`` oracle: weights over L's edges → matching."""

    def __call__(
        self, ell: BipartiteGraph, weights: np.ndarray
    ) -> MatchingResult: ...


MATCHER_KINDS = (
    "exact", "approx", "approx-queue", "greedy", "suitor", "auction",
)


def make_matcher(kind: str) -> Matcher:
    """Return the ``bipartite_match`` implementation named ``kind``.

    The returned callable carries a ``kind`` attribute so downstream
    instrumentation (``rounding`` events) can name the oracle in use.
    ``"exact"`` returns a fresh
    :class:`~repro.matching.warm.ExactMatcher` per call to this factory:
    it warm-starts successive matchings on the same L structure, and
    each answer equals a cold solve's, so one solver run should hold
    one matcher.
    """
    if kind == "exact":
        return ExactMatcher()
    impls: dict[str, Matcher] = {
        "approx": lambda ell, w: locally_dominant_matching_vectorized(ell, w),
        "approx-queue": lambda ell, w: locally_dominant_matching(ell, w),
        "greedy": lambda ell, w: greedy_matching(ell, w),
        "suitor": lambda ell, w: suitor_matching(ell, w),
        "auction": lambda ell, w: auction_matching(ell, w),
    }
    impl = impls.get(kind)
    if impl is None:
        raise ConfigurationError(
            f"unknown matcher {kind!r}; expected one of {MATCHER_KINDS}"
        )
    impl.kind = kind  # type: ignore[attr-defined]
    return impl


@dataclass
class RoundingWorkspace:
    """Reusable buffer for :func:`round_heuristic`.

    One workspace per solver run eliminates the ``O(|E_L|)`` allocation
    each rounding call otherwise pays for the 0/1 indicator ``x``.  The
    buffer is overwritten on every call; callers must not hold views
    across calls.
    """

    x: np.ndarray

    @classmethod
    def for_problem(
        cls, problem: NetworkAlignmentProblem
    ) -> "RoundingWorkspace":
        """Allocate the buffer for ``problem``."""
        return cls(x=np.zeros(problem.n_edges_l))

    def check(self, n_edges: int) -> None:
        if self.x.shape != (n_edges,):
            raise DimensionError(
                f"workspace buffer has shape {self.x.shape}, "
                f"expected ({n_edges},)"
            )


def score_matching(
    problem: NetworkAlignmentProblem,
    matching: MatchingResult,
    x: np.ndarray | None = None,
) -> tuple[float, float, float]:
    """Return ``(objective, weight part wᵀx, overlap part)`` of a matching.

    ``x`` receives the matching's 0/1 indicator over L's edges (it is
    overwritten; a fresh one is allocated when omitted), so callers
    that go on to use the indicator pass their own buffer.  The weight
    part is ``wᵀx`` over that full indicator.  The overlap ``xᵀSx / 2``
    sums ``x`` over the columns of the matched rows of **S** only, which
    skips every row ``x`` zeroes.  S and ``x`` are 0/1 (S stores ones),
    so every partial sum is an integer below 2⁵³ and the result equals
    :meth:`~repro.core.problem.NetworkAlignmentProblem.objective_parts`
    of ``x`` exactly, whatever the summation order.
    """
    if x is None:
        x = np.zeros(problem.n_edges_l)
    else:
        x[:] = 0.0
    eids = matching.edge_ids
    x[eids] = 1.0
    weight_part = float(np.dot(problem.weights, x))
    s_mat = problem.squares
    nz, _ = concat_ranges(s_mat.indptr[eids], s_mat.indptr[eids + 1])
    overlap_part = float(x[s_mat.indices[nz]].sum()) / 2.0
    return (
        problem.alpha * weight_part + problem.beta * overlap_part,
        weight_part,
        overlap_part,
    )


def round_heuristic(
    problem: NetworkAlignmentProblem,
    g: np.ndarray,
    *legacy_args,
    matcher: Matcher | str | None = None,
    tracker: BestTracker | None = None,
    source: str = "g",
    iteration: int = -1,
    workspace: RoundingWorkspace | None = None,
) -> tuple[float, float, float, MatchingResult]:
    """Round a heuristic vector to a matching and score it.

    The matcher is selected with the ``matcher=`` keyword (a kind string
    from :data:`MATCHER_KINDS` or a :class:`Matcher` callable).  Passing
    the matcher positionally is deprecated; a positional *kind string*
    emits :class:`DeprecationWarning` and will stop working one release
    cycle after 1.1 (see CHANGELOG.md).

    Returns ``(objective, weight_part, overlap_part, matching)``, scored
    by :func:`score_matching`, and, if a :class:`BestTracker` is given,
    offers the result to it (keeping "track of which g produced the
    largest objective", Table I).  A :class:`RoundingWorkspace` saves
    the indicator allocation (hot loops round thousands of times on one
    problem).
    """
    if legacy_args:
        if len(legacy_args) > 2:
            raise TypeError(
                "round_heuristic() takes at most 2 positional arguments "
                "besides (problem, g); use matcher=/tracker= keywords"
            )
        if matcher is not None:
            raise TypeError(
                "matcher passed both positionally and as a keyword"
            )
        matcher = legacy_args[0]
        if isinstance(matcher, str):
            warnings.warn(
                "passing the matcher kind positionally is deprecated; "
                "use round_heuristic(problem, g, matcher="
                f"{matcher!r}) — positional kind strings will be "
                "removed one cycle after 1.1",
                DeprecationWarning,
                stacklevel=2,
            )
        if len(legacy_args) == 2:
            if tracker is not None:
                raise TypeError(
                    "tracker passed both positionally and as a keyword"
                )
            tracker = legacy_args[1]
    if matcher is None:
        raise ConfigurationError(
            "round_heuristic requires matcher= (a kind string from "
            f"{MATCHER_KINDS} or a Matcher callable)"
        )
    if isinstance(matcher, str):
        matcher = make_matcher(matcher)
    matching = matcher(problem.ell, np.asarray(g, dtype=np.float64))
    x = None
    if workspace is not None:
        workspace.check(problem.n_edges_l)
        x = workspace.x
    objective, weight_part, overlap_part = score_matching(
        problem, matching, x
    )
    if tracker is not None:
        tracker.offer(
            objective, weight_part, overlap_part, matching, g, source, iteration
        )
    bus = get_bus()
    if bus.active:
        matcher_kind = getattr(matcher, "kind", "custom")
        bus.emit(
            "rounding",
            source=source,
            iteration=iteration,
            matcher=matcher_kind,
            objective=objective,
            weight_part=weight_part,
            overlap_part=overlap_part,
            cardinality=matching.cardinality,
        )
        bus.metrics.counter(
            "repro_roundings_total", matcher=matcher_kind
        ).inc()
        bus.metrics.histogram("repro_rounding_objective").observe(objective)
    return objective, weight_part, overlap_part, matching
