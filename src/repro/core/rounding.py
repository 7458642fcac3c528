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
rounding, and remembers the last rounding of each source.  BP's
max-product iterates settle long before its last iteration
(Bayati–Gleich–Saberi–Wang, PAPERS.md), so a source's next vector
mostly rounds to the matching it rounded to last time.  The
greedy-order kinds (``approx``, ``approx-queue`` and ``greedy``) answer
the greedy matching of the vector under the order (−g_e, e), and
:func:`~repro.matching.greedy.is_greedy_matching` checks in one
vectorized pass whether the last matching still is that matching; when
it is, ``round_heuristic`` keeps it without running the matcher or the
scorer.  Every other kind keeps its answer only for a vector whose
bytes equal the last one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Protocol

import numpy as np

from repro._util import concat_ranges
from repro.core.problem import NetworkAlignmentProblem
from repro.core.result import BestTracker
from repro.errors import ConfigurationError, DimensionError
from repro.matching.auction import auction_matching
from repro.matching.greedy import greedy_matching, is_greedy_matching
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
    """A ``bipartite_match`` oracle: weights over L's edges → matching.

    A matcher may carry a ``kind`` attribute naming it in ``rounding``
    events.  The name is a promise: a matcher whose ``kind`` is one of
    the greedy-order kinds returns the greedy matching of the weights
    under the order (−g_e, e) over the positive edges, so a
    :class:`RoundingWorkspace` may keep an earlier answer that
    :func:`~repro.matching.greedy.is_greedy_matching` certifies instead
    of calling it.
    """

    def __call__(
        self, ell: BipartiteGraph, weights: np.ndarray
    ) -> MatchingResult: ...


MATCHER_KINDS = (
    "exact", "approx", "approx-queue", "greedy", "suitor", "auction",
)

#: The greedy-order kinds: each answers the greedy matching under the
#: order (−g_e, e) over the positive edges, ties included (paper §V).
_GREEDY_KINDS = frozenset({"approx", "approx-queue", "greedy"})


def make_matcher(kind: str) -> Matcher:
    """Return the ``bipartite_match`` implementation named ``kind``.

    The returned callable carries a ``kind`` attribute so downstream
    instrumentation (``rounding`` events) can name the oracle in use;
    for the greedy-order kinds it is also the promise a
    :class:`RoundingWorkspace` relies on (see :class:`Matcher`).
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


class _Rounded(NamedTuple):
    """One remembered rounding: its inputs and the answer they gave.

    ``vector`` is a copy of the vector rounded, kept only for matchers
    outside the greedy-order kinds (``None`` for those, whose answer is
    certified instead).
    """

    problem: NetworkAlignmentProblem
    matcher: Matcher
    vector: np.ndarray | None
    answer: tuple[float, float, float, MatchingResult]


@dataclass
class RoundingWorkspace:
    """Reusable state for :func:`round_heuristic` across one solver run.

    One workspace per solver run eliminates the ``O(|E_L|)`` allocation
    each rounding call otherwise pays for the 0/1 indicator ``x``.  The
    buffer is overwritten on every call; callers must not hold views
    across calls.

    Per ``source`` it also keeps the problem, the matcher object and
    the answer of the last rounding.  A call for the same problem and
    matcher object gets that matching again, without running the
    matcher or the scorer (and leaves ``x`` as it was), when:

    * the matcher's ``kind`` is one of the greedy-order kinds and the
      matching is still the greedy matching of the new vector
      (:func:`~repro.matching.greedy.is_greedy_matching`); the answer
      then has the same objective parts and edge ids, and a new
      :class:`~repro.matching.result.MatchingResult` whose ``weight`` is
      the new vector's sum over those edges and whose ``rounds`` is
      empty;
    * for any other matcher, the vector's bytes equal the last one's
      (the workspace keeps a copy).
    """

    x: np.ndarray
    _last: dict[str, _Rounded] = field(
        default_factory=dict, repr=False, compare=False
    )

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

    def recall(
        self,
        problem: NetworkAlignmentProblem,
        matcher: Matcher,
        source: str,
        g: np.ndarray,
    ) -> tuple[float, float, float, MatchingResult] | None:
        """The answer ``matcher`` would give for ``g`` on ``problem``, if
        ``source``'s last rounding shows it without a run; else None."""
        last = self._last.get(source)
        if last is None or last.problem is not problem \
                or last.matcher is not matcher:
            return None
        if last.vector is not None:
            same = last.vector.shape == g.shape and np.array_equal(
                last.vector.view(np.int64), g.view(np.int64))
            return last.answer if same else None
        objective, weight_part, overlap_part, matching = last.answer
        if not is_greedy_matching(problem.ell, g, matching):
            return None
        eids = matching.edge_ids
        kept = MatchingResult(matching.mate_a, matching.mate_b, eids,
                              float(g[eids].sum()))
        return objective, weight_part, overlap_part, kept

    def remember(
        self,
        problem: NetworkAlignmentProblem,
        matcher: Matcher,
        source: str,
        g: np.ndarray,
        answer: tuple[float, float, float, MatchingResult],
    ) -> None:
        """Keep ``answer`` (and, outside the greedy-order kinds, a copy of
        ``g``) as ``source``'s last rounding."""
        greedy = getattr(matcher, "kind", None) in _GREEDY_KINDS
        self._last[source] = _Rounded(
            problem, matcher, None if greedy else g.copy(), answer)


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
    *,
    matcher: Matcher | str | None = None,
    tracker: BestTracker | None = None,
    source: str = "g",
    iteration: int = -1,
    workspace: RoundingWorkspace | None = None,
) -> tuple[float, float, float, MatchingResult]:
    """Round a heuristic vector to a matching and score it.

    The matcher is selected with the ``matcher=`` keyword (a kind string
    from :data:`MATCHER_KINDS` or a :class:`Matcher` callable); every
    argument after ``g`` is keyword-only.

    Returns ``(objective, weight_part, overlap_part, matching)``, scored
    by :func:`score_matching`, and, if a :class:`BestTracker` is given,
    offers the result to it (keeping "track of which g produced the
    largest objective", Table I).  A :class:`RoundingWorkspace` saves
    the indicator allocation (hot loops round thousands of times on one
    problem) and keeps the last answer for the same ``source``, problem
    and matcher object when it provably is the answer again: for
    the greedy-order kinds, when the last matching is still the greedy
    matching of ``g``; for other matchers, when ``g`` has the last
    vector's bytes.  The tracker is still offered the result and the
    ``rounding`` event still fires, but no matcher runs, so no
    ``matching`` event does.
    """
    if matcher is None:
        raise ConfigurationError(
            "round_heuristic requires matcher= (a kind string from "
            f"{MATCHER_KINDS} or a Matcher callable)"
        )
    if isinstance(matcher, str):
        matcher = make_matcher(matcher)
    g64 = np.asarray(g, dtype=np.float64)
    answer = x = None
    if workspace is not None:
        workspace.check(problem.n_edges_l)
        answer = workspace.recall(problem, matcher, source, g64)
        x = workspace.x
    if answer is None:
        matching = matcher(problem.ell, g64)
        answer = (*score_matching(problem, matching, x), matching)
        if workspace is not None:
            workspace.remember(problem, matcher, source, g64, answer)
    objective, weight_part, overlap_part, matching = answer
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
