"""Tests for the rounding oracle and best-tracking (repro.core.rounding)."""

import numpy as np
import pytest

from repro.core.problem import NetworkAlignmentProblem
from repro.core.result import BestTracker
from repro.core.rounding import (
    MATCHER_KINDS,
    RoundingWorkspace,
    make_matcher,
    round_heuristic,
    score_matching,
)
from repro.errors import ConfigurationError, DimensionError
from repro.generators import powerlaw_alignment_instance
from repro.generators.bio import dmela_scere
from repro.generators.ontology import lcsh_wiki
from repro.graph import Graph
from repro.matching import hopcroft_karp, max_weight_matching
from repro.matching.result import MatchingResult
from repro.observe import capture

from tests.helpers import random_bipartite


def squareless_problem() -> NetworkAlignmentProblem:
    """A problem whose S is empty: A and B have no edges."""
    rng = np.random.default_rng(2)
    ell = random_bipartite(rng, max_side=12, allow_negative=False)
    return NetworkAlignmentProblem(Graph(ell.n_a, [], []),
                                   Graph(ell.n_b, [], []), ell)


SCORED_PROBLEMS = {
    "powerlaw_300": lambda: powerlaw_alignment_instance(
        n=300, expected_degree=6, seed=3).problem,
    "dmela_scere": lambda: dmela_scere(scale=0.2, seed=1).problem,
    "lcsh_wiki": lambda: lcsh_wiki(scale=0.004, seed=1).problem,
    "no_squares": squareless_problem,
}


@pytest.fixture(scope="module", params=sorted(SCORED_PROBLEMS))
def scored_problem(request):
    return SCORED_PROBLEMS[request.param]()


class TestMakeMatcher:
    @pytest.mark.parametrize("kind", MATCHER_KINDS)
    def test_all_kinds_work(self, kind, rng):
        g = random_bipartite(rng)
        matcher = make_matcher(kind)
        res = matcher(g, g.weights)
        assert res.weight >= 0

    def test_unknown(self):
        with pytest.raises(ConfigurationError):
            make_matcher("quantum")

    def test_exact_dominates_approx(self, rng):
        for _ in range(15):
            g = random_bipartite(rng)
            w = rng.normal(1.0, 2.0, g.n_edges)
            exact = make_matcher("exact")(g, w)
            approx = make_matcher("approx")(g, w)
            assert exact.weight >= approx.weight - 1e-9
            assert approx.weight >= 0.5 * exact.weight - 1e-9


class TestRoundHeuristic:
    def test_returns_parts(self, small_instance):
        p = small_instance.problem
        g_vec = p.weights.copy()
        obj, wp, op, matching = round_heuristic(p, g_vec, matcher="exact")
        assert np.isclose(obj, p.alpha * wp + p.beta * op)

    def test_matcher_by_name_or_callable(self, small_instance):
        p = small_instance.problem
        by_name = round_heuristic(p, p.weights, matcher="exact")
        by_callable = round_heuristic(p, p.weights, matcher=make_matcher("exact"))
        assert np.isclose(by_name[0], by_callable[0])

    def test_tracker_keeps_best(self, small_instance):
        p = small_instance.problem
        tracker = BestTracker()
        rng = np.random.default_rng(0)
        objs = []
        for i in range(5):
            g_vec = p.weights + rng.normal(0, 0.3, p.n_edges_l)
            obj, *_ = round_heuristic(
                p, g_vec, matcher="exact", tracker=tracker, source=f"g{i}", iteration=i
            )
            objs.append(obj)
        assert np.isclose(tracker.best_objective, max(objs))
        assert tracker.best_vector is not None

    def test_tracker_best_vector_is_copy(self, small_instance):
        p = small_instance.problem
        tracker = BestTracker()
        g_vec = p.weights.copy()
        round_heuristic(p, g_vec, matcher="exact", tracker=tracker)
        g_vec[:] = -1
        assert np.all(tracker.best_vector >= 0)

    def test_workspace_results_bit_identical(self, small_instance, rng):
        """A caller-provided workspace only removes allocations; every
        returned float must be unchanged."""
        p = small_instance.problem
        workspace = RoundingWorkspace.for_problem(p)
        for i in range(4):
            g_vec = p.weights + rng.normal(0, 0.4, p.n_edges_l)
            plain = round_heuristic(p, g_vec, matcher="exact")
            reused = round_heuristic(
                p, g_vec, matcher="exact", workspace=workspace
            )
            assert plain[:3] == reused[:3]  # bit-exact, not approx
            assert np.array_equal(plain[3].mate_a, reused[3].mate_a)

    def test_workspace_wrong_size_rejected(self, small_instance):
        p = small_instance.problem
        bad = RoundingWorkspace(x=np.zeros(p.n_edges_l + 1))
        with pytest.raises(DimensionError):
            round_heuristic(p, p.weights, matcher="exact", workspace=bad)

    def test_positional_kind_string_rejected(self, small_instance):
        p = small_instance.problem
        with pytest.raises(TypeError):
            round_heuristic(p, p.weights, "exact")

    def test_positional_callable_rejected(self, small_instance):
        p = small_instance.problem
        with pytest.raises(TypeError):
            round_heuristic(p, p.weights, make_matcher("exact"))

    def test_positional_tracker_rejected(self, small_instance):
        p = small_instance.problem
        tracker = BestTracker()
        with pytest.raises(TypeError):
            round_heuristic(p, p.weights, "exact", tracker)
        with pytest.raises(TypeError):
            round_heuristic(p, p.weights, tracker, matcher="exact")
        assert tracker.best_vector is None

    def test_matcher_required(self, small_instance):
        p = small_instance.problem
        with pytest.raises(ConfigurationError, match="matcher"):
            round_heuristic(p, p.weights)

    def test_matcher_double_spec_rejected(self, small_instance):
        p = small_instance.problem
        with pytest.raises(TypeError):
            round_heuristic(p, p.weights, "exact", matcher="exact")

    def test_tracker_offer_ordering(self):
        tracker = BestTracker()
        from repro.matching.result import MatchingResult

        dummy = MatchingResult(
            mate_a=np.array([-1]), mate_b=np.array([-1]),
            edge_ids=np.array([], dtype=int), weight=0.0,
        )
        assert tracker.offer(1.0, 1.0, 0.0, dummy, np.zeros(1), "a", 1)
        assert not tracker.offer(0.5, 0.5, 0.0, dummy, np.zeros(1), "b", 2)
        assert tracker.best_source == "a"
        assert tracker.best_iteration == 1


#: The kinds whose answer is the greedy matching under (−g_e, e).
GREEDY_ORDER = ("approx", "approx-queue", "greedy")


class CountingMatcher:
    """The matcher of ``kind``, counting its runs; ``claims`` is the
    ``kind`` it reports (by default its own)."""

    def __init__(self, kind: str = "approx", claims: str | None = None):
        self.kind = kind if claims is None else claims
        self.inner = make_matcher(kind)
        self.calls = 0

    def __call__(self, ell, weights):
        self.calls += 1
        return self.inner(ell, weights)


class RecordingTracker(BestTracker):
    """A tracker that records every offer."""

    def __init__(self) -> None:
        super().__init__()
        self.offers: list[tuple[str, int]] = []

    def offer(self, objective, weight_part, overlap_part, matching, vector,
              source, iteration):
        self.offers.append((source, iteration))
        return super().offer(objective, weight_part, overlap_part, matching,
                             vector, source, iteration)


def assert_same_answer(got, want):
    """Two ``round_heuristic`` answers agree bit for bit (but for the
    matcher's round stats)."""
    assert got[:3] == want[:3]
    for name in ("mate_a", "mate_b", "edge_ids"):
        assert np.array_equal(getattr(got[3], name), getattr(want[3], name))
    assert got[3].weight == want[3].weight


class TestRepeatedVector:
    """A workspace keeps the last answer of the same source, problem and
    matcher object when it provably is the answer again.  For the
    greedy-order kinds that is when the last matching is still the
    greedy matching of the new vector; for every other kind (``suitor``
    here, or a callable claiming another ``kind``), when the new vector
    has the last one's bytes."""

    @staticmethod
    def call(p, g, matcher, workspace, source="y", tracker=None,
             iteration=1):
        return round_heuristic(p, g, matcher=matcher, tracker=tracker,
                               source=source, iteration=iteration,
                               workspace=workspace)

    @staticmethod
    def distinct(p):
        """A vector of distinct positive weights."""
        return p.weights + np.linspace(0.0, 1.0, p.n_edges_l)

    def test_equal_vector_is_answered_from_memory(self, small_instance):
        p = small_instance.problem
        for kind in GREEDY_ORDER + ("suitor",):
            matcher = CountingMatcher(kind)
            workspace = RoundingWorkspace.for_problem(p)
            tracker = RecordingTracker()
            g = self.distinct(p)
            with capture() as sink:
                first = self.call(p, g, matcher, workspace, tracker=tracker)
                second = self.call(p, g.copy(), matcher, workspace,
                                   tracker=tracker, iteration=2)
            assert matcher.calls == 1
            assert_same_answer(second, first)
            if kind == "suitor":
                assert second[3] is first[3]
            else:
                # A kept matching is a new result, with no round stats.
                assert second[3] is not first[3] and second[3].rounds == []
            assert tracker.offers == [("y", 1), ("y", 2)]
            roundings = sink.of_type("rounding")
            assert [e.fields["iteration"] for e in roundings] == [1, 2]
            assert roundings[0].fields["objective"] == first[0]
            assert roundings[1].fields["objective"] == first[0]
            assert len(sink.of_type("matching")) == 1  # the matcher's run

    @pytest.mark.parametrize("change", ["next_ulp", "negative_zero"])
    @pytest.mark.parametrize("kind", GREEDY_ORDER)
    def test_a_passing_vector_runs_no_matcher(self, small_instance, kind,
                                              change):
        p = small_instance.problem
        matcher = CountingMatcher(kind)
        workspace = RoundingWorkspace.for_problem(p)
        g = self.distinct(p)
        g[1] = 0.0
        first = self.call(p, g, matcher, workspace)
        h = g.copy()
        if change == "next_ulp":
            e = first[3].edge_ids[0]  # a matched edge gets heavier
            h[e] = np.nextafter(h[e], np.inf)
        else:
            h[1] = -0.0
        kept = self.call(p, h, matcher, workspace)
        assert matcher.calls == 1
        assert_same_answer(kept, round_heuristic(p, h, matcher=kind))
        assert kept[3].weight == float(h[first[3].edge_ids].sum())

    @pytest.mark.parametrize("kind", GREEDY_ORDER)
    def test_a_failing_vector_runs_the_matcher(self, small_instance, kind):
        """The workspace keeps no copy of the vector, so a caller that
        reuses its buffer gets the new vector's answer."""
        p = small_instance.problem
        matcher = CountingMatcher(kind)
        workspace = RoundingWorkspace.for_problem(p)
        g = self.distinct(p)
        first = self.call(p, g, matcher, workspace)
        g[first[3].edge_ids[0]] = 0.0  # a matched edge is no longer positive
        second = self.call(p, g, matcher, workspace)
        assert matcher.calls == 2
        assert_same_answer(second, round_heuristic(p, g, matcher=kind))
        assert not np.array_equal(second[3].edge_ids, first[3].edge_ids)

    @pytest.mark.parametrize("kind", GREEDY_ORDER)
    def test_kept_answers_are_the_matchers_answers(self, small_instance,
                                                   kind, rng):
        """Along a walk of tie-heavy vectors the matcher runs exactly when
        its answer changes, and every kept answer is the one it would
        have given."""
        p = small_instance.problem
        matcher = CountingMatcher(kind)
        workspace = RoundingWorkspace.for_problem(p)
        values = np.array([-1.0, -0.0, 0.0, 1.0, 2.0, 3.0, np.inf, np.nan])
        g = rng.integers(-1, 4, p.n_edges_l).astype(np.float64)
        last, runs = None, 0
        for _ in range(60):
            g = g.copy()
            at = rng.integers(0, p.n_edges_l, int(rng.integers(1, 4)))
            g[at] = rng.choice(values, len(at))
            got = self.call(p, g, matcher, workspace)
            want = round_heuristic(p, g, matcher=kind)
            runs += last is None or not np.array_equal(want[3].edge_ids,
                                                        last)
            assert matcher.calls == runs
            assert_same_answer(got, want)
            last = want[3].edge_ids
        assert 1 < runs < 60  # both paths ran

    def test_the_vector_is_copied(self, small_instance):
        """Outside the greedy-order kinds the workspace keeps a copy of
        the vector, so a caller that reuses its buffer is not fooled."""
        p = small_instance.problem
        matcher = CountingMatcher("suitor")
        workspace = RoundingWorkspace.for_problem(p)
        g = p.weights.copy()
        self.call(p, g, matcher, workspace)
        g[0] += 1.0  # the caller reuses its buffer
        self.call(p, g, matcher, workspace)
        assert matcher.calls == 2

    @staticmethod
    def run_after(p, kind, change, claims=None):
        """Matcher runs of a rounding, then two of a changed call."""
        def counting():
            return CountingMatcher(kind, claims=claims)

        matcher, workspace = counting(), RoundingWorkspace.for_problem(p)
        g = TestRepeatedVector.distinct(p)
        g[1] = 0.0
        first = TestRepeatedVector.call(p, g, matcher, workspace)
        h, q, m2, source = g.copy(), p, matcher, "y"
        if change == "next_ulp":
            e = first[3].edge_ids[0]
            h[e] = np.nextafter(h[e], np.inf)
        elif change == "negative_zero":
            h[1] = -0.0
        elif change == "other_source":
            source = "z"
        elif change == "other_problem":
            # The same L and weights in another problem object.
            q = NetworkAlignmentProblem(p.a_graph, p.b_graph, p.ell,
                                        p.alpha, p.beta)
        else:
            m2 = counting()
        runs = []
        for _ in range(2):  # ... and what ran is remembered in its turn
            TestRepeatedVector.call(q, h, m2, workspace, source=source)
            runs.append(matcher.calls
                        + (m2.calls if m2 is not matcher else 0))
        return runs

    @pytest.mark.parametrize("change", [
        "next_ulp", "negative_zero", "other_source", "other_problem",
        "other_matcher",
    ])
    def test_anything_else_runs_the_matcher(self, small_instance, change):
        """``suitor`` keeps its answer for the same bytes only."""
        assert self.run_after(small_instance.problem, "suitor",
                              change) == [2, 2]

    @pytest.mark.parametrize("change", ["next_ulp", "negative_zero"])
    def test_a_custom_kind_gets_the_byte_test(self, small_instance, change):
        """The greedy promise is the ``kind`` attribute: the ``approx``
        kernel claiming another kind is kept for the same bytes only."""
        assert self.run_after(small_instance.problem, "approx", change,
                              claims="custom") == [2, 2]

    @pytest.mark.parametrize("change", [
        "other_source", "other_problem", "other_matcher",
    ])
    @pytest.mark.parametrize("kind", GREEDY_ORDER)
    def test_another_source_problem_or_matcher_runs_the_matcher(
            self, small_instance, kind, change):
        assert self.run_after(small_instance.problem, kind,
                              change) == [2, 2]

    def test_sources_are_remembered_apart(self, small_instance):
        p = small_instance.problem
        for kind in ("approx", "suitor"):
            matcher = CountingMatcher(kind)
            workspace = RoundingWorkspace.for_problem(p)
            y = self.distinct(p)
            z = y[::-1].copy()
            for _ in range(3):
                self.call(p, y, matcher, workspace, source="y")
                self.call(p, z, matcher, workspace, source="z")
            assert matcher.calls == 2


class TestScoreMatching:
    """The scorer equals the SpMV definition, ``objective_parts``, exactly."""

    @staticmethod
    def assert_scores_like_definition(p, matching):
        x = matching.indicator(p.n_edges_l)
        expected = p.objective_parts(x)
        assert score_matching(p, matching) == expected
        buf = np.full(p.n_edges_l, 7.0)  # stale contents are overwritten
        assert score_matching(p, matching, buf) == expected
        assert np.array_equal(buf, x)
        return expected

    def test_random_matchings(self, scored_problem, rng):
        p = scored_problem
        matcher = make_matcher("approx")
        overlaps = []
        for _ in range(8):
            w = rng.normal(0.0, 1.0, p.n_edges_l)  # about half positive
            overlaps.append(
                self.assert_scores_like_definition(p, matcher(p.ell, w))[2])
        overlaps.append(self.assert_scores_like_definition(
            p, matcher(p.ell, p.weights))[2])
        # Every family with squares has matchings that overlap.
        assert (max(overlaps) > 0) == (p.squares.nnz > 0)

    def test_maximum_matchings(self, scored_problem):
        p = scored_problem
        self.assert_scores_like_definition(p, max_weight_matching(p.ell))
        self.assert_scores_like_definition(p, hopcroft_karp(p.ell))

    def test_empty_matching(self, scored_problem):
        p = scored_problem
        empty = MatchingResult.from_mates(
            p.ell, np.full(p.ell.n_a, -1, dtype=np.int64))
        self.assert_scores_like_definition(p, empty)
        assert score_matching(p, empty) == (0.0, 0.0, 0.0)
