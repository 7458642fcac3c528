"""Tests for the warm-started exact matcher (repro.matching.warm).

The correctness bar: every :class:`ExactMatcher` call returns *exactly*
the cold solver's answer — the same mates, the same weight — whatever
sequence of weight vectors preceded it.  Warm-starting is a pure
performance device.  Drifting sequences on random L above the dense
cutoff cover continuous drift, exact ties, near-ties, sign flips that
empty rows, a switch of L and a repeated vector; ``last_stats.path``
shows that each of the matcher's paths (warm, low-reuse cold, tie cold)
really ran.  The warm repair equals its loop reference bit for bit, also
when drops untighten more seeds over several rounds, and the views a
matcher holds per L follow its positive edges.  Hand-built L pin the
uniqueness certificate.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core.rounding import MATCHER_KINDS, make_matcher
from repro.errors import ConfigurationError
from repro.matching import warm
from repro.matching.exact import _DENSE_CUTOFF, max_weight_matching
from repro.matching.validate import check_matching
from repro.matching.warm import ExactMatcher, _Sparse
from repro.observe import EventBus, capture, set_bus
from repro.sparse.bipartite import BipartiteGraph

from tests.helpers import random_bipartite
from tests.oracles import warm_start_loops

#: Vertices per side of the random L: just above the dense cutoff.
_SIDE = int(np.sqrt(_DENSE_CUTOFF)) + 26
_CALLS = 30


def cold(graph, w):
    return max_weight_matching(graph, w, dense_cutoff=0)


def assert_cold(result, graph, w):
    """``result`` is exactly the cold solver's answer."""
    expected = cold(graph, w)
    assert np.array_equal(result.mate_a, expected.mate_a)
    assert result.weight == expected.weight


def random_ell(seed: int, degree: float = 3.0) -> BipartiteGraph:
    """A random sparse L with ``n_a·n_b`` above the dense cutoff."""
    rng = np.random.default_rng(seed)
    m = int(_SIDE * degree)
    return BipartiteGraph.from_edges(
        _SIDE, _SIDE, rng.integers(0, _SIDE, m), rng.integers(0, _SIDE, m),
        rng.uniform(0.5, 2.0, m),
    )


def replay(graphs, vectors) -> Counter:
    """Match each ``(graph, vector)`` with one matcher, checking each
    answer against the cold solver; returns the paths taken."""
    matcher = ExactMatcher()
    paths: Counter = Counter()
    for graph, w in zip(graphs, vectors):
        assert_cold(matcher(graph, w), graph, w)
        paths[matcher.last_stats.path] += 1
    return paths


def _edges(n_a, n_b, a, b, w) -> BipartiteGraph:
    return BipartiteGraph.from_edges(
        n_a, n_b, np.asarray(a), np.asarray(b), np.asarray(w, dtype=float))


def _second_call(graph, first, second):
    """Match ``first`` then ``second`` on one matcher (sparse regime)."""
    matcher = ExactMatcher()
    matcher(graph, np.asarray(first, dtype=float), dense_cutoff=0)
    w = np.asarray(second, dtype=float)
    result = matcher(graph, w, dense_cutoff=0)
    assert np.array_equal(result.mate_a, cold(graph, w).mate_a)
    return matcher.last_stats.path


class TestConstruction:
    def test_registered_matcher_kind(self):
        assert "exact-warm" not in MATCHER_KINDS
        matcher = make_matcher("exact")
        assert isinstance(matcher, ExactMatcher)
        assert matcher.kind == "exact"

    def test_negative_tol_rejected(self):
        with pytest.raises(ConfigurationError):
            ExactMatcher(tol=-1e-9)

    def test_fresh_instances_independent(self):
        assert make_matcher("exact") is not make_matcher("exact")


class TestAgainstCold:
    """Sequences of >= 30 calls on random L above the dense cutoff."""

    def test_continuous_drift(self):
        g = random_ell(1)
        rng = np.random.default_rng(11)
        w, vectors = g.weights, []
        for _ in range(_CALLS):
            w = w + rng.normal(0.0, 0.02, g.n_edges)
            vectors.append(w)
        paths = replay([g] * _CALLS, vectors)
        assert paths["warm"] >= _CALLS * 3 // 4, paths

    def half_steps(self, g, seed: int) -> list[np.ndarray]:
        rng = np.random.default_rng(seed)
        w, vectors = np.round(g.weights * 2.0) / 2.0, []
        for _ in range(_CALLS):
            w = w.copy()
            moved = rng.choice(g.n_edges, 40, replace=False)
            w[moved] += rng.choice([-0.5, 0.5], 40)
            vectors.append(w)
        return vectors

    def test_exact_ties_in_half_steps(self):
        g = random_ell(2)
        paths = replay([g] * _CALLS, self.half_steps(g, 12))
        assert paths["tie"] > 0, paths

    @pytest.mark.parametrize("rel", [1e-12, 1e-10, 1e-8])
    def test_near_ties(self, rel):
        g = random_ell(3)
        rng = np.random.default_rng(13)
        vectors = [w * (1.0 + rel * rng.uniform(-1.0, 1.0, g.n_edges))
                   for w in self.half_steps(g, 14)]
        replay([g] * _CALLS, vectors)

    def test_sign_flips_empty_rows(self):
        """Rows whose edges all turn negative drop out of the problem;
        flipping most rows at once leaves too few seeds to reuse."""
        g = random_ell(4)
        rng = np.random.default_rng(15)
        w, vectors = g.weights, []
        for k in range(_CALLS):
            w = w + rng.normal(0.0, 0.02, g.n_edges)
            share = 0.6 if k % 3 == 2 else 0.05
            rows = rng.choice(g.n_a, int(share * g.n_a), replace=False)
            vectors.append(np.where(np.isin(g.edge_a, rows), -np.abs(w), w))
        paths = replay([g] * _CALLS, vectors)
        assert paths["low_reuse"] > 0 and paths["warm"] > 0, paths

    def test_switch_to_another_ell(self):
        first, second = random_ell(5), random_ell(6)
        graphs = [first] * (_CALLS // 2) + [second] * (_CALLS - _CALLS // 2)
        vectors = [g.weights + 0.01 * k for k, g in enumerate(graphs)]
        paths = replay(graphs, vectors)
        assert paths["cold"] == 2, paths

    def test_repeated_vector(self):
        g = random_ell(7)
        paths = replay([g] * _CALLS, [g.weights] * _CALLS)
        assert paths == Counter(cold=1, warm=_CALLS - 1)


class TestVectorizedRepair:
    def test_matches_loop_reference(self):
        """Every warm attempt equals the loop form from the same state:
        duals, assignment and counts, bit for bit."""
        g = random_ell(12)
        rng = np.random.default_rng(16)
        matcher = ExactMatcher()
        w = g.weights
        compared = searched = 0
        for k in range(_CALLS):
            w = w + rng.normal(0.0, 0.05, g.n_edges)
            if k % 4 == 3:  # empty some rows: their columns go free
                rows = rng.choice(g.n_a, 20, replace=False)
                w = np.where(np.isin(g.edge_a, rows), -np.abs(w), w)
            if k:
                want = warm_start_loops(g, w, matcher._u, matcher._v,
                                        matcher._match_row, matcher.tol)
                solved, *counts = matcher._warm(g, _Sparse(g, w))
                if solved is not None:
                    for got, ref in zip(solved, want):
                        assert np.array_equal(got, ref)
                    assert tuple(counts) == want[3:]
                    compared += 1
                    searched += counts[1]
            matcher(g, w)
        assert compared >= _CALLS - 5 and searched > 0

    def test_drop_heavy_closure_matches_loop_reference(self, monkeypatch):
        """Large steps untighten many seeds, and the columns they free
        untighten more: the closure runs several rounds (one adjacency
        gather each) and still equals the one-at-a-time loop."""
        gathers = [0]
        gather = warm.concat_ranges

        def counting(starts, stops):
            gathers[0] += 1
            return gather(starts, stops)

        monkeypatch.setattr(warm, "concat_ranges", counting)
        g = random_ell(13, degree=4.0)
        rng = np.random.default_rng(17)
        matcher = ExactMatcher()
        w = g.weights
        matcher(g, w)
        deepest = 0
        for _ in range(8):
            w = w + rng.normal(0.0, 0.3, g.n_edges)
            want = warm_start_loops(g, w, matcher._u, matcher._v,
                                    matcher._match_row, matcher.tol)
            gathers[0] = 0
            solved, *counts = matcher._warm(g, _Sparse(g, w))
            deepest = max(deepest, gathers[0])
            assert solved is not None
            for got, ref in zip(solved, want):
                assert np.array_equal(got, ref)
            assert tuple(counts) == want[3:]
            matcher(g, w)
        assert deepest >= 3


class TestHeldViews:
    """The views a matcher holds per L follow its positive edges."""

    def test_positive_edges_change_between_warm_calls(self):
        """Every other call empties some rows and the next restores
        them, so no two calls in a row share their positive edges: a
        warm call searching with the last call's views would go wrong."""
        g = random_ell(14)
        rng = np.random.default_rng(18)
        matcher = ExactMatcher()
        w = g.weights
        paths: Counter = Counter()
        searched = 0
        for k in range(_CALLS):
            w = w + rng.normal(0.0, 0.02, g.n_edges)
            vec = w
            if k % 2:
                rows = rng.choice(g.n_a, 30, replace=False)
                vec = np.where(np.isin(g.edge_a, rows), -np.abs(w), w)
            assert_cold(matcher(g, vec), g, vec)
            paths[matcher.last_stats.path] += 1
            if matcher.last_stats.path == "warm":
                searched += matcher.last_stats.rows_searched
        assert paths["warm"] >= _CALLS * 3 // 4 and searched > 0, paths

    def test_views_kept_while_positive_edges_unchanged(self):
        g = random_ell(15)
        matcher = ExactMatcher()
        matcher(g, g.weights)
        held = matcher._views
        matcher(g.with_weights(g.weights * 1.01))
        assert matcher._views is held
        w = g.weights.copy()
        w[0] = -1.0
        matcher(g, w)
        assert matcher._views is not held


class TestCertificate:
    """Hand-built L where the second call's optimum is or is not unique."""

    def test_tie_through_alternating_cycle(self):
        # Both perfect matchings of K_{2,2} weigh 2 under all-one weights.
        g = _edges(2, 2, [0, 0, 1, 1], [0, 1, 0, 1], [1, 1, 1, 1])
        assert _second_call(g, [3, 1, 1, 3], [1, 1, 1, 1]) == "tie"

    def test_tie_through_path_to_free_column(self):
        # One row, two columns of equal weight: either column is optimal.
        g = _edges(2, 2, [0, 0, 1], [0, 1, 1], [1, 1, 5])
        assert _second_call(g, [2, 1, 5], [1, 1, 0]) == "tie"

    def test_dummy_tie(self):
        # Two rows want one column equally: leaving either unmatched is
        # as good as leaving the other.
        g = _edges(2, 2, [0, 1, 1], [0, 0, 1], [1, 1, 1])
        assert _second_call(g, [2, 1, 1], [1, 1, -1]) == "tie"

    def test_unique_optimum(self):
        g = _edges(2, 2, [0, 0, 1, 1], [0, 1, 0, 1], [1, 1, 1, 1])
        assert _second_call(g, [3, 1, 1, 3], [3, 1, 2, 3]) == "warm"


class TestOptimality:
    def test_repeated_identical_weights_full_reuse(self, rng):
        g = random_bipartite(rng, max_side=30, allow_negative=False)
        matcher = ExactMatcher()
        first = matcher(g, g.weights, dense_cutoff=0)
        again = matcher(g, g.weights, dense_cutoff=0)
        assert np.array_equal(again.mate_a, first.mate_a)
        stats = matcher.last_stats
        assert stats.path == "warm"
        assert stats.rows_reused == stats.rows_total
        assert stats.rows_searched == 0

    def test_drifting_weights_match_cold(self, rng):
        """Klau's scenario: same structure, slowly drifting weights."""
        g = random_bipartite(rng, max_side=25)
        w = rng.uniform(-1.0, 5.0, g.n_edges)
        matcher = ExactMatcher()
        for _ in range(12):
            w = w + rng.normal(0.0, 0.3, g.n_edges)
            warm = matcher(g, w, dense_cutoff=0)
            assert_cold(warm, g, w)
            check_matching(g, warm)

    def test_adversarial_weight_jumps(self, rng):
        """Sign flips and rescaling invalidate most seeds; the result
        must still be the cold one."""
        g = random_bipartite(rng, max_side=20)
        matcher = ExactMatcher()
        w = rng.uniform(0.1, 4.0, g.n_edges)
        for transform in (
            lambda w: -w,                       # everything filtered out
            lambda w: w * 100.0,                # shift changes scale
            lambda w: rng.permutation(w),       # decorrelate rows
            lambda w: np.where(w > w.mean(), -w, w + 3.0),
        ):
            w = transform(w)
            assert_cold(matcher(g, w, dense_cutoff=0), g, w)

    def test_many_random_graphs(self, rng):
        for seed in range(25):
            g = random_bipartite(rng)
            matcher = ExactMatcher()
            for _ in range(4):
                w = rng.uniform(-2.0, 6.0, g.n_edges)
                if seed % 2:
                    w = np.round(w * 2.0) / 2.0  # ties
                assert_cold(matcher(g, w, dense_cutoff=0), g, w)

    def test_strict_tol_zero_still_optimal(self, rng):
        g = random_bipartite(rng, max_side=20, allow_negative=False)
        matcher = ExactMatcher(tol=0.0)
        for _ in range(5):
            w = g.weights * rng.uniform(0.9, 1.1, g.n_edges)
            assert_cold(matcher(g, w, dense_cutoff=0), g, w)


class TestStateManagement:
    def test_structure_change_invalidates(self, rng):
        matcher = ExactMatcher()
        g1 = random_bipartite(rng, max_side=15, allow_negative=False)
        g2 = random_bipartite(rng, max_side=15, allow_negative=False)
        matcher(g1, g1.weights, dense_cutoff=0)
        res = matcher(g2, g2.weights, dense_cutoff=0)
        assert matcher.last_stats.path == "cold"
        assert_cold(res, g2, g2.weights)

    def test_reweighted_view_shares_state(self):
        """``with_weights`` views share the edge-key array, so they
        warm-start each other (the Klau wbar pattern): a view, a view of
        a view, and the base graph after them."""
        g = random_ell(8)
        views = [g]
        for scale in (1.01, 1.02, 0.99):
            views.append(views[-1].with_weights(g.weights * scale))
        assert replay(views + [g], [None] * 5) == Counter(cold=1, warm=4)

    def test_equal_but_distinct_graph_starts_cold(self):
        """State follows the graph's key array, not equal contents or
        shared endpoint arrays: a graph built anew is another L."""
        g = random_ell(12)
        twin = BipartiteGraph(g.n_a, g.n_b, g.edge_a, g.edge_b, g.weights)
        assert np.array_equal(twin.edge_keys, g.edge_keys)
        assert replay([g, twin, twin], [None] * 3) == Counter(cold=2, warm=1)

    def test_fresh_matcher_starts_cold(self):
        g = random_ell(9)
        warm = ExactMatcher()
        warm(g, g.weights * 0.5)
        fresh = ExactMatcher()
        res = fresh(g, g.weights)
        assert fresh.last_stats.path == "cold"
        assert_cold(res, g, g.weights)

    def test_dense_regime_keeps_no_state(self, rng):
        g = random_bipartite(rng, max_side=15, allow_negative=False)
        matcher = ExactMatcher()
        for _ in range(2):
            res = matcher(g, g.weights)
            assert matcher.last_stats.path == "dense"
            assert matcher._u is None
        assert_cold(res, g, g.weights)

    def test_hit_ratio(self):
        g = random_ell(10)
        matcher = ExactMatcher()
        matcher(g, g.weights)
        assert matcher.last_stats.hit_ratio == 0.0
        matcher(g, g.weights)
        assert matcher.last_stats.hit_ratio == 1.0


class TestObservability:
    def test_metrics_and_event(self):
        g = random_ell(11)
        matcher = ExactMatcher()
        bus = EventBus()
        previous = set_bus(bus)
        try:
            with capture(bus=bus) as sink:
                matcher(g, g.weights)
                matcher(g, g.weights)
                reused = bus.metrics.counter(
                    "repro_warm_start_rows_reused_total"
                ).value
                depth = bus.metrics.histogram(
                    "repro_warm_start_search_depth"
                )
                assert depth.count == 2
            assert reused == matcher.last_stats.rows_total
            events = sink.of_type("matching")
            assert len(events) == 2
            for event in events:  # the cold solver's fields, no extras
                assert event.fields["algorithm"] == "exact"
                assert set(event.fields) == {
                    "algorithm", "cardinality", "weight", "rounds", "n_a",
                    "n_b", "n_edges"}
        finally:
            set_bus(previous)
