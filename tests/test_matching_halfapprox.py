"""Tests for the ½-approximate matchers: greedy and locally-dominant.

These encode §V's guarantees: validity, maximality over positive edges,
the ½ weight/cardinality approximation ratio, the equivalence of all
implementations under distinct weights, and the O(log V)-ish round decay.
``TestGreedyCertificate`` pins the check that a matching is the greedy
one, which rounding relies on to keep an earlier answer.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rounding import make_matcher
from repro.errors import ConfigurationError, DimensionError
from repro.matching import (
    MatchingResult,
    check_matching,
    greedy_matching,
    is_maximal_matching,
    locally_dominant_matching,
    locally_dominant_matching_vectorized,
    max_weight_matching_dense,
)
from repro.matching.greedy import is_greedy_matching
from repro.sparse.bipartite import BipartiteGraph

from tests.helpers import random_bipartite

ALL_HALF_APPROX = [
    ("greedy", greedy_matching),
    ("ld-queue", locally_dominant_matching),
    ("ld-one-sided", lambda g, w=None: locally_dominant_matching(
        g, w, init="one-sided")),
    ("ld-vectorized", locally_dominant_matching_vectorized),
]


@pytest.mark.parametrize("name,matcher", ALL_HALF_APPROX)
class TestBasicBehaviour:
    def test_single_edge(self, name, matcher):
        g = BipartiteGraph.from_edges(1, 1, [0], [0], [2.0])
        res = matcher(g)
        assert res.weight == 2.0

    def test_skips_nonpositive(self, name, matcher):
        g = BipartiteGraph.from_edges(1, 2, [0, 0], [0, 1], [-1.0, 0.0])
        res = matcher(g)
        assert res.cardinality == 0

    def test_empty(self, name, matcher):
        g = BipartiteGraph.from_edges(2, 2, [], [], [])
        res = matcher(g)
        assert res.cardinality == 0

    def test_star_takes_heaviest(self, name, matcher):
        g = BipartiteGraph.from_edges(
            1, 3, [0, 0, 0], [0, 1, 2], [1.0, 7.0, 3.0]
        )
        res = matcher(g)
        assert res.weight == 7.0
        assert res.mate_a[0] == 1

    def test_validity_and_maximality(self, name, matcher, rng):
        for _ in range(25):
            g = random_bipartite(rng)
            res = matcher(g)
            check_matching(g, res)
            assert is_maximal_matching(g, res)

    def test_replacement_weights(self, name, matcher):
        g = BipartiteGraph.from_edges(1, 2, [0, 0], [0, 1], [9.0, 1.0])
        res = matcher(g, np.array([1.0, 9.0]))
        assert res.mate_a[0] == 1


class TestHalfApproximation:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6))
    def test_weight_ratio(self, seed):
        """Property: LD weight is at least half the optimum (§V)."""
        rng = np.random.default_rng(seed)
        g = random_bipartite(rng)
        opt = max_weight_matching_dense(g).weight
        for _, matcher in ALL_HALF_APPROX:
            res = matcher(g)
            assert res.weight >= 0.5 * opt - 1e-9

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_cardinality_ratio(self, seed):
        """Property: maximal matching ⇒ ≥ half the max cardinality."""
        rng = np.random.default_rng(seed)
        g = random_bipartite(rng, allow_negative=False)
        # Max-cardinality via max-weight on unit weights.
        ones = np.ones(g.n_edges)
        opt_card = max_weight_matching_dense(g, ones).cardinality
        res = locally_dominant_matching(g)
        assert res.cardinality >= opt_card / 2


class TestImplementationEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**6))
    def test_all_agree_with_distinct_weights(self, seed):
        """Property: with distinct weights the LD matching is unique and
        equals sorted-greedy, for every implementation and init."""
        rng = np.random.default_rng(seed)
        g = random_bipartite(rng)  # continuous weights: distinct a.s.
        results = [matcher(g) for _, matcher in ALL_HALF_APPROX]
        for res in results[1:]:
            assert np.array_equal(results[0].mate_a, res.mate_a)

    def test_with_ties_all_valid_and_maximal(self, rng):
        """Equal weights: implementations may differ but all contracts
        hold."""
        for _ in range(20):
            n_a, n_b = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            m = int(rng.integers(0, n_a * n_b + 1))
            g = BipartiteGraph.from_edges(
                n_a, n_b, rng.integers(0, n_a, m), rng.integers(0, n_b, m),
                np.ones(m),
            )
            for _, matcher in ALL_HALF_APPROX:
                res = matcher(g)
                check_matching(g, res)
                assert is_maximal_matching(g, res)


class TestRoundStats:
    def test_rounds_recorded(self, rng):
        g = random_bipartite(rng, max_side=20)
        res = locally_dominant_matching(g)
        assert len(res.rounds) >= 1
        assert res.rounds[0].round_index == 0

    def test_matched_counts_add_up(self, rng):
        for _ in range(10):
            g = random_bipartite(rng, max_side=20)
            res = locally_dominant_matching(g)
            total = sum(r.vertices_matched for r in res.rounds)
            assert total == 2 * res.cardinality

    def test_atomics_track_matches(self, rng):
        g = random_bipartite(rng, max_side=20)
        res = locally_dominant_matching(g)
        assert sum(r.atomics for r in res.rounds) == 2 * res.cardinality

    def test_queue_shrinks_overall(self):
        """§V: the queue size decreases as the algorithm progresses."""
        rng = np.random.default_rng(99)
        n = 300
        a = rng.integers(0, n, 8 * n)
        b = rng.integers(0, n, 8 * n)
        g = BipartiteGraph.from_edges(n, n, a, b, rng.random(8 * n))
        res = locally_dominant_matching(g)
        phase2 = [r.queue_size for r in res.rounds[1:]]
        if len(phase2) >= 3:
            assert phase2[-1] <= phase2[0]

    def test_vectorized_rounds_logarithmic(self):
        """Rounds should be far fewer than vertices (O(log V) regime)."""
        rng = np.random.default_rng(7)
        n = 400
        a = rng.integers(0, n, 6 * n)
        b = rng.integers(0, n, 6 * n)
        g = BipartiteGraph.from_edges(n, n, a, b, rng.random(6 * n))
        res = locally_dominant_matching_vectorized(g)
        assert len(res.rounds) < 40

    def test_collect_rounds_off(self, rng):
        g = random_bipartite(rng)
        res = locally_dominant_matching(g, collect_rounds=False)
        assert res.rounds == []


class TestConfig:
    def test_unknown_init(self, rng):
        g = random_bipartite(rng)
        with pytest.raises(ConfigurationError):
            locally_dominant_matching(g, init="bogus")


#: Tie-heavy weights: small integers, both zeros, +inf and NaN.
TIE_VALUES = (-1.0, -0.0, 0.0, 1.0, 2.0, 3.0, np.inf, np.nan)


@st.composite
def tie_heavy(draw):
    """A small L and a weight vector full of ties: free draws from
    :data:`TIE_VALUES`, one value per A- or B-vertex group, or one value
    for every edge."""
    n_a = draw(st.integers(1, 6))
    n_b = draw(st.integers(1, 6))
    pairs = sorted(draw(st.sets(
        st.tuples(st.integers(0, n_a - 1), st.integers(0, n_b - 1)))))
    g = BipartiteGraph.from_edges(
        n_a, n_b, [a for a, _ in pairs], [b for _, b in pairs])
    values = st.sampled_from(TIE_VALUES)
    mode = draw(st.sampled_from(["free", "a_groups", "b_groups", "equal"]))
    if mode == "free":
        w = draw(st.lists(values, min_size=g.n_edges, max_size=g.n_edges))
    elif mode == "equal":
        w = [draw(values)] * g.n_edges
    else:
        side, n = (g.edge_a, n_a) if mode == "a_groups" else (g.edge_b, n_b)
        per = draw(st.lists(values, min_size=n, max_size=n))
        w = [per[v] for v in side.tolist()]
    return g, np.array(w, dtype=np.float64)


def random_maximal(g, w, rng, positive_only):
    """A maximal matching taken in a random edge order."""
    order = rng.permutation(g.n_edges)
    if positive_only:
        order = order[w[order] > 0]
    mate_a = np.full(g.n_a, -1, dtype=np.int64)
    used = np.zeros(g.n_b, dtype=bool)
    for e in order.tolist():
        a, b = int(g.edge_a[e]), int(g.edge_b[e])
        if mate_a[a] < 0 and not used[b]:
            mate_a[a], used[b] = b, True
    return MatchingResult.from_mates(g, mate_a, weights=w)


class TestGreedyCertificate:
    """``is_greedy_matching`` passes the greedy matching under (−w_e, e)
    over the positive edges and nothing else; the greedy-order kinds
    return that matching whatever the ties."""

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy(), st.integers(0, 2**32 - 1))
    def test_passes_exactly_the_greedy_matching(self, case, seed):
        g, w = case
        answers = [make_matcher(kind)(g, w)
                   for kind in ("approx", "approx-queue", "greedy")]
        greedy = answers[-1]
        for answer in answers:
            assert np.array_equal(answer.edge_ids, greedy.edge_ids)
            assert np.array_equal(answer.mate_a, greedy.mate_a)
            assert is_greedy_matching(g, w, answer)
        rng = np.random.default_rng(seed)
        perturbed = w.copy()
        if g.n_edges:
            at = rng.integers(0, g.n_edges, int(rng.integers(1, 3)))
            perturbed[at] = rng.choice(np.array(TIE_VALUES), len(at))
        others = [
            make_matcher("approx")(g, perturbed),
            random_maximal(g, w, rng, positive_only=True),
            random_maximal(g, w, rng, positive_only=False),
        ]
        for other in others:
            check_matching(g, other)
            assert is_greedy_matching(g, w, other) == np.array_equal(
                other.edge_ids, greedy.edge_ids)

    def test_edges_sharing_a_vertex_fail(self):
        g = BipartiteGraph.from_edges(1, 2, [0, 0], [0, 1])
        w = np.array([2.0, 1.0])
        assert is_greedy_matching(g, w, greedy_matching(g, w))
        both = MatchingResult(mate_a=[0], mate_b=[0, 0], edge_ids=[0, 1],
                              weight=3.0)
        assert not is_greedy_matching(g, w, both)

    def test_wrong_length_rejected(self):
        g = BipartiteGraph.from_edges(2, 2, [0, 1], [0, 1])
        with pytest.raises(DimensionError, match="wrong length"):
            is_greedy_matching(g, np.ones(3), greedy_matching(g))
