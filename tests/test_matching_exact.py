"""Tests for exact max-weight matching (sparse SSP and dense oracle)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DimensionError, ValidationError
from repro.matching import (
    check_matching,
    max_weight_matching,
    max_weight_matching_dense,
)
from repro.matching.exact import _DENSE_CUTOFF
from repro.matching.warm import ExactMatcher
from repro.sparse.bipartite import BipartiteGraph

from tests.helpers import random_bipartite


class TestSmallCases:
    def test_single_edge(self):
        g = BipartiteGraph.from_edges(1, 1, [0], [0], [3.0])
        res = max_weight_matching(g, dense_cutoff=0)
        assert res.weight == 3.0
        assert res.cardinality == 1
        assert res.mate_a[0] == 0

    def test_negative_edge_excluded(self):
        g = BipartiteGraph.from_edges(1, 1, [0], [0], [-3.0])
        res = max_weight_matching(g, dense_cutoff=0)
        assert res.weight == 0.0
        assert res.cardinality == 0

    def test_zero_edge_excluded(self):
        g = BipartiteGraph.from_edges(1, 1, [0], [0], [0.0])
        assert max_weight_matching(g, dense_cutoff=0).cardinality == 0

    def test_conflict_takes_heavier(self):
        g = BipartiteGraph.from_edges(2, 1, [0, 1], [0, 0], [1.0, 5.0])
        res = max_weight_matching(g, dense_cutoff=0)
        assert res.weight == 5.0
        assert res.mate_a[1] == 0 and res.mate_a[0] == -1

    def test_augmenting_path_beats_greedy(self):
        # Greedy takes (0,0)=3 and strands vertex 1; optimum is 2+2.5=4.5
        g = BipartiteGraph.from_edges(
            2, 2, [0, 0, 1], [0, 1, 0], [3.0, 2.0, 2.5]
        )
        res = max_weight_matching(g, dense_cutoff=0)
        assert np.isclose(res.weight, 4.5)

    def test_empty_graph(self):
        g = BipartiteGraph.from_edges(3, 4, [], [], [])
        res = max_weight_matching(g, dense_cutoff=0)
        assert res.cardinality == 0
        assert np.all(res.mate_a == -1)

    def test_replacement_weights(self):
        g = BipartiteGraph.from_edges(2, 1, [0, 1], [0, 0], [5.0, 1.0])
        res = max_weight_matching(g, np.array([1.0, 5.0]), dense_cutoff=0)
        assert res.mate_a[1] == 0
        assert res.weight == 5.0

    def test_wrong_weight_length(self):
        g = BipartiteGraph.from_edges(1, 1, [0], [0], [1.0])
        with pytest.raises(DimensionError):
            max_weight_matching(g, np.ones(3))

    def test_dense_fast_path_matches_sparse(self):
        rng = np.random.default_rng(0)
        g = random_bipartite(rng)
        sparse = max_weight_matching(g, dense_cutoff=0)
        fast = max_weight_matching(g)  # takes the dense path at this size
        assert np.isclose(sparse.weight, fast.weight)


class TestNonFiniteWeights:
    """A NaN or infinite weight is refused, never silently dropped."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("regime", ["dense", "sparse"])
    @pytest.mark.parametrize("call", ["first", "warm"])
    def test_rejected(self, bad, regime, call):
        g = BipartiteGraph.from_edges(
            3, 3, [0, 0, 1, 2], [0, 1, 1, 2], [1.0, 2.0, 3.0, 4.0])
        cutoff = {"dense": _DENSE_CUTOFF, "sparse": 0}[regime]
        matcher = ExactMatcher()
        if call == "warm":
            matcher(g, g.weights, dense_cutoff=cutoff)
        w = g.weights.copy()
        w[1] = bad
        with pytest.raises(ValidationError, match="finite"):
            matcher(g, w, dense_cutoff=cutoff)
        with pytest.raises(ValidationError, match="finite"):
            max_weight_matching(g, w, dense_cutoff=cutoff)
        # The refused call leaves the matcher usable.
        res = matcher(g, g.weights, dense_cutoff=cutoff)
        assert np.array_equal(res.mate_a, [0, 1, 2]) and res.weight == 8.0


class TestMatchingStructure:
    def test_result_is_valid_matching(self, rng):
        for _ in range(30):
            g = random_bipartite(rng)
            res = max_weight_matching(g, dense_cutoff=0)
            check_matching(g, res)

    def test_mate_arrays_consistent(self, rng):
        g = random_bipartite(rng)
        res = max_weight_matching(g, dense_cutoff=0)
        for a, b in enumerate(res.mate_a.tolist()):
            if b >= 0:
                assert res.mate_b[b] == a

    def test_indicator(self):
        g = BipartiteGraph.from_edges(1, 1, [0], [0], [2.0])
        res = max_weight_matching(g, dense_cutoff=0)
        x = res.indicator(g.n_edges)
        assert np.array_equal(x, [1.0])

    def test_no_nonpositive_edge_selected(self, rng):
        for _ in range(20):
            g = random_bipartite(rng)
            res = max_weight_matching(g, dense_cutoff=0)
            if res.cardinality:
                assert np.all(g.weights[res.edge_ids] > 0)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**6))
def test_sparse_equals_dense_oracle(seed):
    """Property: the sparse SSP matcher is optimal (agrees with LSAP)."""
    rng = np.random.default_rng(seed)
    g = random_bipartite(rng)
    ours = max_weight_matching(g, dense_cutoff=0)
    oracle = max_weight_matching_dense(g)
    assert abs(ours.weight - oracle.weight) < 1e-9
    check_matching(g, ours)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_optimal_under_replacement_weights(seed):
    """Property: optimality also holds for caller-supplied weights."""
    rng = np.random.default_rng(seed)
    g = random_bipartite(rng)
    w = rng.normal(0.5, 2.0, g.n_edges)
    ours = max_weight_matching(g, w, dense_cutoff=0)
    oracle = max_weight_matching_dense(g, w)
    assert abs(ours.weight - oracle.weight) < 1e-9
