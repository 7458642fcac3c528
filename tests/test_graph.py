"""Tests for the undirected graph substrate (repro.graph)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.graph import Graph


def path4() -> Graph:
    return Graph.from_edges(4, [0, 1, 2], [1, 2, 3])


class TestFromEdges:
    def test_basic(self):
        g = path4()
        assert g.n == 4 and g.m == 3

    def test_drops_self_loops(self):
        g = Graph.from_edges(3, [0, 1], [0, 2])
        assert g.m == 1

    def test_merges_duplicates_and_reversals(self):
        g = Graph.from_edges(3, [0, 1, 0], [1, 0, 1])
        assert g.m == 1

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            Graph.from_edges(2, [0], [5])

    def test_empty(self):
        g = Graph.from_edges(5, [], [])
        assert g.m == 0
        assert np.array_equal(g.degrees(), np.zeros(5))

    def test_direct_ctor_requires_canonical(self):
        with pytest.raises(ValidationError):
            Graph(3, [1], [0])  # u must be < v

    def test_edge_keys_kept(self):
        g = Graph.from_edges(5, [3, 0, 4, 1], [1, 2, 0, 2])
        np.testing.assert_array_equal(g.edge_keys, g.edge_u * 5 + g.edge_v)
        assert np.all(np.diff(g.edge_keys) > 0)
        assert Graph.from_edges(5, [], []).edge_keys.shape == (0,)
        with pytest.raises(ValidationError):
            Graph(3, [0, 0], [2, 1])  # sorted


class TestAdjacency:
    def test_neighbors_sorted(self):
        g = Graph.from_edges(5, [4, 2, 0], [2, 0, 1])
        for v in range(5):
            nbrs = g.neighbors(v)
            assert np.all(np.diff(nbrs) > 0)

    def test_neighbors_content(self):
        g = path4()
        assert np.array_equal(g.neighbors(1), [0, 2])
        assert np.array_equal(g.neighbors(0), [1])

    def test_degrees(self):
        assert np.array_equal(path4().degrees(), [1, 2, 2, 1])

    def test_degree_sum_is_twice_edges(self):
        g = path4()
        assert g.degrees().sum() == 2 * g.m

    def test_has_edge(self):
        g = path4()
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert not g.has_edge(2, 2)

    def test_edge_set(self):
        assert path4().edge_set() == {(0, 1), (1, 2), (2, 3)}


class TestUnion:
    def test_union(self):
        g1 = Graph.from_edges(3, [0], [1])
        g2 = Graph.from_edges(3, [1], [2])
        u = g1.union_edges(g2)
        assert u.edge_set() == {(0, 1), (1, 2)}

    def test_union_dedups(self):
        g1 = Graph.from_edges(3, [0], [1])
        u = g1.union_edges(g1)
        assert u.m == 1

    def test_union_size_mismatch(self):
        with pytest.raises(ValidationError):
            Graph.from_edges(3, [], []).union_edges(Graph.from_edges(4, [], []))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100000))
def test_adjacency_roundtrip(seed):
    """Property: CSR adjacency reproduces exactly the canonical edge set."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 15))
    m = int(rng.integers(0, 30))
    g = Graph.from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m))
    rebuilt = set()
    for v in range(n):
        for w in g.neighbors(v).tolist():
            rebuilt.add((min(v, w), max(v, w)))
    assert rebuilt == g.edge_set()
