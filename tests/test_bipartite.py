"""Tests for the bipartite graph L (repro.sparse.bipartite)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import DimensionError, ValidationError
from repro.sparse.bipartite import BipartiteGraph


def small() -> BipartiteGraph:
    return BipartiteGraph.from_edges(
        3, 2, [2, 0, 1, 0], [1, 0, 1, 1], [4.0, 1.0, 3.0, 2.0]
    )


class TestConstruction:
    def test_edges_sorted_row_major(self):
        g = small()
        keys = g.edge_a * g.n_b + g.edge_b
        assert np.all(np.diff(keys) > 0)

    def test_n_edges(self):
        assert small().n_edges == 4

    def test_dedup_max_default(self):
        g = BipartiteGraph.from_edges(1, 1, [0, 0], [0, 0], [1.0, 9.0])
        assert g.n_edges == 1
        assert g.weights[0] == 9.0

    def test_dedup_sum(self):
        g = BipartiteGraph.from_edges(
            1, 1, [0, 0], [0, 0], [1.0, 9.0], dedup="sum"
        )
        assert g.weights[0] == 10.0

    def test_dedup_first_is_input_order(self):
        g = BipartiteGraph.from_edges(
            1, 1, [0, 0], [0, 0], [5.0, 9.0], dedup="first"
        )
        assert g.weights[0] == 5.0

    def test_dedup_error(self):
        with pytest.raises(ValidationError):
            BipartiteGraph.from_edges(
                1, 1, [0, 0], [0, 0], [1.0, 2.0], dedup="error"
            )

    def test_scalar_weight(self):
        g = BipartiteGraph.from_edges(2, 2, [0, 1], [1, 0], 1.0)
        assert np.array_equal(g.weights, [1.0, 1.0])

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            BipartiteGraph.from_edges(2, 2, [5], [0], [1.0])
        with pytest.raises(ValidationError):
            BipartiteGraph.from_edges(2, 2, [0], [5], [1.0])

    def test_direct_ctor_requires_sorted(self):
        with pytest.raises(ValidationError):
            BipartiteGraph(2, 2, [1, 0], [0, 0], [1.0, 1.0])

    def test_empty(self):
        g = BipartiteGraph.from_edges(3, 3, [], [], [])
        assert g.n_edges == 0
        assert np.array_equal(g.degrees_a(), [0, 0, 0])


class TestViews:
    def test_row_ptr_groups_by_a(self):
        g = small()
        for i in range(g.n_a):
            eids = g.edges_of_a(i)
            assert np.all(g.edge_a[eids] == i)

    def test_col_view_groups_by_b(self):
        g = small()
        for j in range(g.n_b):
            eids = g.edges_of_b(j)
            assert np.all(g.edge_b[eids] == j)

    def test_col_perm_is_permutation(self):
        g = small()
        assert np.array_equal(np.sort(g.col_perm), np.arange(g.n_edges))

    def test_degrees_sum_to_edges(self):
        g = small()
        assert g.degrees_a().sum() == g.n_edges
        assert g.degrees_b().sum() == g.n_edges

    def test_lookup_edges_hits(self):
        g = small()
        eids = g.lookup_edges(g.edge_a, g.edge_b)
        assert np.array_equal(eids, np.arange(g.n_edges))

    def test_lookup_edges_misses(self):
        g = small()
        eids = g.lookup_edges([2], [0])
        assert eids[0] == -1

    def test_lookup_on_empty_graph(self):
        g = BipartiteGraph.from_edges(2, 2, [], [], [])
        assert g.lookup_edges([0], [0])[0] == -1


class TestGeneralGraph:
    def test_shapes(self):
        g = small()
        indptr, neighbors, half_eid, half_w = g.as_general_graph()
        assert len(indptr) == g.n_a + g.n_b + 1
        assert len(neighbors) == 2 * g.n_edges
        assert len(half_eid) == 2 * g.n_edges

    def test_each_edge_appears_twice(self):
        g = small()
        _, _, half_eid, _ = g.as_general_graph()
        counts = np.bincount(half_eid, minlength=g.n_edges)
        assert np.all(counts == 2)

    def test_weights_match_eids(self):
        g = small()
        _, _, half_eid, half_w = g.as_general_graph()
        assert np.allclose(half_w, g.weights[half_eid])

    def test_adjacency_consistent(self):
        g = small()
        indptr, neighbors, half_eid, _ = g.as_general_graph()
        for a in range(g.n_a):
            nbrs = neighbors[indptr[a] : indptr[a + 1]]
            assert np.array_equal(
                np.sort(nbrs - g.n_a), np.sort(g.edge_b[g.edges_of_a(a)])
            )


class TestDerivedGraphs:
    def test_subgraph(self):
        g = small()
        mask = g.weights > 2.0
        sub = g.subgraph(mask)
        assert sub.n_edges == int(mask.sum())
        assert sub.n_a == g.n_a and sub.n_b == g.n_b

    def test_subgraph_wrong_mask(self):
        with pytest.raises(DimensionError):
            small().subgraph(np.ones(2, dtype=bool))

    def test_with_weights_view_shares_structure(self):
        g = small()
        w2 = g.weights * 2
        g2 = g.with_weights(w2)
        assert g2.row_ptr is g.row_ptr
        assert np.array_equal(g2.weights, w2)

    def test_with_weights_wrong_length(self):
        with pytest.raises(DimensionError):
            small().with_weights(np.ones(1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100000))
def test_views_consistent_random(seed):
    """Property: row and column views partition the same edge-id set."""
    rng = np.random.default_rng(seed)
    n_a, n_b = int(rng.integers(1, 10)), int(rng.integers(1, 10))
    m = int(rng.integers(0, 25))
    g = BipartiteGraph.from_edges(
        n_a, n_b, rng.integers(0, n_a, m), rng.integers(0, n_b, m),
        rng.random(m),
    )
    seen = np.concatenate([g.edges_of_a(i) for i in range(n_a)]) if g.n_edges else np.array([])
    assert np.array_equal(np.sort(seen), np.arange(g.n_edges))
    seen_b = np.concatenate([g.edges_of_b(j) for j in range(n_b)]) if g.n_edges else np.array([])
    assert np.array_equal(np.sort(seen_b), np.arange(g.n_edges))


@st.composite
def graphs_and_vertex_sets(draw):
    """A random L (isolated vertices likely) and two vertex lists that
    may be empty, unsorted or repeat ids."""
    n_a, n_b = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    pairs = draw(st.lists(st.tuples(st.integers(0, n_a - 1),
                                    st.integers(0, n_b - 1)), max_size=30))
    g = BipartiteGraph.from_edges(
        n_a, n_b, [p[0] for p in pairs], [p[1] for p in pairs],
        np.ones(len(pairs)),
    )
    a = draw(st.lists(st.integers(0, n_a - 1), max_size=12))
    b = draw(st.lists(st.integers(0, n_b - 1), max_size=12))
    return g, np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)


_TWO_EDGES = BipartiteGraph.from_edges(4, 4, [0, 1], [1, 0], 1.0)


@settings(max_examples=200, deadline=None)
@given(graphs_and_vertex_sets())
@example((_TWO_EDGES, np.array([2, 3]), np.array([3, 2, 2])))  # isolated
@example((_TWO_EDGES, np.empty(0, dtype=np.int64), np.array([1])))
def test_incident_edges_matches_isin(case):
    """Property: the range gathers find exactly the edges an ``isin``
    scan over every edge finds, sorted and distinct."""
    g, a, b = case
    got = g.incident_edges(a, b)
    want = np.flatnonzero(np.isin(g.edge_a, a) | np.isin(g.edge_b, b))
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)


@st.composite
def graphs_and_probes(draw):
    """A random L and ``(a, b)`` probes that may be negative, out of
    range or absent."""
    n_a, n_b = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    pairs = draw(st.lists(st.tuples(st.integers(0, n_a - 1),
                                    st.integers(0, n_b - 1)), max_size=20))
    g = BipartiteGraph.from_edges(
        n_a, n_b, [p[0] for p in pairs], [p[1] for p in pairs],
        np.ones(len(pairs)),
    )
    probes = draw(st.lists(st.tuples(st.integers(-n_a - 2, 2 * n_a + 2),
                                     st.integers(-n_b - 2, 2 * n_b + 2)),
                           max_size=20))
    return g, probes


@settings(max_examples=200, deadline=None)
@given(graphs_and_probes())
# (0, 3) packs to 3 = 1·2 + 1, the key of edge (1, 1); (2, -1) also.
@example((BipartiteGraph.from_edges(2, 2, [1], [1], 1.0), [(0, 3), (2, -1)]))
def test_lookup_edges_matches_dict(case):
    """Property: the key lookup answers what a dict over the edges
    answers, ``-1`` for any pair that is not an edge."""
    g, probes = case
    ids = {(a, b): e for e, (a, b) in enumerate(
        zip(g.edge_a.tolist(), g.edge_b.tolist()))}
    got = g.lookup_edges([p[0] for p in probes], [p[1] for p in probes])
    assert got.tolist() == [ids.get(p, -1) for p in probes]


def _general_view_reference(g: BipartiteGraph):
    """L as a general graph, vertex by vertex: A vertex ``a`` lists
    ``n_a + b`` over its edges, B vertex ``b`` lists ``a``, each in
    increasing order with the edge id of every half-edge."""
    rows: list[list[tuple[int, int]]] = [[] for _ in range(g.n_a + g.n_b)]
    for e, (a, b) in enumerate(zip(g.edge_a.tolist(), g.edge_b.tolist())):
        rows[a].append((g.n_a + b, e))
        rows[g.n_a + b].append((a, e))
    half = [h for row in rows for h in sorted(row)]
    indptr = np.cumsum([0] + [len(row) for row in rows])
    return (indptr, np.array([h[0] for h in half], dtype=np.int64),
            np.array([h[1] for h in half], dtype=np.int64))


@st.composite
def weight_chains(draw):
    """A random L, a chain of ``with_weights`` views of it, and the
    member of the chain that asks for the general-graph view first."""
    n_a, n_b = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    pairs = draw(st.lists(st.tuples(st.integers(0, n_a - 1),
                                    st.integers(0, n_b - 1)),
                          max_size=25, unique=True))
    chain = [BipartiteGraph.from_edges(
        n_a, n_b, [p[0] for p in pairs], [p[1] for p in pairs],
        np.arange(1.0, len(pairs) + 1))]
    weights = st.lists(st.floats(-5, 5), min_size=len(pairs),
                       max_size=len(pairs))
    for _ in range(draw(st.integers(1, 4))):
        chain.append(chain[-1].with_weights(np.array(draw(weights))))
    return chain, draw(st.integers(0, len(chain) - 1))


@settings(max_examples=100, deadline=None)
@given(weight_chains())
def test_held_views_equal_a_fresh_build_and_are_shared(case):
    """Property: every view of a ``with_weights`` chain holds the base
    graph's own key and general-graph arrays, whichever view built them,
    and they equal a fresh build and a vertex-by-vertex reference."""
    chain, first = case
    chain[first].general_view  # whichever view asks first builds it
    base = chain[0]
    fresh = BipartiteGraph(base.n_a, base.n_b, base.edge_a.copy(),
                           base.edge_b.copy(), base.weights.copy())
    want_keys = base.edge_a * base.n_b + base.edge_b
    reference = _general_view_reference(base)
    for g in chain:
        assert g.edge_keys is base.edge_keys
        np.testing.assert_array_equal(g.edge_keys, fresh.edge_keys)
        np.testing.assert_array_equal(g.edge_keys, want_keys)
        for got, shared, built, want in zip(
                g.general_view, base.general_view, fresh.general_view,
                reference):
            assert got is shared
            np.testing.assert_array_equal(got, built)
            np.testing.assert_array_equal(got, want)
        *view, half_w = g.as_general_graph()
        assert all(x is y for x, y in zip(view, base.general_view))
        np.testing.assert_array_equal(half_w, g.weights[view[2]])
