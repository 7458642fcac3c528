"""Tests for the squares matrix S construction (repro.core.squares)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.squares import build_squares, squares_coo
from repro.errors import DimensionError
from repro.generators import powerlaw_alignment_instance
from repro.generators.bio import dmela_scere
from repro.generators.ontology import lcsh_wiki
from repro.graph import Graph
from repro.sparse.bipartite import BipartiteGraph
from repro.sparse.build import coo_to_csr
from repro.sparse.permutation import check_structural_symmetry
from tests.oracles import count_squares_bruteforce, squares_coo_cartesian


def _random_problem(rng, n_a=6, n_b=6, p_edge=0.3, p_l=0.4):
    def rand_graph(n):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = [p for p in pairs if rng.random() < p_edge]
        if chosen:
            u, v = zip(*chosen)
        else:
            u, v = [], []
        return Graph.from_edges(n, np.array(u, dtype=int), np.array(v, dtype=int))

    a = rand_graph(n_a)
    b = rand_graph(n_b)
    ea, eb = [], []
    for i in range(n_a):
        for j in range(n_b):
            if rng.random() < p_l:
                ea.append(i)
                eb.append(j)
    ell = BipartiteGraph.from_edges(
        n_a, n_b, np.array(ea, dtype=int), np.array(eb, dtype=int),
        rng.random(len(ea)),
    )
    return a, b, ell


class TestSmallCases:
    def test_single_square(self):
        a = Graph.from_edges(2, [0], [1])
        b = Graph.from_edges(2, [0], [1])
        ell = BipartiteGraph.from_edges(2, 2, [0, 1], [0, 1], [1.0, 1.0])
        s = build_squares(a, b, ell)
        # edges (0,0) and (1,1) overlap: S has the symmetric pair.
        assert s.nnz == 2
        assert s.to_dense()[0, 1] == 1 and s.to_dense()[1, 0] == 1

    def test_no_squares_without_b_edge(self):
        a = Graph.from_edges(2, [0], [1])
        b = Graph.from_edges(2, [], [])
        ell = BipartiteGraph.from_edges(2, 2, [0, 1], [0, 1], [1.0, 1.0])
        assert build_squares(a, b, ell).nnz == 0

    def test_empty_l(self):
        a = Graph.from_edges(2, [0], [1])
        b = Graph.from_edges(2, [0], [1])
        ell = BipartiteGraph.from_edges(2, 2, [], [], [])
        s = build_squares(a, b, ell)
        assert s.shape == (0, 0)
        for row_ids in (None, []):
            rows, cols = squares_coo(a, b, ell, row_ids)
            assert len(rows) == len(cols) == 0

    def test_dimension_mismatch(self):
        a = Graph.from_edges(2, [0], [1])
        b = Graph.from_edges(3, [0], [1])
        ell = BipartiteGraph.from_edges(2, 2, [0], [0], [1.0])
        with pytest.raises(DimensionError):
            build_squares(a, b, ell)

    def test_values_are_ones(self, rng):
        a, b, ell = _random_problem(rng)
        s = build_squares(a, b, ell)
        if s.nnz:
            assert np.all(s.data == 1.0)

    def test_no_diagonal(self, rng):
        """An L edge never overlaps with itself (simple graphs)."""
        for _ in range(5):
            a, b, ell = _random_problem(rng)
            s = build_squares(a, b, ell)
            assert not np.any(s.row_of_nonzero() == s.indices)


def _oracle_squares(a, b, ell):
    m = ell.n_edges
    rows, cols = squares_coo_cartesian(a, b, ell)
    return coo_to_csr(rows, cols, 1.0, (m, m), dedup="error")


def _assert_same_matrix(s, ref):
    for name in ("indptr", "indices", "data"):
        got, want = getattr(s, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def _pair_set(rows, cols):
    pairs = set(zip(rows.tolist(), cols.tolist()))
    assert len(pairs) == len(rows), "a pair was produced twice"
    return pairs


_FAMILIES = {
    "powerlaw_300": lambda: powerlaw_alignment_instance(
        n=300, expected_degree=6.0, seed=3).problem,
    "powerlaw_2000": lambda: powerlaw_alignment_instance(
        n=2000, expected_degree=6.0, p_perturb=8.0 / 2000, seed=7).problem,
    "dmela_scere": lambda: dmela_scere(scale=0.2, seed=1).problem,
    "lcsh_wiki": lambda: lcsh_wiki(scale=0.004, seed=1).problem,
}


@pytest.fixture(scope="module", params=sorted(_FAMILIES))
def family(request):
    return _FAMILIES[request.param]()


class TestMatchesOracle:
    """The join equals the Cartesian expand-and-probe reference."""

    def test_build_equals_oracle(self, family):
        a, b, ell = family.a_graph, family.b_graph, family.ell
        s = build_squares(a, b, ell)
        assert s.nnz > 0
        _assert_same_matrix(s, _oracle_squares(a, b, ell))

    def test_build_equals_oracle_random(self, rng):
        for _ in range(20):
            a, b, ell = _random_problem(rng, n_a=9, n_b=7)
            _assert_same_matrix(build_squares(a, b, ell),
                                _oracle_squares(a, b, ell))

    @pytest.mark.parametrize("n_rows", [1, 10, 0.01, 0.2])
    def test_row_subsets(self, family, n_rows):
        a, b, ell = family.a_graph, family.b_graph, family.ell
        m = ell.n_edges
        k = n_rows if isinstance(n_rows, int) else max(1, int(n_rows * m))
        rng = np.random.default_rng(k)
        rows = np.sort(rng.choice(m, size=k, replace=False))
        got = _pair_set(*squares_coo(a, b, ell, rows))
        assert got == _pair_set(*squares_coo_cartesian(a, b, ell, rows))

    def test_unsorted_row_ids(self, family):
        a, b, ell = family.a_graph, family.b_graph, family.ell
        rows = np.random.default_rng(5).permutation(ell.n_edges)[:200]
        assert not np.all(np.diff(rows) > 0)
        got = _pair_set(*squares_coo(a, b, ell, rows.astype(np.int32)))
        assert got == _pair_set(*squares_coo_cartesian(a, b, ell, rows))


class TestDegenerate:
    @pytest.mark.parametrize("edgeless", ["a", "b", "both"])
    def test_graph_without_edges(self, edgeless):
        full = Graph.from_edges(3, [0, 1], [1, 2])
        none = Graph.from_edges(3, [], [])
        a = none if edgeless in ("a", "both") else full
        b = none if edgeless in ("b", "both") else full
        ell = BipartiteGraph.from_edges(
            3, 3, [0, 1, 2, 1], [0, 1, 2, 0], 1.0)
        s = build_squares(a, b, ell)
        assert s.shape == (4, 4) and s.nnz == 0
        rows, _ = squares_coo(a, b, ell, [1, 3])
        assert len(rows) == 0

    def test_l_edges_on_isolated_vertices(self):
        # Vertices 3 (A) and 4 (B) have no graph edges, so the L edges
        # touching them have empty rows and columns.
        a = Graph.from_edges(4, [0], [1])
        b = Graph.from_edges(5, [0], [1])
        ell = BipartiteGraph.from_edges(
            4, 5, [0, 1, 3, 3, 0], [0, 1, 4, 0, 4], 1.0)
        s = build_squares(a, b, ell)
        _assert_same_matrix(s, _oracle_squares(a, b, ell))
        isolated = (ell.edge_a == 3) | (ell.edge_b == 4)
        assert np.all(np.diff(s.indptr)[isolated] == 0)
        assert not np.isin(s.indices, np.flatnonzero(isolated)).any()
        rows, _ = squares_coo(a, b, ell, np.flatnonzero(isolated))
        assert len(rows) == 0


def _star(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, np.zeros(leaves, dtype=np.int64),
                            np.arange(1, leaves + 1))


def test_hub_rows_stay_small():
    """An L edge between two hubs costs its squares, not deg_A·deg_B.

    A and B are stars with 3,000 leaves and L is the identity.  The
    hub-to-hub L edge has 9·10⁶ candidate (j, j') pairs but 3,000
    squares, one with each leaf edge; each leaf edge has one square,
    with the hub edge.
    """
    leaves = 3000
    a = b = _star(leaves)
    ids = np.arange(leaves + 1)
    ell = BipartiteGraph.from_edges(leaves + 1, leaves + 1, ids, ids, 1.0)
    tracemalloc.start()
    try:
        s = build_squares(a, b, ell)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    hub, leaf_edges = 0, np.arange(1, leaves + 1)
    want = {(hub, f) for f in leaf_edges.tolist()}
    want |= {(e, hub) for e in leaf_edges.tolist()}
    assert s.nnz == 2 * leaves
    assert _pair_set(s.row_of_nonzero(), s.indices) == want
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_matches_bruteforce(seed):
    """Property: vectorized construction equals the O(m²) definition."""
    rng = np.random.default_rng(seed)
    a, b, ell = _random_problem(rng, n_a=5, n_b=5)
    s = build_squares(a, b, ell)
    assert s.nnz == count_squares_bruteforce(a, b, ell)
    # Entry-level check against the definition.
    dense = s.to_dense()
    for e in range(ell.n_edges):
        for f in range(ell.n_edges):
            expected = float(
                a.has_edge(int(ell.edge_a[e]), int(ell.edge_a[f]))
                and b.has_edge(int(ell.edge_b[e]), int(ell.edge_b[f]))
            )
            assert dense[e, f] == expected


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_structurally_symmetric(seed):
    """Property: S is structurally symmetric (undirected A, B)."""
    rng = np.random.default_rng(seed)
    a, b, ell = _random_problem(rng)
    s = build_squares(a, b, ell)
    assert check_structural_symmetry(s)
