"""Microbenchmarks of the per-iteration kernels (real wall-clock).

These are the Python counterparts of the paper's OpenMP loops: othermax,
SpMV on S, the squares construction, and Klau's row matcher.
"""

import numpy as np
import pytest

from repro.core.othermax import othermax_col, othermax_row
from repro.core.row_match import RowMatcher
from repro.core.squares import build_squares
from repro.sparse.ops import row_sums, spmv


@pytest.fixture(scope="module")
def problem(wiki_instance):
    return wiki_instance.problem


@pytest.mark.benchmark(group="kernels")
def test_othermax_row_kernel(benchmark, problem):
    g_vec = np.random.default_rng(0).normal(size=problem.n_edges_l)
    out = np.empty(problem.n_edges_l)
    benchmark(othermax_row, problem.ell, g_vec, out)


@pytest.mark.benchmark(group="kernels")
def test_othermax_col_kernel(benchmark, problem):
    g_vec = np.random.default_rng(0).normal(size=problem.n_edges_l)
    out = np.empty(problem.n_edges_l)
    benchmark(othermax_col, problem.ell, g_vec, out)


@pytest.mark.benchmark(group="kernels")
def test_spmv_squares(benchmark, problem):
    x = np.random.default_rng(1).random(problem.n_edges_l)
    out = np.empty(problem.n_edges_l)
    benchmark(spmv, problem.squares, x, out)


@pytest.mark.benchmark(group="kernels")
def test_row_sums_squares(benchmark, problem):
    out = np.empty(problem.n_edges_l)
    benchmark(row_sums, problem.squares, out)


@pytest.mark.benchmark(group="kernels")
def test_squares_construction(benchmark, problem):
    s = benchmark.pedantic(
        lambda: build_squares(problem.a_graph, problem.b_graph, problem.ell),
        rounds=1, iterations=1,
    )
    assert s.nnz == problem.squares.nnz


@pytest.mark.benchmark(group="kernels")
def test_row_matcher_solve(benchmark, problem):
    s = problem.squares
    rm = RowMatcher(s, problem.ell)
    m_vals = np.random.default_rng(2).normal(0.5, 1.0, s.nnz)
    d = np.zeros(s.n_rows)
    sl = np.zeros(s.nnz)
    benchmark(rm.solve, m_vals, d, sl)
