"""Tests for the vectorized sparse kernels (repro.sparse.ops)."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DimensionError
from repro.sparse.build import coo_to_csr
from repro.sparse.ops import (
    _segment_sum,
    bound,
    daxpy,
    quadratic_form,
    row_scale,
    row_sums,
    spmv,
)

from tests.oracles import segment_sum_masked


def _random_csr(rng, n_rows, n_cols, density=0.4):
    m = sp.random(n_rows, n_cols, density=density,
                  random_state=int(rng.integers(1 << 31)))
    coo = m.tocoo()
    return m.toarray(), coo_to_csr(coo.row, coo.col, coo.data,
                                   (n_rows, n_cols))


class TestSpmv:
    def test_simple(self):
        m = coo_to_csr([0, 1], [1, 0], [2.0, 3.0], (2, 2))
        assert np.array_equal(spmv(m, [10.0, 20.0]), [40.0, 30.0])

    def test_empty_rows_give_zero(self):
        m = coo_to_csr([2], [0], [1.0], (4, 1))
        assert np.array_equal(spmv(m, [5.0]), [0, 0, 5.0, 0])

    def test_out_parameter_reused(self):
        m = coo_to_csr([0], [0], [2.0], (1, 1))
        out = np.array([99.0])
        res = spmv(m, [3.0], out=out)
        assert res is out
        assert out[0] == 6.0

    def test_out_cleared_before_accumulate(self):
        m = coo_to_csr([0], [0], [2.0], (1, 1))
        out = np.array([100.0])
        spmv(m, [1.0], out=out)
        assert out[0] == 2.0

    def test_dimension_errors(self):
        m = coo_to_csr([0], [0], [1.0], (1, 2))
        with pytest.raises(DimensionError):
            spmv(m, [1.0])
        with pytest.raises(DimensionError):
            spmv(m, [1.0, 2.0], out=np.zeros(5))

    def test_zero_size(self):
        m = coo_to_csr([], [], [], (0, 0))
        assert len(spmv(m, np.zeros(0))) == 0

    @settings(max_examples=50, deadline=None)
    @given(
        n_rows=st.integers(1, 12),
        n_cols=st.integers(1, 12),
        seed=st.integers(0, 10_000),
    )
    def test_matches_dense(self, n_rows, n_cols, seed):
        rng = np.random.default_rng(seed)
        dense, m = _random_csr(rng, n_rows, n_cols)
        x = rng.normal(size=n_cols)
        assert np.allclose(spmv(m, x), dense @ x)


class TestRowSums:
    def test_basic(self):
        m = coo_to_csr([0, 0, 2], [0, 1, 0], [1.0, 2.0, 5.0], (3, 2))
        assert np.array_equal(row_sums(m), [3.0, 0.0, 5.0])

    def test_all_empty(self):
        m = coo_to_csr([], [], [], (3, 3))
        assert np.array_equal(row_sums(m), np.zeros(3))

    def test_out(self):
        m = coo_to_csr([0], [0], [4.0], (1, 1))
        out = np.zeros(1)
        assert row_sums(m, out=out) is out
        assert out[0] == 4.0

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 12), seed=st.integers(0, 10_000))
    def test_matches_dense(self, n, seed):
        rng = np.random.default_rng(seed)
        dense, m = _random_csr(rng, n, n)
        assert np.allclose(row_sums(m), dense.sum(axis=1))


@st.composite
def csr_segments(draw):
    """Values and a row pointer whose first, middle or last rows (or
    several of them) are empty."""
    lengths = draw(st.lists(st.integers(0, 5), min_size=1, max_size=10))
    for where in draw(st.sets(st.sampled_from(["first", "middle", "last"]))):
        lengths[{"first": 0, "middle": len(lengths) // 2,
                 "last": -1}[where]] = 0
    indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    n = int(indptr[-1])
    vals = draw(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 1.0, 1e16, -1e16]),
                  st.floats(-1e3, 1e3, allow_nan=False)),
        min_size=n, max_size=n))
    return np.array(vals, dtype=np.float64), indptr


class TestSegmentSum:
    """The kernel returns the masked reference's bits exactly."""

    @settings(max_examples=200, deadline=None)
    @given(csr_segments())
    def test_matches_masked_reference(self, drawn):
        vals, indptr = drawn
        got = np.full(len(indptr) - 1, 7.0)  # empty rows are left alone
        want = got.copy()
        _segment_sum(vals, indptr, got)
        segment_sum_masked(vals, indptr, want)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @settings(max_examples=50, deadline=None)
    @given(csr_segments(), st.integers(0, 10_000))
    def test_row_sums_and_spmv(self, drawn, seed):
        vals, indptr = drawn
        n_rows, nnz = len(indptr) - 1, len(vals)
        rng = np.random.default_rng(seed)
        rows = np.repeat(np.arange(n_rows), np.diff(indptr))
        mat = coo_to_csr(rows, np.arange(nnz), vals, (n_rows, max(nnz, 1)))
        want = np.zeros(n_rows)
        segment_sum_masked(mat.data, mat.indptr, want)
        assert np.array_equal(row_sums(mat), want)
        x = rng.normal(size=mat.n_cols)
        want = np.zeros(n_rows)
        segment_sum_masked(mat.data * x[mat.indices], mat.indptr, want)
        assert np.array_equal(spmv(mat, x), want)


class TestRowScale:
    def test_basic(self):
        m = coo_to_csr([0, 1], [0, 0], [2.0, 3.0], (2, 1))
        scaled = row_scale(m, [10.0, 100.0])
        assert np.array_equal(scaled, [20.0, 300.0])

    def test_matches_dense_diag_product(self):
        rng = np.random.default_rng(0)
        dense, m = _random_csr(rng, 6, 5)
        scale = rng.normal(size=6)
        out = row_scale(m, scale)
        assert np.allclose(
            m.with_values(out).to_dense(), np.diag(scale) @ dense
        )

    def test_out_param(self):
        m = coo_to_csr([0], [0], [2.0], (1, 1))
        out = np.zeros(1)
        assert row_scale(m, [3.0], out=out) is out
        assert out[0] == 6.0

    def test_wrong_scale_length(self):
        m = coo_to_csr([0], [0], [1.0], (1, 1))
        with pytest.raises(DimensionError):
            row_scale(m, [1.0, 2.0])


class TestBound:
    def test_table1_definition(self):
        x = np.array([-5.0, 0.3, 5.0])
        assert np.array_equal(bound(x, 0.0, 1.0), [0.0, 0.3, 1.0])

    def test_in_place(self):
        x = np.array([3.0])
        res = bound(x, 0.0, 1.0, out=x)
        assert res is x and x[0] == 1.0

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            bound(np.array([1.0]), 2.0, 1.0)


class TestDaxpy:
    def test_basic(self):
        assert np.array_equal(
            daxpy(2.0, np.array([1.0, 2.0]), np.array([10.0, 20.0])),
            [12.0, 24.0],
        )

    def test_out(self):
        out = np.zeros(2)
        res = daxpy(0.5, np.array([2.0, 4.0]), np.array([1.0, 1.0]), out=out)
        assert res is out
        assert np.array_equal(out, [2.0, 3.0])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            daxpy(1.0, np.zeros(2), np.zeros(3))


class TestQuadraticForm:
    def test_matches_dense(self):
        rng = np.random.default_rng(3)
        dense, m = _random_csr(rng, 7, 7)
        x = rng.normal(size=7)
        assert np.isclose(quadratic_form(m, x), x @ dense @ x)
