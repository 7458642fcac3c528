"""Tests for the othermax kernels (repro.core.othermax)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.othermax import othermax_col, othermax_grouped, othermax_row
from repro.errors import DimensionError
from repro.sparse.bipartite import BipartiteGraph

from tests.helpers import random_bipartite
from tests.oracles import othermax_grouped_full

#: Values that make ties at a group's max, zeros of both signs and
#: infinities likely; NaN is outside the kernels' domain.
SPECIAL = st.sampled_from(
    [0.0, -0.0, 1.0, 2.0, 2.0, -1.0, 3.5, np.inf, -np.inf])
VALUE = st.one_of(SPECIAL, st.floats(-10.0, 10.0, allow_nan=False))
SHAPES = ("mixed", "non_positive", "one_positive", "all_positive")


@st.composite
def grouped_values(draw):
    """A value vector in one of :data:`SHAPES` and its group ``indptr``
    (empty groups included)."""
    sizes = draw(st.lists(st.integers(0, 6), max_size=8))
    indptr = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    n = int(indptr[-1])
    vals = np.array(draw(st.lists(VALUE, min_size=n, max_size=n)),
                    dtype=np.float64)
    shape = draw(st.sampled_from(SHAPES))
    if shape == "all_positive":
        vals = np.abs(vals) + 0.5
    elif shape != "mixed":
        vals = -np.abs(vals)  # -abs(0.0) is -0.0
    if shape == "one_positive":
        for lo, hi in zip(indptr[:-1], indptr[1:]):
            if hi > lo:
                vals[draw(st.integers(lo, hi - 1))] = draw(
                    st.sampled_from([1.0, 2.0, 0.25, np.inf]))
    return vals, indptr


def assert_same_bits(got, want):
    """Equal values, and equal signs of zero."""
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def brute_othermax(values, groups):
    """Direct implementation of the paper's definition."""
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    for i in range(len(values)):
        others = [values[j] for j in range(len(values))
                  if groups[j] == groups[i] and j != i]
        out[i] = max(max(others), 0.0) if others else 0.0
    return out


class TestGrouped:
    def test_basic(self):
        vals = np.array([1.0, 5.0, 3.0])
        indptr = np.array([0, 3])
        out = othermax_grouped(vals, indptr)
        # max=5: for others replace by 5; for the max, second largest 3.
        assert np.array_equal(out, [5.0, 3.0, 5.0])

    def test_singleton_group_is_zero(self):
        out = othermax_grouped(np.array([7.0]), np.array([0, 1]))
        assert out[0] == 0.0

    def test_negative_values_clipped(self):
        out = othermax_grouped(np.array([-3.0, -1.0]), np.array([0, 2]))
        # othermax of -3 is -1 -> bound to 0; of -1 is -3 -> 0.
        assert np.array_equal(out, [0.0, 0.0])

    def test_duplicate_maxima(self):
        out = othermax_grouped(np.array([4.0, 4.0, 1.0]), np.array([0, 3]))
        # Both maxima see "the other 4".
        assert np.array_equal(out, [4.0, 4.0, 4.0])

    def test_empty_groups(self):
        vals = np.array([2.0, 3.0])
        indptr = np.array([0, 0, 2, 2])
        out = othermax_grouped(vals, indptr)
        assert np.array_equal(out, [3.0, 2.0])

    def test_empty_values(self):
        out = othermax_grouped(np.array([]), np.array([0]))
        assert len(out) == 0

    def test_bad_indptr(self):
        with pytest.raises(DimensionError):
            othermax_grouped(np.array([1.0]), np.array([0, 5]))

    def test_out_param(self):
        vals = np.array([1.0, 2.0])
        out = np.empty(2)
        res = othermax_grouped(vals, np.array([0, 2]), out=out)
        assert res is out

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**6))
    def test_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        n_groups = int(rng.integers(1, 6))
        sizes = rng.integers(0, 5, n_groups)
        indptr = np.concatenate([[0], np.cumsum(sizes)])
        n = int(indptr[-1])
        vals = rng.uniform(-5, 5, n)
        groups = np.repeat(np.arange(n_groups), sizes)
        got = othermax_grouped(vals, indptr)
        # The definition picks values and never adds them.
        assert np.array_equal(got, brute_othermax(vals, groups))


class TestMatchesFullReduction:
    """The positive-entry kernel returns the full reduction's bits."""

    @settings(max_examples=300, deadline=None)
    @given(grouped_values())
    def test_grouped(self, drawn):
        vals, indptr = drawn
        assert_same_bits(othermax_grouped(vals, indptr),
                         othermax_grouped_full(vals, indptr))

    @settings(max_examples=100, deadline=None)
    @given(grouped_values(), st.integers(0, 10**6))
    def test_row_and_col(self, drawn, seed):
        """Row groups by ``edge_a``, column groups by ``edge_b`` in edge
        order; the reference goes through the column permutation."""
        vals, _ = drawn
        rng = np.random.default_rng(seed)
        g = random_bipartite(rng)
        if g.n_edges == 0:
            return
        vec = np.resize(vals, g.n_edges) if len(vals) else np.zeros(g.n_edges)
        vec = rng.permutation(vec)
        assert_same_bits(othermax_row(g, vec),
                         othermax_grouped_full(vec, g.row_ptr))
        want = np.empty(g.n_edges)
        want[g.col_perm] = othermax_grouped_full(vec[g.col_perm], g.col_ptr)
        assert_same_bits(othermax_col(g, vec), want)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_each_shape_on_L(self, shape, rng):
        """Every drawn shape at the size of a real L, where groups are
        large enough for several ties."""
        g = random_bipartite(rng, max_side=40)
        vec = rng.choice([0.0, -0.0, 1.0, 2.0, -1.0], g.n_edges)
        if shape == "all_positive":
            vec = np.abs(vec) + 0.5
        elif shape != "mixed":
            vec = -np.abs(vec)
        if shape == "one_positive":
            vec[g.row_ptr[:-1][np.diff(g.row_ptr) > 0]] = 2.0
        assert_same_bits(othermax_row(g, vec),
                         othermax_grouped_full(vec, g.row_ptr))
        want = np.empty(g.n_edges)
        want[g.col_perm] = othermax_grouped_full(vec[g.col_perm], g.col_ptr)
        assert_same_bits(othermax_col(g, vec), want)

    def test_output_may_alias_input(self):
        vals = np.array([1.0, 5.0, 3.0, -2.0, 0.0])
        indptr = np.array([0, 3, 5])
        want = othermax_grouped_full(vals, indptr)
        assert othermax_grouped(vals, indptr, out=vals) is vals
        assert_same_bits(vals, want)


class TestRowCol:
    def test_row_matches_definition(self, rng):
        for _ in range(10):
            g = random_bipartite(rng)
            vals = rng.normal(size=g.n_edges)
            got = othermax_row(g, vals)
            want = brute_othermax(vals, g.edge_a.tolist())
            assert np.array_equal(got, want)

    def test_col_matches_definition(self, rng):
        for _ in range(10):
            g = random_bipartite(rng)
            vals = rng.normal(size=g.n_edges)
            got = othermax_col(g, vals)
            want = brute_othermax(vals, g.edge_b.tolist())
            assert np.array_equal(got, want)

    def test_col_out_buffer(self, rng):
        g = random_bipartite(rng)
        vals = rng.normal(size=g.n_edges)
        out = np.empty(g.n_edges)
        got = othermax_col(g, vals, out=out)
        assert got is out
        assert np.array_equal(got, brute_othermax(vals, g.edge_b.tolist()))

    def test_wrong_length(self, rng):
        g = random_bipartite(rng)
        with pytest.raises(DimensionError):
            othermax_row(g, np.zeros(g.n_edges + 1))
        with pytest.raises(DimensionError):
            othermax_col(g, np.zeros(g.n_edges + 1))
