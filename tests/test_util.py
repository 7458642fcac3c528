"""Tests for repro._util and repro.errors."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro._util import (
    as_rng,
    asarray_f64,
    asarray_i64,
    check_same_length,
    sorted_lookup,
    sorted_union,
)
from repro.errors import (
    ConfigurationError,
    DimensionError,
    NotAMatchingError,
    ReproError,
    TraceError,
    ValidationError,
)


class TestRng:
    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_int_seed_deterministic(self):
        assert as_rng(7).integers(1000) == as_rng(7).integers(1000)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_rng(g) is g


class TestArrayCoercion:
    def test_i64(self):
        out = asarray_i64([1, 2, 3])
        assert out.dtype == np.int64

    def test_f64(self):
        out = asarray_f64([1, 2])
        assert out.dtype == np.float64

    def test_no_copy_when_already_canonical(self):
        arr = np.array([1, 2], dtype=np.int64)
        assert asarray_i64(arr) is arr


class TestSameLength:
    def test_ok(self):
        assert check_same_length([1, 2], [3, 4]) == 2

    def test_empty_args(self):
        assert check_same_length() == 0

    def test_mismatch(self):
        with pytest.raises(ValueError):
            check_same_length([1], [1, 2])


class TestSortedUnion:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_unique_of_concatenation(self, data):
        n = data.draw(st.integers(1, 40))
        arrays = [np.array(x, dtype=np.int64) for x in data.draw(
            st.lists(st.lists(st.integers(0, n - 1), max_size=15),
                     max_size=5))]
        got = sorted_union(n, *arrays)
        want = (np.unique(np.concatenate(arrays)) if arrays
                else np.empty(0, dtype=np.int64))
        assert got.dtype == want.dtype == np.int64
        np.testing.assert_array_equal(got, want)

    def test_empty_inputs(self):
        assert sorted_union(0).dtype == np.int64
        assert len(sorted_union(5)) == 0
        empty = np.empty(0, dtype=np.int64)
        assert len(sorted_union(5, empty, empty)) == 0


class TestSortedLookup:
    @settings(max_examples=200, deadline=None)
    @given(st.sets(st.integers(-50, 50), max_size=20),
           st.lists(st.integers(-60, 60), max_size=30))
    @example({3, 7, 11}, [0, 5, 12, 7, 3, 11])  # absent below/between/above
    @example(set(), [0, 1])  # no keys
    def test_matches_dict(self, key_set, probe):
        """Probes below, between and above the keys, and into no keys,
        find their position or -1."""
        keys = np.array(sorted(key_set), dtype=np.int64)
        where = {k: i for i, k in enumerate(keys.tolist())}
        got = sorted_lookup(keys, np.array(probe, dtype=np.int64))
        assert got.dtype == np.int64
        assert got.tolist() == [where.get(p, -1) for p in probe]


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [DimensionError, ValidationError, NotAMatchingError,
         ConfigurationError, TraceError],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_not_a_matching_is_validation(self):
        assert issubclass(NotAMatchingError, ValidationError)

    def test_value_error_compatibility(self):
        """Callers using plain ValueError still catch our errors."""
        assert issubclass(DimensionError, ValueError)
        assert issubclass(ValidationError, ValueError)

    def test_trace_error_is_runtime(self):
        assert issubclass(TraceError, RuntimeError)
