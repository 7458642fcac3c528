"""Tests for the real-thread (GIL witness) implementations."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DimensionError
from repro.matching import (
    check_matching,
    is_maximal_matching,
    locally_dominant_matching,
    max_weight_matching_dense,
)
from repro.parallel import (
    parallel_for_threaded,
    threaded_locally_dominant_matching,
)
from repro.sparse.bipartite import BipartiteGraph

from tests.helpers import random_bipartite


class TestParallelFor:
    @pytest.mark.parametrize("n_threads", [1, 2, 4])
    def test_covers_every_item_once(self, n_threads):
        n = 10_000
        counts = np.zeros(n, dtype=np.int64)

        def body(start, stop):
            counts[start:stop] += 1

        parallel_for_threaded(n, body, n_threads=n_threads, chunk=97)
        assert np.all(counts == 1)

    def test_zero_items(self):
        called = []
        parallel_for_threaded(0, lambda a, b: called.append(1), n_threads=2)
        assert called == []

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            parallel_for_threaded(1, lambda a, b: None, n_threads=0)
        with pytest.raises(ConfigurationError):
            parallel_for_threaded(1, lambda a, b: None, chunk=0)


class TestThreadedMatcher:
    @pytest.mark.parametrize("n_threads", [1, 2, 4])
    def test_valid_and_maximal(self, n_threads, rng):
        for _ in range(10):
            g = random_bipartite(rng, max_side=15)
            res = threaded_locally_dominant_matching(g, n_threads=n_threads)
            check_matching(g, res)
            assert is_maximal_matching(g, res)

    def test_half_approx_guarantee(self, rng):
        for _ in range(10):
            g = random_bipartite(rng, max_side=15)
            res = threaded_locally_dominant_matching(g, n_threads=3)
            opt = max_weight_matching_dense(g).weight
            assert res.weight >= 0.5 * opt - 1e-9

    def test_agrees_with_serial_single_thread(self, rng):
        """One thread: identical result to the serial queue algorithm."""
        for _ in range(10):
            g = random_bipartite(rng, max_side=15)
            threaded = threaded_locally_dominant_matching(g, n_threads=1)
            serial = locally_dominant_matching(g)
            assert np.array_equal(threaded.mate_a, serial.mate_a)

    def test_replacement_weights(self, rng):
        g = random_bipartite(rng)
        w = rng.random(g.n_edges)
        res = threaded_locally_dominant_matching(g, w, n_threads=2)
        check_matching(g, res)

    def test_wrong_weight_length_rejected(self):
        """Like every other matcher it refuses a weight vector of the
        wrong length instead of matching on its first entries."""
        g = BipartiteGraph.from_edges(3, 3, [0, 1, 2], [0, 1, 2], [1, 2, 3])
        with pytest.raises(DimensionError, match="weights has wrong length"):
            threaded_locally_dominant_matching(g, [5, 1, 1, 9], n_threads=2)
