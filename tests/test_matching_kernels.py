"""Tests for the locally-dominant rounds kernel and its group-plan cache.

The contracts under test:

* the ``"approx"`` matcher — the rounds kernel of
  :mod:`repro.matching.kernels` — is **bit-identical** to the
  interpreted oracle in ``tests/oracles.py``: same mates, same per-round
  :class:`RoundStats` stream, including tie-breaks on duplicate weights;
* both agree with the queue-form matcher (``"approx-queue"``), and the
  whole ½-approximation family resolves ties identically;
* every approximate matcher kind returns valid matchings whose rounds
  (if any) the machine simulator can replay;
* group plans are cached and reused across calls on the same L
  structure.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rounding import make_matcher
from repro.errors import DimensionError, TraceError
from repro.machine.trace import matching_to_trace
from repro.matching import (
    check_matching,
    clear_plan_cache,
    get_plan,
    greedy_matching,
    locally_dominant_matching,
    locally_dominant_matching_vectorized,
    max_weight_matching,
    plan_cache_stats,
    suitor_matching,
)
from repro.matching.kernels import GroupPlan, locally_dominant_rounds
from repro.sparse.bipartite import BipartiteGraph

from tests.helpers import random_bipartite
from tests.oracles import locally_dominant_rounds_python

#: Matcher kinds whose production implementation is a rounds kernel.
KERNEL_KIND = ["approx"]

#: The ½-approximate matcher kinds besides ``approx-queue``.
APPROX_KINDS = ["approx", "suitor", "greedy", "auction"]

#: (python, numpy) = (the interpreted oracle, the production kernel).
ROUNDS = {"python": locally_dominant_rounds_python,
          "numpy": locally_dominant_rounds}


def duplicate_heavy(graph: BipartiteGraph) -> BipartiteGraph:
    """Quantize weights so duplicates (and tie-breaks) are common."""
    w = np.round(np.abs(graph.weights) * 2.0) / 2.0
    return graph.with_weights(w)


def rounds_match(backend: str, graph: BipartiteGraph, **kwargs):
    """``(mate_a, rounds)`` of one rounds implementation on ``graph``."""
    plan = get_plan(graph)
    mate, rounds = ROUNDS[backend](
        plan, graph.weights[plan.half_eid], **kwargs)
    head = mate[:graph.n_a]
    return np.where(head >= 0, head - graph.n_a, -1), rounds


def assert_rounds_equal(ra, rb):
    assert len(ra) == len(rb)
    for x, y in zip(ra, rb):
        assert x == y, f"round stats diverge: {x} vs {y}"


# ----------------------------------------------------------------------
# Kernel vs interpreted oracle
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", KERNEL_KIND)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), ties=st.booleans())
def test_python_numpy_bit_identical(kind, seed, ties):
    rng = np.random.default_rng(seed)
    g = random_bipartite(rng, max_side=14)
    if ties:
        g = duplicate_heavy(g)
    mate_a, rounds = rounds_match("python", g)
    res = make_matcher(kind)(g, g.weights)
    assert np.array_equal(res.mate_a, mate_a)
    assert_rounds_equal(res.rounds, rounds)


@pytest.mark.parametrize("kind", ["approx", "suitor", "greedy"])
@pytest.mark.parametrize(
    "graph",
    [
        BipartiteGraph.from_edges(3, 4, [], [], []),          # empty L
        BipartiteGraph.from_edges(1, 1, [0], [0], [2.0]),     # singleton
        BipartiteGraph.from_edges(2, 2, [0, 1], [0, 1],
                                  [0.0, 0.0]),                # all-zero
        BipartiteGraph.from_edges(  # duplicate weights, tie-breaks
            3, 3, [0, 0, 1, 1, 2, 2], [0, 1, 0, 1, 1, 2],
            [1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        ),
    ],
    ids=["empty", "singleton", "all-zero", "ties"],
)
def test_degenerate_cases_cross_backend(kind, graph):
    """Each kind's matcher equals the oracle on degenerate graphs.

    Suitor and greedy resolve ties like the locally-dominant rounds
    (smaller-id tie-breaking), so their mates match too; only the
    rounds kernel reports round stats.
    """
    mate_a, rounds = rounds_match("python", graph)
    res = make_matcher(kind)(graph, graph.weights)
    assert np.array_equal(res.mate_a, mate_a)
    if kind in KERNEL_KIND:
        assert_rounds_equal(res.rounds, rounds)


@pytest.mark.parametrize("kind", KERNEL_KIND)
@pytest.mark.parametrize("backend", sorted(ROUNDS))
@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
def test_kernel_matches_reference(kind, backend, ties, rng):
    """Oracle and kernel both equal the queue-form matcher."""
    for _ in range(25):
        g = random_bipartite(rng)
        if ties:
            g = duplicate_heavy(g)
        ref = make_matcher(f"{kind}-queue")(g, g.weights)
        mate_a, _ = rounds_match(backend, g)
        assert np.array_equal(mate_a, ref.mate_a)


@pytest.mark.parametrize("kind", APPROX_KINDS)
def test_kernel_matchings_are_valid(kind, rng):
    for _ in range(20):
        g = random_bipartite(rng)
        res = make_matcher(kind)(g, g.weights)
        check_matching(g, res)
        # Only positive edges are ever selected.
        if res.cardinality:
            assert np.all(g.weights[res.edge_ids] > 0.0)


def test_half_approx_family_agrees_under_ties(rng):
    """LD rounds == queue LD == suitor == greedy, even with duplicates.

    Smaller-id tie-breaking makes equal-weight dominance acyclic, so the
    whole ½-approximation family resolves ties identically.
    """
    for _ in range(25):
        g = duplicate_heavy(random_bipartite(rng))
        mates = [
            rounds_match("python", g)[0],
            locally_dominant_matching_vectorized(g).mate_a,
            suitor_matching(g).mate_a,
            greedy_matching(g).mate_a,
            locally_dominant_matching(g).mate_a,
        ]
        for m in mates[1:]:
            assert np.array_equal(mates[0], m)


def test_auction_epsilon_bound(rng):
    """The auction matcher keeps its n·ε additive guarantee."""
    for _ in range(15):
        g = random_bipartite(rng, allow_negative=False)
        exact = max_weight_matching(g)
        n = g.n_a + g.n_b
        res = make_matcher("auction")(g, g.weights)
        w = g.weights[g.weights > 0.0]
        eps = float(w.max()) / (4.0 * n) if len(w) else 0.0
        assert res.weight >= exact.weight - n * eps - 1e-9


# ----------------------------------------------------------------------
# Rounds / trace compatibility
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", APPROX_KINDS)
def test_rounds_feed_machine_trace(kind, rng):
    g = random_bipartite(rng, allow_negative=False)
    res = make_matcher(kind)(g, g.weights)
    if res.rounds:
        trace = matching_to_trace("m", res, g)
        assert len(trace.rounds) == len(res.rounds)
    else:
        with pytest.raises(TraceError):
            matching_to_trace("m", res, g)


def test_collect_rounds_off():
    g = BipartiteGraph.from_edges(2, 2, [0, 1], [0, 1], [1.0, 2.0])
    mate_a, rounds = rounds_match("numpy", g, collect_rounds=False)
    assert rounds == []
    assert np.array_equal(mate_a, rounds_match("python", g)[0])


# ----------------------------------------------------------------------
# Group-plan cache
# ----------------------------------------------------------------------


def test_plan_cache_reuse(rng):
    clear_plan_cache()
    g = random_bipartite(rng, max_side=10)
    base = plan_cache_stats()
    p1 = get_plan(g)
    p2 = get_plan(g)
    assert p1 is p2
    # Reweighted views share endpoint arrays, hence the plan.
    p3 = get_plan(g.with_weights(np.abs(g.weights) + 1.0))
    assert p3 is p1
    stats = plan_cache_stats()
    assert stats["builds"] == base["builds"] + 1
    assert stats["hits"] >= base["hits"] + 2


def test_plan_cache_eviction(rng):
    clear_plan_cache()
    graphs = [random_bipartite(rng, max_side=8) for _ in range(12)]
    for g in graphs:
        get_plan(g)
    assert plan_cache_stats()["size"] <= 8


def test_group_plan_from_csr_matches_graph_plan(rng):
    g = random_bipartite(rng, max_side=10)
    plan = get_plan(g)
    raw = GroupPlan.from_csr(plan.indptr, plan.neighbors)
    assert raw.n == plan.n == g.n_a + g.n_b
    for name in ("indptr", "neighbors", "degrees"):
        assert np.array_equal(getattr(raw, name), getattr(plan, name))


def test_kernel_weight_length_checked():
    g = BipartiteGraph.from_edges(2, 2, [0, 1], [0, 1], [1.0, 2.0])
    with pytest.raises(DimensionError):
        locally_dominant_matching_vectorized(g, weights=np.ones(5))
    with pytest.raises(DimensionError):
        locally_dominant_rounds(get_plan(g), np.ones(5))
