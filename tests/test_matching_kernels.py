"""Tests for the locally-dominant rounds kernel and its group plans.

The contracts under test:

* the ``"approx"`` matcher — the rounds kernel of
  :mod:`repro.matching.kernels` — is **bit-identical** to the
  interpreted oracle in ``tests/oracles.py``: same mates, same per-round
  :class:`RoundStats` stream, including tie-breaks on duplicate weights,
  on the mostly non-positive vectors BP rounds (the kernel runs on the
  positive half-edges only; the stats still count full adjacency); its
  edge ids and weight equal those recovered from its mates;
* both agree with the queue-form matcher (``"approx-queue"``), and the
  whole ½-approximation family resolves ties identically;
* every approximate matcher kind returns valid matchings whose rounds
  (if any) the machine simulator can replay;
* nothing outlives a dropped L: its views and every plan built from
  them are collectable.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rounding import make_matcher
from repro.errors import DimensionError, TraceError
from repro.machine.trace import matching_to_trace
from repro.matching import (
    check_matching,
    greedy_matching,
    locally_dominant_matching,
    locally_dominant_matching_vectorized,
    max_weight_matching,
    suitor_matching,
)
from repro.matching.kernels import GroupPlan, locally_dominant_rounds
from repro.matching.result import MatchingResult
from repro.matching.warm import ExactMatcher
from repro.sparse.bipartite import BipartiteGraph

from tests.helpers import random_bipartite
from tests.oracles import locally_dominant_rounds_python

#: Matcher kinds whose production implementation is a rounds kernel.
KERNEL_KIND = ["approx"]

#: The ½-approximate matcher kinds besides ``approx-queue``.
APPROX_KINDS = ["approx", "suitor", "greedy", "auction"]


def kernel_rounds(plan: GroupPlan, half_weights, **kwargs):
    """The kernel's ``(mate, rounds)``, checking the half-edges it took."""
    mate, took, rounds = locally_dominant_rounds(plan, half_weights, **kwargs)
    matched = mate >= 0
    assert np.array_equal(took >= 0, matched)
    v = np.flatnonzero(matched)
    assert np.all(plan.indptr[v] <= took[v])
    assert np.all(took[v] < plan.indptr[v + 1])
    assert np.array_equal(plan.neighbors[took[v]], mate[v])
    return mate, rounds


#: (python, numpy) = (the interpreted oracle, the production kernel).
ROUNDS = {"python": locally_dominant_rounds_python,
          "numpy": kernel_rounds}


def duplicate_heavy(graph: BipartiteGraph) -> BipartiteGraph:
    """Quantize weights so duplicates (and tie-breaks) are common."""
    w = np.round(np.abs(graph.weights) * 2.0) / 2.0
    return graph.with_weights(w)


#: Weight shapes: BP's rounded iterates hold about one positive entry
#: per A- and B-group ("other max"); its first iterates are all
#: positive.
WEIGHT_SHAPES = ["random", "ties", "one-per-group", "sparse", "none",
                 "single", "all", "positive-ties"]


def shaped_weights(rng, graph: BipartiteGraph, shape: str) -> np.ndarray:
    """Weights of one :data:`WEIGHT_SHAPES` shape over ``graph``'s edges."""
    m = graph.n_edges
    nonpos = rng.choice([0.0, -0.5, -1.0, -3.0], m)
    if shape == "random":
        return graph.weights
    if shape == "ties":
        return duplicate_heavy(graph).weights
    if shape == "one-per-group":
        # The max of each A-group is positive, the rest are not.
        score = rng.random(m)
        heads = np.flatnonzero(np.r_[True, np.diff(graph.edge_a) != 0])
        top = np.repeat(np.maximum.reduceat(score, heads),
                        np.diff(np.r_[heads, m])) if m else score
        return np.where(score == top, rng.uniform(0.5, 8.0, m), nonpos)
    if shape == "sparse":
        return np.where(rng.random(m) < 0.15, rng.uniform(0.5, 8.0, m),
                        nonpos)
    if shape == "none":
        return nonpos
    if shape == "single":
        w = nonpos
        if m:
            w[rng.integers(m)] = 2.0
        return w
    if shape == "all":
        return rng.uniform(0.01, 8.0, m)
    assert shape == "positive-ties"
    return np.where(rng.random(m) < 0.5, rng.choice([1.0, 2.0, 3.0], m),
                    rng.choice([0.0, -1.0], m))


def assert_edges_from_mates(graph: BipartiteGraph, w, res) -> None:
    """Edge ids, B-side mates and weight equal those the mates imply."""
    ref = MatchingResult.from_mates(graph, res.mate_a, weights=w)
    assert np.array_equal(res.edge_ids, ref.edge_ids)
    assert np.array_equal(res.mate_b, ref.mate_b)
    assert res.weight == ref.weight


def rounds_match(backend: str, graph: BipartiteGraph, **kwargs):
    """``(mate_a, rounds)`` of one rounds implementation on ``graph``."""
    plan = GroupPlan.from_graph(graph)
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
@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10_000), shape=st.sampled_from(WEIGHT_SHAPES))
def test_python_numpy_bit_identical(kind, seed, shape):
    rng = np.random.default_rng(seed)
    g = random_bipartite(rng, max_side=14)
    g = g.with_weights(shaped_weights(rng, g, shape))
    mate_a, rounds = rounds_match("python", g)
    res = make_matcher(kind)(g, g.weights)
    assert np.array_equal(res.mate_a, mate_a)
    assert_rounds_equal(res.rounds, rounds)
    assert_edges_from_mates(g, g.weights, res)
    quiet = locally_dominant_matching_vectorized(g, collect_rounds=False)
    assert np.array_equal(quiet.mate_a, mate_a)
    assert quiet.rounds == []


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
        BipartiteGraph.from_edges(  # one positive edge among non-positive
            3, 3, [0, 0, 1, 2, 2], [0, 2, 1, 0, 2],
            [0.0, -1.0, 2.0, -0.5, 0.0],
        ),
        BipartiteGraph.from_edges(  # positive ties beside zero/negative
            3, 4, [0, 0, 0, 1, 1, 1, 2, 2], [0, 1, 3, 0, 1, 2, 1, 2],
            [2.0, 2.0, 0.0, 2.0, -1.0, 2.0, 2.0, 0.0],
        ),
        # Round 0 matches A1-B1, round 1 A0-B0.  B2 (by a negative
        # edge) and A2 (by a zero one) are free and next to a vertex
        # round 0 matched, but share no positive edge with it: round 1
        # scans their adjacency, although their candidates cannot change.
        BipartiteGraph.from_edges(
            3, 3, [0, 1, 1, 1, 2], [0, 0, 1, 2, 1],
            [1.0, 2.0, 3.0, -1.0, 0.0],
        ),
    ],
    ids=["empty", "singleton", "all-zero", "ties", "single-positive",
         "positive-ties", "nonpositive-stale"],
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
        assert_edges_from_mates(graph, graph.weights, res)


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


def test_collect_rounds_off(rng):
    for shape in WEIGHT_SHAPES:
        for _ in range(10):
            g = random_bipartite(rng)
            g = g.with_weights(shaped_weights(rng, g, shape))
            mate_a, rounds = rounds_match("numpy", g, collect_rounds=False)
            assert rounds == []
            assert np.array_equal(mate_a, rounds_match("python", g)[0])


# ----------------------------------------------------------------------
# Group plans
# ----------------------------------------------------------------------


def test_dropped_graph_frees_its_views_and_plans(monkeypatch):
    """No process-wide cache outlives L: once the last reference to a
    graph and its ``with_weights`` views goes, its endpoint arrays, its
    general-graph view and every plan the matchers built are freed."""
    built = []
    from_graph = GroupPlan.from_graph.__func__

    def recording(cls, graph):
        plan = from_graph(cls, graph)
        built.append(weakref.ref(plan))
        return plan

    monkeypatch.setattr(GroupPlan, "from_graph", classmethod(recording))
    rng = np.random.default_rng(3)
    g = BipartiteGraph.from_edges(
        40, 40, rng.integers(0, 40, 200), rng.integers(0, 40, 200),
        rng.uniform(0.1, 2.0, 200))
    view = g.with_weights(g.weights * 1.01)
    matchers = [make_matcher(kind) for kind in
                ("approx", "approx-queue", "suitor", "greedy")]
    exact = ExactMatcher()
    for graph in (g, view, g):
        for matcher in matchers:
            matcher(graph, graph.weights)
        exact(graph, graph.weights, dense_cutoff=0)
    assert exact.last_stats.path == "warm"
    refs = [weakref.ref(x) for x in
            (g, view, g.edge_a, g.edge_b, g.edge_keys,
             *g.as_general_graph()[:3])]
    del g, view, graph, matchers, matcher, exact
    gc.collect()
    assert [r() is None for r in refs + built] == [True] * len(refs + built)
    assert len(built) == 3  # one plan per call on g, view and g


def test_kernel_weight_length_checked():
    g = BipartiteGraph.from_edges(2, 2, [0, 1], [0, 1], [1.0, 2.0])
    with pytest.raises(DimensionError):
        locally_dominant_matching_vectorized(g, weights=np.ones(5))
    with pytest.raises(DimensionError):
        locally_dominant_rounds(GroupPlan.from_graph(g), np.ones(5))
