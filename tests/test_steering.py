"""Tests for the computational-steering workflow (repro.core.steering).

Pins and forbids are edit scripts applied by ``apply_delta``; on seeded
instances they must give the L arrays of the mask-based restriction
they replaced (``tests.oracles.restrict_l``) and an **S** equal to a
fresh ``build_squares``, whether or not **S** was cached.
"""

import numpy as np
import pytest

from repro.core import (
    BPConfig,
    SteeringSession,
    belief_propagation_align,
    forbid_pairs,
    pin_pairs,
)
from repro.core.squares import build_squares
from repro.errors import ConfigurationError, ValidationError
from repro.generators import powerlaw_alignment_instance
from repro.incremental import ProblemDelta, apply_delta
from tests.oracles import restrict_l


@pytest.fixture()
def instance():
    return powerlaw_alignment_instance(n=50, expected_degree=4, seed=17)


class TestForbid:
    def test_removes_edges(self, instance):
        p = instance.problem
        pair = (int(p.ell.edge_a[0]), int(p.ell.edge_b[0]))
        q = forbid_pairs(p, [pair])
        assert q.n_edges_l == p.n_edges_l - 1
        assert q.ell.lookup_edges([pair[0]], [pair[1]])[0] == -1

    def test_unknown_pair_rejected(self, instance):
        p = instance.problem
        # Find a non-edge.
        for b in range(p.ell.n_b):
            if p.ell.lookup_edges([0], [b])[0] == -1:
                with pytest.raises(ValidationError):
                    forbid_pairs(p, [(0, b)])
                return
        pytest.skip("vertex 0 is fully connected")

    def test_empty_is_noop(self, instance):
        assert forbid_pairs(instance.problem, []) is instance.problem

    def test_solution_avoids_forbidden(self, instance):
        from repro.core import belief_propagation_align

        p = instance.problem
        base = belief_propagation_align(p, BPConfig(n_iter=15))
        a = int(np.flatnonzero(base.matching.mate_a >= 0)[0])
        b = int(base.matching.mate_a[a])
        q = forbid_pairs(p, [(a, b)])
        res = belief_propagation_align(q, BPConfig(n_iter=15))
        assert res.matching.mate_a[a] != b


class TestPin:
    def test_pin_forces_pair(self, instance):
        from repro.core import belief_propagation_align

        p = instance.problem
        # Pin vertex 3 to its identity partner.
        q = pin_pairs(p, [(3, 3)])
        res = belief_propagation_align(q, BPConfig(n_iter=15))
        assert res.matching.mate_a[3] == 3

    def test_pin_removes_competitors(self, instance):
        p = instance.problem
        q = pin_pairs(p, [(3, 3)])
        assert len(q.ell.edges_of_a(3)) == 1
        assert len(q.ell.edges_of_b(3)) == 1

    def test_pin_keeps_other_vertices(self, instance):
        p = instance.problem
        q = pin_pairs(p, [(3, 3)])
        # Vertices not involved keep their candidates.
        untouched = [
            a for a in range(p.ell.n_a)
            if a != 3 and 3 not in p.ell.edge_b[p.ell.edges_of_a(a)]
        ]
        a = untouched[0]
        assert len(q.ell.edges_of_a(a)) == len(p.ell.edges_of_a(a))

    def test_pin_unknown_pair_rejected(self, instance):
        p = instance.problem
        for b in range(p.ell.n_b):
            if p.ell.lookup_edges([0], [b])[0] == -1:
                with pytest.raises(ValidationError):
                    pin_pairs(p, [(0, b)])
                return

    def test_pin_conflicting_pairs_rejected(self, instance):
        p = instance.problem
        # Find an A vertex with two candidates: pinning both must fail.
        degs = p.ell.degrees_a()
        a = int(np.flatnonzero(degs >= 2)[0])
        bs = p.ell.edge_b[p.ell.edges_of_a(a)][:2]
        with pytest.raises(ConfigurationError):
            pin_pairs(p, [(a, int(bs[0])), (a, int(bs[1]))])


class TestSession:
    def test_solve_and_history(self, instance):
        session = SteeringSession(
            instance.problem, method="bp",
            config=BPConfig(n_iter=10),
        )
        r1 = session.solve()
        assert session.latest is r1
        session.forbid(
            [(int(np.flatnonzero(r1.matching.mate_a >= 0)[0]),
              int(r1.matching.mate_a[np.flatnonzero(r1.matching.mate_a >= 0)[0]]))]
        )
        r2 = session.solve()
        assert len(session.history) == 2
        assert len(session.forbidden) == 1

    def test_latest_before_solve(self, instance):
        session = SteeringSession(instance.problem)
        with pytest.raises(ConfigurationError):
            _ = session.latest

    def test_invalid_method(self, instance):
        with pytest.raises(ConfigurationError):
            SteeringSession(instance.problem, method="simplex")

    def test_mr_session(self, instance):
        from repro.core import KlauConfig

        session = SteeringSession(
            instance.problem, method="mr",
            config=KlauConfig(n_iter=8, matcher="approx"),
        )
        res = session.solve()
        assert res.objective > 0

    def test_disagreements_worklist(self, instance):
        session = SteeringSession(
            instance.problem, config=BPConfig(n_iter=15)
        )
        session.solve()
        ref = instance.true_mate_a
        triples = session.disagreements(ref)
        mate = session.latest.matching.mate_a
        assert len(triples) == int((mate != ref).sum())
        for a, got, want in triples:
            assert mate[a] == got and ref[a] == want

    def test_steering_toward_reference(self, instance):
        """Pinning reference pairs never lowers recovered correctness."""
        session = SteeringSession(
            instance.problem, config=BPConfig(n_iter=20)
        )
        session.solve()
        ref = instance.true_mate_a
        before = float((session.latest.matching.mate_a == ref).mean())
        wrong = session.disagreements(ref)
        if wrong:
            a = wrong[0][0]
            if instance.problem.ell.lookup_edges([a], [ref[a]])[0] >= 0:
                session.pin([(a, int(ref[a]))])
                session.solve()
                after = float(
                    (session.latest.matching.mate_a == ref).mean()
                )
                assert after >= before - 0.05


class TestOutOfRangePairs:
    """A pair outside the vertex sets is no candidate: with n_b = 50,
    (0, 51) packs to the key of edge (1, 1) and must not find it."""

    @pytest.mark.parametrize("steer", [forbid_pairs, pin_pairs])
    @pytest.mark.parametrize("pair", [(0, 51), (0, -1), (-1, 0), (50, 0)])
    def test_rejected_and_l_unchanged(self, instance, steer, pair):
        p = instance.problem
        assert p.ell.n_b == 50 and p.ell.lookup_edges([1], [1])[0] >= 0
        before = (p.ell.edge_a.copy(), p.ell.edge_b.copy(),
                  p.ell.weights.copy())
        with pytest.raises(ValidationError, match="non-candidate"):
            steer(p, [pair])
        for got, want in zip((p.ell.edge_a, p.ell.edge_b, p.ell.weights),
                             before):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("steer", [forbid_pairs, pin_pairs])
    @pytest.mark.parametrize("shift", [(0.7, 0.0), (0.0, 0.7), (-0.3, 0.0)])
    def test_fractional_ids_rejected_and_l_unchanged(self, instance, steer,
                                                     shift):
        """``(a + 0.7, b)`` names no vertex pair; an int64 cast would
        truncate it to the candidate ``(a, b)`` and edit that edge."""
        p = instance.problem
        a, b = int(p.ell.edge_a[0]), int(p.ell.edge_b[0])
        before = (p.ell.edge_a.copy(), p.ell.edge_b.copy(),
                  p.ell.weights.copy())
        with pytest.raises(ValidationError, match="integer vertex ids"):
            steer(p, [(a + shift[0], b + shift[1])])
        for got, want in zip((p.ell.edge_a, p.ell.edge_b, p.ell.weights),
                             before):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("steer", [forbid_pairs, pin_pairs])
    def test_integral_floats_name_their_vertex(self, instance, steer):
        p = instance.problem
        a, b = int(p.ell.edge_a[0]), int(p.ell.edge_b[0])
        got, want = steer(p, [(float(a), float(b))]), steer(p, [(a, b)])
        _assert_same_l(got, want)


def _assert_same_l(got, want):
    np.testing.assert_array_equal(got.ell.edge_a, want.ell.edge_a)
    np.testing.assert_array_equal(got.ell.edge_b, want.ell.edge_b)
    assert got.ell.weights.tobytes() == want.ell.weights.tobytes()


def _assert_fresh_squares(problem):
    ref = build_squares(problem.a_graph, problem.b_graph, problem.ell)
    got = problem.squares
    np.testing.assert_array_equal(got.indptr, ref.indptr)
    np.testing.assert_array_equal(got.indices, ref.indices)
    np.testing.assert_array_equal(got.data, ref.data)


def _disjoint_pairs(problem, rng, k):
    """Up to ``k`` vertex-disjoint candidate pairs, drawn at random."""
    ell, used_a, used_b, pairs = problem.ell, set(), set(), []
    for e in rng.permutation(ell.n_edges).tolist():
        a, b = int(ell.edge_a[e]), int(ell.edge_b[e])
        if a not in used_a and b not in used_b:
            pairs.append((a, b))
            used_a.add(a)
            used_b.add(b)
        if len(pairs) == k:
            break
    return pairs


class TestAgainstMaskReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_pin_then_forbid(self, seed):
        rng = np.random.default_rng(seed)
        p = powerlaw_alignment_instance(n=80, expected_degree=5,
                                        seed=seed).problem
        pins = _disjoint_pairs(p, rng, 3)
        # The first pinned edge weighs less than 1e-6, so it is lifted.
        p = apply_delta(p, ProblemDelta.build(
            l_reweight=[(*pins[0], 1e-9 if seed % 3 else 0.0)]))[0]
        cached = seed % 2 == 0
        if cached:
            p.squares
        pinned = pin_pairs(p, pins)
        want = restrict_l(p, pins, pin=True)
        _assert_same_l(pinned, want)
        assert pinned.ell.weights[pinned.ell.lookup_edges(
            [pins[0][0]], [pins[0][1]])[0]] == 1e-6
        assert (pinned._squares is not None) == cached
        _assert_fresh_squares(pinned)

        forbids = _disjoint_pairs(pinned, rng, 4)
        forbids += forbids[:2]  # a pair named twice is forbidden once
        edited = forbid_pairs(pinned, forbids)
        _assert_same_l(edited, restrict_l(pinned, forbids, pin=False))
        assert edited._squares is not None  # S was built just above
        _assert_fresh_squares(edited)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_forbid_without_cached_squares(self, seed):
        p = powerlaw_alignment_instance(n=80, expected_degree=5,
                                        seed=seed).problem
        forbids = _disjoint_pairs(p, np.random.default_rng(seed), 5)
        edited = forbid_pairs(p, forbids)
        assert edited._squares is None
        _assert_same_l(edited, restrict_l(p, forbids, pin=False))

    def test_session_history_matches_reference(self, instance):
        p = instance.problem
        cfg = BPConfig(n_iter=10)
        rng = np.random.default_rng(5)
        pins = _disjoint_pairs(p, rng, 2)
        session = SteeringSession(p, config=cfg)
        session.solve()
        session.pin(pins)
        forbids = _disjoint_pairs(session.problem, rng, 3)
        session.forbid(forbids)
        session.solve()
        ref = restrict_l(restrict_l(p, pins, pin=True), forbids, pin=False)
        want = [belief_propagation_align(q, cfg) for q in (p, ref)]
        assert session.pinned == pins and session.forbidden == forbids
        for got, exp in zip(session.history, want, strict=True):
            np.testing.assert_array_equal(got.matching.mate_a,
                                          exp.matching.mate_a)
            assert got.objective == exp.objective
            # assert_equal, not ==: BP records a NaN upper bound.
            np.testing.assert_equal([vars(r) for r in got.history],
                                    [vars(r) for r in exp.history])
