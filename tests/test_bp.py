"""Tests for the belief-propagation method (repro.core.bp)."""

import numpy as np
import pytest

from repro.core import BPConfig, belief_propagation_align
from repro.errors import ConfigurationError
from repro.matching.validate import check_matching


class TestConfig:
    def test_defaults_valid(self):
        BPConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_iter=0),
            dict(gamma=0.0),
            dict(gamma=1.5),
            dict(batch=0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            BPConfig(**kwargs)


class TestRun:
    def test_returns_valid_matching(self, small_instance):
        res = belief_propagation_align(
            small_instance.problem, BPConfig(n_iter=10)
        )
        check_matching(small_instance.problem.ell, res.matching)

    def test_history_one_record_per_iteration(self, small_instance):
        res = belief_propagation_align(
            small_instance.problem, BPConfig(n_iter=12)
        )
        assert res.iterations == 12
        assert [r.iteration for r in res.history] == list(range(1, 13))

    def test_no_upper_bound(self, small_instance):
        res = belief_propagation_align(
            small_instance.problem, BPConfig(n_iter=5)
        )
        assert res.best_upper_bound == float("inf")
        assert np.isnan(res.history[0].upper_bound)

    def test_batching_preserves_results(self, small_instance):
        """§IV-C: batched rounding changes scheduling, not results."""
        p = small_instance.problem
        base = belief_propagation_align(p, BPConfig(n_iter=12, batch=1))
        for batch in (4, 10, 24, 64):
            other = belief_propagation_align(
                p, BPConfig(n_iter=12, batch=batch)
            )
            assert np.isclose(base.objective, other.objective)
            assert np.array_equal(
                base.objective_trace(), other.objective_trace()
            )

    def test_exact_matcher_variant(self, small_instance):
        res = belief_propagation_align(
            small_instance.problem, BPConfig(n_iter=8, matcher="exact")
        )
        check_matching(small_instance.problem.ell, res.matching)

    def test_source_labels(self, small_instance):
        res = belief_propagation_align(
            small_instance.problem, BPConfig(n_iter=6)
        )
        assert all(r.source in ("y", "z") for r in res.history)

    def test_objective_consistent_with_matching(self, small_instance):
        p = small_instance.problem
        res = belief_propagation_align(p, BPConfig(n_iter=10))
        x = res.matching.indicator(p.n_edges_l)
        assert np.isclose(p.objective(x), res.objective)

    def test_deterministic(self, small_instance):
        r1 = belief_propagation_align(small_instance.problem, BPConfig(n_iter=6))
        r2 = belief_propagation_align(small_instance.problem, BPConfig(n_iter=6))
        assert r1.objective == r2.objective

    def test_damping_converges_messages(self, small_instance):
        """With γ<1, later iterates change less: the rounded objective
        stabilizes (γ^k → 0 freezes the messages)."""
        res = belief_propagation_align(
            small_instance.problem, BPConfig(n_iter=60, gamma=0.9)
        )
        objs = res.objective_trace()
        assert np.std(objs[-5:]) <= np.std(objs[:10]) + 1e-9

    def test_final_exact_never_hurts(self, small_instance):
        p = small_instance.problem
        with_final = belief_propagation_align(
            p, BPConfig(n_iter=10, final_exact=True)
        )
        without = belief_propagation_align(
            p, BPConfig(n_iter=10, final_exact=False)
        )
        assert with_final.objective >= without.objective - 1e-9

    def test_empty_squares_problem(self):
        from repro.core import NetworkAlignmentProblem
        from repro.graph import Graph
        from repro.sparse.bipartite import BipartiteGraph

        a = Graph.from_edges(2, [], [])
        b = Graph.from_edges(2, [0], [1])
        ell = BipartiteGraph.from_edges(2, 2, [0, 1], [0, 1], [2.0, 3.0])
        p = NetworkAlignmentProblem(a, b, ell, 1.0, 2.0)
        res = belief_propagation_align(p, BPConfig(n_iter=5))
        assert np.isclose(res.objective, 5.0)

    def test_quality_beats_blind_matching_weight(self, medium_instance):
        """BP should find overlap beyond what pure matching weight gives."""
        p = medium_instance.problem
        res = belief_propagation_align(p, BPConfig(n_iter=40))
        assert res.overlap_part > 0


class TestTracedBatches:
    def test_batch_replays_distinct_y_and_z_matchings(self, small_instance):
        """Regression: the batched-rounding trace must replay the y- and
        z-roundings as *distinct* tasks.  A past bug passed the chosen
        matching twice per iterate, which made every task pair identical
        and skewed the simulated task-group cost."""
        from repro.machine.trace import AlgorithmTracer, TaskGroupTrace

        tracer = AlgorithmTracer()
        belief_propagation_align(
            small_instance.problem,
            BPConfig(n_iter=10, batch=4),
            tracer,
        )
        pairs = []
        for itrace in tracer.iterations:
            for step in itrace.steps:
                for item in step.items:
                    if isinstance(item, TaskGroupTrace):
                        tasks = item.tasks
                        assert len(tasks) % 2 == 0
                        pairs += [
                            (tasks[i], tasks[i + 1])
                            for i in range(0, len(tasks), 2)
                        ]
        assert pairs, "no batched-rounding task groups traced"
        assert any(
            y.total_cost != z.total_cost
            or len(y.rounds) != len(z.rounds)
            for y, z in pairs
        ), "every y/z task pair is identical — batch replay is collapsing"



class TestRepeatedIterates:
    """Near a fixed point BP's iterates round to the matching their
    source got last time.  The workspace keeps that matching when it is
    certified greedy (``approx``) or the iterate repeats byte for byte
    (``suitor``), and nothing but the ``matching`` events changes."""

    @staticmethod
    def run(problem, matcher="approx", tracer=None):
        from repro.observe import capture

        config = BPConfig(n_iter=30, batch=2, damping="none",
                          matcher=matcher)
        with capture() as sink:
            result = belief_propagation_align(problem, config, tracer)
        # repr: the events' NaN upper bounds then compare equal.
        events = [
            repr((e.type, {k: v for k, v in e.fields.items()
                           if k not in ("span", "parent", "seconds")}))
            for e in sink.events if e.type != "matching"
        ]
        return result, events, len(sink.of_type("matching"))

    @staticmethod
    def problem():
        import repro

        return repro.powerlaw_alignment_instance(
            n=30, expected_degree=3, seed=5).problem

    def test_same_run_with_fewer_matcher_runs(self, monkeypatch):
        # 47 of the 61 roundings keep a certified matching.
        self.assert_same_run(monkeypatch, "approx", 14)

    def test_suitor_keeps_repeated_bytes_only(self, monkeypatch):
        # 35 of the 61 iterates repeat their source's last one.
        self.assert_same_run(monkeypatch, "suitor", 26)

    def assert_same_run(self, monkeypatch, matcher, runs):
        from repro.core import bp

        problem = self.problem()
        remembered, events, matchings = self.run(problem, matcher)

        round_heuristic = bp.round_heuristic

        def no_workspace(*args, workspace=None, **kwargs):
            return round_heuristic(*args, **kwargs)

        monkeypatch.setattr(bp, "round_heuristic", no_workspace)
        plain, plain_events, plain_matchings = self.run(problem, matcher)

        assert np.array_equal(remembered.matching.mate_a,
                              plain.matching.mate_a)
        assert (remembered.objective, remembered.weight_part,
                remembered.overlap_part) == (
                    plain.objective, plain.weight_part, plain.overlap_part)
        assert repr(remembered.history) == repr(plain.history)
        assert events == plain_events
        # 30 iterations × (y, z) + the final exact rounding.
        assert sum(e.startswith("('rounding',") for e in events) == 61
        assert plain_matchings == 61
        assert matchings == runs

    def test_a_traced_run_matches_every_rounding(self):
        """The tracer replays every matching's round stats, which a kept
        matching does not have, so a traced run matches every iterate."""
        from repro.machine.trace import AlgorithmTracer

        problem = self.problem()
        traced, events, matchings = self.run(problem,
                                             tracer=AlgorithmTracer())
        untraced, untraced_events, _ = self.run(problem)
        assert sum(e.startswith("('rounding',") for e in events) == 61
        assert matchings == 61
        assert [e for e in events if not e.startswith("('trace_replay',")
                ] == untraced_events
        assert np.array_equal(traced.matching.mate_a,
                              untraced.matching.mate_a)
