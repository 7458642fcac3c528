"""Tests for Klau's matching-relaxation method (repro.core.klau)."""

import functools

import numpy as np
import pytest

from repro.core import BPConfig, KlauConfig, belief_propagation_align, klau_align
from repro.core.rounding import MATCHER_KINDS
from repro.errors import ConfigurationError
from repro.generators import powerlaw_alignment_instance
from repro.matching.validate import check_matching
from repro.observe import capture, get_bus


class TestConfig:
    def test_defaults_valid(self):
        KlauConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_iter=0),
            dict(gamma=0.0),
            dict(gamma=-1.0),
            dict(mstep=0),
            dict(u_bound=-1.0),
            dict(step_rule="bogus"),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            KlauConfig(**kwargs)

    def test_warm_start_is_not_a_field(self):
        """The exact matcher always warm-starts; there is no switch."""
        with pytest.raises(ConfigurationError):
            KlauConfig.from_dict({"warm_start": True})

    def test_matcher_kind_resolution(self, small_instance):
        """Step 3 runs the configured kind; the method string names it."""
        assert not hasattr(KlauConfig, "matcher_kind")
        for kind in ("exact", "approx"):
            res = klau_align(small_instance.problem,
                             KlauConfig(n_iter=2, matcher=kind))
            assert res.method == f"klau-mr[{kind}]"
            assert res.params["matcher"] == kind


class TestRun:
    def test_returns_valid_matching(self, small_instance):
        res = klau_align(small_instance.problem, KlauConfig(n_iter=10))
        check_matching(small_instance.problem.ell, res.matching)

    def test_history_recorded(self, small_instance):
        res = klau_align(small_instance.problem, KlauConfig(n_iter=8))
        assert 1 <= res.iterations <= 8
        assert res.history[0].iteration == 1
        assert res.method.startswith("klau-mr")

    def test_objective_consistent_with_matching(self, small_instance):
        p = small_instance.problem
        res = klau_align(p, KlauConfig(n_iter=10))
        x = res.matching.indicator(p.n_edges_l)
        assert np.isclose(p.objective(x), res.objective)

    def test_upper_bound_above_objective(self, small_instance):
        """With exact rounding, every upper bound dominates the optimum,
        hence the returned objective."""
        res = klau_align(
            small_instance.problem, KlauConfig(n_iter=20, matcher="exact")
        )
        assert res.best_upper_bound >= res.objective - 1e-9

    def test_approx_matcher_runs(self, small_instance):
        res = klau_align(
            small_instance.problem, KlauConfig(n_iter=10, matcher="approx")
        )
        check_matching(small_instance.problem.ell, res.matching)

    def test_warm_start_matches_cold_exactly(self, monkeypatch):
        """Step 3's matcher warm-starts across the iterations and the
        final rounding, yet the run — history, bounds, mates — equals a
        run whose every matching is solved cold."""
        import repro.core.klau as klau_module
        from repro.generators.bio import dmela_scere
        from repro.matching.exact import max_weight_matching
        from repro.matching.warm import ExactMatcher

        paths = []

        class Recording(ExactMatcher):
            def __call__(self, *args, **kwargs):
                result = super().__call__(*args, **kwargs)
                paths.append(self.last_stats.path)
                return result

        p = dmela_scere(scale=0.2, seed=4).problem
        cfg = KlauConfig(n_iter=10, gap_tolerance=float("-inf"))
        monkeypatch.setattr(klau_module, "make_matcher",
                            lambda kind: Recording())
        warm = klau_align(p, cfg)
        monkeypatch.setattr(klau_module, "make_matcher",
                            lambda kind: max_weight_matching)
        cold = klau_align(p, cfg)
        assert paths.count("warm") >= 8, paths
        assert warm.history == cold.history
        assert np.array_equal(warm.matching.mate_a, cold.matching.mate_a)
        assert warm.objective == cold.objective
        assert warm.best_upper_bound == cold.best_upper_bound

    def test_gamma_halving_on_stall(self, small_instance):
        res = klau_align(
            small_instance.problem,
            KlauConfig(n_iter=40, mstep=2, step_rule="fixed", gamma=0.4,
                       gap_tolerance=-1.0),
        )
        gammas = [r.gamma for r in res.history]
        assert min(gammas) < 0.4  # at least one halving occurred

    def test_final_exact_never_hurts(self, small_instance):
        p = small_instance.problem
        with_final = klau_align(
            p, KlauConfig(n_iter=10, matcher="approx", final_exact=True)
        )
        without = klau_align(
            p, KlauConfig(n_iter=10, matcher="approx", final_exact=False)
        )
        assert with_final.objective >= without.objective - 1e-9

    def test_deterministic(self, small_instance):
        r1 = klau_align(small_instance.problem, KlauConfig(n_iter=6))
        r2 = klau_align(small_instance.problem, KlauConfig(n_iter=6))
        assert r1.objective == r2.objective
        assert np.array_equal(r1.matching.mate_a, r2.matching.mate_a)

    def test_early_exit_on_closed_gap(self):
        """A trivial problem closes the duality gap immediately."""
        from repro.core import NetworkAlignmentProblem
        from repro.graph import Graph
        from repro.sparse.bipartite import BipartiteGraph

        a = Graph.from_edges(2, [0], [1])
        b = Graph.from_edges(2, [0], [1])
        ell = BipartiteGraph.from_edges(2, 2, [0, 1], [0, 1], [1.0, 1.0])
        p = NetworkAlignmentProblem(a, b, ell, 1.0, 2.0)
        res = klau_align(p, KlauConfig(n_iter=50))
        assert res.iterations < 50
        assert np.isclose(res.objective, 4.0)  # weight 2 + beta*1 overlap

    def test_empty_squares_problem(self):
        """No overlaps at all: reduces to pure max-weight matching."""
        from repro.core import NetworkAlignmentProblem
        from repro.graph import Graph
        from repro.sparse.bipartite import BipartiteGraph

        a = Graph.from_edges(2, [], [])
        b = Graph.from_edges(2, [0], [1])
        ell = BipartiteGraph.from_edges(2, 2, [0, 1], [0, 1], [2.0, 3.0])
        p = NetworkAlignmentProblem(a, b, ell, 1.0, 2.0)
        res = klau_align(p, KlauConfig(n_iter=5))
        assert np.isclose(res.objective, 5.0)

    def test_params_recorded(self, small_instance):
        res = klau_align(small_instance.problem, KlauConfig(n_iter=3))
        assert res.params["n_iter"] == 3
        assert res.params["alpha"] == small_instance.problem.alpha

    def test_objective_trace_shape(self, small_instance):
        res = klau_align(small_instance.problem, KlauConfig(n_iter=7))
        assert len(res.objective_trace()) == res.iterations
        assert len(res.upper_bound_trace()) == res.iterations

    def test_summary_mentions_method(self, small_instance):
        res = klau_align(small_instance.problem, KlauConfig(n_iter=3))
        assert "klau-mr" in res.summary()


class TestCertifiedBound:
    """Every bound Klau reports is one, whatever matcher Step 3 runs.

    Instances of the n=120 power-law sweep (d̄ = 4 and 10) on which
    ``wbar·x`` of an ``approx`` Step 3 fell below a feasible objective
    and stopped the run early.  A bound must dominate the run's own
    objective, exact MR's and BP's.
    """

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def instance(d: int, seed: int):
        """The problem and the best of exact MR's and BP's objectives."""
        p = powerlaw_alignment_instance(n=120, expected_degree=d,
                                        seed=seed).problem
        exact = klau_align(p, KlauConfig(n_iter=40))
        bp = belief_propagation_align(p, BPConfig())
        return p, max(exact.objective, bp.objective)

    @pytest.mark.parametrize(
        "d, seed, matcher",
        [(4, 0, kind) for kind in MATCHER_KINDS] + [(10, 1, "approx")])
    def test_every_reported_bound_is_a_bound(self, d, seed, matcher):
        p, feasible = self.instance(d, seed)
        with capture() as sink:
            res = klau_align(p, KlauConfig(n_iter=40, matcher=matcher))
            gauge = [row["value"] for row in get_bus().metrics.snapshot()
                     if row["metric"] == "repro_best_upper_bound"]
        bounds = ([r.upper_bound for r in res.history]
                  + [e.fields["upper_bound"] for e in sink.events
                     if e.type == "iteration"]
                  + gauge + [res.best_upper_bound])
        assert len(bounds) == 2 * len(res.history) + 2
        assert min(bounds) >= max(feasible, res.objective) - 1e-9
        if matcher == "auction":
            assert bounds == [np.inf] * len(bounds)
        if matcher != "exact":
            assert res.iterations == 40  # the gap test never fired
