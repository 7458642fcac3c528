"""Tests for the repro.align() facade and the solver registry."""

import numpy as np
import pytest

import repro
from repro.accel import ParallelConfig
from repro.core import (
    BPConfig,
    IsoRankConfig,
    KlauConfig,
    belief_propagation_align,
    isorank_align,
    klau_align,
)
from repro.errors import ConfigurationError
from repro.multilevel import MultilevelConfig
from repro.registry import (
    SolverSpec,
    align,
    available_methods,
    get_solver,
    register_solver,
)

ALL_CONFIGS = [
    BPConfig, KlauConfig, IsoRankConfig, MultilevelConfig, ParallelConfig,
]


class TestRegistry:
    def test_available_methods(self):
        assert available_methods() == ["bp", "isorank", "klau", "multilevel"]

    def test_alias_resolves_to_same_spec(self):
        assert get_solver("mr") is get_solver("klau")

    def test_unknown_method(self):
        with pytest.raises(ConfigurationError, match="simplex"):
            get_solver("simplex")

    def test_register_rejects_taken_name(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_solver(
                SolverSpec(name="bp", config_cls=BPConfig, solve=lambda *a: None)
            )

    def test_custom_solver_dispatches(self, small_instance):
        calls = []

        def fake_solve(problem, config):
            calls.append(config)
            return belief_propagation_align(problem, BPConfig(n_iter=2))

        spec = SolverSpec(
            name="fake-bp", config_cls=BPConfig, solve=fake_solve
        )
        register_solver(spec)
        try:
            res = align(
                small_instance.problem, "fake-bp", {"n_iter": 9}
            )
            assert res.objective > 0
            assert calls == [BPConfig(n_iter=9)]
        finally:
            from repro import registry

            del registry._REGISTRY["fake-bp"]


class TestAlignDispatch:
    def test_bp_matches_direct_call(self, small_instance):
        cfg = BPConfig(n_iter=6, matcher="approx")
        via_facade = align(small_instance.problem, "bp", cfg)
        direct = belief_propagation_align(small_instance.problem, cfg)
        assert via_facade.objective == direct.objective
        np.testing.assert_array_equal(
            via_facade.matching.mate_a, direct.matching.mate_a
        )

    def test_klau_alias_matches_direct_call(self, small_instance):
        cfg = KlauConfig(n_iter=4)
        assert (
            align(small_instance.problem, "mr", cfg).objective
            == klau_align(small_instance.problem, cfg).objective
        )

    def test_isorank_matches_direct_call(self, small_instance):
        cfg = IsoRankConfig(n_iter=20)
        assert (
            align(small_instance.problem, "isorank", cfg).objective
            == isorank_align(small_instance.problem, cfg).objective
        )

    def test_multilevel_runs(self, medium_instance):
        res = align(
            medium_instance.problem, "multilevel",
            {"coarsest_iters": 10, "refine_iters": 1},
        )
        assert res.method.startswith("multilevel[")

    def test_mapping_config_round_trips(self, small_instance):
        via_dict = align(
            small_instance.problem, "bp", {"n_iter": 5, "seed": 2}
        )
        via_cls = align(
            small_instance.problem, "bp", BPConfig(n_iter=5, seed=2)
        )
        assert via_dict.objective == via_cls.objective

    def test_default_config_when_none(self, small_instance):
        res = align(small_instance.problem, "isorank")
        assert res.objective > 0

    def test_wrong_config_type_rejected(self, small_instance):
        with pytest.raises(ConfigurationError, match="BPConfig"):
            align(small_instance.problem, "bp", KlauConfig())

    def test_unknown_config_key_rejected(self, small_instance):
        with pytest.raises(ConfigurationError):
            align(small_instance.problem, "bp", {"iterations": 5})

    def test_parallel_keyword_removed(self, small_instance):
        """Solves round in-process; fan-out of whole solves is
        ``solve_many``'s job."""
        with pytest.raises(TypeError, match="parallel"):
            align(small_instance.problem, "bp",
                  parallel=ParallelConfig())

    def test_trace_rejected_where_unsupported(self, small_instance):
        from repro.machine.trace import AlgorithmTracer

        with pytest.raises(ConfigurationError, match="trac"):
            align(
                small_instance.problem, "isorank", trace=AlgorithmTracer()
            )

    def test_trace_forwarded(self, small_instance):
        from repro.machine.trace import AlgorithmTracer

        tracer = AlgorithmTracer()
        align(
            small_instance.problem, "bp", BPConfig(n_iter=3), trace=tracer
        )
        assert len(tracer.iterations) == 3


class TestConfigSurface:
    @pytest.mark.parametrize("cls", ALL_CONFIGS, ids=lambda c: c.__name__)
    def test_seed_accepted_and_round_tripped(self, cls):
        cfg = cls(seed=123)
        d = cfg.to_dict()
        assert d["seed"] == 123
        assert cls.from_dict(d) == cfg

    @pytest.mark.parametrize("cls", ALL_CONFIGS, ids=lambda c: c.__name__)
    def test_default_round_trip(self, cls):
        cfg = cls()
        assert cls.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("cls", ALL_CONFIGS, ids=lambda c: c.__name__)
    def test_unknown_key_rejected(self, cls):
        with pytest.raises(ConfigurationError):
            cls.from_dict({"definitely_not_a_field": 1})


class TestPublicExports:
    def test_every_all_name_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name}"

    def test_facade_names_exported(self):
        for name in (
            "align", "available_methods", "register_solver", "SolverSpec",
            "MultilevelConfig", "multilevel_align", "CoarseningMap",
            "coarsen_graph", "make_matcher", "MATCHER_KINDS",
            "IsoRankConfig", "isorank_align",
        ):
            assert name in repro.__all__

    def test_all_is_sorted_and_unique(self):
        assert list(repro.__all__) == sorted(set(repro.__all__))
