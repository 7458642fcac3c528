"""The multilevel V-cycle driver: coarsen → align → expand → refine.

A V-cycle trades iterations on the expensive fine problem for iterations
on a hierarchy of geometrically smaller ones.  Each level collapses a
locally-dominant heavy-edge matching of A and of B
(:func:`repro.multilevel.coarsen.coarsen_graph`) and pushes L down with
it; the coarsest problem is solved with a full BP or Klau run; walking
back up, each coarse matching expands through the level's
:class:`~repro.multilevel.coarsen.EllProjection` into a fine *prior*
that warm-starts a short BP refine pass (``init_messages``), whose
rounding uses the warm-started exact matcher by default.

Work tracing composes: the same ``tracer`` object is handed to the
coarsening steps and every inner solver, so one
:class:`~repro.machine.trace.AlgorithmTracer` accumulates the whole
cycle and :class:`~repro.machine.runtime.SimulatedRuntime` can replay it
on the simulated NUMA machine exactly like a flat run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.accel.config import ParallelConfig
from repro.configtools import ConfigBase
from repro.core.bp import BPConfig, belief_propagation_align
from repro.core.klau import KlauConfig, klau_align
from repro.core.problem import NetworkAlignmentProblem
from repro.core.result import AlignmentResult, IterationRecord
from repro.core.rounding import MATCHER_KINDS, round_heuristic
from repro.errors import ConfigurationError
from repro.multilevel.coarsen import (
    CoarsenedGraph,
    EllProjection,
    coarsen_graph,
    project_ell,
    project_squares,
)
from repro.observe import get_bus

__all__ = ["MultilevelConfig", "multilevel_align"]

#: Solvers usable on the coarsest level.
COARSEST_METHODS = ("bp", "klau")


@dataclass(frozen=True)
class MultilevelConfig(ConfigBase):
    """Parameters of the multilevel V-cycle.

    ``n_levels`` counts levels *including* the finest, so ``n_levels=1``
    degenerates to a flat run of ``coarsest_method``.  Coarsening stops
    early when a level would drop below ``min_vertices`` on either side
    or shrink by less than ``min_shrink`` (matching starvation on
    near-disconnected graphs).  The expanded coarse matching enters each
    refine pass as ``α·w + prior_scale·indicator`` warm-start messages.
    Serializes via :meth:`~repro.configtools.ConfigBase.to_dict` /
    :meth:`~repro.configtools.ConfigBase.from_dict`.
    """

    n_levels: int = 2
    min_vertices: int = 32
    min_shrink: float = 0.95
    #: Heaviest coarse candidate edges kept per vertex (0 = keep all).
    #: Without it, halving vertex counts while graph edges survive
    #: *densifies* the coarse squares matrix geometrically.
    coarse_max_degree: int = 8
    #: Heaviest coarse *graph* edges (by collapsed multiplicity) kept per
    #: supernode in A and B (0 = keep all); bounds coarse degrees so the
    #: coarse squares matrix shrinks with the vertex count.
    graph_max_degree: int = 16
    coarsest_method: str = "bp"
    coarsest_iters: int = 30
    coarsest_matcher: str = "approx"
    refine_iters: int = 3
    #: Matcher for the refine roundings and the expanded-prior rounding.
    #: The prior vector is tie-heavy (α·w plus a 0/1 indicator), which
    #: degenerates exact matchers' augmenting search at scale — the
    #: ½-approximation default handles ties in linear time.  Ties are
    #: also where the exact matcher's warm start pays least: it re-solves
    #: cold whenever it cannot prove its optimum unique.
    refine_matcher: str = "approx"
    prior_scale: float = 1.0
    gamma: float = 0.99
    batch: int = 1
    final_exact: bool = True
    #: Accepted on every public config (common surface, round-tripped by
    #: ``to_dict``/``from_dict``); the cycle is deterministic and does
    #: not consume it.
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.n_levels < 1:
            raise ConfigurationError("n_levels must be >= 1")
        if self.min_vertices < 1:
            raise ConfigurationError("min_vertices must be >= 1")
        if not (0.0 < self.min_shrink <= 1.0):
            raise ConfigurationError("min_shrink must be in (0, 1]")
        if self.coarse_max_degree < 0:
            raise ConfigurationError("coarse_max_degree must be >= 0")
        if self.graph_max_degree < 0:
            raise ConfigurationError("graph_max_degree must be >= 0")
        if self.coarsest_method not in COARSEST_METHODS:
            raise ConfigurationError(
                f"unknown coarsest_method {self.coarsest_method!r}; "
                f"expected one of {COARSEST_METHODS}"
            )
        if self.coarsest_iters < 1:
            raise ConfigurationError("coarsest_iters must be >= 1")
        if self.refine_iters < 0:
            raise ConfigurationError("refine_iters must be >= 0")
        for kind in (self.coarsest_matcher, self.refine_matcher):
            if kind not in MATCHER_KINDS:
                raise ConfigurationError(
                    f"unknown matcher {kind!r}; expected one of "
                    f"{MATCHER_KINDS}"
                )
        if self.prior_scale < 0:
            raise ConfigurationError("prior_scale must be non-negative")
        if not (0.0 < self.gamma <= 1.0):
            raise ConfigurationError("gamma must be in (0, 1]")
        if self.batch < 1:
            raise ConfigurationError("batch must be >= 1")


@dataclass
class _Level:
    """One rung of the hierarchy (the finest has no projection)."""

    problem: NetworkAlignmentProblem
    proj: EllProjection | None = None
    coarse_a: CoarsenedGraph | None = None
    coarse_b: CoarsenedGraph | None = None


def multilevel_align(
    problem: NetworkAlignmentProblem,
    config: MultilevelConfig | None = None,
    tracer: Any | None = None,
    *,
    parallel: ParallelConfig | None = None,
) -> AlignmentResult:
    """Run one V-cycle on ``problem``.

    ``tracer`` collects the work traces of coarsening, the coarse solve
    and every refine pass into a single trace stream the machine model
    replays; ``parallel`` fans the inner BP batched roundings out on an
    execution backend.  When the :mod:`repro.observe` bus has sinks
    attached, the run is wrapped in a ``multilevel.align`` span, each
    level emits a ``multilevel_level`` event, and the
    ``repro_multilevel_*`` metrics are maintained.
    """
    config = config or MultilevelConfig()
    bus = get_bus()
    with bus.trace(
        "multilevel.align",
        n_levels=config.n_levels,
        coarsest_method=config.coarsest_method,
        refine_iters=config.refine_iters,
    ):
        return _vcycle(problem, config, tracer, bus, parallel)


def _emit_level(
    bus, level: int, action: str, problem: NetworkAlignmentProblem
) -> None:
    if bus.active:
        bus.emit(
            "multilevel_level",
            level=level,
            action=action,
            n_a=problem.a_graph.n,
            n_b=problem.b_graph.n,
            n_edges_l=problem.n_edges_l,
        )


def _build_hierarchy(
    problem: NetworkAlignmentProblem,
    config: MultilevelConfig,
    tracer: Any | None,
    bus,
) -> list[_Level]:
    """Coarsen until ``n_levels`` rungs exist or progress stalls."""
    levels = [_Level(problem)]
    a_w: np.ndarray | None = None
    b_w: np.ndarray | None = None
    for lvl in range(1, config.n_levels):
        fine = levels[-1].problem
        if (
            fine.a_graph.n <= config.min_vertices
            or fine.b_graph.n <= config.min_vertices
        ):
            break
        ca = coarsen_graph(
            fine.a_graph, a_w, max_degree=config.graph_max_degree
        )
        cb = coarsen_graph(
            fine.b_graph, b_w, max_degree=config.graph_max_degree
        )
        shrink = (ca.cmap.n_coarse + cb.cmap.n_coarse) / (
            fine.a_graph.n + fine.b_graph.n
        )
        if shrink > config.min_shrink:
            break  # matching starved; a further level buys nothing
        proj = project_ell(
            fine.ell, ca.cmap, cb.cmap,
            max_degree=config.coarse_max_degree,
        )
        coarse_problem = NetworkAlignmentProblem(
            ca.graph,
            cb.graph,
            proj.ell,
            fine.alpha,
            fine.beta,
            name=f"{problem.name}/level{lvl}",
        )
        # Inherit the squares structure by projection instead of the
        # O(Σ deg_A·deg_B) neighborhood-join rebuild: nnz never grows
        # down the hierarchy and the projection is one gather + dedup.
        coarse_problem._squares = project_squares(fine.squares, proj)
        levels.append(_Level(coarse_problem, proj, ca, cb))
        a_w, b_w = ca.edge_weights, cb.edge_weights
        _emit_level(bus, lvl, "coarsen", coarse_problem)
        if bus.active:
            bus.metrics.histogram(
                "repro_multilevel_shrink_factor"
            ).observe(shrink)
        if tracer is not None:
            # Coarsening = two heavy-edge matchings over A's and B's
            # half-edges + one segmented aggregation over L's edges;
            # recorded as its own traced "iteration" of the cycle.
            n_half = 2 * (fine.a_graph.m + fine.b_graph.m)
            tracer.uniform_loop(
                "coarsen_match", n_items=max(1, n_half),
                cost_per_item=3.0, bytes_per_item=24.0, random_frac=0.5,
            )
            tracer.uniform_loop(
                "project_ell", n_items=max(1, fine.ell.n_edges),
                cost_per_item=2.0, bytes_per_item=32.0, random_frac=0.5,
            )
            tracer.end_iteration()
    return levels


def _round_prior(
    problem: NetworkAlignmentProblem,
    g_vec: np.ndarray,
    matcher: str,
    result: AlignmentResult | None,
) -> AlignmentResult:
    """Round the prior vector itself; keep it if it beats the refine.

    Guarantees the refine pass never loses the expanded coarse solution
    (refine is a *descent* in objective terms, not a gamble).  ``result``
    is ``None`` when no refine ran at this level — the coarse result's
    objective lives on the coarse problem and is not comparable here, so
    the prior rounding stands alone.
    """
    obj, wp, op, matching = round_heuristic(
        problem, g_vec, matcher=matcher, source="prior", iteration=0
    )
    if result is not None and obj <= result.objective:
        return result
    record = IterationRecord(
        iteration=0, objective=obj, weight_part=wp, overlap_part=op,
        upper_bound=float("nan"), source="prior", gamma=float("nan"),
    )
    return AlignmentResult(
        matching=matching,
        objective=obj,
        weight_part=wp,
        overlap_part=op,
        best_upper_bound=float("inf"),
        history=(result.history if result is not None else []) + [record],
        method=result.method if result is not None else "multilevel",
        params=result.params if result is not None else {},
    )


def _vcycle(
    problem: NetworkAlignmentProblem,
    config: MultilevelConfig,
    tracer: Any | None,
    bus,
    parallel: ParallelConfig | None,
) -> AlignmentResult:
    levels = _build_hierarchy(problem, config, tracer, bus)
    n_levels = len(levels)
    if bus.active:
        bus.metrics.counter("repro_multilevel_vcycles_total").inc()
        bus.metrics.gauge("repro_multilevel_levels").set(n_levels)

    # ---- coarsest solve ---------------------------------------------
    coarsest = levels[-1].problem
    flat = n_levels == 1  # degenerate cycle: the coarsest IS the finest
    _emit_level(bus, n_levels - 1, "solve", coarsest)
    if config.coarsest_method == "bp":
        result = belief_propagation_align(
            coarsest,
            BPConfig(
                n_iter=config.coarsest_iters,
                gamma=config.gamma,
                batch=config.batch,
                matcher=config.coarsest_matcher,
                final_exact=flat and config.final_exact,
            ),
            tracer,
            parallel=parallel,
        )
    else:
        result = klau_align(
            coarsest,
            KlauConfig(
                n_iter=config.coarsest_iters,
                matcher=config.coarsest_matcher,
                final_exact=flat and config.final_exact,
            ),
            tracer,
        )

    # ---- expand + refine, coarsest → finest -------------------------
    for k in range(n_levels - 1, 0, -1):
        level = levels[k]
        fine_problem = levels[k - 1].problem
        is_finest = k == 1
        coarse_x = result.matching.indicator(level.proj.ell.n_edges)
        prior = level.proj.prolong(coarse_x)
        g_vec = (
            fine_problem.alpha * fine_problem.weights
            + config.prior_scale * prior
        )
        _emit_level(bus, k - 1, "refine", fine_problem)
        if config.refine_iters > 0:
            refined = belief_propagation_align(
                fine_problem,
                BPConfig(
                    n_iter=config.refine_iters,
                    gamma=config.gamma,
                    batch=config.batch,
                    matcher=config.refine_matcher,
                    final_exact=is_finest and config.final_exact,
                ),
                tracer,
                parallel=parallel,
                init_messages=(g_vec, g_vec),
            )
            if bus.active:
                bus.metrics.counter(
                    "repro_multilevel_refine_iterations_total"
                ).inc(config.refine_iters)
        else:
            refined = None  # no refine: the prior rounding below decides
        # The prior vector is tie-heavy by construction (α·w plus a 0/1
        # indicator), which degenerates the exact matcher's augmenting
        # search; the ½-approximation family handles ties in linear time,
        # and the refine pass's own final exact rounding already polishes
        # a well-conditioned BP vector.
        result = _round_prior(
            fine_problem, g_vec, config.refine_matcher, refined
        )

    return AlignmentResult(
        matching=result.matching,
        objective=result.objective,
        weight_part=result.weight_part,
        overlap_part=result.overlap_part,
        best_upper_bound=float("inf"),
        history=result.history,
        method=(
            f"multilevel[{n_levels}x{config.coarsest_method},"
            f"{config.refine_matcher}]"
        ),
        params={
            **config.to_dict(),
            "levels": n_levels,
            "alpha": problem.alpha,
            "beta": problem.beta,
        },
    )
