"""Klau's matching-relaxation (MR) method for network alignment (Listing 1).

Lagrangian decomposition of the MILP form: each row of **S** contributes a
small exact matching (Step 1) whose values tighten an upper bound, the
combined weights are rounded to a feasible matching (Step 3), and the
multipliers **U** are nudged by a subgradient step toward agreement
between the row matchings and the global matching (Step 5), with the step
size γ halved whenever the upper bound stalls for ``mstep`` iterations.

Storage follows §IV-B: **U** lives on the fixed structure of **S** (only
the strictly-upper entries are ever nonzero; ``U − Uᵀ`` is realized with
the one-time transpose permutation), the row-matching weights
``(β/2)S + U − Uᵀ`` are a single fused vector expression, and the row
subproblems are solved exactly (the paper never approximates Step 1,
"because the problems in each row tend to be small").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.configtools import ConfigBase
from repro.core.problem import NetworkAlignmentProblem
from repro.core.result import AlignmentResult, BestTracker, IterationRecord
from repro.core.rounding import Matcher, make_matcher, round_heuristic
from repro.core.row_match import RowMatcher
from repro.errors import ConfigurationError
from repro.observe import get_bus
from repro.resilience.checkpoint import require_checkpointable
from repro.resilience.faults import maybe_inject

__all__ = ["KlauConfig", "klau_align"]


@dataclass(frozen=True)
class KlauConfig(ConfigBase):
    """Parameters of Klau's method.

    ``gamma`` and ``mstep`` follow the paper's scaling experiments
    (γ given, mstep given; §VIII uses γ=0.99, mstep=10; the original
    netalign code defaults to γ=0.4, mstep=25 which round better on small
    problems — we default to the latter).  ``u_bound`` clips the
    multipliers to ``[-u_bound, +u_bound]`` (the listing's ``bound F``
    step); the default is unbounded, which rounds best — the symmetry
    constraints the multipliers enforce are equalities.  ``matcher`` picks
    the Step-3 ``bipartite_match`` oracle — the substitution the paper
    studies.
    """

    n_iter: int = 500
    gamma: float = 0.4
    mstep: int = 25
    matcher: str = "exact"
    #: Keep dual potentials between the Step-3 matchings
    #: (:class:`repro.matching.warm.ExactMatcher`): ``wbar`` drifts by a
    #: decaying subgradient step on one fixed L structure, which is the
    #: warm-start use case.  Only meaningful with ``matcher="exact"``
    #: (it upgrades the oracle to ``"exact-warm"``).
    warm_start: bool = False
    u_bound: float = float("inf")
    final_exact: bool = True
    stall_tolerance: float = 1e-12
    #: "polyak" scales the subgradient step by (UB − LB)/‖g‖² with γ as
    #: the relaxation factor θ (the netalign reference behaviour);
    #: "fixed" uses γ directly as in the printed pseudocode.
    step_rule: str = "polyak"
    #: Stop early when best upper bound − best objective ≤ gap_tolerance:
    #: the method "can actually detect when it has reached the optimal
    #: point" (§III-A).
    gap_tolerance: float = 1e-9
    #: Accepted on every public config (common surface, round-tripped by
    #: ``to_dict``/``from_dict``); Klau's method is deterministic and
    #: does not consume it.
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.n_iter < 1:
            raise ConfigurationError("n_iter must be >= 1")
        if not (0 < self.gamma):
            raise ConfigurationError("gamma must be positive")
        if self.mstep < 1:
            raise ConfigurationError("mstep must be >= 1")
        if self.u_bound < 0:
            raise ConfigurationError("u_bound must be non-negative")
        if self.step_rule not in ("polyak", "fixed"):
            raise ConfigurationError(
                f"unknown step_rule {self.step_rule!r}"
            )
        if self.warm_start and self.matcher not in ("exact", "exact-warm"):
            raise ConfigurationError(
                "warm_start requires the exact matcher "
                f"(got matcher={self.matcher!r})"
            )

    def matcher_kind(self) -> str:
        """The rounding oracle actually instantiated for Step 3."""
        if self.warm_start and self.matcher == "exact":
            return "exact-warm"
        return self.matcher


def klau_align(
    problem: NetworkAlignmentProblem,
    config: KlauConfig | None = None,
    tracer: Any | None = None,
    *,
    checkpoint_every: int = 0,
    checkpoint_store: Any | None = None,
    checkpoint_key: str = "klau",
    resume: bool = False,
) -> AlignmentResult:
    """Run Klau's MR method on ``problem``.

    ``tracer`` is an optional duck-typed work-trace collector (see
    :class:`repro.machine.trace.AlgorithmTracer`); when given, each of the
    five steps of Listing 1 records its per-item work so the machine model
    can replay the iteration.  When the :mod:`repro.observe` bus has
    sinks attached, the run is wrapped in a ``klau.align`` span and emits
    one ``iteration`` event per iteration, carrying the upper bound and
    the live step size γ.

    ``checkpoint_every`` > 0 snapshots the multiplier vector **U**, the
    step-control scalars (γ, best upper bound, stall counter), the best
    tracker and the history into ``checkpoint_store`` under
    ``checkpoint_key``; ``resume`` picks any such snapshot back up,
    bit-identically to the uninterrupted run.  Stateless Step-3 oracles
    only: ``exact-warm``/``warm_start`` carries cross-call dual state a
    snapshot cannot capture, so checkpointing it raises
    :class:`~repro.errors.ConfigurationError` (see
    :func:`repro.resilience.checkpoint.checkpointable`).
    """
    config = config or KlauConfig()
    if checkpoint_every > 0 or resume:
        require_checkpointable(config)
    bus = get_bus()
    with bus.trace(
        "klau.align", matcher=config.matcher, n_iter=config.n_iter,
        step_rule=config.step_rule,
    ):
        return _klau_run(
            problem, config, tracer, bus,
            checkpoint_every=checkpoint_every,
            checkpoint_store=checkpoint_store,
            checkpoint_key=checkpoint_key,
            resume=resume,
        )


def _klau_run(
    problem: NetworkAlignmentProblem,
    config: KlauConfig,
    tracer: Any | None,
    bus,
    *,
    checkpoint_every: int = 0,
    checkpoint_store: Any | None = None,
    checkpoint_key: str = "klau",
    resume: bool = False,
) -> AlignmentResult:
    """The MR iteration body (Listing 1)."""
    matcher: Matcher = make_matcher(config.matcher_kind())
    ell = problem.ell
    s_mat = problem.squares
    perm = problem.squares_transpose_perm
    m = problem.n_edges_l
    nnz = s_mat.nnz
    alpha, beta = problem.alpha, problem.beta
    half_beta = beta / 2.0
    u_bound = config.u_bound

    rows_nz = s_mat.row_of_nonzero()
    cols_nz = s_mat.indices
    upper_idx = np.flatnonzero(cols_nz > rows_nz)
    mirror_idx = perm[upper_idx]
    up_rows = rows_nz[upper_idx]
    up_cols = cols_nz[upper_idx]
    row_matcher = RowMatcher(s_mat, ell)
    indptr = s_mat.indptr
    nonempty_rows = np.flatnonzero(np.diff(indptr) > 0)
    row_sizes = np.diff(indptr)

    u_vals = np.zeros(nnz)
    m_vals = np.empty(nnz)
    sl_vals = np.zeros(nnz)
    d_vec = np.zeros(m)
    wbar = np.empty(m)
    w_vec = problem.weights

    tracker = BestTracker()
    history: list[IterationRecord] = []
    gamma = config.gamma
    best_upper = np.inf
    stall = 0

    start_k = 1
    if resume and checkpoint_store is not None:
        ckpt = checkpoint_store.load(checkpoint_key)
        if ckpt is not None:
            from repro.resilience.checkpoint import SolverCheckpoint

            if ckpt.method != "klau-mr":
                raise ConfigurationError(
                    f"checkpoint {checkpoint_key!r} was written by "
                    f"method {ckpt.method!r}, not 'klau-mr'; resuming "
                    "from it would silently restart the solve"
                )

            state = ckpt.state
            if state["u_vals"].shape != (nnz,):
                raise ConfigurationError(
                    f"checkpoint {checkpoint_key!r} does not match this "
                    "problem's dimensions"
                )
            u_vals[:] = state["u_vals"]
            gamma = state["gamma"]
            best_upper = state["best_upper"]
            stall = state["stall"]
            SolverCheckpoint.restore_tracker(tracker, state["tracker"])
            history.extend(state["history"])
            start_k = ckpt.iteration + 1
    last_ckpt = start_k - 1

    def maybe_checkpoint(k: int) -> None:
        nonlocal last_ckpt
        if (
            checkpoint_store is None
            or checkpoint_every <= 0
            or k - last_ckpt < checkpoint_every
        ):
            return
        from repro.resilience.checkpoint import SolverCheckpoint

        checkpoint_store.save(
            checkpoint_key,
            SolverCheckpoint(
                method="klau-mr",
                iteration=k,
                state={
                    "u_vals": u_vals.copy(),
                    "gamma": gamma,
                    "best_upper": best_upper,
                    "stall": stall,
                    "tracker": SolverCheckpoint.snapshot_tracker(tracker),
                    "history": list(history),
                },
            ),
        )
        last_ckpt = k

    for k in range(start_k, config.n_iter + 1):
        # Chaos consultation point (see repro.resilience): lets a
        # FaultPlan crash a solve mid-iteration so supervised retries
        # exercise warm-resume.
        maybe_inject("solver.iteration", task_index=k)

        # ---- Step 1: row match -------------------------------------
        np.subtract(u_vals, u_vals[perm], out=m_vals)
        m_vals += half_beta
        row_matcher.solve(m_vals, d_vec, sl_vals)
        if tracer is not None:
            # Each row entry costs ~a sort step + a few B&B visits.
            tracer.loop(
                "row_match",
                costs=16.0 * row_sizes[nonempty_rows].astype(np.float64),
                bytes_per_item=row_sizes[nonempty_rows].astype(np.float64) * 32,
                random_frac=0.5,
            )

        # ---- Step 2: daxpy -----------------------------------------
        np.multiply(w_vec, alpha, out=wbar)
        wbar += d_vec
        if tracer is not None:
            tracer.uniform_loop("daxpy", n_items=m, cost_per_item=1.0,
                                bytes_per_item=24.0)

        # ---- Step 3: match -----------------------------------------
        matching = matcher(ell, wbar)
        x = matching.indicator(m)
        if tracer is not None:
            tracer.matching("match", matching, ell)

        # ---- Step 4: objective / bounds ----------------------------
        obj, weight_part, overlap_part = problem.objective_parts(x)
        upper = float(np.dot(wbar, x))
        tracker.offer(obj, weight_part, overlap_part, matching, wbar, "wbar", k)
        if tracer is not None:
            tracer.uniform_loop("objective", n_items=m + nnz,
                                cost_per_item=1.0, bytes_per_item=16.0,
                                random_frac=0.5)

        # ---- Step 5: update U --------------------------------------
        # Subgradient of the relaxed symmetry constraint on each upper
        # pair: g_ef = x_e·SL_ef − x_f·SL_fe.
        subgrad = (
            x[up_rows] * sl_vals[upper_idx] - x[up_cols] * sl_vals[mirror_idx]
        )
        if config.step_rule == "polyak":
            norm_sq = float(np.dot(subgrad, subgrad))
            gap = max(min(best_upper, upper) - tracker.best_objective, 0.0)
            step = gamma * gap / norm_sq if norm_sq > 0 else 0.0
        else:
            step = gamma
        delta = u_vals[upper_idx] - step * subgrad
        np.clip(delta, -u_bound, u_bound, out=delta)
        u_vals[upper_idx] = delta
        if tracer is not None:
            tracer.uniform_loop("update_u", n_items=len(upper_idx),
                                cost_per_item=2.0, bytes_per_item=40.0,
                                random_frac=0.5)

        # Subgradient step control: halve γ when the upper bound has not
        # improved within the last ``mstep`` iterations.
        if upper < best_upper - config.stall_tolerance:
            best_upper = upper
            stall = 0
        else:
            stall += 1
            if stall >= config.mstep:
                gamma /= 2.0
                stall = 0

        history.append(
            IterationRecord(
                iteration=k,
                objective=obj,
                weight_part=weight_part,
                overlap_part=overlap_part,
                upper_bound=upper,
                source="wbar",
                gamma=gamma,
            )
        )
        if bus.active:
            bus.emit(
                "iteration",
                method="klau-mr",
                iteration=k,
                objective=obj,
                weight_part=weight_part,
                overlap_part=overlap_part,
                upper_bound=upper,
                source="wbar",
                gamma=gamma,
            )
            bus.metrics.counter(
                "repro_solver_iterations_total", method="klau-mr"
            ).inc()
            bus.metrics.gauge(
                "repro_best_objective", method="klau-mr"
            ).set(tracker.best_objective)
            bus.metrics.gauge(
                "repro_best_upper_bound", method="klau-mr"
            ).set(best_upper)
        if tracer is not None:
            tracer.end_iteration()
        maybe_checkpoint(k)
        if best_upper - tracker.best_objective <= config.gap_tolerance:
            break  # provably optimal (§III-A)

    return _finalize(problem, tracker, history, best_upper, config)


def _finalize(
    problem: NetworkAlignmentProblem,
    tracker: BestTracker,
    history: list[IterationRecord],
    best_upper: float,
    config: KlauConfig,
) -> AlignmentResult:
    """Apply the final exact rounding and package the result."""
    objective = tracker.best_objective
    weight_part = tracker.best_weight_part
    overlap_part = tracker.best_overlap_part
    matching = tracker.best_matching
    if config.final_exact and tracker.best_vector is not None:
        obj_e, wp_e, op_e, match_e = round_heuristic(
            problem, tracker.best_vector, matcher="exact"
        )
        if obj_e >= objective:
            objective, weight_part, overlap_part, matching = (
                obj_e, wp_e, op_e, match_e,
            )
    return AlignmentResult(
        matching=matching,
        objective=objective,
        weight_part=weight_part,
        overlap_part=overlap_part,
        best_upper_bound=best_upper,
        history=history,
        method=f"klau-mr[{config.matcher_kind()}]",
        params={
            "n_iter": config.n_iter,
            "gamma": config.gamma,
            "mstep": config.mstep,
            "matcher": config.matcher,
            "warm_start": config.warm_start,
            "alpha": problem.alpha,
            "beta": problem.beta,
        },
    )
