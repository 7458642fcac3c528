"""Belief propagation (BP) for network alignment (Listing 2).

Max-product message passing over the factor-graph form of the alignment
QP, with the simplifications of Bayati–Gleich et al.: two edge-indexed
message vectors **y**, **z** (one per matching constraint side), one
square-indexed message matrix **S**:sup:`(k)`, the ``othermax``
competition kernels, geometric damping by γ:sup:`k`, and a rounding step
per iteration.

Unlike Klau's method, the iterates are *independent* of the matcher used
for rounding (§VII) — the matching only scores iterates.  That makes BP
the method whose quality survives the approximate-matching substitution,
and it enables the paper's **batched rounding**: store the last ``r``
message vectors and round them together (as parallel tasks).  Here the
batch semantics are preserved (flush every ``r/2`` iterations) so the
work trace matches BP(batch=r); results are identical to immediate
rounding by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro._util import concat_ranges
from repro.configtools import ConfigBase
from repro.core.othermax import othermax_col, othermax_grouped, othermax_row
from repro.core.problem import NetworkAlignmentProblem
from repro.core.result import AlignmentResult, BestTracker, IterationRecord
from repro.core.rounding import (
    Matcher,
    RoundingWorkspace,
    make_matcher,
    round_heuristic,
    score_matching,
)
from repro.errors import ConfigurationError
from repro.observe import get_bus
from repro.resilience.checkpoint import SolverCheckpoint
from repro.resilience.faults import maybe_inject
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import row_sums

__all__ = ["BPConfig", "belief_propagation_align"]


@dataclass(frozen=True)
class BPConfig(ConfigBase):
    """Parameters of the BP method.

    ``batch`` is the paper's rounding batch size ``r`` (number of stored
    weight vectors; each iteration produces two, so a flush happens every
    ``max(1, r // 2)`` iterations).  ``matcher`` picks the rounding
    oracle.  ``gamma`` is the damping base of Step 5.  Serializes via
    :meth:`~repro.configtools.ConfigBase.to_dict` /
    :meth:`~repro.configtools.ConfigBase.from_dict`.
    """

    n_iter: int = 100
    gamma: float = 0.99
    batch: int = 1
    matcher: str = "approx"
    final_exact: bool = True
    #: Damping variant (the paper describes one; [13] has others):
    #: "power"  — convex combination with weight γ^k (Listing 2, default);
    #: "fixed"  — convex combination with constant weight γ;
    #: "none"   — raw message updates (BP may oscillate; rounding still
    #:            scores every iterate, so the best is kept).
    damping: str = "power"
    #: Incremental (``warm_from=``) runs only: message-residual threshold
    #: below which an edge is considered settled and leaves the active
    #: set.  Ignored by cold runs.
    active_tol: float = 1e-9
    #: Incremental runs only: when the active set exceeds this fraction
    #: of |E_L|, the iteration falls back to a full sweep (the subset
    #: gather/scatter machinery costs more than vectorized full passes).
    active_max_frac: float = 0.5
    #: Incremental runs only: round the iterates every this many
    #: iterations (cold runs round every iteration; warm runs start from
    #: a good matching, so sparser rounding trades nothing for speed).
    round_every: int = 1
    #: Accepted on every public config (common surface, round-tripped by
    #: ``to_dict``/``from_dict``); BP itself is deterministic and does
    #: not consume it.
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.n_iter < 1:
            raise ConfigurationError("n_iter must be >= 1")
        if not (0.0 < self.gamma <= 1.0):
            raise ConfigurationError("gamma must be in (0, 1]")
        if self.batch < 1:
            raise ConfigurationError("batch must be >= 1")
        if self.damping not in ("power", "fixed", "none"):
            raise ConfigurationError(f"unknown damping {self.damping!r}")
        if self.active_tol < 0:
            raise ConfigurationError("active_tol must be >= 0")
        if not (0.0 < self.active_max_frac <= 1.0):
            raise ConfigurationError("active_max_frac must be in (0, 1]")
        if self.round_every < 1:
            raise ConfigurationError("round_every must be >= 1")


def belief_propagation_align(
    problem: NetworkAlignmentProblem,
    config: BPConfig | None = None,
    tracer: Any | None = None,
    *,
    init_messages: tuple[np.ndarray, np.ndarray] | None = None,
    checkpoint_every: int = 0,
    checkpoint_store: Any | None = None,
    checkpoint_key: str = "bp",
    resume: bool = False,
    warm_from: "WarmState | None" = None,
    keep_state: bool = False,
) -> AlignmentResult:
    """Run the BP message-passing method on ``problem``.

    ``tracer`` optionally records per-step work traces (see
    :mod:`repro.machine.trace`) for the scaling study.  When the
    :mod:`repro.observe` bus has sinks attached, the run is wrapped in a
    ``bp.align`` span and emits one ``iteration`` event per iteration
    (plus ``rounding``/``matching`` events from the rounding layer).

    ``init_messages`` optionally warm-starts the message vectors: a
    ``(y0, z0)`` pair of length ``|E_L|`` (both copied).  The multilevel
    V-cycle (:mod:`repro.multilevel`) uses this to seed each refine pass
    from the expanded coarse solution; default ``None`` keeps the
    all-zeros cold start of Listing 2.

    ``checkpoint_every`` > 0 snapshots the full iterate state (**y**,
    **z**, **S**:sup:`(k)`, the best tracker, the history, and for
    incremental runs the active set) into ``checkpoint_store`` under
    ``checkpoint_key`` at batch-flush boundaries (so no pending rounding
    work is lost); ``resume`` picks any such snapshot back up and
    continues from the iteration after it, bit-identically to the
    uninterrupted run (damping uses the absolute iteration number).  A
    found snapshot takes precedence over ``init_messages`` and
    ``warm_from``; an incremental snapshot resumes incrementally even
    without ``warm_from``.  No matcher state is snapshotted: every
    matcher's answer is a pure function of L and the rounded vector.

    ``warm_from`` switches to *incremental* BP: messages are seeded from
    a prior converged :class:`repro.incremental.WarmState` (keyed by L
    edges, so it survives problem edits) and each iteration updates only
    an *active set* of edges, expanded outward from the perturbation via
    residual thresholds (``config.active_tol``) and falling back to full
    sweeps past ``config.active_max_frac``.  The run is wrapped in a
    ``bp.realign`` span, emits ``active_set_size`` events and reports a
    ``bp-warm[...]`` method.  When the seeding finds the problem
    unchanged, the prior matching is returned bit-identically without
    iterating.  Incremental runs checkpoint and resume like cold ones;
    they are incompatible with ``tracer`` and ``init_messages``.

    ``keep_state`` asks the run to attach its final message state to
    ``result.solver_state`` so a :class:`repro.incremental.WarmState`
    can be captured from it.
    """
    config = config or BPConfig()
    if warm_from is not None and (
        tracer is not None or init_messages is not None
    ):
        raise ConfigurationError(
            "warm_from is incompatible with tracer/init_messages"
        )
    bus = get_bus()
    labels = dict(matcher=config.matcher, n_iter=config.n_iter,
                  batch=config.batch, damping=config.damping)
    if warm_from is None:
        # Rounding always runs in-process; the label stays because
        # recorded event streams (tests/golden/bp_parity.json) carry it.
        labels.update(backend="serial")
    with bus.trace("bp.align" if warm_from is None else "bp.realign",
                   **labels):
        return _bp_run(
            problem, config, tracer, bus, init_messages, warm_from,
            checkpoint_every=checkpoint_every,
            checkpoint_store=checkpoint_store,
            checkpoint_key=checkpoint_key, resume=resume,
            keep_state=keep_state,
        )


def _bp_run(
    problem: NetworkAlignmentProblem,
    config: BPConfig,
    tracer: Any | None,
    bus,
    init_messages: tuple[np.ndarray, np.ndarray] | None,
    warm: "WarmState | None",
    *,
    checkpoint_every: int,
    checkpoint_store: Any | None,
    checkpoint_key: str,
    resume: bool,
    keep_state: bool,
) -> AlignmentResult:
    """The BP iteration body (Listing 2), cold or incremental.

    ``active`` holds the L edges the next iteration updates.  It is
    ``None`` for cold runs, so every iteration is the full in-place
    sweep.  Incremental runs (``warm``, or a resumed incremental
    snapshot) seed it with the edges the perturbation touched
    (:func:`repro.incremental.state.seed_from_warm`), recompute Steps
    1–5 only for those edges, and expand it outward along othermax
    groups and **S** adjacency from edges whose damped update moved more
    than ``config.active_tol``.  Past ``config.active_max_frac · m``
    edges the iteration is the full sweep (the gather/scatter
    bookkeeping would cost more than it saves); when the set empties the
    run stops early — the remaining iterations are provably no-ops.
    """
    matcher: Matcher = make_matcher(config.matcher)
    ell = problem.ell
    s_mat = problem.squares
    perm = problem.squares_transpose_perm
    m = problem.n_edges_l
    nnz = s_mat.nnz
    alpha, beta = problem.alpha, problem.beta
    w_vec = problem.weights
    rows_nz = s_mat.row_of_nonzero()

    # Messages and preallocated temporaries for the full sweep.
    if init_messages is None:
        y = np.zeros(m)
        z = np.zeros(m)
    else:
        y0, z0 = init_messages
        y = np.array(y0, dtype=np.float64, copy=True)
        z = np.array(z0, dtype=np.float64, copy=True)
        if y.shape != (m,) or z.shape != (m,):
            raise ConfigurationError(
                f"init_messages must be two vectors of length {m}"
            )
    sk = np.zeros(nnz)
    y_new = np.empty(m)
    z_new = np.empty(m)
    sk_new = np.empty(nnz)
    f_vals = np.empty(nnz)
    f_mat = CSRMatrix(s_mat.shape, s_mat.indptr, s_mat.indices, f_vals,
                      _checked=True)
    f_vals = f_mat.data  # alias: row_sums reads through the matrix
    d_vec = np.empty(m)
    omax_row = np.empty(m)
    omax_col = np.empty(m)
    scratch = np.empty(m)

    tracker = BestTracker()
    history: list[IterationRecord] = []
    workspace = RoundingWorkspace.for_problem(problem)
    pending: list[tuple[int, np.ndarray, np.ndarray]] = []
    active: np.ndarray | None = None
    counters: dict[str, int] = {}  # incremental runs' params

    def warm_params(iterations_run: int) -> dict:
        return {
            "n_iter": config.n_iter,
            "gamma": config.gamma,
            "matcher": config.matcher,
            "damping": config.damping,
            "alpha": problem.alpha,
            "beta": problem.beta,
            "warm": True,
            "active_tol": config.active_tol,
            "active_max_frac": config.active_max_frac,
            "round_every": config.round_every,
            "iterations_run": iterations_run,
            **counters,
        }

    def finish(result: AlignmentResult) -> AlignmentResult:
        if keep_state:
            result.solver_state = {"y": y.copy(), "z": z.copy(),
                                   "sk": sk.copy()}
        return result

    start_k = 1
    ckpt = None
    if resume and checkpoint_store is not None:
        ckpt = checkpoint_store.load(checkpoint_key)
    if ckpt is not None:
        if ckpt.method != "bp":
            raise ConfigurationError(
                f"checkpoint {checkpoint_key!r} was written by "
                f"method {ckpt.method!r}, not 'bp'; resuming from it "
                "would silently restart the solve"
            )
        state = ckpt.state
        if state["y"].shape != (m,) or state["sk"].shape != (nnz,):
            raise ConfigurationError(
                f"checkpoint {checkpoint_key!r} does not match this "
                "problem's dimensions"
            )
        if warm is not None and "active" not in state:
            raise ConfigurationError(
                f"checkpoint {checkpoint_key!r} was written by a cold "
                "run; resuming it would silently drop warm_from"
            )
        y[:] = state["y"]
        z[:] = state["z"]
        sk[:] = state["sk"]
        SolverCheckpoint.restore_tracker(tracker, state["tracker"])
        history.extend(state["history"])
        start_k = ckpt.iteration + 1
        if "active" in state:
            active = state["active"].copy()
            counters.update(state["warm"])
    elif warm is not None:
        from repro.incremental.state import seed_from_warm

        seed = seed_from_warm(problem, warm, s_mat)
        y, z, sk, active = seed.y, seed.z, seed.sk, seed.active
        counters.update(full_sweeps=0, carried_edges=seed.carried_edges,
                        carried_squares=seed.carried_squares)
        # The tracker starts from the prior matching, and the unchanged
        # shortcut returns it outright.
        prior = seed.prior
        x_prior = np.empty(m)
        obj_p, wp_p, op_p = score_matching(problem, prior, x_prior)
        if seed.unchanged:
            # Nothing moved: the converged messages are still a fixed
            # point and the prior matching is returned bit-identically.
            if bus.active:
                bus.emit("active_set_size", iteration=0, active=0,
                         total=m, full_sweep=False)
            return finish(AlignmentResult(
                matching=prior, objective=obj_p, weight_part=wp_p,
                overlap_part=op_p, best_upper_bound=float("inf"),
                history=[], method=f"bp-warm[{config.matcher}]",
                params=warm_params(0),
            ))
        tracker.offer(obj_p, wp_p, op_p, prior, x_prior, "warm", 0)
        history.append(IterationRecord(
            iteration=0, objective=obj_p, weight_part=wp_p,
            overlap_part=op_p, upper_bound=float("nan"), source="warm",
            gamma=config.gamma,
        ))
    incremental = active is not None
    method = "bp-warm" if incremental else "bp"
    # Incremental runs round every ``round_every`` iterations and flush
    # at once: they start from a good matching, and per-iteration
    # flushes keep each iteration's events together.
    flush_every = 1 if incremental else max(1, config.batch // 2)
    round_every = config.round_every if incremental else 1
    last_ckpt = last_rounded = k_done = start_k - 1

    def maybe_checkpoint(k: int) -> None:
        """Snapshot at a flush boundary (``pending`` is empty here)."""
        nonlocal last_ckpt
        if (
            checkpoint_store is None
            or checkpoint_every <= 0
            or k - last_ckpt < checkpoint_every
        ):
            return
        state = {
            "y": y.copy(),
            "z": z.copy(),
            "sk": sk.copy(),
            "tracker": SolverCheckpoint.snapshot_tracker(tracker),
            "history": list(history),
        }
        if incremental:
            # F and d are rewritten before they are read, so the active
            # set and the counters complete an incremental snapshot.
            state.update(active=active.copy(), warm=dict(counters))
        checkpoint_store.save(
            checkpoint_key,
            SolverCheckpoint(method="bp", iteration=k, state=state),
        )
        last_ckpt = k

    def flush_batch() -> None:
        """Round all stored iterates (the paper's batched rounding).

        The ``2 × batch`` matchings share no state; the tracer replays
        them as one parallel task group on the simulated machine.
        """
        if not pending:
            return
        batch_records: list[tuple[Any, ...]] = []
        for it, y_it, z_it in pending:
            obj_y, wp_y, op_y, match_y = round_heuristic(
                problem, y_it, matcher=matcher, tracker=tracker,
                source="y", iteration=it, workspace=workspace,
            )
            obj_z, wp_z, op_z, match_z = round_heuristic(
                problem, z_it, matcher=matcher, tracker=tracker,
                source="z", iteration=it, workspace=workspace,
            )
            if obj_y >= obj_z:
                rec = (it, obj_y, wp_y, op_y, "y", match_y, match_z)
            else:
                rec = (it, obj_z, wp_z, op_z, "z", match_y, match_z)
            batch_records.append(rec)
        if tracer is not None:
            # Replay the *distinct* y- and z-rounding matchings — the
            # batch ran 2 × batch independent tasks, and the simulated
            # cost of each depends on the matching it produced.
            tracer.rounding_batch(
                "rounding",
                [m for r in batch_records for m in (r[5], r[6])],
                ell,
            )
        for it, obj, wp, op, src, _, _ in batch_records:
            history.append(
                IterationRecord(
                    iteration=it,
                    objective=obj,
                    weight_part=wp,
                    overlap_part=op,
                    upper_bound=float("nan"),
                    source=src,
                    gamma=config.gamma,
                )
            )
            if bus.active:
                bus.emit(
                    "iteration",
                    method=method,
                    iteration=it,
                    objective=obj,
                    weight_part=wp,
                    overlap_part=op,
                    upper_bound=float("nan"),
                    source=src,
                    gamma=config.gamma,
                )
                bus.metrics.counter(
                    "repro_solver_iterations_total", method=method
                ).inc()
                bus.metrics.gauge(
                    "repro_best_objective", method=method
                ).set(tracker.best_objective)
        pending.clear()

    for k in range(start_k, config.n_iter + 1):
        if incremental and len(active) == 0:
            break  # converged: every remaining update is a no-op
        # Chaos consultation point: lets a FaultPlan crash a solve
        # mid-iteration so supervised retries exercise warm-resume.
        maybe_inject("solver.iteration", task_index=k)
        if config.damping == "power":
            gamma_k = config.gamma ** k
        elif config.damping == "fixed":
            gamma_k = config.gamma
        else:
            gamma_k = 1.0
        full = not incremental or len(active) > config.active_max_frac * m
        if incremental:
            counters["full_sweeps"] += full
            if bus.active:
                bus.emit("active_set_size", iteration=k,
                         active=len(active), total=m, full_sweep=full)
                bus.metrics.histogram("repro_active_set_fraction").observe(
                    len(active) / max(m, 1)
                )
        if not full:
            hot = _active_sweep(problem, y, z, sk, active, gamma_k,
                                config.active_tol, scratch)
        else:
            # ---- Step 1: compute F = bound_{0,β}[βS + S^(k)ᵀ] ------
            np.take(sk, perm, out=f_vals)
            f_vals += beta
            np.clip(f_vals, 0.0, beta, out=f_vals)
            if tracer is not None:
                tracer.uniform_loop("compute_f", n_items=nnz,
                                    cost_per_item=1.0, bytes_per_item=24.0,
                                    random_frac=0.6)

            # ---- Step 2: d = αw + Fe -------------------------------
            row_sums(f_mat, out=d_vec)
            d_vec += alpha * w_vec
            if tracer is not None:
                tracer.uniform_loop("compute_d", n_items=m,
                                    cost_per_item=max(1.0, nnz / max(m, 1)),
                                    bytes_per_item=8.0 * (1 + nnz / max(m, 1)),
                                    random_frac=0.1)

            # ---- Step 3: othermax ----------------------------------
            othermax_col(ell, z, out=omax_col, scratch=scratch)
            othermax_row(ell, y, out=omax_row)
            np.subtract(d_vec, omax_col, out=y_new)
            np.subtract(d_vec, omax_row, out=z_new)
            if tracer is not None:
                group_sizes = np.concatenate(
                    [np.diff(ell.row_ptr), np.diff(ell.col_ptr)]
                ).astype(np.float64)
                tracer.loop(
                    "othermax",
                    costs=2.0 * group_sizes,
                    bytes_per_item=group_sizes * 16.0,
                    random_frac=0.5,
                )

            # ---- Step 4: update S^(k) ------------------------------
            np.take(y_new + z_new - d_vec, rows_nz, out=sk_new)
            sk_new -= f_vals
            if tracer is not None:
                tracer.uniform_loop("update_s", n_items=nnz,
                                    cost_per_item=1.0, bytes_per_item=32.0,
                                    random_frac=0.4)

            # ---- Step 5: damping -----------------------------------
            for new, old in ((y_new, y), (z_new, z), (sk_new, sk)):
                new *= gamma_k
                new += (1.0 - gamma_k) * old
            if incremental:
                hot = np.flatnonzero(np.maximum(
                    np.abs(y_new - y), np.abs(z_new - z)
                ) > config.active_tol)
            y[:] = y_new
            z[:] = z_new
            sk[:] = sk_new
            if tracer is not None:
                tracer.uniform_loop("damping", n_items=2 * m + nnz,
                                    cost_per_item=2.0, bytes_per_item=24.0)
        if incremental:
            active = _frontier(problem, hot)
        k_done = k

        # ---- Step 6: (batched) rounding ----------------------------
        if k % round_every == 0 or k == config.n_iter:
            pending.append((k, y.copy(), z.copy()))
            last_rounded = k
        if len(pending) >= flush_every or k == config.n_iter:
            flush_batch()
            maybe_checkpoint(k)
        if tracer is not None:
            tracer.end_iteration()

    if k_done > last_rounded:
        # An incremental run stopped early between rounding iterations.
        pending.append((k_done, y.copy(), z.copy()))
    flush_batch()
    result = _finalize(problem, tracker, history, config)
    if incremental:
        result.method = f"bp-warm[{config.matcher}]"
        result.params = warm_params(k_done)
    return finish(result)


def _sorted_union(n: int, *index_arrays: np.ndarray) -> np.ndarray:
    """The distinct values of ``index_arrays`` (all in ``[0, n)``), sorted.

    A mark array and ``flatnonzero``: what ``np.unique`` of their
    concatenation returns, without its sort.
    """
    mark = np.zeros(n, dtype=bool)
    for idx in index_arrays:
        mark[idx] = True
    return np.flatnonzero(mark)


def _groups_of(
    ptr: np.ndarray, vertices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The positions in the othermax groups of ``vertices`` (``ptr`` is
    L's row or column pointer), and those groups' boundaries."""
    groups = _sorted_union(len(ptr) - 1, vertices)
    pos, lens = concat_ranges(ptr[groups], ptr[groups + 1])
    return pos, np.concatenate([[0], np.cumsum(lens)])


def _active_sweep(
    problem: NetworkAlignmentProblem,
    y: np.ndarray,
    z: np.ndarray,
    sk: np.ndarray,
    active: np.ndarray,
    gamma_k: float,
    tol: float,
    scratch: np.ndarray,
) -> np.ndarray:
    """Steps 1–5 for the ``active`` edges only, updating y, z, S in place.

    Computes the same values the full sweep would on those edges (F and
    d only on their rows of **S**, othermax over the groups they touch)
    and returns the ones whose damped update moved more than ``tol``.
    ``scratch`` is an ``m``-length buffer.
    """
    ell, s_mat = problem.ell, problem.squares
    # ---- Steps 1+2 on the active rows of S -------------------------
    s_pos, row_lens = concat_ranges(s_mat.indptr[active],
                                    s_mat.indptr[active + 1])
    f_sub = np.clip(sk[problem.squares_transpose_perm[s_pos]]
                    + problem.beta, 0.0, problem.beta)
    rs = np.zeros(len(active))
    if len(s_pos):
        nz_rows = row_lens > 0
        seg_starts = np.concatenate([[0], np.cumsum(row_lens)[:-1]])
        rs[nz_rows] = np.add.reduceat(f_sub, seg_starts[nz_rows])
    d_act = problem.alpha * problem.weights[active] + rs
    # ---- Step 3: othermax over the touched groups ------------------
    e_rows, ptr_a = _groups_of(ell.row_ptr, ell.edge_a[active])
    scratch[e_rows] = othermax_grouped(y[e_rows], ptr_a)
    z_upd = d_act - scratch[active]
    pos_cols, ptr_b = _groups_of(ell.col_ptr, ell.edge_b[active])
    e_cols = ell.col_perm[pos_cols]
    scratch[e_cols] = othermax_grouped(z[e_cols], ptr_b)
    y_upd = d_act - scratch[active]
    # ---- Step 4: S^(k) on the active rows --------------------------
    sk_upd = np.repeat(y_upd + z_upd - d_act, row_lens) - f_sub
    # ---- Step 5: damping, residuals, in-place commit ---------------
    y_next = gamma_k * y_upd + (1.0 - gamma_k) * y[active]
    z_next = gamma_k * z_upd + (1.0 - gamma_k) * z[active]
    resid = np.maximum(np.abs(y_next - y[active]),
                       np.abs(z_next - z[active]))
    y[active] = y_next
    z[active] = z_next
    sk[s_pos] = gamma_k * sk_upd + (1.0 - gamma_k) * sk[s_pos]
    return active[resid > tol]


def _frontier(problem: NetworkAlignmentProblem, hot: np.ndarray) -> np.ndarray:
    """Edges whose next update can differ because ``hot`` moved."""
    if not len(hot):
        return np.empty(0, dtype=np.int64)
    ell, s_mat = problem.ell, problem.squares
    e_rows, _ = _groups_of(ell.row_ptr, ell.edge_a[hot])
    pos_cols, _ = _groups_of(ell.col_ptr, ell.edge_b[hot])
    s_pos, _ = concat_ranges(s_mat.indptr[hot], s_mat.indptr[hot + 1])
    return _sorted_union(ell.n_edges, hot, e_rows, ell.col_perm[pos_cols],
                         s_mat.indices[s_pos])


def _finalize(
    problem: NetworkAlignmentProblem,
    tracker: BestTracker,
    history: list[IterationRecord],
    config: BPConfig,
) -> AlignmentResult:
    """Apply the final exact rounding and package the result."""
    history.sort(key=lambda r: r.iteration)
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
        best_upper_bound=float("inf"),
        history=history,
        method=f"bp[batch={config.batch},{config.matcher}]",
        params={
            "n_iter": config.n_iter,
            "gamma": config.gamma,
            "batch": config.batch,
            "matcher": config.matcher,
            "damping": config.damping,
            "alpha": problem.alpha,
            "beta": problem.beta,
        },
    )
