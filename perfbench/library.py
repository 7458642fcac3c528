"""The library workloads: ``bp_cold`` (BP) and ``mr_bio`` (Klau's MR).

Each operation builds a fresh ``NetworkAlignmentProblem`` from the
generated graphs (so it pays the squares build, as any new problem does)
and calls ``repro.align`` on it.  Every result passes the correctness
gate of :func:`check_result` before it counts.

Three choices keep the runs steady.  ``bp_cold`` uses n=5000: at
n=20000 a solve takes about 10 s and only three fit in a run; at n=10000
seven fit, and across ten seeds their median still spread by 9% and the
mean-based ``jobs_per_s`` by 15%.  ``mr_bio`` runs a fixed number
of MR iterations with the gap stop off: with the default config the stop
fires after 7 to 89 iterations depending on the seed, which would make
the solve time a property of the seed rather than of the code.  And it
runs 20 of them, not 60: host speed on a shared machine switches between
levels, and the median of a dozen short solves averages over more of
them than that of five long ones (spread 5% against 25% across seeds).
End-to-end times are then scaled to a reference host speed
(``perfbench/hostspeed.py``).
"""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass
from typing import Any

from perfbench import hostspeed, spans, spec


@dataclass(frozen=True)
class Size:
    """Instance sizes and solver settings of one scale."""

    bp_n: int
    bp_config: dict
    mr_scale: float
    mr_config: dict


SIZES = {
    "full": Size(
        bp_n=5_000, bp_config={"n_iter": 100, "batch": 8},
        mr_scale=1.0,
        mr_config={"n_iter": 20, "gap_tolerance": float("-inf")}),
    "tiny": Size(
        bp_n=1_000, bp_config={"n_iter": 10, "batch": 8},
        mr_scale=0.05,
        mr_config={"n_iter": 5, "gap_tolerance": float("-inf")}),
}


def generate(workload: str, seed: int, size: Size) -> Any:
    """The workload's problem instance, a pure function of ``seed``."""
    if workload == "bp_cold":
        from repro.generators.synthetic import powerlaw_alignment_instance

        return powerlaw_alignment_instance(
            n=size.bp_n, expected_degree=6.0, p_perturb=8.0 / size.bp_n,
            seed=seed).problem
    from repro.generators.bio import dmela_scere

    return dmela_scere(scale=size.mr_scale, seed=seed).problem


def check_result(problem: Any, result: Any) -> list[str]:
    """The correctness gate: a valid matching, and its objective.

    The reported objective must equal ``problem.objective`` of the
    matching's indicator vector, recomputed here rather than taken from
    the solver's bookkeeping.
    """
    from repro.errors import NotAMatchingError
    from repro.matching.validate import check_matching

    try:
        check_matching(problem.ell, result.matching)
    except NotAMatchingError as exc:
        return [f"{result.method}: not a matching ({exc})"]
    recomputed = problem.objective(
        result.matching.indicator(problem.n_edges_l))
    if not math.isclose(recomputed, result.objective, rel_tol=1e-12,
                        abs_tol=1e-9):
        return [f"{result.method}: reports objective {result.objective!r}"
                f" but its matching scores {recomputed!r}"]
    return []


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: Size) -> spec.Outcome:
    """Solve repeatedly for ``seconds``; untraced unless ``trace``.

    A traced run alternates untraced and traced solves; the untraced
    ones are the reference its tracing overhead is measured against.
    """
    import repro
    from repro.core.problem import NetworkAlignmentProblem

    if workload == "bp_cold":
        method, config, root = "bp", size.bp_config, "bp"
    else:
        method, config, root = "klau", size.mr_config, "klau"
    out = spec.Outcome()
    tracer, patcher = spans.Tracer(), spans.Patcher()
    clock = hostspeed.HostClock()
    # Raw seconds per operation: set-up, align() and problem build plus
    # align(); and the host-speed scale of the operation.
    setup, solve, op, scale, traced_op = [], [], [], [], []
    objectives, iterations = [], []
    started = time.perf_counter()
    while (len(objectives) < (2 if trace else 1)
           or time.perf_counter() - started < seconds):
        traced = trace and len(objectives) % 2 == 1
        # Generate again before every solve: set-ups spread over the run
        # see the host speed levels the solves do, where a burst of them
        # at the start saw one (their median spread 30% across seeds).
        t0 = time.perf_counter()
        base = generate(workload, seed, size)
        t_setup = time.perf_counter() - t0
        t0 = time.perf_counter()
        problem = NetworkAlignmentProblem(
            base.a_graph, base.b_graph, base.ell, base.alpha, base.beta,
            base.name)
        t1 = time.perf_counter()
        if traced:
            spans.install(tracer, patcher)
            try:
                with tracer.span(root):
                    result = repro.align(problem, method, dict(config))
            finally:
                patcher.restore()
        else:
            result = repro.align(problem, method, dict(config))
        t2 = time.perf_counter()
        if traced:
            traced_op.append(t2 - t1)
        else:
            setup.append(t_setup)
            solve.append(t2 - t1)
            op.append(t2 - t0)
            scale.append(clock.factor())
        out.failures += check_result(problem, result)
        objectives.append(result.objective)
        iterations.append(result.iterations)
    out.attempted = len(objectives)
    if len(set(objectives)) > 1:
        out.failures.append(
            f"{method}: objective differs between solves of one instance "
            f"({sorted(set(objectives))})")

    def scaled(raw: list[float]) -> list[float]:
        return [t * f for t, f in zip(raw, scale)]

    out.e2e = {
        "setup_s": spec.median(scaled(setup)),
        "solve_s": spec.median(scaled(solve)),
        "objective": objectives[0],
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latency_p50_s": spec.median(scaled(op)),
        "jobs_per_s": len(op) / sum(scaled(op)),
    }
    if trace:
        n = len(traced_op)
        table = spans.layer_table(tracer.spans)
        out.layers = spans.core_layers(table, n, bp_span="bp")
        out.layers[f"{root}.iterations"] = spec.mean(iterations)
        op_s = table[root].busy / n
        reference = spec.mean(solve)
        out.layers["trace.op_s"] = op_s
        out.layers["trace.overhead_s"] = op_s - reference
        out.layers["trace.overhead_frac"] = (op_s - reference) / reference
        parts = sum(out.layers[name] for name in spec.LIBRARY_PARTS)
        out.notes.append(
            f"layer split: parts add up to {parts:.4f} s per solve = "
            f"untraced {reference:.4f} s + tracing overhead "
            f"{op_s - reference:.4f} s ({n} traced solve(s))")
        out.trace = {"spans": [list(s) for s in tracer.spans],
                     "counts": dict(tracer.counts)}
    out.notes.append(f"{len(objectives)} solve(s) of {method} {config}; "
                     f"objective {objectives[0]!r}, "
                     f"{iterations[0]} iteration(s); untraced raw solve "
                     f"times {[round(t, 4) for t in solve]} s, scales "
                     f"{[round(f, 3) for f in scale]}; raw median set-up "
                     f"{spec.median(setup):.4f} s")
    return out
