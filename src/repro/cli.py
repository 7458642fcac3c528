"""Command-line harness: regenerate any table or figure of the paper.

Usage::

    python -m repro.cli table2
    python -m repro.cli fig2 --degrees 4 10 16 --iters 100
    python -m repro.cli fig4 --scale 0.02
    python -m repro.cli headline
    python -m repro.cli solve path/to/problem_dir --method bp
    python -m repro.cli realign path/to/problem_dir --delta edits.json
    python -m repro.cli serve --port 8080 --workers 4 --store-path runs/jobs
    python -m repro.cli jobs ls runs/jobs
    python -m repro.cli jobs gc runs/jobs --older-than 3600

Every command prints the paper-style rows/series as plain text, except
``serve``, which runs the alignment-as-a-service HTTP job server
(docs/serving.md) until SIGTERM/Ctrl-C triggers a graceful drain, and
``jobs``, which inspects or garbage-collects a ``--store-path``
persistent job journal.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

from repro.core.rounding import MATCHER_KINDS

__all__ = ["main"]


def _cmd_table2(args: argparse.Namespace) -> None:
    from repro.bench.tables import table2
    from repro.bench.report import format_table

    rows = table2(
        bio_scale=args.bio_scale,
        wiki_scale=args.scale,
        rameau_scale=args.rameau_scale,
        seed=args.seed,
    )
    out = []
    for row in rows:
        g = row.generated
        tgt = row.target()
        out.append(
            [g.name, g.n_a, g.n_b, g.n_edges_l, g.nnz_s,
             tgt[2], tgt[3], f"{row.scale:g}"]
        )
    print(
        format_table(
            ["problem", "|V_A|", "|V_B|", "|E_L|", "nnz(S)",
             "paper |E_L|·s", "paper nnz(S)·s", "scale"],
            out,
            title="Table II — problem sizes (generated vs paper targets)",
        )
    )


def _cmd_fig2(args: argparse.Namespace) -> None:
    from repro.bench.figures import fig2_quality
    from repro.bench.report import format_table

    points = fig2_quality(
        degrees=args.degrees,
        n_iter_mr=args.iters,
        n_iter_bp=args.iters,
        seed=args.seed,
    )
    rows = [
        [p.method, p.expected_degree, f"{p.objective_fraction:.3f}",
         f"{p.fraction_correct:.3f}"]
        for p in points
    ]
    print(
        format_table(
            ["method", "dbar", "objective fraction", "fraction correct"],
            rows,
            title="Figure 2 — quality vs expected degree (alpha=1, beta=2)",
        )
    )


def _cmd_fig3(args: argparse.Namespace) -> None:
    from repro.bench.figures import fig3_pareto
    from repro.bench.report import format_table
    from repro.generators import dmela_scere, lcsh_wiki

    if args.problem == "bio":
        inst = dmela_scere(scale=args.scale, seed=args.seed)
    else:
        inst = lcsh_wiki(scale=args.scale, seed=args.seed)
    points = fig3_pareto(inst, n_iter_mr=args.iters, n_iter_bp=args.iters)
    rows = [
        [p.method, f"{p.weight_part:.2f}", f"{p.overlap_part:.0f}"]
        for p in points
    ]
    print(
        format_table(
            ["method", "matching weight", "overlap"],
            rows,
            title=f"Figure 3 — weight/overlap cloud on {inst.problem.name}",
        )
    )


def _print_scaling(result: dict, title: str) -> None:
    from repro.bench.report import format_table

    rows = []
    for method, curves in result.items():
        for curve in curves:
            rows.append(
                [curve.label]
                + [f"{s:.1f}" for s in curve.speedups]
            )
    threads = next(iter(result.values()))[0].thread_counts
    print(
        format_table(
            ["configuration"] + [f"p={t}" for t in threads],
            rows,
            title=title,
        )
    )


def _cmd_fig4(args: argparse.Namespace) -> None:
    from repro.bench.figures import fig4_scaling_wiki

    result = fig4_scaling_wiki(scale=args.scale, seed=args.seed)
    _print_scaling(result, "Figure 4 — strong scaling, lcsh-wiki (simulated E7-8870)")


def _cmd_fig5(args: argparse.Namespace) -> None:
    from repro.bench.figures import fig5_scaling_rameau

    result = fig5_scaling_rameau(scale=args.scale, seed=args.seed)
    _print_scaling(result, "Figure 5 — strong scaling, lcsh-rameau (simulated)")


def _print_steps(curves: dict, title: str) -> None:
    from repro.bench.report import format_table

    threads = next(iter(curves.values())).thread_counts
    rows = [
        [name] + [f"{c.baseline / t:.1f}" if t > 0 else "-" for t in c.times]
        for name, c in curves.items()
    ]
    print(
        format_table(["step"] + [f"p={t}" for t in threads], rows,
                     title=title)
    )


def _cmd_fig6(args: argparse.Namespace) -> None:
    from repro.bench.figures import fig6_steps_mr

    curves = fig6_steps_mr(scale=args.scale, seed=args.seed)
    _print_steps(curves,
                 "Figure 6 — per-step strong scaling, Klau/lcsh-wiki")


def _cmd_fig7(args: argparse.Namespace) -> None:
    from repro.bench.figures import fig7_steps_bp

    curves = fig7_steps_bp(scale=args.scale, seed=args.seed)
    _print_steps(curves,
                 "Figure 7 — per-step strong scaling, BP(batch=20)/lcsh-wiki")


def _cmd_headline(args: argparse.Namespace) -> None:
    from repro.bench.figures import headline

    h = headline(scale=args.scale, seed=args.seed)
    print("Headline (BP batch=20, lcsh-wiki, 400 iterations, simulated):")
    print(f"  1 thread  (bound/compact):      {h['serial_seconds']:8.1f} s")
    print(f"  40 threads (interleave/scatter): {h['threads40_seconds']:8.1f} s")
    print(f"  speedup: {h['speedup']:.1f}x "
          f"(paper: ~10 minutes -> 36 seconds, ~15-20x)")


def _solve_config(args: argparse.Namespace) -> dict:
    """Merge ``--config`` JSON with the explicit CLI flags.

    Explicit flags win over the JSON file; where neither is given, bp/mr
    keep their historical CLI defaults (100 iterations, ``approx``
    matcher) and the other methods fall back to their config dataclass
    defaults.
    """
    import json

    cfg: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = dict(json.load(fh))
    keys = {"iters": "n_iter", "matcher": "matcher"}
    if args.method == "bp":
        keys["batch"] = "batch"
    for flag, key in keys.items():
        value = getattr(args, flag)
        if value is not None:
            cfg[key] = value
    if args.method in ("bp", "mr"):
        cfg.setdefault("n_iter", 100)
        cfg.setdefault("matcher", "approx")
    return cfg


def _write_matching(path: str | None, mate_a: np.ndarray) -> None:
    """Write the matched ``a b`` pairs, one per line, when ``path`` is set."""
    if not path:
        return
    with open(path, "w") as fh:
        for a in np.flatnonzero(mate_a >= 0).tolist():
            fh.write(f"{a} {mate_a[a]}\n")
    print(f"matching written to {path}")


def _cmd_solve(args: argparse.Namespace) -> None:
    import json

    from repro.generators.io import load_alignment_problem
    from repro.registry import align

    problem = load_alignment_problem(
        args.directory, alpha=args.alpha, beta=args.beta
    )
    plan = None
    if args.chaos:
        from repro.resilience import FaultPlan, install_fault_plan

        with open(args.chaos, "r", encoding="utf-8") as fh:
            plan = FaultPlan.from_dict(json.load(fh))
        install_fault_plan(plan)
    try:
        res = align(problem, args.method, _solve_config(args))
    finally:
        if plan is not None:
            from repro.resilience import clear_fault_plan

            clear_fault_plan()
            print(
                f"chaos: {len(plan.fired())} fault(s) fired from "
                f"{args.chaos}", file=sys.stderr,
            )
    print(res.summary())
    if args.report:
        from repro.analysis import alignment_report

        print(alignment_report(problem, res.matching).as_text())
    _write_matching(args.output, res.matching.mate_a)


def _cmd_realign(args: argparse.Namespace) -> None:
    import json

    from repro.generators.io import load_alignment_problem
    from repro.incremental import ProblemDelta, WarmState, realign

    problem = load_alignment_problem(
        args.directory, alpha=args.alpha, beta=args.beta
    )
    cfg = _solve_config(args)
    if args.state:
        warm = WarmState.load(args.state)
    else:
        # No prior state on disk: run the cold solve here, then realign
        # against it (demonstrates the full loop in one command).
        from repro.registry import align

        print("no --state given; running the cold solve first",
              file=sys.stderr)
        cold = align(problem, args.method, cfg, keep_state=True)
        warm = WarmState.from_result(problem, cold)
        print(f"cold: {cold.summary()}")
    if args.delta:
        with open(args.delta, "r", encoding="utf-8") as fh:
            delta = ProblemDelta.from_dict(json.load(fh))
    else:
        delta = ProblemDelta.build()
    new_problem, res, report = realign(
        problem, delta, warm, method=args.method, config=cfg
    )
    print(report.summary())
    print(res.summary())
    if args.save_state:
        WarmState.from_result(new_problem, res).save(args.save_state)
        print(f"warm state written to {args.save_state}")
    _write_matching(args.output, res.matching.mate_a)


def _cmd_serve(args: argparse.Namespace) -> None:
    import asyncio
    import signal

    from repro.serve import AlignmentServer, ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_entries=args.cache_entries,
        max_queue=args.max_queue,
        max_active_per_tenant=args.max_active_per_tenant,
        checkpoint_every=args.checkpoint_every,
        telemetry=args.telemetry,
        store_path=args.store_path,
        drain_timeout_s=args.drain_timeout,
    )
    server = AlignmentServer(config)

    async def run() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):
                # Platforms without loop signal support (Windows) fall
                # back to the KeyboardInterrupt path below.
                pass
        await server.start()
        durable = f"; journal: {args.store_path}" if args.store_path else ""
        print(f"serving alignment jobs on {server.base_url} "
              f"({config.workers} worker(s){durable}; "
              f"API: docs/serving.md; SIGTERM/Ctrl-C drains, then stops)")
        await stop.wait()
        print("drain: no longer admitting jobs; waiting for in-flight "
              "work to settle", file=sys.stderr)
        settled = await loop.run_in_executor(
            None, server.store.drain, config.drain_timeout_s
        )
        if not settled:
            print(f"drain: work still running after "
                  f"{config.drain_timeout_s:g}s budget; stopping anyway",
                  file=sys.stderr)
        await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    finally:
        server.store.shutdown()


def _cmd_jobs(args: argparse.Namespace) -> None:
    from repro.bench.report import format_table
    from repro.serve import gc_jobs, list_jobs

    if args.jobs_command == "gc":
        deleted = gc_jobs(args.store_path, older_than_s=args.older_than)
        print(f"deleted {deleted} terminal job(s) from {args.store_path}")
        return
    rows = list_jobs(args.store_path)
    if not rows:
        print(f"no journaled jobs in {args.store_path}")
        return
    print(
        format_table(
            ["id", "state", "tenant", "method", "created", "finished"],
            [
                [r["id"], r["state"], r["tenant"], r["method"],
                 f"{r['created']:.3f}",
                 "-" if r["finished"] is None else f"{r['finished']:.3f}"]
                for r in rows
            ],
            title=f"Journaled jobs in {args.store_path}",
        )
    )


_GENERATE_FAMILIES = ("synthetic", "dmela-scere", "homo-musm",
                      "lcsh-wiki", "lcsh-rameau")


def _cmd_generate(args: argparse.Namespace) -> None:
    from repro.generators import (
        dmela_scere, homo_musm, lcsh_rameau, lcsh_wiki,
        powerlaw_alignment_instance,
    )
    from repro.generators.io import save_alignment_problem

    if args.family == "synthetic":
        inst = powerlaw_alignment_instance(
            n=args.n, expected_degree=args.degree, seed=args.seed
        )
    else:
        builder = {
            "dmela-scere": dmela_scere,
            "homo-musm": homo_musm,
            "lcsh-wiki": lcsh_wiki,
            "lcsh-rameau": lcsh_rameau,
        }[args.family]
        inst = builder(scale=args.scale, seed=args.seed)
    save_alignment_problem(args.directory, inst.problem)
    stats = inst.problem.stats()
    print(f"wrote {args.directory}: {stats.as_row()}")
    if inst.true_mate_a is not None and args.reference:
        with open(args.reference, "w") as fh:
            for a, b in enumerate(inst.true_mate_a.tolist()):
                if b >= 0:
                    fh.write(f"{a} {b}\n")
        print(f"reference alignment written to {args.reference}")


def _cmd_capture(args: argparse.Namespace) -> None:
    from repro.bench.figures import capture_traces
    from repro.generators.io import load_alignment_problem
    from repro.machine.serialize import save_traces

    problem = load_alignment_problem(args.directory)
    traces = capture_traces(
        problem,
        args.method,
        batch=args.batch,
        n_iter=args.iters,
        full_size_edges=args.full_edges,
    )
    save_traces(args.output, traces)
    print(f"captured {len(traces)} iteration traces of {args.method} "
          f"on {problem.name} -> {args.output}")


def _cmd_simulate(args: argparse.Namespace) -> None:
    from repro.bench.figures import average_timing
    from repro.bench.report import format_table
    from repro.machine import SimulatedRuntime, xeon_e7_8870
    from repro.machine.serialize import load_traces

    traces = load_traces(args.traces)
    topo = xeon_e7_8870()
    rows = []
    base = average_timing(
        SimulatedRuntime(topo, 1, "bound", "compact"), traces
    ).total
    for nt in args.threads:
        timing = average_timing(
            SimulatedRuntime(topo, nt, args.memory, args.affinity), traces
        )
        rows.append(
            [nt, f"{timing.total * 1e3:.2f}", f"{base / timing.total:.1f}"]
        )
    print(
        format_table(
            ["threads", "ms/iteration", "speedup"],
            rows,
            title=(
                f"Simulated {topo.name} "
                f"({args.memory}/{args.affinity}) on {args.traces}"
            ),
        )
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="netalign-mc",
        description="Regenerate the SC 2012 netalign-mc experiments.",
    )
    obs = parser.add_argument_group(
        "observability",
        "Attach repro.observe sinks for the whole invocation "
        "(docs/observability.md documents the event schema).",
    )
    obs.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="capture the full event stream (iterations, rounding, "
             "matching, simulator replay) to this JSONL file",
    )
    obs.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the final metrics-registry snapshot (counters, "
             "gauges, histograms) to this file",
    )
    obs.add_argument(
        "--metrics-format", choices=["json", "prometheus", "otlp", "text"],
        default="json", dest="metrics_format",
        help="--metrics-out rendering: raw snapshot rows (json), "
             "Prometheus text exposition, an OTLP-JSON document, or a "
             "human-readable summary with p50/p95/p99 histogram "
             "quantiles (text)",
    )
    obs.add_argument(
        "--live", action="store_true",
        help="print a live event report to stderr while running",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table2", help="problem-size table")
    p.add_argument("--bio-scale", type=float, default=1.0)
    p.add_argument("--scale", type=float, default=0.02)
    p.add_argument("--rameau-scale", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=3)
    p.set_defaults(func=_cmd_table2)

    p = sub.add_parser("fig2", help="quality vs expected degree")
    p.add_argument("--degrees", type=float, nargs="+",
                   default=[2, 4, 6, 8, 10, 12, 14, 16, 18, 20])
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_fig2)

    p = sub.add_parser("fig3", help="weight/overlap parameter sweep")
    p.add_argument("--problem", choices=["bio", "ontology"], default="bio")
    p.add_argument("--scale", type=float, default=0.25)
    p.add_argument("--iters", type=int, default=50)
    p.add_argument("--seed", type=int, default=3)
    p.set_defaults(func=_cmd_fig3)

    for name, func, default_scale in (
        ("fig4", _cmd_fig4, 0.02),
        ("fig5", _cmd_fig5, 0.01),
        ("fig6", _cmd_fig6, 0.02),
        ("fig7", _cmd_fig7, 0.02),
        ("headline", _cmd_headline, 0.02),
    ):
        p = sub.add_parser(name, help=f"{name} (simulated scaling)")
        p.add_argument("--scale", type=float, default=default_scale)
        p.add_argument("--seed", type=int, default=3)
        p.set_defaults(func=func)

    # The solver flags ``solve`` and ``realign`` share.
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument(
        "--config", default=None, metavar="PATH",
        help="JSON file fed through the method config's from_dict(); "
             "explicit flags override its entries",
    )
    solver.add_argument(
        "--matcher", choices=MATCHER_KINDS, default=None,
        help="rounding matcher; default approx for bp/mr",
    )
    solver.add_argument("--iters", type=int, default=None,
                        help="solver iterations; default 100 for bp/mr")
    solver.add_argument("--batch", type=int, default=None)
    solver.add_argument("--alpha", type=float, default=1.0)
    solver.add_argument("--beta", type=float, default=2.0)
    solver.add_argument("--output", default=None)

    p = sub.add_parser("solve", parents=[solver],
                       help="solve an SMAT problem directory")
    p.add_argument("directory")
    p.add_argument(
        "--method", choices=["bp", "mr", "isorank"],
        default="bp",
        help="any repro.align() method (mr = Klau's matching relaxation)",
    )
    p.add_argument(
        "--chaos", default=None, metavar="PLAN.json",
        help="install a deterministic FaultPlan (JSON, see "
             "docs/resilience.md) for the duration of the solve",
    )
    p.add_argument("--report", action="store_true",
                   help="print the full alignment metrics report")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser(
        "realign", parents=[solver],
        help="incrementally re-align an edited problem from a warm "
             "state (docs/incremental.md)",
    )
    p.add_argument("directory", help="SMAT problem directory (pre-edit)")
    p.add_argument(
        "--delta", default=None, metavar="DELTA.json",
        help="edit script (ProblemDelta JSON: l_add/l_drop/l_reweight/"
             "a_add/a_drop/b_add/b_drop); empty delta when omitted",
    )
    p.add_argument(
        "--state", default=None, metavar="STATE.npz",
        help="warm state from a previous run's --save-state; when "
             "omitted, a cold solve runs first to produce one",
    )
    p.add_argument(
        "--save-state", default=None, dest="save_state",
        metavar="STATE.npz",
        help="write the realigned run's warm state for the next delta",
    )
    p.add_argument(
        "--method", choices=["bp"], default="bp",
        help="warm-capable method (bp only for now)",
    )
    p.set_defaults(func=_cmd_realign)

    p = sub.add_parser(
        "serve",
        help="run the alignment-as-a-service HTTP job server "
             "(docs/serving.md)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080,
                   help="listen port (0 binds an ephemeral port)")
    p.add_argument("--workers", type=int, default=2,
                   help="worker threads executing jobs")
    p.add_argument("--cache-entries", type=int, default=128,
                   dest="cache_entries",
                   help="content-addressed result-cache bound "
                        "(0 disables caching)")
    p.add_argument("--max-queue", type=int, default=64, dest="max_queue",
                   help="bound on queued+running jobs (0 = unbounded)")
    p.add_argument("--max-active-per-tenant", type=int, default=8,
                   dest="max_active_per_tenant",
                   help="per-tenant active-job bound (0 = unbounded)")
    p.add_argument("--checkpoint-every", type=int, default=0,
                   dest="checkpoint_every", metavar="N",
                   help="snapshot running solves every N iterations so a "
                        "crashed attempt warm-resumes (0 = off)")
    p.add_argument("--telemetry", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="serve per-request metrics on GET /v1/metrics "
                        "(--no-telemetry disables recording)")
    p.add_argument("--store-path", default="", dest="store_path",
                   metavar="DIR",
                   help="persist jobs to a write-ahead journal in this "
                        "directory (selects the sqlite store; restarts "
                        "recover terminal results and requeue "
                        "interrupted jobs — docs/serving.md)")
    p.add_argument("--drain-timeout", type=float, default=10.0,
                   dest="drain_timeout", metavar="SECONDS",
                   help="how long SIGTERM/Ctrl-C waits for in-flight "
                        "jobs before the process exits")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "jobs",
        help="inspect or collect a persistent job store "
             "(serve --store-path)",
    )
    jobs_sub = p.add_subparsers(dest="jobs_command", required=True)
    pj = jobs_sub.add_parser("ls", help="list journaled jobs")
    pj.add_argument("store_path", help="store directory (--store-path)")
    pj.set_defaults(func=_cmd_jobs)
    pj = jobs_sub.add_parser(
        "gc", help="delete terminal jobs (queued/interrupted jobs stay)"
    )
    pj.add_argument("store_path", help="store directory (--store-path)")
    pj.add_argument("--older-than", type=float, default=0.0,
                    dest="older_than", metavar="SECONDS",
                    help="only collect jobs terminal for at least this "
                         "long (default: all terminal jobs)")
    pj.set_defaults(func=_cmd_jobs)

    p = sub.add_parser(
        "generate", help="write a problem instance as an SMAT directory"
    )
    p.add_argument("family", choices=_GENERATE_FAMILIES)
    p.add_argument("directory")
    p.add_argument("--n", type=int, default=400,
                   help="vertices (synthetic family)")
    p.add_argument("--degree", type=float, default=6.0,
                   help="expected L degree (synthetic family)")
    p.add_argument("--scale", type=float, default=0.1,
                   help="size fraction (named families)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reference", default=None,
                   help="also write the planted alignment to this file")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser(
        "capture",
        help="run a method on an SMAT problem and save its work traces",
    )
    p.add_argument("directory")
    p.add_argument("output", help="trace JSON path to write")
    p.add_argument("--method", choices=["bp", "mr"], default="bp")
    p.add_argument("--iters", type=int, default=6)
    p.add_argument("--batch", type=int, default=20)
    p.add_argument("--full-edges", type=int, default=None,
                   help="extrapolate traces to this |E_L|")
    p.set_defaults(func=_cmd_capture)

    p = sub.add_parser(
        "simulate", help="replay saved traces on the simulated machine"
    )
    p.add_argument("traces", help="trace JSON path (from `capture`)")
    p.add_argument("--threads", type=int, nargs="+",
                   default=[1, 10, 20, 40, 80])
    p.add_argument("--memory", choices=["bound", "interleave"],
                   default="interleave")
    p.add_argument("--affinity", choices=["compact", "scatter"],
                   default="scatter")
    p.set_defaults(func=_cmd_simulate)
    return parser


def _setup_observability(args: argparse.Namespace) -> list:
    """Attach the sinks requested by the global flags; return them."""
    from repro.observe import ConsoleSink, JSONLSink, get_bus

    bus = get_bus()
    sinks = []
    if args.trace_out:
        sinks.append(bus.add_sink(JSONLSink(args.trace_out)))
    if args.live:
        sinks.append(bus.add_sink(ConsoleSink()))
    return sinks


def _teardown_observability(args: argparse.Namespace, sinks: list) -> None:
    """Detach sinks and write the metrics snapshot if requested."""
    import json

    from repro.observe import (
        get_bus, otlp_json, prometheus_text, text_summary,
    )

    bus = get_bus()
    for sink in sinks:
        bus.remove_sink(sink)
        sink.close()
    if args.metrics_out:
        fmt = getattr(args, "metrics_format", "json")
        if fmt == "prometheus":
            text = prometheus_text(bus.metrics)
        elif fmt == "otlp":
            text = json.dumps(otlp_json(bus.metrics), indent=2)
        elif fmt == "text":
            text = text_summary(bus.metrics)
        else:
            text = json.dumps(bus.metrics.snapshot(), indent=2)
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"metrics snapshot ({fmt}) written to {args.metrics_out}")


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "solve" and args.batch is not None \
            and args.method != "bp":
        # Only BP batches its roundings; any other method would drop it.
        parser.error(f"argument --batch: not allowed with --method "
                     f"{args.method}")
    if args.metrics_out and not (args.trace_out or args.live):
        # Metrics updates ride the same active-bus guard as events; a
        # metrics-only capture still needs the bus switched on.
        from repro.observe import NullSink, get_bus

        sinks = [get_bus().add_sink(NullSink())]
    else:
        sinks = _setup_observability(args)
    try:
        args.func(args)
    finally:
        _teardown_observability(args, sinks)
    return 0


if __name__ == "__main__":
    sys.exit(main())
