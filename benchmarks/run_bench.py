#!/usr/bin/env python
"""Benchmark trajectory harness: run the kernel + backend groups
(``BENCH_2.json``), the resilience/supervision overhead group
(``BENCH_5.json``), the HTTP serving latency group (``BENCH_6.json``),
the incremental-realignment group (``BENCH_7.json``), the
telemetry-exporter group (``BENCH_8.json``), and the durable-store
group (``BENCH_10.json``) at the repo root.  ``benchmarks/history/``
keeps ``BENCH_3.json`` (flat BP vs the multilevel V-cycle) and
``BENCH_4.json`` (python-vs-numpy matching kernels): the code they
timed is gone, so nothing regenerates them and the trajectory gate,
which reads the repo root, no longer checks them.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/run_bench.py [--out BENCH_2.json]
        [--repeats 5] [--scale 0.01]
        [--group all|kernels-backend|resilience|
                 serve|incremental|export|durability]
        [--out5 BENCH_5.json]
        [--out6 BENCH_6.json] [--out7 BENCH_7.json]
        [--out8 BENCH_8.json] [--out10 BENCH_10.json] [--smoke]

The file captures *this machine's* numbers — machine info (platform,
CPU count, library versions) rides along so readers can judge whether a
recorded speedup is meaningful.

Each benchmark row: ``{"group", "name", "median_s", "stddev_s",
"repeats", "samples_s", "extra"}``.  Kernel rows time the same loops as
``bench_kernels.py``; backend rows time the shared workloads from
``backend_workloads.py`` (the same functions ``bench_backend.py``
asserts on).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np
import scipy

from backend_workloads import (
    summarize,
    time_klau_warm,
    time_repeated_rounding,
    wiki_problem,
)
from repro.core.othermax import othermax_col, othermax_row
from repro.sparse.ops import row_sums, spmv


def machine_info() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
    }


def bench_warnings(workers: int) -> list[str]:
    """Data-quality warnings recorded alongside the numbers.

    A 1-CPU runner timing a 2-worker server measures contention, not
    latency — BENCH_6 runs there show stddev approaching the median.
    Recording the condition in the JSON lets readers (and the
    regression guard) discount those rows instead of chasing phantom
    regressions.
    """
    warns = []
    cpus = os.cpu_count() or 1
    if cpus < workers:
        warns.append(
            f"cpu_count={cpus} < workers={workers}: worker threads "
            "contend for the same CPU, so latency medians are inflated "
            "and stddev can approach the median; treat absolute "
            "timings as indicative only"
        )
    return warns


def timeit(fn, repeats: int) -> list[float]:
    fn()  # warmup
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return samples


def kernel_benchmarks(problem, repeats: int) -> list[dict]:
    """The ``bench_kernels.py`` loops, timed without pytest-benchmark."""
    rng = np.random.default_rng(0)
    g_vec = rng.normal(size=problem.n_edges_l)
    x = np.random.default_rng(1).random(problem.n_edges_l)
    out = np.empty(problem.n_edges_l)
    s = problem.squares
    rows = []
    for name, fn in (
        ("othermax_row", lambda: othermax_row(problem.ell, g_vec, out)),
        ("othermax_col", lambda: othermax_col(problem.ell, g_vec, out)),
        ("spmv_squares", lambda: spmv(s, x, out)),
        ("row_sums_squares", lambda: row_sums(s, out)),
    ):
        rows.append({
            "group": "kernels", "name": name,
            **summarize(timeit(fn, repeats)),
            "extra": {"n_edges_l": problem.n_edges_l, "squares_nnz": s.nnz},
        })
        print(f"  kernels/{name}: {rows[-1]['median_s'] * 1e3:.2f} ms")
    return rows


def backend_benchmarks(problem, repeats: int) -> list[dict]:
    rows = []
    r = time_repeated_rounding(problem, rounds=5, repeats=repeats)
    for label in ("cold", "warm"):
        rows.append({
            "group": "backend", "name": f"repeated_rounding_{label}",
            **summarize(r[label]),
            "extra": {
                "rounds": 5,
                "weight": r[f"weight_{label}"],
                **({"rows_reused": r["rows_reused"],
                    "rows_total": r["rows_total"],
                    "search_depth": r["search_depth"]}
                   if label == "warm" else {}),
            },
        })
        print(f"  backend/repeated_rounding_{label}: "
              f"{rows[-1]['median_s']:.3f} s")

    k = time_klau_warm(problem, n_iter=15, repeats=max(2, repeats // 2))
    for label in ("cold", "warm"):
        rows.append({
            "group": "backend", "name": f"klau_{label}",
            **summarize(k[label]),
            "extra": {"n_iter": 15, "objective": k[f"objective_{label}"]},
        })
        print(f"  backend/klau_{label}: {rows[-1]['median_s']:.3f} s")
    return rows


def resilience_benchmarks(
    repeats: int, smoke: bool
) -> tuple[list[dict], dict]:
    """Supervision overhead and chaos recovery (``BENCH_5.json``).

    The fault-free rows run the same ``solve_many`` batch on the
    supervisor twice (serial backend, observe off): ``baseline`` with
    no policy, where each task runs once, and ``supervised`` under a
    default ``ResilienceConfig`` — the ratio is the supervision tax,
    contracted in ``docs/resilience.md`` to stay under 2%.  The chaos
    row re-runs the supervised batch with a deterministic crash plan and
    asserts the recovered objectives are bit-identical to the
    fault-free run.
    """
    from repro.accel import ParallelConfig
    from repro.accel.serve import solve_many
    from repro.generators import powerlaw_alignment_instance
    from repro.resilience import (
        FaultPlan, FaultSpec, ResilienceConfig, fault_plan,
    )

    n = 300 if smoke else 2_000
    count = 3 if smoke else 6
    n_iter = 8 if smoke else 25
    problems = []
    for seed in range(count):
        inst = powerlaw_alignment_instance(
            n=n, expected_degree=4.0, p_perturb=8.0 / n, seed=seed,
            name=f"powerlaw-n{n}-s{seed}",
        )
        _ = inst.problem.squares  # build S outside every timed region
        problems.append(inst.problem)
    cfg = {"n_iter": n_iter, "matcher": "approx", "batch": 4}
    print(f"  solve_many instance: {count} problems, n={n}, "
          f"n_iter={n_iter}")

    def run(parallel):
        return solve_many(problems, "bp", config=cfg, parallel=parallel)

    rows = []
    reps = max(2, repeats // 2) if smoke else max(3, repeats)
    results: dict[str, list[float]] = {}
    medians: dict[str, float] = {}
    for label, parallel in (
        # No ResilienceConfig: the supervisor's run-once policy.
        ("baseline", ParallelConfig(backend="serial")),
        ("supervised", ParallelConfig(
            backend="serial", resilience=ResilienceConfig())),
    ):
        out: list = []

        def fn(parallel=parallel, out=out):
            out.clear()
            out.extend(run(parallel))

        samples = timeit(fn, reps)
        results[label] = [r.objective for r in out]
        medians[label] = summarize(samples)["median_s"]
        row = {
            "group": "resilience", "name": f"solve_many_{label}",
            **summarize(samples),
            "extra": {"n_problems": count, "n": n, "n_iter": n_iter,
                      "backend": "serial"},
        }
        rows.append(row)
        print(f"  resilience/solve_many_{label}: "
              f"{row['median_s']:.3f} s")
    overhead = medians["supervised"] / medians["baseline"] - 1.0
    rows[-1]["extra"]["overhead_vs_baseline"] = overhead
    print(f"  supervision overhead: {overhead * 100:+.2f}% "
          f"(contract: < 2%)")
    if results["supervised"] != results["baseline"]:
        raise AssertionError(
            "supervised serial solve_many changed the objectives: "
            f"{results['supervised']} vs {results['baseline']}"
        )

    # ---- chaos recovery: crash task 1's first attempt ----------------
    plan = FaultPlan(
        [FaultSpec("crash", site="parallel_map", task_index=1)], seed=5
    )
    chaos_objs: list[float] = []

    def chaos_run():
        plan.reset()
        with fault_plan(plan):
            res = run(ParallelConfig(
                backend="serial", resilience=ResilienceConfig()))
        chaos_objs[:] = [r.objective for r in res]

    samples = timeit(chaos_run, max(2, reps // 2))
    fired = len(plan.fired())
    row = {
        "group": "resilience", "name": "solve_many_chaos_crash",
        **summarize(samples),
        "extra": {"n_problems": count, "faults_fired": fired,
                  "recovered": chaos_objs == results["baseline"]},
    }
    rows.append(row)
    print(f"  resilience/solve_many_chaos_crash: "
          f"{row['median_s']:.3f} s ({fired} fault(s) fired)")
    if not fired:
        raise AssertionError("chaos plan never fired")
    if chaos_objs != results["baseline"]:
        raise AssertionError(
            "chaos recovery changed the objectives: "
            f"{chaos_objs} vs {results['baseline']}"
        )
    instance = {
        "family": "powerlaw", "n": n, "count": count, "n_iter": n_iter,
        "smoke": smoke,
    }
    return rows, instance


def serve_benchmarks(repeats: int, smoke: bool) -> tuple[list[dict], dict]:
    """Submit-to-result latency through the HTTP job server
    (``BENCH_6.json``).

    For each problem size, one *cold* row (every submission has a fresh
    cache key, so the full decode→solve→encode path is timed through a
    real socket with ``POST /jobs?wait=1``) and one *cached* row (an
    identical resubmission answered from the content-addressed cache).
    The cached/cold ratio is the headline: it is what repeated
    identical submissions — the benchmark-harness access pattern —
    actually cost.
    """
    import http.client

    from repro.generators import powerlaw_alignment_instance
    from repro.serve import ServeConfig, problem_to_wire, serve_in_thread

    sizes = (("small", 100 if smoke else 300),
             ("medium", 300 if smoke else 2_000))
    n_iter = 4 if smoke else 10
    reps = max(2, repeats // 2) if smoke else max(3, repeats)

    def post_wait(base_url: str, body: dict) -> dict:
        host, port = base_url.removeprefix("http://").rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=600)
        try:
            conn.request("POST", "/v1/jobs?wait=1",
                         body=json.dumps(body).encode(),
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            doc = json.loads(resp.read())
        finally:
            conn.close()
        if resp.status != 200 or doc.get("state") != "done":
            raise AssertionError(
                f"serve bench submission failed: {resp.status} {doc}"
            )
        return doc

    rows = []
    config = ServeConfig(port=0, workers=2, wait_timeout_s=600.0)
    with serve_in_thread(config) as srv:
        for label, n in sizes:
            inst = powerlaw_alignment_instance(
                n=n, expected_degree=4.0, p_perturb=8.0 / n, seed=11,
                name=f"serve-{label}",
            )
            wire = problem_to_wire(inst.problem)
            print(f"  serve instance {label}: n={n}, "
                  f"|E_L|={inst.problem.n_edges_l}, n_iter={n_iter}")
            seeds = iter(range(10_000))

            def cold(wire=wire, seeds=seeds):
                # A fresh seed gives a fresh cache key: every sample
                # pays the full solve.
                doc = post_wait(srv.base_url, {
                    "method": "bp",
                    "config": {"n_iter": n_iter, "matcher": "approx",
                               "seed": next(seeds)},
                    "problem": wire,
                })
                assert doc["cached"] is False

            samples = timeit(cold, reps)
            cold_median = summarize(samples)["median_s"]
            rows.append({
                "group": "serve", "name": f"submit_cold_{label}",
                **summarize(samples),
                "extra": {"n": n, "n_edges_l": inst.problem.n_edges_l,
                          "n_iter": n_iter, "transport": "http"},
            })
            print(f"  serve/submit_cold_{label}: {cold_median:.3f} s")

            body = {"method": "bp",
                    "config": {"n_iter": n_iter, "matcher": "approx"},
                    "problem": wire}
            post_wait(srv.base_url, body)  # populate the cache entry

            def cached(body=body):
                doc = post_wait(srv.base_url, body)
                assert doc["cached"] is True

            samples = timeit(cached, reps)
            cached_median = summarize(samples)["median_s"]
            rows.append({
                "group": "serve", "name": f"submit_cached_{label}",
                **summarize(samples),
                "extra": {"n": n, "n_edges_l": inst.problem.n_edges_l,
                          "n_iter": n_iter, "transport": "http",
                          "speedup_vs_cold": cold_median / cached_median},
            })
            print(f"  serve/submit_cached_{label}: {cached_median:.4f} s "
                  f"({cold_median / cached_median:.0f}x vs cold)")
    instance = {
        "family": "powerlaw", "sizes": dict(sizes), "n_iter": n_iter,
        "workers": config.workers, "smoke": smoke,
    }
    return rows, instance


def incremental_benchmarks(
    repeats: int, smoke: bool
) -> tuple[list[dict], dict]:
    """Warm realignment vs. from-scratch re-solve (``BENCH_7.json``).

    One converged BP solve seeds a :class:`~repro.incremental.WarmState`;
    then, for each perturbation rate, the *cold* row re-solves the
    perturbed problem from scratch (problem construction + squares
    build + full BP) and the *warm* row runs
    :func:`repro.incremental.realign` (incremental squares maintenance
    + active-set BP seeded from the warm state).  ``speedup_vs_cold``
    and ``objective_ratio`` ride along on each warm row; the rate-0 run
    is asserted bit-identical to the seed result.  The instance keeps
    ``n=2000`` even under ``--smoke`` — the speedup claim needs a
    non-toy active-set fraction.
    """
    from repro.core import BPConfig
    from repro.core.problem import NetworkAlignmentProblem
    from repro.generators import powerlaw_alignment_instance
    from repro.generators.perturb import edit_script
    from repro.incremental import WarmState, realign
    from repro.registry import align

    n = 2_000
    n_iter = 20 if smoke else 60
    reps = max(2, repeats // 2) if smoke else max(3, repeats)
    inst = powerlaw_alignment_instance(
        n=n, expected_degree=4.0, p_perturb=8.0 / n, seed=13,
        name=f"incr-n{n}",
    )
    base = inst.problem
    _ = base.squares  # the seed solve starts from a built S
    cfg = BPConfig(n_iter=n_iter, matcher="approx", batch=1)
    res0 = align(base, "bp", cfg, keep_state=True)
    warm = WarmState.from_result(base, res0)
    print(f"  incremental instance: n={n}, |E_L|={base.n_edges_l}, "
          f"nnz_s={base.squares.nnz}, n_iter={n_iter}")

    rows = []
    for label, rate in (("rate0", 0.0), ("rate1", 0.01), ("rate5", 0.05)):
        delta = edit_script(base, l_edge_rate=rate, weight_rate=rate,
                            seed=17)
        cold_box: list = []

        def cold(delta=delta, cold_box=cold_box):
            # Re-apply the delta and rebuild everything from scratch:
            # fresh problem object, fresh squares, full cold BP.
            perturbed, _ = base.apply_delta(delta)
            p = NetworkAlignmentProblem(
                perturbed.a_graph, perturbed.b_graph, perturbed.ell,
                alpha=perturbed.alpha, beta=perturbed.beta,
            )
            cold_box[:] = [align(p, "bp", cfg)]

        samples = timeit(cold, reps)
        cold_median = summarize(samples)["median_s"]
        cold_res = cold_box[0]
        rows.append({
            "group": "incremental", "name": f"realign_cold_{label}",
            **summarize(samples),
            "extra": {"n": n, "rate": rate, "n_iter": n_iter,
                      "objective": cold_res.objective},
        })
        print(f"  incremental/realign_cold_{label}: {cold_median:.3f} s")

        warm_box: list = []

        def warm_run(delta=delta, warm_box=warm_box):
            warm_box[:] = list(realign(base, delta, warm, config=cfg,
                                       keep_state=False))

        samples = timeit(warm_run, reps)
        warm_median = summarize(samples)["median_s"]
        _, warm_res, _ = warm_box
        ratio = warm_res.objective / cold_res.objective
        rows.append({
            "group": "incremental", "name": f"realign_warm_{label}",
            **summarize(samples),
            "extra": {
                "n": n, "rate": rate, "n_iter": n_iter,
                "objective": warm_res.objective,
                "objective_ratio": ratio,
                "speedup_vs_cold": cold_median / warm_median,
                "iterations_run": warm_res.params["iterations_run"],
                "full_sweeps": warm_res.params["full_sweeps"],
            },
        })
        print(f"  incremental/realign_warm_{label}: {warm_median:.3f} s "
              f"({cold_median / warm_median:.1f}x vs cold, "
              f"objective ratio {ratio:.4f})")
        if rate == 0.0:
            if (warm_res.objective != res0.objective
                    or not np.array_equal(warm_res.matching.mate_a,
                                          res0.matching.mate_a)):
                raise AssertionError(
                    "rate-0 warm realignment is not bit-identical to "
                    "the seed result"
                )
            print("  incremental/rate0 bit-identity: OK")
        elif abs(1.0 - ratio) > 0.005:
            raise AssertionError(
                f"warm objective drifted {abs(1.0 - ratio):.2%} from "
                f"cold at rate {rate} (contract: within 0.5%)"
            )
    instance = {
        "family": "powerlaw", "n": n, "expected_degree": 4.0,
        "p_perturb": 8.0 / n, "seed": 13, "n_iter": n_iter,
        "n_edges_l": base.n_edges_l, "nnz_s": base.squares.nnz,
        "smoke": smoke,
    }
    return rows, instance


def export_benchmarks(repeats: int, smoke: bool) -> tuple[list[dict], dict]:
    """Exporter render latency and serve-telemetry overhead
    (``BENCH_8.json``).

    Two render rows time :func:`repro.observe.prometheus_text` and
    :func:`repro.observe.otlp_json` over a registry populated to a busy
    server's shape.  Two submit rows time a batch of *cached* HTTP
    submissions against servers with telemetry off and on — the cached
    path maximizes the relative cost of per-request metric recording,
    so ``overhead_frac`` on the telemetry-on row is a worst-case bound
    (the acceptance target is < 2%).  The last row scrapes
    ``GET /v1/metrics`` on the live telemetry-on server.
    """
    import http.client

    from repro.generators import powerlaw_alignment_instance
    from repro.observe import MetricsRegistry, otlp_json, prometheus_text
    from repro.serve import ServeConfig, problem_to_wire, serve_in_thread

    reps = max(3, repeats)
    reg = MetricsRegistry()
    n_series = 40 if smoke else 200
    for i in range(n_series):
        reg.counter("bench_requests_total", method="GET",
                    route=f"/r{i % 8}", status=200, shard=i).inc(i + 1)
        reg.gauge("bench_occupancy", shard=i % 16).set(float(i))
    for r in range(8):
        hist = reg.histogram("bench_latency_seconds", route=f"/r{r}")
        for i in range(250):
            hist.observe((i % 37) * 1e-3)
    n_lines = len(prometheus_text(reg).splitlines())

    rows = []
    for name, fn in (("render_prometheus", lambda: prometheus_text(reg)),
                     ("render_otlp", lambda: otlp_json(reg))):
        samples = timeit(fn, reps)
        rows.append({
            "group": "export", "name": name, **summarize(samples),
            "extra": {"n_series": n_series, "prom_lines": n_lines},
        })
        print(f"  export/{name}: "
              f"{summarize(samples)['median_s'] * 1e3:.2f} ms "
              f"({n_lines} exposition lines)")

    def request(base_url: str, method: str, path: str,
                body: dict | None = None) -> tuple[int, bytes]:
        host, port = base_url.removeprefix("http://").rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=600)
        try:
            payload = json.dumps(body).encode() if body else None
            conn.request(method, path, body=payload,
                         headers={"Content-Type": "application/json"}
                         if body else {})
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    n = 100 if smoke else 300
    inst = powerlaw_alignment_instance(
        n=n, expected_degree=4.0, p_perturb=8.0 / n, seed=11,
        name="export-bench",
    )
    body = {"method": "bp",
            "config": {"n_iter": 4 if smoke else 10, "matcher": "approx"},
            "problem": problem_to_wire(inst.problem)}
    batch = 3 if smoke else 10
    mode_samples: dict[str, list[float]] = {}
    scrape_samples: list[float] = []
    for mode in ("off", "on"):
        config = ServeConfig(port=0, workers=2, wait_timeout_s=600.0,
                             telemetry=(mode == "on"))
        with serve_in_thread(config) as srv:
            status, data = request(srv.base_url, "POST", "/v1/jobs?wait=1",
                                   body)
            doc = json.loads(data)
            if status != 200 or doc.get("state") != "done":
                raise AssertionError(
                    f"export bench submission failed: {status} {doc}"
                )

            def cached_batch(base_url=srv.base_url):
                for _ in range(batch):
                    status, data = request(base_url, "POST",
                                           "/v1/jobs?wait=1", body)
                    assert status == 200 and json.loads(data)["cached"]

            mode_samples[mode] = timeit(cached_batch, reps)
            if mode == "on":
                def scrape(base_url=srv.base_url):
                    status, data = request(base_url, "GET", "/v1/metrics")
                    assert status == 200 and b"# TYPE" in data

                scrape_samples = timeit(scrape, reps)
    off_median = summarize(mode_samples["off"])["median_s"]
    on_median = summarize(mode_samples["on"])["median_s"]
    overhead = on_median / off_median - 1.0
    for mode in ("off", "on"):
        extra = {"n": n, "batch": batch, "transport": "http"}
        if mode == "on":
            extra["overhead_frac"] = overhead
        rows.append({
            "group": "export", "name": f"submit_cached_telemetry_{mode}",
            **summarize(mode_samples[mode]),
            "extra": extra,
        })
    print(f"  export/telemetry overhead: {overhead * 100:+.2f}% "
          f"(on {on_median:.4f} s vs off {off_median:.4f} s "
          f"per {batch}-request batch)")
    rows.append({
        "group": "export", "name": "scrape_live",
        **summarize(scrape_samples),
        "extra": {"endpoint": "/v1/metrics", "transport": "http"},
    })
    print(f"  export/scrape_live: "
          f"{summarize(scrape_samples)['median_s'] * 1e3:.2f} ms")
    instance = {
        "family": "powerlaw", "n": n, "batch": batch,
        "n_series": n_series, "smoke": smoke,
    }
    return rows, instance


def durability_benchmarks(
    repeats: int, smoke: bool
) -> tuple[list[dict], dict]:
    """Journal overhead and restart-recovery latency (``BENCH_10.json``).

    The overhead pair runs the same batch of fresh-cache-key
    submissions through a memory-store worker pool and through a
    sqlite-store pool journaling every transition to disk —
    ``overhead_frac`` on the sqlite row is the write-ahead-journal tax
    (acceptance target: < 3%).  The recovery rows time
    ``SqliteJobStore`` startup replay against journals holding D
    queued jobs (workers=0, so the timing is pure replay plus quota
    restoration) and against a journal of N terminal jobs (replay plus
    result-cache repopulation).
    """
    import shutil
    import tempfile

    from repro.generators import powerlaw_alignment_instance
    from repro.serve import ServeConfig, SqliteJobStore, make_store
    from repro.serve import problem_to_wire

    # The journal tax is paid per job, not per iteration (one insert
    # carrying the problem doc, a handful of transition commits, one
    # result write), so the *fraction* depends on how long the solve
    # runs: measure on a job long enough to be representative of the
    # paper's instances (which solve for seconds), not a toy that
    # finishes in the time one journal write takes.
    n = 100 if smoke else 1_000
    n_iter = 4 if smoke else 300
    batch = 3 if smoke else 4
    reps = max(2, repeats // 2) if smoke else max(3, repeats)
    inst = powerlaw_alignment_instance(
        n=n, expected_degree=4.0, p_perturb=8.0 / n, seed=11,
        name="durability-bench",
    )
    wire = problem_to_wire(inst.problem)
    seeds = iter(range(1_000_000))
    print(f"  durability instance: n={n}, "
          f"|E_L|={inst.problem.n_edges_l}, n_iter={n_iter}, "
          f"batch={batch}")

    def fresh_doc() -> dict:
        # A fresh seed gives a fresh cache key: every submission pays
        # the full solve (and, on sqlite, the full journal).
        return {"method": "bp",
                "config": {"n_iter": n_iter, "matcher": "approx",
                           "seed": next(seeds)},
                "problem": wire}

    def submit_batch(store):
        jobs = [store.submit(fresh_doc(), "default")
                for _ in range(batch)]
        for job in jobs:
            if not job.wait_terminal(600.0) or job.state != "done":
                raise AssertionError(
                    f"durability bench job ended {job.state}"
                )

    class _TimedStore(SqliteJobStore):
        """A sqlite store accumulating time spent in journal writes.

        A/B wall-clock comparison against the memory store cannot see
        a few-percent tax under this container's timing drift, so the
        tax is attributed directly: every ``_persist_*`` call is timed
        and summed.  This is *conservative* — submit-side writes
        overlap with a worker's solve, so the wall-clock impact is at
        most what is measured here.
        """

        persist_s = 0.0

        def _persist_submit(self, job):
            t0 = time.perf_counter()
            super()._persist_submit(job)
            _TimedStore.persist_s += time.perf_counter() - t0

        def _persist_transition(self, job):
            t0 = time.perf_counter()
            super()._persist_transition(job)
            _TimedStore.persist_s += time.perf_counter() - t0

    rows = []
    medians: dict[str, float] = {}
    dirs: list[str] = []
    try:
        dirs.append(tempfile.mkdtemp(prefix="repro-bench-store-"))
        stores = {
            "memory": make_store(ServeConfig(
                port=0, workers=1, max_queue=64,
                max_active_per_tenant=64)),
            "sqlite": _TimedStore(ServeConfig(
                port=0, workers=1, max_queue=64,
                max_active_per_tenant=64, store_path=dirs[-1])),
        }
        mode_samples: dict[str, list[float]] = {m: [] for m in stores}
        try:
            for mode, store in stores.items():
                submit_batch(store)  # warmup
            _TimedStore.persist_s = 0.0
            for _ in range(reps):
                for mode, store in stores.items():
                    t0 = time.perf_counter()
                    submit_batch(store)
                    mode_samples[mode].append(time.perf_counter() - t0)
        finally:
            for store in stores.values():
                store.shutdown()
        overhead = _TimedStore.persist_s / sum(mode_samples["sqlite"])
        for mode in ("memory", "sqlite"):
            medians[mode] = summarize(mode_samples[mode])["median_s"]
            extra = {"n": n, "n_iter": n_iter, "batch": batch,
                     "store": mode}
            if mode == "sqlite":
                extra["overhead_frac"] = overhead
                extra["persist_ms_per_job"] = (
                    _TimedStore.persist_s / (reps * batch) * 1e3
                )
            rows.append({
                "group": "durability", "name": f"submit_batch_{mode}",
                **summarize(mode_samples[mode]), "extra": extra,
            })
            print(f"  durability/submit_batch_{mode}: "
                  f"{medians[mode]:.3f} s")
        print(f"  journal overhead: {overhead * 100:+.2f}% of service "
              f"time ({rows[-1]['extra']['persist_ms_per_job']:.1f} "
              f"ms/job; contract: < 3%)")

        # ---- recovery replay vs queue depth --------------------------
        depths = (4, 16) if smoke else (8, 32, 128)
        for depth in depths:
            dirs.append(tempfile.mkdtemp(prefix="repro-bench-store-"))
            cfg = ServeConfig(port=0, workers=0, max_queue=depth + 1,
                              max_active_per_tenant=depth + 1,
                              store_path=dirs[-1])
            store = SqliteJobStore(cfg)
            for _ in range(depth):
                store.submit(fresh_doc(), "default")
            store.shutdown()  # sqlite shutdown keeps queued jobs

            def reopen(cfg=cfg, depth=depth):
                s = SqliteJobStore(cfg)
                if s.recovered["queued"] != depth:
                    raise AssertionError(
                        f"expected {depth} requeued jobs, got "
                        f"{s.recovered}"
                    )
                s.shutdown()

            samples = timeit(reopen, reps)
            rows.append({
                "group": "durability", "name": f"recover_queued_{depth}",
                **summarize(samples),
                "extra": {"depth": depth, "outcome": "queued"},
            })
            print(f"  durability/recover_queued_{depth}: "
                  f"{rows[-1]['median_s'] * 1e3:.1f} ms")

        # ---- recovery of terminal jobs (cache repopulation) ----------
        count = 4 if smoke else 12
        dirs.append(tempfile.mkdtemp(prefix="repro-bench-store-"))
        run_cfg = ServeConfig(port=0, workers=1, max_queue=count + 1,
                              max_active_per_tenant=count + 1,
                              store_path=dirs[-1])
        store = SqliteJobStore(run_cfg)
        try:
            for _ in range(count):
                job = store.submit(fresh_doc(), "default")
                if not job.wait_terminal(600.0):
                    raise AssertionError("terminal-recovery seed hung")
        finally:
            store.shutdown()
        idle_cfg = ServeConfig(port=0, workers=0, store_path=dirs[-1])

        def reopen_terminal():
            s = SqliteJobStore(idle_cfg)
            if s.recovered["terminal"] != count:
                raise AssertionError(
                    f"expected {count} terminal jobs, got {s.recovered}"
                )
            s.shutdown()

        samples = timeit(reopen_terminal, reps)
        rows.append({
            "group": "durability", "name": f"recover_terminal_{count}",
            **summarize(samples),
            "extra": {"depth": count, "outcome": "terminal"},
        })
        print(f"  durability/recover_terminal_{count}: "
              f"{rows[-1]['median_s'] * 1e3:.1f} ms")
    finally:
        for directory in dirs:
            shutil.rmtree(directory, ignore_errors=True)
    instance = {
        "family": "powerlaw", "n": n, "n_iter": n_iter, "batch": batch,
        "depths": list(depths), "terminal_count": count, "smoke": smoke,
    }
    return rows, instance


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(
        Path(__file__).resolve().parent.parent / "BENCH_2.json"))
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--scale", type=float, default=0.01)
    ap.add_argument("--group", default="all",
                    choices=["all", "kernels-backend", "resilience",
                             "serve", "incremental", "export",
                             "durability"])
    ap.add_argument("--out5", default=str(
        Path(__file__).resolve().parent.parent / "BENCH_5.json"))
    ap.add_argument("--out6", default=str(
        Path(__file__).resolve().parent.parent / "BENCH_6.json"))
    ap.add_argument("--out7", default=str(
        Path(__file__).resolve().parent.parent / "BENCH_7.json"))
    ap.add_argument("--out8", default=str(
        Path(__file__).resolve().parent.parent / "BENCH_8.json"))
    ap.add_argument("--out10", default=str(
        Path(__file__).resolve().parent.parent / "BENCH_10.json"))
    ap.add_argument("--smoke", action="store_true",
                    help="shrink the groups to CI-size shape checks "
                         "(numbers are not performance claims)")
    args = ap.parse_args(argv)

    if args.group in ("all", "kernels-backend"):
        print(f"building wiki problem (scale={args.scale}) ...")
        problem = wiki_problem(scale=args.scale)
        print(f"  n_a={problem.ell.n_a} n_b={problem.ell.n_b} "
              f"n_edges_l={problem.n_edges_l}")

        rows = kernel_benchmarks(problem, args.repeats)
        rows += backend_benchmarks(problem, args.repeats)

        doc = {
            "schema": 1,
            "generated_by": "benchmarks/run_bench.py",
            "instance": {"family": "lcsh_wiki", "scale": args.scale,
                         "seed": 3,
                         "n_a": problem.ell.n_a, "n_b": problem.ell.n_b,
                         "n_edges_l": problem.n_edges_l},
            "machine": machine_info(),
            "benchmarks": rows,
        }
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {args.out} ({len(rows)} benchmarks)")

    if args.group in ("all", "resilience"):
        print("running resilience benchmarks "
              f"(smoke={args.smoke}) ...")
        rows5, instance5 = resilience_benchmarks(args.repeats, args.smoke)
        doc5 = {
            "schema": 1,
            "generated_by": "benchmarks/run_bench.py --group resilience",
            "instance": instance5,
            "machine": machine_info(),
            "benchmarks": rows5,
        }
        Path(args.out5).write_text(json.dumps(doc5, indent=2) + "\n")
        print(f"wrote {args.out5} ({len(rows5)} benchmarks)")

    if args.group in ("all", "serve"):
        print(f"running serving benchmarks (smoke={args.smoke}) ...")
        rows6, instance6 = serve_benchmarks(args.repeats, args.smoke)
        doc6 = {
            "schema": 1,
            "generated_by": "benchmarks/run_bench.py --group serve",
            "instance": instance6,
            "machine": machine_info(),
            "warnings": bench_warnings(instance6["workers"]),
            "benchmarks": rows6,
        }
        Path(args.out6).write_text(json.dumps(doc6, indent=2) + "\n")
        print(f"wrote {args.out6} ({len(rows6)} benchmarks)")
        for warning in doc6["warnings"]:
            print(f"  WARNING: {warning}")

    if args.group in ("all", "incremental"):
        print(f"running incremental benchmarks (smoke={args.smoke}) ...")
        rows7, instance7 = incremental_benchmarks(args.repeats, args.smoke)
        doc7 = {
            "schema": 1,
            "generated_by": "benchmarks/run_bench.py --group incremental",
            "instance": instance7,
            "machine": machine_info(),
            "warnings": bench_warnings(1),
            "benchmarks": rows7,
        }
        Path(args.out7).write_text(json.dumps(doc7, indent=2) + "\n")
        print(f"wrote {args.out7} ({len(rows7)} benchmarks)")

    if args.group in ("all", "export"):
        print(f"running exporter benchmarks (smoke={args.smoke}) ...")
        rows8, instance8 = export_benchmarks(args.repeats, args.smoke)
        doc8 = {
            "schema": 1,
            "generated_by": "benchmarks/run_bench.py --group export",
            "instance": instance8,
            "machine": machine_info(),
            "warnings": bench_warnings(2),
            "benchmarks": rows8,
        }
        Path(args.out8).write_text(json.dumps(doc8, indent=2) + "\n")
        print(f"wrote {args.out8} ({len(rows8)} benchmarks)")
        for warning in doc8["warnings"]:
            print(f"  WARNING: {warning}")

    if args.group in ("all", "durability"):
        print(f"running durability benchmarks (smoke={args.smoke}) ...")
        rows10, instance10 = durability_benchmarks(args.repeats,
                                                   args.smoke)
        doc10 = {
            "schema": 1,
            "generated_by": "benchmarks/run_bench.py --group durability",
            "instance": instance10,
            "machine": machine_info(),
            "warnings": bench_warnings(1),
            "benchmarks": rows10,
        }
        Path(args.out10).write_text(json.dumps(doc10, indent=2) + "\n")
        print(f"wrote {args.out10} ({len(rows10)} benchmarks)")
        for warning in doc10["warnings"]:
            print(f"  WARNING: {warning}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
