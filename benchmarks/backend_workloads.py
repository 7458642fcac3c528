"""Shared workloads for the backend benchmarks.

Both the pytest benches (``bench_backend.py``) and the trajectory
harness (``run_bench.py``, which writes ``BENCH_2.json``) time exactly
these functions, so the recorded baseline and the asserted behaviour can
never drift apart.

All workloads run on the reduced lcsh-wiki instance (Table II row 3 at
scale 0.01) — the instance the paper's scaling study headlines.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from statistics import median, stdev

import numpy as np

from repro.accel import ParallelConfig, RoundingPool
from repro.core.klau import KlauConfig, klau_align
from repro.generators import lcsh_wiki
from repro.matching.exact import max_weight_matching
from repro.matching.warm import ExactMatcher

WIKI_SCALE = 0.01
WIKI_SEED = 3


def wiki_problem(scale: float = WIKI_SCALE, seed: int = WIKI_SEED):
    """The benchmark instance, squares prebuilt (not part of any timing)."""
    problem = lcsh_wiki(scale=scale, seed=seed).problem
    problem.squares
    problem.squares_transpose_perm
    return problem


def batch_vectors(problem, count: int = 8, seed: int = 0) -> list[np.ndarray]:
    """Heuristic vectors shaped like BP's pending y/z iterates."""
    rng = np.random.default_rng(seed)
    w = problem.weights
    return [
        np.abs(problem.alpha * w + rng.normal(0.0, 0.1, w.shape))
        for _ in range(count)
    ]


def summarize(samples: list[float]) -> dict:
    """Median/stddev row for BENCH_2.json."""
    return {
        "median_s": median(samples),
        "stddev_s": stdev(samples) if len(samples) > 1 else 0.0,
        "repeats": len(samples),
        "samples_s": samples,
    }


def time_batched_rounding(
    problem,
    vectors: list[np.ndarray],
    config: ParallelConfig,
    repeats: int = 3,
) -> tuple[list[float], list]:
    """Steady-state ``round_many`` wall times (pool setup excluded).

    Returns ``(samples, last_results)`` so callers can assert backend
    equivalence on the exact objects that were timed.
    """
    samples: list[float] = []
    with RoundingPool(problem, "approx", config) as pool:
        pool.round_many(vectors[:1])  # warm the workers
        results = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            results = pool.round_many(vectors)
            samples.append(time.perf_counter() - t0)
    return samples, results


def time_repeated_rounding(
    problem, rounds: int = 5, repeats: int = 3, seed: int = 1
) -> dict:
    """Cold vs warm exact matching over repeated roundings of one vector.

    The scenario the warm-start layer targets: the same L structure is
    matched again and again (BP re-scores stored iterates; a serving
    deployment re-rounds repeated queries).  Cold pays the full
    successive-shortest-path search every time; warm repairs duals and
    reuses the previous matching.
    """
    g = batch_vectors(problem, count=1, seed=seed)[0]
    cold_samples: list[float] = []
    warm_samples: list[float] = []
    weight_cold = weight_warm = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(rounds):
            result = max_weight_matching(problem.ell, g, dense_cutoff=0)
        cold_samples.append(time.perf_counter() - t0)
        weight_cold = result.weight
    for _ in range(repeats):
        matcher = ExactMatcher()
        t0 = time.perf_counter()
        for _ in range(rounds):
            result = matcher(problem.ell, g)
        warm_samples.append(time.perf_counter() - t0)
        weight_warm = result.weight
        stats = matcher.last_stats
    return {
        "cold": cold_samples,
        "warm": warm_samples,
        "weight_cold": weight_cold,
        "weight_warm": weight_warm,
        "rows_reused": stats.rows_reused,
        "rows_total": stats.rows_total,
        "search_depth": stats.search_depth,
    }


@contextmanager
def cold_step3():
    """Run Klau's Step 3 through a per-call cold oracle.

    Inside the block ``klau_align`` matches every ``wbar`` with a fresh
    :func:`max_weight_matching` call instead of its warm-started
    exact matcher; the answers are the same, only the cost differs.
    """
    import repro.core.klau as klau_module

    saved = klau_module.make_matcher
    klau_module.make_matcher = lambda kind: max_weight_matching
    try:
        yield
    finally:
        klau_module.make_matcher = saved


def time_klau_warm(problem, n_iter: int = 15, repeats: int = 2) -> dict:
    """Klau MR with its warm-started exact Step 3 (the default) against
    the same run with every Step-3 matching solved cold."""
    cfg = KlauConfig(n_iter=n_iter, matcher="exact", final_exact=False)
    out: dict = {}
    for label, step3 in (("cold", cold_step3), ("warm", nullcontext)):
        samples = []
        for _ in range(repeats):
            with step3():
                t0 = time.perf_counter()
                result = klau_align(problem, cfg)
                samples.append(time.perf_counter() - t0)
        out[label] = samples
        out[f"objective_{label}"] = result.objective
        out[f"history_{label}"] = result.history
    return out
