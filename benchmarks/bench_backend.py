"""Backend benchmarks: warm-started exact matching.

Run with ``pytest benchmarks/bench_backend.py -m bench -s`` (the ``-s``
shows the timing tables).  ``benchmarks/run_bench.py`` times the same
workloads (from ``backend_workloads.py``) and records them in
``BENCH_2.json``.  The warm-start win does not need extra cores, so it
is always asserted (with a generous margin; the observed win is ≈2.8×).
"""

from __future__ import annotations

import pytest

from backend_workloads import time_klau_warm, time_repeated_rounding

pytestmark = pytest.mark.bench


@pytest.fixture(scope="module")
def wiki_problem(wiki_instance):
    problem = wiki_instance.problem
    problem.squares
    problem.squares_transpose_perm
    return problem


def _median(xs):
    xs = sorted(xs)
    return xs[len(xs) // 2]


def test_warm_start_repeated_rounding(wiki_problem):
    """Warm-started exact matching beats cold start on repeated
    roundings of the same L, at identical optimal weight."""
    r = time_repeated_rounding(wiki_problem, rounds=5, repeats=3)
    assert r["weight_warm"] == pytest.approx(r["weight_cold"])
    assert r["rows_reused"] == r["rows_total"]  # identical vector: full reuse
    cold, warm = _median(r["cold"]), _median(r["warm"])
    print(
        f"\nrepeated rounding x5 (wiki@0.01): cold {cold:.3f}s  "
        f"warm {warm:.3f}s  ({cold / warm:.2f}x; "
        f"reused {r['rows_reused']}/{r['rows_total']} rows, "
        f"search depth {r['search_depth']})"
    )
    assert warm < cold, "warm start should beat cold on repeated roundings"


def test_klau_warm_start(wiki_problem):
    """Klau's default Step 3 (the warm-started exact matcher) against a
    per-call cold oracle: the same run, and the timing delta is reported
    (wbar drifts, so the win is smaller than the repeated-rounding
    case)."""
    r = time_klau_warm(wiki_problem, n_iter=15, repeats=2)
    assert r["objective_warm"] == r["objective_cold"]
    assert r["history_warm"] == r["history_cold"]
    cold, warm = _median(r["cold"]), _median(r["warm"])
    print(
        f"\nklau n_iter=15 (wiki@0.01): cold {cold:.3f}s  warm {warm:.3f}s"
        f"  ({cold / warm:.2f}x at identical objective "
        f"{r['objective_warm']:.4f})"
    )
    # Drift makes the margin workload-dependent; assert non-regression
    # with slack rather than a fixed speedup.
    assert warm < cold * 1.10
