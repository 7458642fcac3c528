"""Metric catalogue and the statistics rules the benchmark reports with.

Every metric the benchmark prints is declared here once, with its unit
and direction.  Each per-layer metric also names the end-to-end metric
and the workload it should move, the map ``BENCHMARK.json`` has no room
for.  ``perfbench/tests`` checks that the two files agree.

Units of work: a library *operation* is one ``align()`` call; a serving
operation is ``POST /v1/jobs?wait=1`` plus the ``GET`` of its result.
Per-layer times and counts are means per traced operation unless the
metric says otherwise.

End-to-end times (and ``jobs_per_s``) are wall times scaled to a
reference host speed by ``perfbench/hostspeed.py``; every run prints the
raw wall times too.  Per-layer times are raw wall times.

Not measured on purpose: ``repro.multilevel``, ``repro.core.isorank`` and
the ``repro.accel`` process pool.  No open ROADMAP item changes them.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Any, Sequence

WORKLOADS = ("bp_cold", "mr_bio", "serve_mix")

#: Candidate tail percentiles, highest first (see :func:`tail_percentile`).
#: No p90: a serve_mix run makes about 100 operations, where the choice
#: would flip between p75 and p90 from run to run.
TAIL_LADDER = (99.0, 95.0, 75.0, 50.0)
#: Samples a tail percentile must leave beyond it.
TAIL_MIN_BEYOND = 10


@dataclass(frozen=True)
class Metric:
    """One reported figure; ``moves`` is set for per-layer metrics."""

    name: str
    unit: str
    better: str
    moves: str = ""


#: Gated metrics: measured untraced, nonzero on every workload.
END_TO_END = (
    # Median of several set-ups in one run: instance generation, plus
    # server start until /v1/healthz answers on serve_mix.
    Metric("setup_s", "s", "lower"),
    # Median align() wall; serve_mix: median service time of the cold
    # and realign jobs.
    Metric("solve_s", "s", "lower"),
    # The reported objective, which must equal an independent recompute.
    Metric("objective", "score", "higher"),
    # Peak RSS of the process doing the work (on serve_mix, the server's
    # after a fixed number of cycles).
    Metric("peak_rss_mb", "MB", "lower"),
    Metric("latency_p50_s", "s", "lower"),
    # Completed operations per second of the measured phase.
    Metric("jobs_per_s", "1/s", "higher"),
)

_BP = "solve_s on bp_cold"
_MR = "solve_s on mr_bio"
_SQ = ("solve_s on bp_cold (~35%); cold_p50_s and realign_p50_s on "
       "serve_mix; negligible on mr_bio")
_OM = "solve_s on bp_cold; absent on mr_bio"
_WIRE = "hit_p50_s and latency_p50_s on serve_mix"
_CACHE = "hit_p50_s and jobs_per_s on serve_mix"
_JOBS = "latency_tail_s and jobs_per_s on serve_mix"
_SERVE = "serve_mix only: no library workload has this figure"
_TRACE = ("tracing cost; on bp_cold and mr_bio the LIBRARY_PARTS add up "
          "to trace.op_s")

#: Traced-run metrics, grouped by the layer (module) they measure.
PER_LAYER = (
    # core.squares
    Metric("squares.busy_s", "s", "lower", _SQ),
    Metric("squares.calls", "count", "lower", _SQ),
    # core.othermax and sparse.ops
    Metric("othermax.busy_s", "s", "lower", _OM),
    Metric("othermax.calls", "count", "lower", _OM),
    Metric("row_sums.busy_s", "s", "lower", _OM),
    # core.rounding; score_s is rounding time minus matcher time
    Metric("rounding.busy_s", "s", "lower", _BP),
    Metric("rounding.calls", "count", "lower", _BP),
    Metric("rounding.score_s", "s", "lower", _BP),
    # matching: the callables make_matcher hands out
    Metric("match_approx.busy_s", "s", "lower", _BP),
    Metric("match_approx.calls", "count", "lower", _BP),
    Metric("match_exact.busy_s", "s", "lower", _MR),
    Metric("match_exact.calls", "count", "lower", _MR),
    # core.row_match
    Metric("row_match.busy_s", "s", "lower", _MR),
    Metric("row_match.calls", "count", "lower", _MR),
    # core.bp and core.klau: align time minus the wrapped children
    Metric("bp.self_s", "s", "lower", _BP + "; cold_p50_s on serve_mix"),
    Metric("bp.iterations", "count", "lower",
           _BP + " (what a convergence stop would cut)"),
    Metric("klau.self_s", "s", "lower", _MR),
    Metric("klau.iterations", "count", "lower", _MR),
    # incremental
    Metric("warm_capture.busy_s", "s", "lower", "cold_p50_s on serve_mix"),
    Metric("realign.iterations", "count", "lower",
           "realign_p50_s on serve_mix"),
    # resilience: supervised_map time minus align time
    Metric("supervise.self_s", "s", "lower",
           "cold_p50_s and error_frac on serve_mix"),
    Metric("supervise.retries", "count", "lower",
           "cold_p50_s and error_frac on serve_mix"),
    # serve.wire
    Metric("wire.decode_s", "s", "lower", _WIRE),
    Metric("wire.digest_s", "s", "lower", _WIRE),
    Metric("wire.encode_s", "s", "lower", _WIRE),
    # serve.cache
    Metric("cache.lookups", "count", "lower", _CACHE),
    Metric("cache.hits", "count", "higher", _CACHE),
    Metric("cache.hit_ratio", "ratio", "higher", _CACHE),
    # serve.store: journal writes per operation, replay per restart
    Metric("journal.busy_s", "s", "lower", _CACHE),
    Metric("journal.writes", "count", "lower", _CACHE),
    Metric("journal.replay_s", "s", "lower", "restart_s on serve_mix"),
    # serve.jobs: submit per operation; queue wait and service are
    # medians over the jobs a worker ran
    Metric("submit.busy_s", "s", "lower", _JOBS),
    Metric("queue_wait_s", "s", "lower", _JOBS),
    Metric("service_s", "s", "lower", _JOBS),
    # serve.server: median client latency minus submit, queue wait and
    # service of the same job
    Metric("http.self_s", "s", "lower", "latency_p50_s on serve_mix"),
    # serve_mix figures with no library counterpart, from the traced run;
    # untraced runs print them too, next to the gated metrics
    Metric("cold_p50_s", "s", "lower", _SERVE),
    Metric("hit_p50_s", "s", "lower", _SERVE),
    Metric("realign_p50_s", "s", "lower", _SERVE),
    Metric("latency_tail_s", "s", "lower", _SERVE),
    Metric("latency_tail_pct", "pct", "higher", _SERVE),
    Metric("restart_s", "s", "lower", _SERVE),
    Metric("error_frac", "ratio", "lower", _SERVE),
    # tracing: mean traced operation latency, and its excess over the
    # untraced operations of the same run
    Metric("trace.op_s", "s", "lower", _TRACE),
    Metric("trace.overhead_s", "s", "lower", _TRACE),
    Metric("trace.overhead_frac", "ratio", "lower", _TRACE),
)

#: The serve_mix-only figures untraced runs print after the gated ones.
SERVE_FIGURES = ("cold_p50_s", "hit_p50_s", "realign_p50_s",
                 "latency_tail_s", "latency_tail_pct", "restart_s",
                 "error_frac")

#: The per-layer metrics whose sum is one traced library operation:
#: leaf layers' busy time plus the self time of the layers with children.
LIBRARY_PARTS = ("squares.busy_s", "othermax.busy_s", "row_sums.busy_s",
                 "rounding.score_s", "match_approx.busy_s",
                 "match_exact.busy_s", "row_match.busy_s", "bp.self_s",
                 "klau.self_s")


@dataclass
class Outcome:
    """What one workload run produced.

    ``e2e`` and ``layers`` map metric names to values (absent names read
    as 0); ``failures`` holds one line per failed operation or check;
    ``trace`` is the span record a traced run writes out at the end.
    """

    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    trace: dict[str, Any] | None = None


def median(values: Sequence[float]) -> float:
    """The median, or 0.0 for no samples."""
    return float(statistics.median(values)) if len(values) else 0.0


def mean(values: Sequence[float]) -> float:
    """The mean, or 0.0 for no samples."""
    return float(statistics.fmean(values)) if len(values) else 0.0


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile with linear interpolation (numpy's rule)."""
    xs = sorted(values)
    if not xs:
        return 0.0
    rank = (len(xs) - 1) * p / 100.0
    lo, hi = math.floor(rank), math.ceil(rank)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least ten of ``n`` beyond it.

    ``None`` when even the median leaves fewer than ten samples beyond.
    """
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND:
            return p
    return None
