"""In-memory span tracing, installed from outside the code it measures.

Each layer of ``repro`` is timed by replacing a public function *in the
module where its caller looks it up* (``repro.core.bp.round_heuristic``,
``repro.core.problem.build_squares``, ``repro.serve.jobs.problem_digest``
and so on) with a wrapper that records a span: name, start, end, the
span that caused it, and the serving job it belongs to.  A name that is
missing raises :class:`TracingError`, so a rename in ``src/`` fails the
traced run instead of silently zeroing a layer.  Spans stay in memory
until the run ends (:func:`dump` writes them out).

A layer's self time is its spans' duration minus the part of it their
child spans cover (:func:`layer_table`).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import Counter
from typing import Any, Callable, Iterable, Iterator, NamedTuple


class TracingError(RuntimeError):
    """A name the tracer must wrap is missing from its module or class."""


class Span(NamedTuple):
    """One finished span; ``parent`` is 0 for a root span."""

    id: int
    parent: int
    name: str
    start: float
    end: float
    job: str | None


class _Open:
    """A running span; ``job`` may be filled in when the call returns."""

    __slots__ = ("id", "parent", "job")

    def __init__(self, span_id: int, parent: int, job: str | None) -> None:
        self.id = span_id
        self.parent = parent
        self.job = job


class Tracer:
    """Collects spans and counters from any number of threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, name: str, n: float = 1) -> None:
        """Add ``n`` to the counter ``name``."""
        with self._lock:
            self.counts[name] += n

    @contextlib.contextmanager
    def span(self, name: str, job: str | None = None) -> Iterator[_Open]:
        """Record the enclosed block as a span of the calling thread.

        A span without a job id inherits its parent's.
        """
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if job is None and parent is not None:
            job = parent.job
        rec = _Open(next(self._ids), parent.id if parent else 0, job)
        stack.append(rec)
        start = time.perf_counter()
        try:
            yield rec
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(rec.id, rec.parent, name, start, end, rec.job))

    def wrap(self, fn: Callable, name: str, *,
             job_of: Callable[[tuple], str | None] | None = None,
             after: Callable[[_Open, tuple, Any], None] | None = None,
             ) -> Callable:
        """Return ``fn`` recording one span called ``name`` per call.

        ``job_of(args)`` names the job a call belongs to; ``after(span,
        args, result)`` runs inside the span once ``fn`` has returned.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            job = job_of(args) if job_of is not None else None
            with self.span(name, job) as rec:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(rec, args, out)
                return out

        return traced


class Patcher:
    """Swaps attributes for wrappers and puts the originals back."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str,
              make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` (a module or class member) by ``make(it)``.

        Raises:
            TracingError: ``attr`` is not defined on ``owner`` itself, or
                is not a function.
        """
        found = vars(owner).get(attr)
        if not (callable(found) or isinstance(found, classmethod)):
            where = owner.__name__
            if isinstance(owner, type):
                where = f"{owner.__module__}.{where}"
            raise TracingError(
                f"{where}.{attr} is not there to wrap: a measured layer "
                "was renamed or moved, so update perfbench/spans.py"
            )
        setattr(owner, attr, make(found))
        self._saved.append((owner, attr, found))

    def restore(self) -> None:
        """Put every original back, newest first."""
        while self._saved:
            owner, attr, found = self._saved.pop()
            setattr(owner, attr, found)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()


class _TimedMatcher:
    """A matcher recording one span per call; other attributes forward."""

    def __init__(self, tracer: Tracer, inner: Any, name: str) -> None:
        self._tracer = tracer
        self._inner = inner
        self._name = name

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        with self._tracer.span(self._name):
            return self._inner(*args, **kwargs)

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._inner, attr)


def _timed_factory(tracer: Tracer, make_matcher: Callable) -> Callable:
    """Wrap ``make_matcher`` so every matcher it returns is timed."""
    @functools.wraps(make_matcher)
    def factory(kind: str, *args: Any, **kwargs: Any) -> Any:
        name = "match_exact" if kind.startswith("exact") else "match_approx"
        return _TimedMatcher(tracer, make_matcher(kind, *args, **kwargs),
                             name)

    return factory


def _serve_job(args: tuple) -> str | None:
    """The job id in a serve worker's ``supervised_map`` task, if any.

    The job store keys each task's checkpoint ``serve:<job id>``.
    """
    try:
        key = args[1][0][4]
    except (IndexError, TypeError):
        return None
    if isinstance(key, str) and key.startswith("serve:"):
        return key[len("serve:"):]
    return None


def _count_solve(tracer: Tracer, result: Any) -> None:
    """Count the iterations of a result the job store encodes."""
    params = getattr(result, "params", None) or {}
    if params.get("warm"):
        tracer.add("realign.jobs")
        tracer.add("realign.iterations", params.get("iterations_run", 0))
    else:
        tracer.add("bp.jobs")
        tracer.add("bp.iterations", result.iterations)


def _count_lookup(tracer: Tracer, payload: Any) -> None:
    tracer.add("cache.lookups")
    if payload is not None:
        tracer.add("cache.hits")


def _set_job(rec: _Open, args: tuple, job: Any) -> None:
    rec.job = job.id


def install(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap every measured layer of ``repro``.

    Raises:
        TracingError: A wrapped name is missing (see :class:`Patcher`).
    """
    mod = importlib.import_module
    bp = mod("repro.core.bp")
    klau = mod("repro.core.klau")
    jobs = mod("repro.serve.jobs")
    store = mod("repro.serve.store")

    def span(name: str, **kw: Any) -> Callable[[Callable], Callable]:
        return lambda fn: tracer.wrap(fn, name, **kw)

    # core.squares, where NetworkAlignmentProblem.squares looks it up.
    patcher.patch(mod("repro.core.problem"), "build_squares", span("squares"))
    # core.othermax and sparse.ops, as the BP loops call them.
    for attr in ("othermax_col", "othermax_row", "othermax_grouped"):
        patcher.patch(bp, attr, span("othermax"))
    patcher.patch(bp, "row_sums", span("row_sums"))
    # core.rounding, and every matcher make_matcher hands out.
    for solver in (bp, klau):
        patcher.patch(solver, "round_heuristic", span("rounding"))
    for caller in (bp, klau, mod("repro.core.rounding")):
        patcher.patch(caller, "make_matcher",
                      lambda fn: _timed_factory(tracer, fn))
    # core.row_match
    patcher.patch(mod("repro.core.row_match").RowMatcher, "solve",
                  span("row_match"))
    # incremental: the capture every cold serve job pays.
    patcher.patch(
        mod("repro.incremental.state").WarmState, "from_result",
        lambda cm: classmethod(tracer.wrap(cm.__func__, "warm_capture")))
    # resilience: serve workers look supervised_map up on the package.
    patcher.patch(mod("repro.resilience"), "supervised_map", span(
        "supervise", job_of=_serve_job,
        after=lambda rec, args, out: tracer.add(
            "supervise.retries", sum(o.attempts - 1 for o in out))))
    # The solve a serve job runs (library workloads time align() directly).
    patcher.patch(mod("repro.registry"), "align", span("align"))
    # serve.wire, as the job store calls it.
    patcher.patch(jobs, "problem_from_wire", span("wire.decode"))
    patcher.patch(jobs, "problem_digest", span("wire.digest"))
    patcher.patch(jobs, "result_to_wire", span(
        "wire.encode", after=lambda rec, args, out: _count_solve(
            tracer, args[0])))
    # serve.cache
    patcher.patch(mod("repro.serve.cache").ResultCache, "get", span(
        "cache.get", after=lambda rec, args, out: _count_lookup(tracer, out)))
    # serve.store: journal writes, and the replay make_store runs at start.
    for attr in ("_persist_submit", "_persist_transition"):
        patcher.patch(store.SqliteJobStore, attr, span(
            "journal", job_of=lambda args: args[1].id,
            after=lambda rec, args, out: tracer.add("journal.writes")))
    patcher.patch(store, "make_store", span("journal.replay"))
    # serve.jobs: admission, on the event loop.
    patcher.patch(jobs.JobStore, "submit", span("submit", after=_set_job))


class Layer(NamedTuple):
    """Totals of one span name: calls, busy (wall) and self time."""

    calls: int
    busy: float
    own: float


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    spans = list(spans)
    covered: dict[int, float] = {}
    for s in spans:
        if s.parent:
            covered[s.parent] = covered.get(s.parent, 0.0) + s.end - s.start
    return {s.id: s.end - s.start - covered.get(s.id, 0.0) for s in spans}


def layer_table(spans: Iterable[Span]) -> dict[str, Layer]:
    """Sum calls, busy time and self time per span name."""
    spans = list(spans)
    own = self_times(spans)
    table: dict[str, Layer] = {}
    for s in spans:
        calls, busy, mine = table.get(s.name, Layer(0, 0.0, 0.0))
        table[s.name] = Layer(calls + 1, busy + s.end - s.start,
                              mine + own[s.id])
    return table


def per_op(table: dict[str, Layer], name: str, n_ops: int,
           field: str = "busy") -> float:
    """One field of a layer's totals divided by ``n_ops`` (0 if absent)."""
    layer = table.get(name)
    return getattr(layer, field) / n_ops if layer and n_ops else 0.0


def core_layers(table: dict[str, Layer], n_ops: int,
                bp_span: str) -> dict[str, float]:
    """The core and matching per-layer metrics, per operation.

    ``bp_span`` is the span around BP's ``align`` (``"bp"`` when the
    benchmark calls it, ``"align"`` inside the server).
    """
    out: dict[str, float] = {}
    for name in ("squares", "othermax", "rounding", "match_approx",
                 "match_exact", "row_match"):
        out[f"{name}.busy_s"] = per_op(table, name, n_ops)
        out[f"{name}.calls"] = per_op(table, name, n_ops, "calls")
    out["row_sums.busy_s"] = per_op(table, "row_sums", n_ops)
    out["rounding.score_s"] = per_op(table, "rounding", n_ops, "own")
    out["bp.self_s"] = per_op(table, bp_span, n_ops, "own")
    out["klau.self_s"] = per_op(table, "klau", n_ops, "own")
    return out


def dump(tracer: Tracer, path: str | os.PathLike) -> None:
    """Write the spans and counters recorded so far, atomically."""
    doc = {"spans": [list(s) for s in list(tracer.spans)],
           "counts": dict(tracer.counts)}
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)


def load(path: str | os.PathLike) -> tuple[list[Span], Counter]:
    """Read a :func:`dump` file back."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return [Span(*row) for row in doc["spans"]], Counter(doc["counts"])
