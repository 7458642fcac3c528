"""Event sinks: where emitted events go.

A sink is anything with ``write(event)`` and ``close()``.  Three
implementations cover the paper-reproduction workflows:

* :class:`MemorySink` — in-process list, for tests and steering;
* :class:`JSONLSink` — one JSON object per line, the durable format the
  reconstruction helpers (:mod:`repro.observe.reconstruct`) read back;
* :class:`ConsoleSink` — a human-readable live reporter for watching a
  run in flight;
* :class:`NullSink` — accepts and drops everything (exercises the full
  emission path without storage; used by the overhead tests).

The metrics-exporter sinks (:class:`~repro.observe.export.PrometheusExporter`,
:class:`~repro.observe.export.OTLPExporter`) live in
:mod:`repro.observe.export` and follow the same contract.

Sinks never raise out of ``write`` design-wise — they are called from
solver hot loops; a failing sink should be detached, not crash a run.

Construction is uniform: every sink takes keyword options only, and
:func:`make_sink` builds any of them by registry name::

    make_sink("jsonl", path="run.jsonl")
    make_sink("console", verbose=True)
    make_sink("prometheus", path="metrics.prom", interval_s=10.0)

An open stream always goes in as ``stream=`` (``JSONLSink(fileobj)``
and ``ConsoleSink(stream)`` raise ``TypeError``);
``docs/observability.md`` documents the migration.
"""

from __future__ import annotations

import importlib
import io
import json
import math
import sys
import threading
import time
from typing import IO, Iterable, Protocol

from repro.errors import ObservabilityError
from repro.observe.events import Event

__all__ = [
    "Sink", "MemorySink", "JSONLSink", "ConsoleSink", "NullSink",
    "SINK_NAMES", "make_sink",
    "event_to_json", "event_from_json",
]


class Sink(Protocol):
    """The sink contract used by :class:`repro.observe.bus.EventBus`."""

    def write(self, event: Event) -> None: ...

    def close(self) -> None: ...


def _sanitize(value):
    """Make a field JSON-strict: non-finite floats become ``None``."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    return value


def event_to_json(event: Event) -> str:
    """Serialize one event to a strict-JSON line.

    Non-finite floats (BP's ``NaN`` upper bound, IsoRank's ``NaN`` gamma)
    are written as ``null`` so any JSON reader can consume the stream.

    >>> e = Event("barrier", 1, 0.0,
    ...           {"step": "x", "n_threads": 2, "seconds": float("nan")})
    >>> json.loads(event_to_json(e))["seconds"] is None
    True
    """
    return json.dumps(
        _sanitize(event.to_dict()), allow_nan=False, sort_keys=False
    )


def event_from_json(line: str) -> Event:
    """Parse one JSONL line back into an :class:`Event`.

    ``null`` field values are mapped back to ``NaN`` — the only Python
    floats the writer nulls out (sinks never emit ``None`` fields
    themselves), so the round-trip is lossless for event streams this
    package produces.
    """
    row = json.loads(line)
    for key, value in row.items():
        if value is None:
            row[key] = float("nan")
    return Event.from_dict(row)


class MemorySink:
    """Collects events in a list (thread-safe append)."""

    def __init__(self) -> None:
        self.events: list[Event] = []
        self._lock = threading.Lock()

    def write(self, event: Event) -> None:
        with self._lock:
            self.events.append(event)

    def close(self) -> None:  # nothing to release
        pass

    def of_type(self, *types: str) -> list[Event]:
        """Events whose type is one of ``types``, in emission order."""
        wanted = set(types)
        return [e for e in self.events if e.type in wanted]

    def clear(self) -> None:
        """Drop all collected events."""
        with self._lock:
            self.events.clear()


class JSONLSink:
    """Appends one JSON line per event to a file (or file-like object).

    Args:
        path: File path to create and own (closed by ``close()``).
        stream: An already-open text stream to write to instead; the
            caller keeps ownership.  Exactly one of ``path``/``stream``
            must be given.

    Raises:
        TypeError: ``path`` is not a string (an open file goes in as
            ``stream=``).
    """

    def __init__(self, path: str | None = None, *,
                 stream: IO[str] | None = None) -> None:
        if path is not None and not isinstance(path, (str, bytes)):
            raise TypeError(
                "JSONLSink path must be a string, got "
                f"{type(path).__name__}; pass an open file as stream="
            )
        if (path is None) == (stream is None):
            raise ObservabilityError(
                "JSONLSink needs exactly one of path= or stream="
            )
        if path is not None:
            self._fh: IO[str] = open(path, "w", encoding="utf-8")
            self._owns = True
        else:
            assert stream is not None
            self._fh = stream
            self._owns = False
        self._lock = threading.Lock()

    def write(self, event: Event) -> None:
        line = event_to_json(event)
        with self._lock:
            self._fh.write(line)
            self._fh.write("\n")

    def close(self) -> None:
        with self._lock:
            self._fh.flush()
            if self._owns:
                self._fh.close()

    def __enter__(self) -> "JSONLSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_jsonl(path_or_file: str | IO[str]) -> list[Event]:
    """Read a JSONL event stream back (inverse of :class:`JSONLSink`)."""
    if isinstance(path_or_file, (str, bytes)):
        with open(path_or_file, "r", encoding="utf-8") as fh:
            return [event_from_json(ln) for ln in fh if ln.strip()]
    return [event_from_json(ln) for ln in path_or_file if ln.strip()]


class ConsoleSink:
    """Human-readable live reporter.

    Formats load-bearing events as one line each; ``iteration`` events
    can be rate-limited (``min_interval`` seconds between printed lines)
    so long runs stay readable.  ``barrier`` and per-loop replay events
    are summarized only when ``verbose`` is set — they are emitted at
    per-loop granularity and would otherwise drown the report.
    """

    def __init__(
        self,
        *,
        stream: IO[str] | None = None,
        min_interval: float = 0.0,
        verbose: bool = False,
    ) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self._min_interval = min_interval
        self._verbose = verbose
        self._last_iter_print = -float("inf")
        self._lock = threading.Lock()

    # -- formatting ----------------------------------------------------
    def _format(self, e: Event) -> str | None:
        f = e.fields
        if e.type == "iteration":
            now = time.monotonic()
            if now - self._last_iter_print < self._min_interval:
                return None
            self._last_iter_print = now
            ub = f.get("upper_bound", float("nan"))
            ub_txt = f" ub={ub:.4f}" if isinstance(
                ub, float) and math.isfinite(ub) else ""
            return (
                f"[{f.get('method', '?')}] it {f.get('iteration'):>4} "
                f"obj={f.get('objective'):.4f} "
                f"(w={f.get('weight_part'):.3f}, "
                f"ov={f.get('overlap_part'):.0f}){ub_txt} "
                f"src={f.get('source')}"
            )
        if e.type == "rounding":
            if not self._verbose:
                return None
            return (
                f"  round it={f.get('iteration')} src={f.get('source')} "
                f"matcher={f.get('matcher')} obj={f.get('objective'):.4f} "
                f"|M|={f.get('cardinality')}"
            )
        if e.type == "matching":
            if not self._verbose:
                return None
            return (
                f"  match {f.get('algorithm')} |M|={f.get('cardinality')} "
                f"w={f.get('weight'):.4f} rounds={f.get('rounds')}"
            )
        if e.type == "trace_replay":
            if not self._verbose and f.get("kind") != "iteration":
                return None
            extra = ""
            if "n_threads" in f:
                extra = f" p={f['n_threads']}"
            return (
                f"  sim {f.get('kind')}:{f.get('step')}"
                f"{extra} {f.get('seconds') * 1e3:.3f} ms"
            )
        if e.type == "barrier":
            if not self._verbose:
                return None
            return (
                f"  barrier {f.get('step')} p={f.get('n_threads')} "
                f"{f.get('seconds') * 1e6:.2f} us"
            )
        if e.type == "span_start":
            return f">> {f.get('name')}"
        if e.type == "span_end":
            return f"<< {f.get('name')} ({f.get('seconds'):.3f} s)"
        if e.type == "metric":
            return (
                f"  metric {f.get('metric')}{f.get('labels')} "
                f"= {f.get('value')}"
            )
        return None  # pragma: no cover - schema is closed

    def write(self, event: Event) -> None:
        line = self._format(event)
        if line is None:
            return
        with self._lock:
            self._stream.write(line + "\n")

    def close(self) -> None:
        try:
            self._stream.flush()
        except (ValueError, io.UnsupportedOperation):  # closed stream
            pass


class NullSink:
    """Swallows events (keeps the bus active without storing anything)."""

    def write(self, event: Event) -> None:
        pass

    def close(self) -> None:
        pass


#: Registry name → ``module:Class`` for every constructible sink.  The
#: exporter entries resolve lazily so importing :mod:`repro.observe.sinks`
#: never pulls in the export layer.
_SINK_REGISTRY: dict[str, str] = {
    "memory": "repro.observe.sinks:MemorySink",
    "jsonl": "repro.observe.sinks:JSONLSink",
    "console": "repro.observe.sinks:ConsoleSink",
    "null": "repro.observe.sinks:NullSink",
    "prometheus": "repro.observe.export:PrometheusExporter",
    "otlp": "repro.observe.export:OTLPExporter",
}

#: Every name :func:`make_sink` accepts, sorted.
SINK_NAMES: tuple[str, ...] = tuple(sorted(_SINK_REGISTRY))


def make_sink(name: str, **opts) -> Sink:
    """Construct a sink by registry name with uniform keyword options.

    Args:
        name: One of :data:`SINK_NAMES` — ``"memory"``, ``"jsonl"``,
            ``"console"``, ``"null"``, ``"prometheus"``, ``"otlp"``.
        **opts: Keyword options forwarded to the sink's constructor
            (e.g. ``path=`` for jsonl/prometheus/otlp, ``stream=`` /
            ``verbose=`` for console, ``interval_s=``/``registry=``
            for the exporters).

    Returns:
        The constructed sink, ready for ``bus.add_sink``.

    Raises:
        ObservabilityError: On an unknown name or options the named
            sink does not accept.

    >>> sink = make_sink("memory")
    >>> type(sink).__name__
    'MemorySink'
    """
    target = _SINK_REGISTRY.get(name)
    if target is None:
        raise ObservabilityError(
            f"unknown sink {name!r}; known sinks: {', '.join(SINK_NAMES)}"
        )
    module_name, _, class_name = target.partition(":")
    cls = getattr(importlib.import_module(module_name), class_name)
    try:
        return cls(**opts)
    except TypeError as exc:
        raise ObservabilityError(
            f"bad options for sink {name!r}: {exc}"
        ) from None
