"""The HTTP front end: ``asyncio.start_server``, no frameworks.

One asyncio event loop parses HTTP/1.1 by hand (request line, headers,
``Content-Length`` body — the full generality of the protocol is not
needed and not claimed), routes to the :class:`~repro.serve.jobs.JobStore`,
and writes JSON responses.  Every response closes its connection
(``Connection: close``), which keeps the parser honest and lets the
NDJSON progress stream be close-delimited.

The API is versioned: every route lives under ``/v1`` (``/v1/jobs``,
``/v1/healthz``, ``/v1/metrics``, …).  Any other path answers the 404
``not_found`` envelope, counted under the route label ``(unmatched)``.

Unless disabled (``ServeConfig(telemetry=False)``), the server carries a
:class:`~repro.serve.telemetry.ServeTelemetry`: per-request latency
histograms, status-code counters and an in-flight gauge, plus
scrape-time occupancy gauges — all rendered by ``GET /v1/metrics`` in
Prometheus text exposition (or OTLP JSON with ``?format=otlp``),
merged with whatever the process observe bus has accumulated.

The endpoint contract — methods, schemas, status codes, the error
envelope, streaming frames, cache and quota semantics — is documented
normatively in ``docs/serving.md``; ``tests/test_docs_consistency.py``
executes the documented examples against a live in-process server, so
this module and that page cannot drift apart.

Blocking waits (``POST /v1/jobs?wait=1``) are pushed onto the default
executor so the event loop keeps serving while a submission waits for
its worker; everything else the loop touches is lock-protected and
fast.
"""

from __future__ import annotations

import asyncio
import contextlib
import gzip
import json
import threading
import time
from typing import Any, Iterator
from urllib.parse import parse_qs, urlsplit

from repro.errors import ConfigurationError, ValidationError
from repro.observe.bus import get_bus
from repro.observe.export import otlp_json, prometheus_text
from repro.observe.sinks import NullSink
from repro.serve.config import ServeConfig
from repro.serve.jobs import Job, JobStore, WarmUnavailableError
from repro.serve.quotas import AdmissionError
from repro.serve.telemetry import ServeTelemetry, route_template
from repro.serve.wire import API_VERSION, error_envelope

__all__ = ["AlignmentServer", "serve_in_thread"]

#: Content type of the Prometheus text exposition format.
_PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Largest accepted request body; bigger submissions answer 413.
MAX_BODY_BYTES = 128 * 1024 * 1024
#: Largest accepted header section (count and per-line bytes).
_MAX_HEADER_LINES = 100

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 410: "Gone",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _HttpError(Exception):
    """An error that maps directly to a status + envelope response."""

    def __init__(self, status: int, code: str, message: str,
                 headers: tuple[str, ...] = ()) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.headers = headers


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes]:
    """Parse one HTTP/1.1 request from the stream.

    Returns:
        ``(method, target, headers, body)`` with header names
        lower-cased.

    Raises:
        _HttpError: With status 400 on malformed framing or 413 when
            the declared body exceeds :data:`MAX_BODY_BYTES`.
    """
    try:
        line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError) as exc:
        raise _HttpError(400, "bad_request",
                         f"oversized request line: {exc}") from None
    if not line:
        raise _HttpError(400, "bad_request", "empty request")
    parts = line.decode("latin-1").rstrip("\r\n").split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise _HttpError(400, "bad_request",
                         f"malformed request line: {line!r}")
    method, target, _version = parts
    headers: dict[str, str] = {}
    for _ in range(_MAX_HEADER_LINES):
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise _HttpError(400, "bad_request", "too many header lines")
    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            n = int(length)
        except ValueError:
            raise _HttpError(400, "bad_request",
                             f"bad Content-Length {length!r}") from None
        if n > MAX_BODY_BYTES:
            raise _HttpError(
                413, "too_large",
                f"request body of {n} bytes exceeds {MAX_BODY_BYTES}",
            )
        body = await reader.readexactly(n) if n else b""
    return method, target, headers, body


def _head(status: int, content_type: str, length: int | None,
          extra: tuple[str, ...] = ()) -> bytes:
    """Format a response head (status line + headers + blank line).

    Args:
        status: HTTP status code.
        content_type: ``Content-Type`` header value.
        length: Body size for ``Content-Length``, or ``None`` for a
            close-delimited response (the NDJSON stream).
        extra: Additional preformatted ``Name: value`` header lines
            (``Retry-After`` on backpressure, ``Content-Encoding`` on a
            gzip result).
    """
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        "Connection: close",
        *extra,
    ]
    if length is not None:
        lines.append(f"Content-Length: {length}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


class _Ctx:
    """Per-request response context threaded through the handlers.

    Bundles the writer with the request's route template and the status
    that was eventually written — so the telemetry hooks in ``_handle``
    never race another request's state.
    """

    __slots__ = ("writer", "route", "status")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.route = "(unmatched)"
        self.status = 0


class AlignmentServer:
    """The alignment-as-a-service HTTP server.

    Args:
        config: The serving policy; defaults to :class:`ServeConfig()`.
        store: Optional externally constructed job store (tests inject
            one to share a cache across server restarts).
    """

    def __init__(self, config: ServeConfig | None = None,
                 store: JobStore | None = None) -> None:
        from repro.serve.store import make_store

        self.config = config if config is not None else ServeConfig()
        self.store = store if store is not None else make_store(self.config)
        self.telemetry: ServeTelemetry | None = (
            ServeTelemetry() if self.config.telemetry else None
        )
        # Keeps the process bus active, so its counters accumulate.
        self._bus_sink = NullSink()
        self.port: int | None = None
        self._server: asyncio.base_events.Server | None = None

    @property
    def base_url(self) -> str:
        """The server's root URL (valid once started)."""
        return f"http://{self.config.host}:{self.port}"

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        """Bind the listener and begin accepting connections.

        With telemetry enabled this also attaches a
        :class:`~repro.observe.sinks.NullSink` to the process observe
        bus (activating it), so solver and serve counters accumulate for
        the merged ``/v1/metrics`` snapshot.
        """
        if self.telemetry is not None:
            get_bus().add_sink(self._bus_sink)
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Close the listener (worker shutdown is the store's job)."""
        if self.telemetry is not None:
            get_bus().remove_sink(self._bus_sink)
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._server.wait_closed(), 5.0)
            self._server = None

    # -- connection handling ------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        """Serve one connection: parse, route, respond, close."""
        ctx = _Ctx(writer)
        method = "?"
        start = time.perf_counter()
        if self.telemetry is not None:
            self.telemetry.request_started()
        try:
            try:
                method, target, headers, body = await _read_request(reader)
                await self._route(ctx, method, target, headers, body)
            except _HttpError as exc:
                await self._send_json(
                    ctx, exc.status,
                    error_envelope(exc.code, exc.message),
                    extra=exc.headers,
                )
            except (ConnectionError, asyncio.IncompleteReadError):
                pass
            except Exception as exc:  # noqa: BLE001 - last-resort envelope
                await self._send_json(
                    ctx, 500,
                    error_envelope("internal", f"unhandled error: {exc!r}"),
                )
        finally:
            if self.telemetry is not None:
                self.telemetry.request_finished(
                    method, ctx.route, ctx.status,
                    time.perf_counter() - start,
                )
            with contextlib.suppress(ConnectionError):
                writer.close()
                await writer.wait_closed()

    async def _route(self, ctx: _Ctx, method: str, target: str,
                     headers: dict[str, str], body: bytes) -> None:
        """Dispatch one parsed request to its endpoint handler."""
        split = urlsplit(target)
        raw_path = split.path.rstrip("/") or "/"
        if raw_path != "/v1" and not raw_path.startswith("/v1/"):
            raise _HttpError(404, "not_found",
                             f"no route for {raw_path} (the API is under /v1)")
        path = raw_path[len("/v1"):] or "/"
        ctx.route = route_template(path)
        query = parse_qs(split.query)
        tenant = headers.get("x-tenant", "default")

        if path == "/healthz":
            if method != "GET":
                raise _HttpError(405, "method_not_allowed",
                                 f"{method} not allowed on {path}")
            await self._send_json(ctx, 200, self._health_doc())
            return
        if path == "/metrics":
            if method != "GET":
                raise _HttpError(405, "method_not_allowed",
                                 f"{method} not allowed on {path}")
            await self._get_metrics(ctx, query)
            return
        if path == "/jobs":
            if method != "POST":
                raise _HttpError(405, "method_not_allowed",
                                 f"{method} not allowed on {path}")
            await self._post_job(ctx, body, query, tenant)
            return
        if path.startswith("/jobs/"):
            rest = path[len("/jobs/"):].split("/")
            job_id = rest[0]
            tail = rest[1] if len(rest) > 1 else ""
            if len(rest) > 2 or tail not in ("", "result", "events"):
                raise _HttpError(404, "not_found", f"no route for {path}")
            job = self.store.get(job_id)
            if job is None:
                raise _HttpError(404, "not_found",
                                 f"no job with id {job_id!r}")
            if tail == "" and method == "GET":
                await self._send_json(ctx, 200, job.snapshot())
            elif tail == "" and method == "DELETE":
                await self._delete_job(ctx, job_id)
            elif tail == "result" and method == "GET":
                await self._get_result(ctx, job, headers)
            elif tail == "events" and method == "GET":
                await self._stream_events(ctx, job)
            else:
                raise _HttpError(405, "method_not_allowed",
                                 f"{method} not allowed on {path}")
            return
        raise _HttpError(404, "not_found", f"no route for {path}")

    # -- endpoints -----------------------------------------------------
    def _health_doc(self) -> dict[str, Any]:
        """Build the ``GET /v1/healthz`` payload.

        Beyond liveness, the document reports the occupancy numbers a
        dashboard's cheap probe needs: queue depth, and the result cache
        and warm store as ``{entries, capacity}`` (the cache also with
        its ``hits`` and ``misses``).
        """
        import repro

        return {
            "status": "ok",
            "api_version": API_VERSION,
            "version": getattr(repro, "__version__", "unknown"),
            "jobs": self.store.counts(),
            "queue_depth": self.store.queue_depth(),
            "cache": self.store.cache.stats(),
            "warm": self.store.warm.stats(),
            "quotas": self.store.quotas.snapshot(),
            "store": self.store.describe(),
            "draining": self.store.draining,
        }

    async def _get_metrics(self, ctx: _Ctx,
                           query: dict[str, list[str]]) -> None:
        """Handle ``GET /v1/metrics``: render the merged metric snapshot.

        Default rendering is the Prometheus text exposition format;
        ``?format=otlp`` answers an OTLP-JSON resource-metrics document
        instead.  The snapshot merges the server's own telemetry
        registry with the process observe-bus registry, after refreshing
        the scrape-time occupancy gauges from the job store.
        """
        fmt = query.get("format", ["prometheus"])[0]
        if fmt not in ("prometheus", "otlp"):
            raise _HttpError(
                400, "bad_request",
                f"unknown metrics format {fmt!r}; use prometheus or otlp",
            )
        sources = []
        if self.telemetry is not None:
            self.telemetry.refresh(self.store)
            sources.append(self.telemetry.registry)
        sources.append(get_bus().metrics)
        if fmt == "otlp":
            await self._send_json(ctx, 200, otlp_json(*sources))
            return
        data = prometheus_text(*sources).encode("utf-8")
        ctx.status = 200
        ctx.writer.write(_head(200, _PROM_CONTENT_TYPE, len(data)))
        ctx.writer.write(data)
        await ctx.writer.drain()

    async def _post_job(self, ctx: _Ctx, body: bytes,
                        query: dict[str, list[str]], tenant: str) -> None:
        """Handle ``POST /v1/jobs`` (optionally ``?wait=1``).

        The raw body goes to :meth:`JobStore.submit_body`, which answers
        a byte-identical resubmission from a hash of the body and parses
        every other one.
        """
        try:
            job = self.store.submit_body(body, tenant)
        except AdmissionError as exc:
            if exc.code == "too_large":
                raise _HttpError(413, exc.code, str(exc)) from None
            # Backpressure (429) and drain (503) responses tell the
            # client when to come back, from observed service rates.
            retry = (f"Retry-After: {self.store.retry_after()}",)
            status = 503 if exc.code == "draining" else 429
            raise _HttpError(status, exc.code, str(exc),
                             headers=retry) from None
        except WarmUnavailableError as exc:
            raise _HttpError(400, "warm_unavailable", str(exc)) from None
        except (ConfigurationError, ValidationError) as exc:
            raise _HttpError(400, "bad_request", str(exc)) from None
        wait = query.get("wait", ["0"])[0] not in ("0", "", "false")
        if wait and not job.terminal:
            loop = asyncio.get_running_loop()
            finished = await loop.run_in_executor(
                None, job.wait_terminal, self.config.wait_timeout_s
            )
            if not finished:
                raise _HttpError(
                    504, "timeout",
                    f"job {job.id} did not finish within "
                    f"{self.config.wait_timeout_s:g}s (it keeps running; "
                    f"poll GET /v1/jobs/{job.id})",
                )
        status = 200 if job.terminal else 202
        await self._send_json(ctx, status, job.snapshot())

    async def _delete_job(self, ctx: _Ctx, job_id: str) -> None:
        """Handle ``DELETE /v1/jobs/{id}``."""
        state = self.store.cancel(job_id)
        if state is None:
            raise _HttpError(404, "not_found", f"no job with id {job_id!r}")
        if state == "conflict":
            raise _HttpError(
                409, "conflict",
                f"job {job_id} already reached a terminal state",
            )
        job = self.store.get(job_id)
        assert job is not None
        await self._send_json(ctx, 200, job.snapshot())

    async def _get_result(self, ctx: _Ctx, job: Job,
                          headers: dict[str, str]) -> None:
        """Handle ``GET /v1/jobs/{id}/result``.

        A done result is gzip-compressed when the client advertises
        ``Accept-Encoding: gzip`` — large matchings shrink severalfold
        on the wire (the ROADMAP's "result compression" item).
        """
        snap = job.snapshot()
        state = snap["state"]
        if state == "done":
            payload = dict(job.result or {})
            payload["cached"] = job.cached
            accepted = headers.get("accept-encoding", "")
            if "gzip" in (tok.split(";")[0].strip()
                          for tok in accepted.split(",")):
                data = gzip.compress(
                    json.dumps(payload, sort_keys=True).encode("utf-8"),
                    mtime=0,
                )
                ctx.status = 200
                ctx.writer.write(_head(200, "application/json", len(data),
                                       ("Content-Encoding: gzip",)))
                ctx.writer.write(data)
                await ctx.writer.drain()
                return
            await self._send_json(ctx, 200, payload)
            return
        if state == "failed":
            await self._send_json(ctx, 500, {
                "api_version": API_VERSION, "error": snap["error"],
            })
            return
        if state == "cancelled":
            raise _HttpError(410, "gone", f"job {job.id} was cancelled")
        raise _HttpError(
            409, "conflict",
            f"job {job.id} has no result yet (state {state!r})",
        )

    async def _stream_events(self, ctx: _Ctx, job: Job) -> None:
        """Handle ``GET /v1/jobs/{id}/events``: close-delimited NDJSON.

        Frames already recorded are flushed immediately; new ones are
        polled every 20 ms until the job is terminal and fully drained.
        The terminal frame is appended before the terminal event is
        set (see :meth:`Job.end`), so a stream never closes with
        the final ``state`` frame missing; a store shutdown ends the
        stream after one last drain instead of polling forever.
        """
        ctx.status = 200
        writer = ctx.writer
        writer.write(_head(200, "application/x-ndjson", None))
        sent = 0
        while True:
            closing = self.store.closed
            frames = job.frames_since(sent)
            for frame in frames:
                writer.write(
                    (json.dumps(frame, sort_keys=True) + "\n").encode()
                )
            sent += len(frames)
            await writer.drain()
            if job.terminal and not job.frames_since(sent):
                return
            if closing:
                return
            await asyncio.sleep(0.02)

    async def _send_json(self, ctx: _Ctx, status: int,
                         body: dict[str, Any],
                         extra: tuple[str, ...] = ()) -> None:
        """Write one complete JSON response."""
        ctx.status = status
        data = json.dumps(body, sort_keys=True).encode("utf-8")
        ctx.writer.write(_head(status, "application/json", len(data),
                               extra))
        ctx.writer.write(data)
        await ctx.writer.drain()


@contextlib.contextmanager
def serve_in_thread(
    config: ServeConfig | None = None,
    store: JobStore | None = None,
) -> Iterator[AlignmentServer]:
    """Run an :class:`AlignmentServer` on a background thread.

    The context manager form the tests, the docs examples, and the
    serving benchmarks all use: the event loop runs on a daemon thread,
    the server is bound (with its ephemeral port resolved) before the
    body runs, and exit tears down the listener, the loop, and the
    worker pool.

    Args:
        config: Serving policy; ``port=0`` (ephemeral) is typical here.
        store: Optional shared job store (see :class:`AlignmentServer`).

    Yields:
        The started server; read ``server.base_url`` for requests.

    Raises:
        RuntimeError: If the server fails to come up within 10 seconds.
    """
    server = AlignmentServer(config, store)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    failure: list[BaseException] = []

    def run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            failure.append(exc)
            started.set()
            return
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=run, name="serve-loop", daemon=True)
    thread.start()
    started.wait(10.0)
    if failure:
        loop.close()
        raise RuntimeError(f"server failed to start: {failure[0]!r}")
    if server.port is None:
        raise RuntimeError("server did not come up within 10s")
    try:
        yield server
    finally:
        future = asyncio.run_coroutine_threadsafe(server.stop(), loop)
        with contextlib.suppress(Exception):
            future.result(10.0)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10.0)
        loop.close()
        server.store.shutdown()
