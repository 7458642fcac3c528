"""Alignment-as-a-service: the ``repro.serve`` HTTP job server.

The layer that turns the library into a service: an asyncio HTTP API
(stdlib only — no frameworks) exposing submit/status/result/cancel over
the :func:`repro.align` facade, with a content-addressed result cache,
admission control and per-tenant quotas, NDJSON progress streaming off
the observe bus, supervised execution with checkpoint-backed resume on
worker loss, and incremental realignment (``warm_from`` submissions
seeded from a bounded LRU of converged solver states).

The HTTP surface is versioned under ``/v1`` (any other path answers
404), and — unless ``ServeConfig(telemetry=False)`` — every server
exposes a Prometheus scrape endpoint at ``GET /v1/metrics`` backed by
:class:`~repro.serve.telemetry.ServeTelemetry`.

The API contract lives in ``docs/serving.md`` (normative; its examples
are executed by the docs-consistency tests).  Quick start::

    from repro.serve import ServeConfig, serve_in_thread

    with serve_in_thread(ServeConfig(port=0, workers=2)) as server:
        print(server.base_url)   # POST /v1/jobs, GET /v1/metrics, ...

or, from a shell: ``python -m repro.cli serve --port 8080``.

Jobs can be made **durable**: ``ServeConfig(store_path=...)`` selects
the write-ahead-journaled persistent store (:mod:`repro.serve.store`),
which replays its journal on startup — terminal results serve from
disk, queued jobs re-enter the queue, and interrupted solves resume
bit-identically from their last checkpoint (docs/serving.md,
"Durability & operations").

Module map: :mod:`~repro.serve.wire` (JSON schemas, hashing, the error
envelope), :mod:`~repro.serve.cache` (the bounded LRU and the result cache),
:mod:`~repro.serve.quotas` (admission control), :mod:`~repro.serve.jobs`
(job store + worker pool), :mod:`~repro.serve.store` (the persistent
SQLite job store), :mod:`~repro.serve.telemetry` (the request metrics
registry), :mod:`~repro.serve.server` (the HTTP front end),
:mod:`~repro.serve.config` (:class:`ServeConfig`).
"""

from repro.serve.cache import ResultCache
from repro.serve.config import ServeConfig
from repro.serve.jobs import (
    JOB_STATES,
    TERMINAL_STATES,
    Job,
    JobStore,
    WarmUnavailableError,
)
from repro.serve.quotas import AdmissionError, TenantQuotas
from repro.serve.server import AlignmentServer, serve_in_thread
from repro.serve.store import SqliteJobStore, gc_jobs, list_jobs, make_store
from repro.serve.telemetry import ServeTelemetry, route_template
from repro.serve.wire import (
    API_VERSION,
    cache_key,
    error_envelope,
    problem_digest,
    problem_from_wire,
    problem_to_wire,
    result_to_wire,
)

__all__ = [
    "API_VERSION",
    "AdmissionError",
    "AlignmentServer",
    "JOB_STATES",
    "Job",
    "JobStore",
    "ResultCache",
    "ServeConfig",
    "ServeTelemetry",
    "SqliteJobStore",
    "TERMINAL_STATES",
    "TenantQuotas",
    "WarmUnavailableError",
    "cache_key",
    "error_envelope",
    "gc_jobs",
    "list_jobs",
    "make_store",
    "problem_digest",
    "problem_from_wire",
    "problem_to_wire",
    "result_to_wire",
    "route_template",
    "serve_in_thread",
]
