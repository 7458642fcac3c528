"""The serving configuration surface (``ServeConfig``).

One frozen dataclass drives the whole service — the HTTP listener, the
worker pool, the result cache, admission control, and the per-job
supervision/checkpoint policy — and, through
:class:`~repro.configtools.ConfigBase`, round-trips losslessly through
``to_dict``/``from_dict`` like every other public config, so a
deployment's exact serving parameters can be recorded and replayed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.configtools import ConfigBase
from repro.errors import ConfigurationError

__all__ = ["ServeConfig"]


@dataclass(frozen=True)
class ServeConfig(ConfigBase):
    """How the alignment job server listens, queues, runs, and caches.

    Attributes:
        host: Listen address for the HTTP server.
        port: Listen port; ``0`` binds an ephemeral port (the bound
            port is reported once the server starts — how the tests and
            benchmarks run many servers side by side).
        workers: Worker threads executing jobs; ``0`` starts none, so
            submitted jobs stay queued (a drain/testing mode).
        cache_entries: Bound on the content-addressed result cache;
            ``0`` disables caching.
        max_queue: Global bound on queued-plus-running jobs (``0`` =
            unbounded); breaches reject with ``queue_full``.
        max_active_per_tenant: Per-tenant active-job bound (``0`` =
            unbounded); breaches reject with ``quota_exceeded``.
        max_edges_l: Largest |E_L| accepted per submitted problem
            (``0`` = unbounded); breaches reject with ``too_large``.
        warm_entries: Bound on the LRU store of per-job solver states
            kept for incremental realignment (``POST /jobs`` with
            ``warm_from``); ``0`` disables warm submissions entirely
            (every ``warm_from`` rejects with ``warm_unavailable``).
        checkpoint_every: Snapshot solver iterate state every this many
            iterations while a job runs (``0`` = off), cold and
            ``warm_from`` jobs alike; jobs rounding with a stateful
            matcher run without snapshots.  With retries, a crashed
            attempt warm-resumes from its last snapshot.
        max_retries: Supervised retry budget per job after the first
            attempt (see :mod:`repro.resilience`).
        timeout_s: Per-attempt wall-clock budget under supervision;
            ``inf`` disables the timeout.
        wait_timeout_s: Longest a ``POST /jobs?wait=1`` submission
            blocks for a terminal state before answering ``504``.
        telemetry: Serve the always-on HTTP metrics registry and attach
            the telemetry sink to the process observe bus while the
            server runs (``GET /v1/metrics``).  Off disables per-request
            metric recording; the endpoint then exposes only whatever
            the observe bus already collects.
        store: Job-store backend: ``"memory"`` (the historical
            in-process dict; every job dies with the process) or
            ``"sqlite"`` (the write-ahead-journaled persistent store of
            :mod:`repro.serve.store` — jobs survive restarts and crash
            recovery replays the journal).
        store_path: Directory holding the persistent store's journal
            database and checkpoint files; required when
            ``store="sqlite"``.
        drain_timeout_s: Wall-clock budget graceful drain (SIGTERM /
            SIGINT under ``repro.cli serve``) gives in-flight jobs to
            settle before the process exits.
        seed: Accepted on every public config (round-tripped, recorded
            in provenance); the server itself is deterministic and does
            not consume it.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    workers: int = 2
    cache_entries: int = 128
    warm_entries: int = 16
    max_queue: int = 64
    max_active_per_tenant: int = 8
    max_edges_l: int = 2_000_000
    checkpoint_every: int = 0
    max_retries: int = 1
    timeout_s: float = float("inf")
    wait_timeout_s: float = 60.0
    telemetry: bool = True
    store: str = "memory"
    store_path: str = ""
    drain_timeout_s: float = 10.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.port < 0 or self.port > 65535:
            raise ConfigurationError("port must be in [0, 65535]")
        for name in ("workers", "cache_entries", "warm_entries", "max_queue",
                     "max_active_per_tenant", "max_edges_l",
                     "checkpoint_every", "max_retries"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        if self.timeout_s <= 0:
            raise ConfigurationError("timeout_s must be positive")
        if self.wait_timeout_s <= 0:
            raise ConfigurationError("wait_timeout_s must be positive")
        if self.store not in ("memory", "sqlite"):
            raise ConfigurationError(
                f"store must be 'memory' or 'sqlite', got {self.store!r}"
            )
        if self.store == "sqlite" and not self.store_path:
            raise ConfigurationError(
                "store='sqlite' requires a store_path directory"
            )
        if self.drain_timeout_s <= 0:
            raise ConfigurationError("drain_timeout_s must be positive")
