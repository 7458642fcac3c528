"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to discriminate finer failure modes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "DimensionError",
    "ValidationError",
    "NotAMatchingError",
    "ConfigurationError",
    "TraceError",
    "ObservabilityError",
    "ResilienceError",
    "FaultInjectedError",
    "TaskFailedError",
    "TimeoutExceededError",
    "BackendUnavailableError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class DimensionError(ReproError, ValueError):
    """Array or matrix dimensions are inconsistent with each other."""


class ValidationError(ReproError, ValueError):
    """An input object failed structural validation (bad CSR, bad graph...)."""


class NotAMatchingError(ValidationError):
    """An edge subset claimed to be a matching violates the degree-1 rule."""


class ConfigurationError(ReproError, ValueError):
    """An algorithm or machine configuration value is invalid."""


class TraceError(ReproError, RuntimeError):
    """A work trace is malformed or used inconsistently with the runtime."""


class ObservabilityError(ReproError, RuntimeError):
    """An event breaches the :mod:`repro.observe` schema or sink contract."""


class ResilienceError(ReproError, RuntimeError):
    """Base class for the :mod:`repro.resilience` failure modes."""


class FaultInjectedError(ResilienceError):
    """A deterministic fault from a :class:`repro.resilience.FaultPlan` fired.

    Carries ``site`` and ``task_index`` so supervision layers (and
    tests) can attribute the failure to the injection point.
    """

    def __init__(self, site: str, task_index: int = -1) -> None:
        super().__init__(
            f"injected crash fault at site {site!r} (task={task_index})"
        )
        self.site = site
        self.task_index = task_index

    def __reduce__(self):
        # Default exception pickling replays ``args`` (the formatted
        # message) into ``__init__``; rebuild from the real fields so
        # the error survives a trip through a process pool.
        return (type(self), (self.site, self.task_index))


class TaskFailedError(ResilienceError):
    """One task of a batch failed after exhausting its retry budget.

    ``task_index`` locates the task in the submitted batch;
    ``remote_traceback`` carries the formatted traceback from wherever
    the task actually ran (possibly a worker process), so the failure is
    debuggable from the parent.
    """

    def __init__(
        self,
        message: str,
        task_index: int = -1,
        remote_traceback: str = "",
    ) -> None:
        super().__init__(message)
        self.message = message
        self.task_index = task_index
        self.remote_traceback = remote_traceback

    def __reduce__(self):
        return (
            type(self),
            (self.message, self.task_index, self.remote_traceback),
        )

    def __str__(self) -> str:  # pragma: no cover - formatting
        base = super().__str__()
        if self.remote_traceback:
            return f"{base}\n--- remote traceback ---\n{self.remote_traceback}"
        return base


class TimeoutExceededError(ResilienceError):
    """A supervised task exceeded its per-task timeout.

    Also the parent-side signal for a dead or hung worker: a worker that
    died without reporting looks like a task that never returns.
    """

    def __init__(self, site: str, task_index: int, timeout_s: float) -> None:
        super().__init__(
            f"task {task_index} at site {site!r} exceeded its "
            f"{timeout_s:g}s timeout (hung task or dead worker)"
        )
        self.site = site
        self.task_index = task_index
        self.timeout_s = timeout_s

    def __reduce__(self):
        return (type(self), (self.site, self.task_index, self.timeout_s))


class BackendUnavailableError(ResilienceError):
    """Every rung of the degradation ladder was exhausted for a backend."""
