"""Admission control: the bounded queue and per-tenant quotas.

A serving deployment must reject work it cannot absorb *at the door*,
not time it out mid-queue.  Admission is checked synchronously at
``POST /v1/jobs`` time, before a job object is even created:

* the **global queue bound** (``max_queue``) caps jobs that are queued
  or running across all tenants — the backpressure valve for the whole
  process;
* the **per-tenant bound** (``max_active_per_tenant``) caps one
  tenant's queued-plus-running jobs, so a single noisy client cannot
  monopolize the pool.  Tenants are identified by the ``X-Tenant``
  request header (default ``"default"``).

Both violations surface as :class:`AdmissionError` and reach the client
as a ``429`` with a ``quota_exceeded`` / ``queue_full`` error envelope.
Cache hits bypass admission entirely — answering from memory consumes
no slot.
"""

from __future__ import annotations

import threading

from repro.errors import ReproError

__all__ = ["AdmissionError", "TenantQuotas"]


class AdmissionError(ReproError, RuntimeError):
    """A job submission was rejected at the door.

    Attributes:
        code: The wire error code (``"queue_full"`` or
            ``"quota_exceeded"``).
        tenant: The tenant whose submission was rejected.
    """

    def __init__(self, code: str, message: str, tenant: str) -> None:
        super().__init__(message)
        self.code = code
        self.tenant = tenant


class TenantQuotas:
    """Tracks queued-plus-running jobs globally and per tenant.

    Args:
        max_queue: Global bound on active (queued or running) jobs;
            ``0`` disables the global bound.
        max_active_per_tenant: Per-tenant bound on active jobs; ``0``
            disables the per-tenant bound.
    """

    def __init__(self, max_queue: int = 64,
                 max_active_per_tenant: int = 8) -> None:
        self.max_queue = int(max_queue)
        self.max_active_per_tenant = int(max_active_per_tenant)
        self._lock = threading.Lock()
        self._active_total = 0
        self._active_by_tenant: dict[str, int] = {}

    def acquire(self, tenant: str) -> None:
        """Claim one active slot for ``tenant`` or reject the submit.

        Args:
            tenant: The submitting tenant's identifier.

        Raises:
            AdmissionError: With ``code="queue_full"`` when the global
                bound is reached, or ``code="quota_exceeded"`` when the
                tenant's bound is reached.  No slot is consumed on
                rejection.
        """
        with self._lock:
            if 0 < self.max_queue <= self._active_total:
                raise AdmissionError(
                    "queue_full",
                    f"job queue is full ({self._active_total} active, "
                    f"bound {self.max_queue}); retry later",
                    tenant,
                )
            held = self._active_by_tenant.get(tenant, 0)
            if 0 < self.max_active_per_tenant <= held:
                raise AdmissionError(
                    "quota_exceeded",
                    f"tenant {tenant!r} already has {held} active job(s) "
                    f"(bound {self.max_active_per_tenant})",
                    tenant,
                )
            self._active_total += 1
            self._active_by_tenant[tenant] = held + 1

    def restore(self, tenant: str) -> None:
        """Re-claim a slot for a recovered job, bypassing the bounds.

        Restart recovery re-admits jobs that were *already* admitted by
        a previous process; rejecting them now would drop accepted work,
        so the bounds are not re-checked (the journal can only hold
        jobs that once passed them).

        Args:
            tenant: The tenant whose recovered job re-enters the queue.
        """
        with self._lock:
            self._active_total += 1
            self._active_by_tenant[tenant] = (
                self._active_by_tenant.get(tenant, 0) + 1
            )

    def release(self, tenant: str) -> None:
        """Return ``tenant``'s slot when its job reaches a terminal state.

        Args:
            tenant: The tenant whose job finished, failed, or was
                cancelled.  Releasing more than was acquired is clamped
                (idempotent terminal transitions must not underflow).
        """
        with self._lock:
            self._active_total = max(0, self._active_total - 1)
            held = self._active_by_tenant.get(tenant, 0)
            if held <= 1:
                self._active_by_tenant.pop(tenant, None)
            else:
                self._active_by_tenant[tenant] = held - 1

    def snapshot(self) -> dict[str, int]:
        """Return ``{"active", "tenants"}`` occupancy counters.

        Returns:
            A dict for the ``/v1/healthz`` payload: total active jobs and
            the number of tenants currently holding slots.
        """
        with self._lock:
            return {
                "active": self._active_total,
                "tenants": len(self._active_by_tenant),
            }
