"""The graceful-degradation ladder.

One ladder of execution backends, ordered fastest-first and ending on
the reference implementation: ``process → serial``.  The serial rung
is the bit-identical reference, so a batch that degrades all the way
down still returns exactly the fault-free answer.

:func:`next_step` answers "where does this rung fall to?"; stepping off
the last rung raises :class:`~repro.errors.BackendUnavailableError`.
Every taken step emits a ``backend_degraded`` event and bumps
``repro_degradations_total``.
"""

from __future__ import annotations

from repro.errors import BackendUnavailableError
from repro.observe import get_bus

__all__ = [
    "EXECUTION_LADDER",
    "emit_degradation",
    "next_step",
]

#: Execution-backend ladder, fastest first, reference last.
EXECUTION_LADDER: tuple[str, ...] = ("process", "serial")


def next_step(ladder: tuple[str, ...], current: str) -> str:
    """The rung below ``current``, or raise when already on the floor.

    A ``current`` not on the ladder has nothing to fall to.
    """
    try:
        pos = ladder.index(current)
    except ValueError:
        raise BackendUnavailableError(
            f"backend {current!r} is not on the degradation ladder "
            f"{ladder}; nothing to fall back to"
        ) from None
    if pos + 1 >= len(ladder):
        raise BackendUnavailableError(
            f"backend {current!r} is the last rung of {ladder}; "
            "degradation ladder exhausted"
        )
    return ladder[pos + 1]


def emit_degradation(site: str, from_backend: str, to_backend: str,
                     reason: str) -> None:
    """Publish one taken ladder step to the observe layer."""
    bus = get_bus()
    if bus.active:
        bus.emit(
            "backend_degraded", site=site, from_backend=from_backend,
            to_backend=to_backend, reason=reason,
        )
        bus.metrics.counter(
            "repro_degradations_total", site=site, to_backend=to_backend
        ).inc()
