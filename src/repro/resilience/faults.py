"""Deterministic fault injection: seeded chaos for the execution layer.

A :class:`FaultPlan` is a *seeded, replayable* description of the faults
to inject into a run: each :class:`FaultSpec` names a fault ``kind``
(``crash`` | ``hang`` | ``slow``), the call ``site`` it arms (one of
:data:`FAULT_SITES`: ``"parallel_map"``, ``"solver.iteration"``,
``"serve.job"``, or ``"*"`` for every site), and an optional
``task_index`` address.  Whether a given consultation fires is a pure
function of ``(plan.seed, spec position, site, task_index, attempt)``
— **not** of wall clock or thread interleaving — so a seeded plan
reproduces the identical fault sequence on every run (the
chaos-determinism property tests assert this).

Fault semantics at a consultation point (:func:`maybe_inject`):

``crash``
    Raise :class:`~repro.errors.FaultInjectedError`.
``hang``
    Sleep ``delay_s`` seconds (default long enough that any sane
    per-task timeout trips first) and then return — the parent-side
    supervisor sees a task that never came back in time, which is also
    exactly what a silently dead worker looks like.
``slow``
    Sleep ``delay_s`` (a straggler) and continue normally.

Fault injection is **off by default**: no plan installed means
:func:`maybe_inject` is one global read and a ``None`` comparison.
Install with :func:`install_fault_plan` / :func:`clear_fault_plan` or
the :func:`fault_plan` context manager; the CLI's ``--chaos PLAN.json``
does the same from a JSON file (:meth:`FaultPlan.from_dict`).

The machine-simulator side of chaos lives in :class:`MachineFaults`:
simulated *core failures* (threads that drop out; survivors absorb
their chunks) and *stragglers* (threads retiring work at a fraction of
the normal rate) for replaying the paper's strong-scaling study on
degraded hardware (``SimulatedRuntime(..., faults=...)``).
"""

from __future__ import annotations

import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

from repro.errors import ConfigurationError, FaultInjectedError
from repro.observe import get_bus

__all__ = [
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultSpec",
    "FaultPlan",
    "MachineFaults",
    "active_fault_plan",
    "clear_fault_plan",
    "consult",
    "fault_plan",
    "install_fault_plan",
    "maybe_inject",
]

#: The recognized fault kinds.
FAULT_KINDS = ("crash", "hang", "slow")

#: The sites some code consults (plus ``"*"``, every site).  A spec
#: aimed anywhere else could never fire, so a chaos run using it would
#: pass without any chaos.
FAULT_SITES = ("*", "parallel_map", "solver.iteration", "serve.job")


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    site:
        Call-site name the fault arms, one of :data:`FAULT_SITES`
        (``"*"`` arms every site).
    task_index:
        Only fire for this task index (``None`` = any task).
    probability:
        Per-consultation firing probability; decided deterministically
        from the plan seed (``1.0`` = always fire while budget lasts).
    max_fires:
        Total firing budget for this spec (``0`` = unlimited).
    delay_s:
        Sleep for ``hang``/``slow`` faults.  The default is sized for a
        *hang*: long relative to any reasonable per-task timeout.
    """

    kind: str
    site: str = "*"
    task_index: int | None = None
    probability: float = 1.0
    max_fires: int = 1
    delay_s: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if self.site not in FAULT_SITES:
            raise ConfigurationError(
                f"unknown fault site {self.site!r}; expected one of "
                f"{FAULT_SITES}"
            )
        if not (0.0 <= self.probability <= 1.0):
            raise ConfigurationError("probability must be in [0, 1]")
        if self.max_fires < 0:
            raise ConfigurationError("max_fires must be >= 0")
        if self.delay_s < 0:
            raise ConfigurationError("delay_s must be non-negative")

    def matches(self, site: str, task_index: int) -> bool:
        """Does this spec address the given consultation point?"""
        if self.site != "*" and self.site != site:
            return False
        return self.task_index is None or self.task_index == task_index

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind, "site": self.site,
            "task_index": self.task_index,
            "probability": self.probability, "max_fires": self.max_fires,
            "delay_s": self.delay_s,
        }


@dataclass(frozen=True)
class FaultRecord:
    """One fired fault, in consultation order (for determinism tests)."""

    site: str
    kind: str
    task_index: int
    attempt: int


def _decides_to_fire(
    seed: int, spec_index: int, site: str, task_index: int,
    attempt: int, probability: float,
) -> bool:
    """Pure firing decision: a hash of the full consultation address.

    ``zlib.crc32`` over the address bytes gives a stable uniform-ish
    32-bit value on every platform and run — no RNG stream whose
    consumption order could depend on thread scheduling.  The ``-1``
    fills the slot a retired worker id held, so a seeded plan fires at
    the same addresses it always did.
    """
    if probability >= 1.0:
        return True
    if probability <= 0.0:
        return False
    key = f"{seed}|{spec_index}|{site}|{task_index}|-1|{attempt}".encode()
    draw = zlib.crc32(key) / 0xFFFFFFFF
    return draw < probability


class FaultPlan:
    """A seeded set of :class:`FaultSpec` with deterministic firing.

    The plan keeps per-address consultation counters (``attempt``) and a
    per-spec remaining-fires budget; both are protected by a lock so the
    plan can be consulted from pool threads.  The *decision* at each
    address is pure (see :func:`_decides_to_fire`), so two runs that
    consult the same addresses in any order fire the same faults at the
    same addresses.
    """

    def __init__(self, faults: list[FaultSpec] | tuple[FaultSpec, ...],
                 seed: int = 0) -> None:
        self.seed = int(seed)
        self.faults: tuple[FaultSpec, ...] = tuple(faults)
        self._lock = threading.Lock()
        self._attempts: dict[tuple, int] = {}
        self._fires_left = [
            spec.max_fires if spec.max_fires > 0 else None
            for spec in self.faults
        ]
        self._fired: list[FaultRecord] = []

    # ------------------------------------------------------------------
    def consult(self, site: str, task_index: int = -1) -> FaultSpec | None:
        """Return the first matching spec that fires here, spending budget."""
        with self._lock:
            for idx, spec in enumerate(self.faults):
                if not spec.matches(site, task_index):
                    continue
                left = self._fires_left[idx]
                if left is not None and left <= 0:
                    continue
                key = (idx, site, task_index)
                attempt = self._attempts.get(key, 0)
                self._attempts[key] = attempt + 1
                if not _decides_to_fire(
                    self.seed, idx, site, task_index, attempt,
                    spec.probability,
                ):
                    continue
                if left is not None:
                    self._fires_left[idx] = left - 1
                self._fired.append(
                    FaultRecord(site, spec.kind, task_index, attempt)
                )
                return spec
        return None

    def fired(self) -> list[FaultRecord]:
        """Every fault fired so far, in consultation order."""
        with self._lock:
            return list(self._fired)

    def reset(self) -> None:
        """Restore the full firing budget (fresh replay of the same plan)."""
        with self._lock:
            self._attempts.clear()
            self._fired.clear()
            self._fires_left = [
                spec.max_fires if spec.max_fires > 0 else None
                for spec in self.faults
            ]

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (the ``--chaos PLAN.json`` file format)."""
        return {
            "seed": self.seed,
            "faults": [spec.to_dict() for spec in self.faults],
        }

    @classmethod
    def from_dict(cls, mapping: Mapping[str, Any]) -> "FaultPlan":
        """Inverse of :meth:`to_dict`; unknown keys raise."""
        known = {"seed", "faults"}
        unknown = sorted(set(mapping) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown FaultPlan keys {unknown}; valid: {sorted(known)}"
            )
        faults = []
        for row in mapping.get("faults", []):
            row = dict(row)
            bad = sorted(set(row) - {
                "kind", "site", "task_index", "probability", "max_fires",
                "delay_s",
            })
            if bad:
                raise ConfigurationError(f"unknown FaultSpec keys {bad}")
            faults.append(FaultSpec(**row))
        return cls(faults, seed=int(mapping.get("seed", 0)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan(seed={self.seed}, faults={len(self.faults)})"


#: The installed plan.  ``None`` means fault injection is off and
#: :func:`maybe_inject` is a single global read per consultation point.
_PLAN: FaultPlan | None = None


def install_fault_plan(plan: FaultPlan) -> FaultPlan:
    """Arm ``plan`` process-globally; returns it."""
    global _PLAN
    _PLAN = plan
    return plan


def clear_fault_plan() -> None:
    """Disarm fault injection."""
    global _PLAN
    _PLAN = None


def active_fault_plan() -> FaultPlan | None:
    """The armed plan, or ``None``."""
    return _PLAN


@contextmanager
def fault_plan(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Arm ``plan`` for the block, restoring the previous plan after."""
    global _PLAN
    previous = _PLAN
    _PLAN = plan
    try:
        yield plan
    finally:
        _PLAN = previous


def consult(site: str, task_index: int = -1) -> FaultSpec | None:
    """Consult the armed plan at a call site *without acting on it*.

    Emits the ``fault_injected`` event / counter for any fired fault and
    returns its spec; the caller decides what firing means (the
    supervisor in :mod:`repro.resilience.supervise` turns a ``hang``
    into a sleeping *dispatched* task so the real timeout machinery
    trips, which :func:`maybe_inject`'s parent-side sleep could not).
    Returns ``None`` — at the cost of one global read — when no plan is
    armed or nothing fires.
    """
    plan = _PLAN
    if plan is None:
        return None
    spec = plan.consult(site, task_index)
    if spec is None:
        return None
    bus = get_bus()
    if bus.active:
        bus.emit(
            "fault_injected", site=site, kind=spec.kind,
            task_index=task_index,
        )
        bus.metrics.counter(
            "repro_faults_injected_total", site=site, kind=spec.kind
        ).inc()
    return spec


def maybe_inject(site: str, task_index: int = -1) -> None:
    """Consult the armed plan at a call site; act on any fired fault.

    Raises on ``crash`` and sleeps on ``hang``/``slow``.  Costs one
    global read when no plan is armed.
    """
    spec = consult(site, task_index)
    if spec is None:
        return
    if spec.kind == "crash":
        raise FaultInjectedError(site, task_index)
    time.sleep(spec.delay_s)


# ----------------------------------------------------------------------
# Simulated-hardware faults (repro.machine)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MachineFaults:
    """Degraded-hardware model for :class:`repro.machine.SimulatedRuntime`.

    ``failed_threads`` drop out entirely: they retire no chunks, and the
    surviving threads absorb their share of every parallel loop (static
    schedules re-deal round-robin over survivors; dynamic schedules
    simply never see the dead threads grab work).  Barriers synchronize
    only the survivors.  ``straggler_threads`` stay alive but retire
    work at ``1 / straggler_factor`` of the normal core rate — the
    classic slow-core / thermally-throttled straggler.

    Alternatively give counts (``n_failed`` / ``n_stragglers``) plus a
    ``seed`` and the concrete thread ids are drawn deterministically at
    runtime construction (:meth:`resolve`).
    """

    failed_threads: tuple[int, ...] = ()
    straggler_threads: tuple[int, ...] = ()
    straggler_factor: float = 4.0
    n_failed: int = 0
    n_stragglers: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.straggler_factor < 1.0:
            raise ConfigurationError("straggler_factor must be >= 1")
        if self.n_failed < 0 or self.n_stragglers < 0:
            raise ConfigurationError("fault counts must be >= 0")

    def resolve(self, n_threads: int) -> tuple[set[int], set[int]]:
        """Concrete (failed, straggler) thread-id sets for a runtime.

        Explicit ids win; counts are drawn without replacement from a
        seeded generator (failed ids drawn first, stragglers from the
        survivors).  Failing every thread is a configuration error —
        there is no machine left to simulate.
        """
        import numpy as np

        failed = {t for t in self.failed_threads if t < n_threads}
        stragglers = {t for t in self.straggler_threads if t < n_threads}
        rng = np.random.default_rng(self.seed)
        alive = [t for t in range(n_threads) if t not in failed]
        if self.n_failed:
            take = min(self.n_failed, max(0, len(alive) - 1))
            failed |= set(
                int(t) for t in rng.choice(alive, size=take, replace=False)
            )
            alive = [t for t in range(n_threads) if t not in failed]
        if self.n_stragglers:
            pool = [t for t in alive if t not in stragglers]
            take = min(self.n_stragglers, len(pool))
            stragglers |= set(
                int(t) for t in rng.choice(pool, size=take, replace=False)
            )
        stragglers -= failed
        if len(failed) >= n_threads:
            raise ConfigurationError(
                "MachineFaults fails every simulated thread"
            )
        return failed, stragglers

    def to_dict(self) -> dict[str, Any]:
        return {
            "failed_threads": list(self.failed_threads),
            "straggler_threads": list(self.straggler_threads),
            "straggler_factor": self.straggler_factor,
            "n_failed": self.n_failed,
            "n_stragglers": self.n_stragglers,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, mapping: Mapping[str, Any]) -> "MachineFaults":
        row = dict(mapping)
        for key in ("failed_threads", "straggler_threads"):
            if key in row:
                row[key] = tuple(int(t) for t in row[key])
        return cls(**row)
