"""The one-call realignment helper: edit, seed, re-propagate, round.

:func:`realign` strings the incremental pieces together — apply a
:class:`~repro.incremental.delta.ProblemDelta`, then run the registered
solver with ``warm_from=`` so BP re-propagates only around the
perturbation.  The CLI ``realign`` subcommand is a thin wrapper over it.
The serving layer's ``warm_from=<job_id>`` path is not: a warm job
receives the whole edited problem, decodes it and builds its **S** from
scratch, then runs the solver with ``warm_from=`` the parent's state.
"""

from __future__ import annotations

from typing import Any

from repro.core.problem import NetworkAlignmentProblem
from repro.core.result import AlignmentResult
from repro.incremental.delta import DeltaReport, ProblemDelta, apply_delta
from repro.incremental.state import WarmState

__all__ = ["realign"]


def realign(
    problem: NetworkAlignmentProblem,
    delta: ProblemDelta,
    warm: WarmState,
    *,
    method: str = "bp",
    config: Any = None,
    keep_state: bool = True,
) -> tuple[NetworkAlignmentProblem, AlignmentResult, DeltaReport]:
    """Apply ``delta`` and re-align warm from ``warm``.

    Args:
        problem: The previously solved instance (left untouched).
        delta: The edit script to apply.
        warm: Converged state of the previous solve (capture it via
            ``align(..., keep_state=True)`` then
            :meth:`WarmState.from_result`).
        method: Registered solver with warm support (``"bp"``).
        config: Solver config (dataclass, mapping, or ``None``).
        keep_state: Capture the *new* final state on the result so the
            next realignment can chain from it.

    Returns:
        ``(new_problem, result, report)`` — the edited problem, the
        warm alignment result, and the :func:`apply_delta` report.
    """
    from repro.registry import align

    new_problem, report = apply_delta(problem, delta)
    result = align(new_problem, method=method, config=config,
                   warm_from=warm, keep_state=keep_state)
    return new_problem, result, report
