"""Incremental realignment: delta updates + neighborhood-scoped BP.

A production alignment service sees drifting inputs, not one-shot
problems.  This package makes re-solving after a small edit cheap:

* :class:`ProblemDelta` / :func:`apply_delta` — validated edit scripts
  (L-edge and graph-edge insert/delete, weight changes) that return a
  perturbed problem plus a :class:`DeltaReport` of the edge renumbering,
  maintaining the cached squares matrix incrementally.
* :class:`WarmState` — a converged solver state keyed by L edges, so it
  survives edge renumbering across edits.  :func:`seed_from_warm` maps
  it onto an edited problem and is the one place that decides which L
  edges the edit touched: BP's initial active set, reported by the
  first ``active_set_size`` event.
* :func:`realign` — apply a delta and re-run BP with ``warm_from=``,
  restricting per-iteration work to the perturbed neighborhood.

See ``docs/incremental.md`` for the executable walkthrough.
"""

from repro.incremental.delta import DeltaReport, ProblemDelta, apply_delta
from repro.incremental.engine import realign
from repro.incremental.state import WarmState, seed_from_warm

__all__ = [
    "DeltaReport",
    "ProblemDelta",
    "WarmState",
    "apply_delta",
    "realign",
    "seed_from_warm",
]
