"""Maximum-weight bipartite matching substrate.

The paper's rounding step needs two matchers:

* an **exact** max-weight bipartite matcher
  (:func:`~repro.matching.exact.max_weight_matching`) — successive
  shortest augmenting paths with dual potentials over the sparse graph;
* the **half-approximate locally-dominant** matcher of Preis /
  Manne–Bisseling (paper §V, Algorithms 1–3), in a faithful queue-based
  form (:func:`~repro.matching.locally_dominant.locally_dominant_matching`)
  and a vectorized rounds form for large graphs
  (:func:`~repro.matching.locally_dominant.locally_dominant_matching_vectorized`).

All matchers only ever select edges with strictly positive weight (an edge
with non-positive weight can never increase a matching's weight), return a
:class:`~repro.matching.result.MatchingResult`, and break weight ties by
vertex id exactly as §V prescribes.

The general-graph matchers (locally-dominant, Suitor, Karp–Sipser) read
L's general-graph view, which the graph builds once and shares with its
``with_weights`` views, so iterative solvers that round the same L every
iteration convert it once.  The vectorized rounds form runs on
:mod:`repro.matching.kernels`.
"""

from repro.matching.auction import auction_matching
from repro.matching.cardinality import hopcroft_karp, karp_sipser_matching
from repro.matching.dense import max_weight_matching_dense
from repro.matching.exact import max_weight_matching
from repro.matching.greedy import greedy_matching
from repro.matching.kernels import GroupPlan
from repro.matching.locally_dominant import (
    locally_dominant_matching,
    locally_dominant_matching_vectorized,
)
from repro.matching.result import MatchingResult
from repro.matching.suitor import suitor_matching
from repro.matching.validate import (
    check_matching,
    is_maximal_matching,
    matching_weight,
)

__all__ = [
    "GroupPlan",
    "MatchingResult",
    "auction_matching",
    "check_matching",
    "greedy_matching",
    "hopcroft_karp",
    "is_maximal_matching",
    "karp_sipser_matching",
    "locally_dominant_matching",
    "locally_dominant_matching_vectorized",
    "matching_weight",
    "max_weight_matching",
    "max_weight_matching_dense",
    "suitor_matching",
]
