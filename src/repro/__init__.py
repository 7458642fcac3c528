"""netalign-mc-py: network alignment via approximate matching (SC 2012).

A from-scratch Python reproduction of Khan, Gleich, Pothen &
Halappanavar, *"A multithreaded algorithm for network alignment via
approximate matching"* (SC 2012): the belief-propagation and Klau
matching-relaxation alignment heuristics, exact and locally-dominant
½-approximate bipartite matching, the paper's problem families, and a
trace-driven simulated NUMA machine reproducing its strong-scaling study.

Quick start::

    import repro

    inst = repro.powerlaw_alignment_instance(n=400, expected_degree=6, seed=0)
    result = repro.align(inst.problem, method="bp")
    print(result.summary())

``repro.align`` is the single entry point for every solver —
``method="bp" | "klau" | "isorank"`` — and accepts the
method's config dataclass or a plain dict.  See README.md for the
architecture overview and DESIGN.md for the paper-to-module map.
"""

from repro.accel import ParallelConfig, parallel_map, solve_many
from repro.core import (
    AlignmentResult,
    BPConfig,
    IsoRankConfig,
    KlauConfig,
    NetworkAlignmentProblem,
    belief_propagation_align,
    isorank_align,
    klau_align,
    lp_relaxation_align,
    make_matcher,
    round_heuristic,
)
from repro.core.rounding import MATCHER_KINDS
from repro.generators import (
    AlignmentInstance,
    bio_instance,
    dmela_scere,
    homo_musm,
    lcsh_rameau,
    lcsh_wiki,
    ontology_instance,
    powerlaw_alignment_instance,
    powerlaw_graph,
)
from repro import observe
from repro.graph import Graph
from repro.incremental import (
    DeltaReport,
    ProblemDelta,
    WarmState,
    apply_delta,
    realign,
)
from repro.machine import SimulatedRuntime, xeon_e7_8870
from repro.matching import (
    MatchingResult,
    auction_matching,
    greedy_matching,
    locally_dominant_matching,
    locally_dominant_matching_vectorized,
    max_weight_matching,
    suitor_matching,
)
from repro.registry import (
    SolverSpec,
    align,
    available_methods,
    get_solver,
    register_solver,
)
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    MachineFaults,
    ResilienceConfig,
    SolverCheckpoint,
    fault_plan,
    get_checkpoint_store,
    supervised_map,
)
from repro import serve
from repro.serve import ServeConfig, serve_in_thread
from repro.sparse import BipartiteGraph, CSRMatrix

__version__ = "1.1.0"

__all__ = [
    "AlignmentInstance",
    "AlignmentResult",
    "BPConfig",
    "BipartiteGraph",
    "CSRMatrix",
    "DeltaReport",
    "FaultPlan",
    "FaultSpec",
    "Graph",
    "IsoRankConfig",
    "KlauConfig",
    "MATCHER_KINDS",
    "MachineFaults",
    "MatchingResult",
    "NetworkAlignmentProblem",
    "ParallelConfig",
    "ProblemDelta",
    "ResilienceConfig",
    "ServeConfig",
    "SimulatedRuntime",
    "SolverCheckpoint",
    "SolverSpec",
    "WarmState",
    "__version__",
    "align",
    "apply_delta",
    "auction_matching",
    "available_methods",
    "belief_propagation_align",
    "bio_instance",
    "dmela_scere",
    "fault_plan",
    "get_checkpoint_store",
    "get_solver",
    "greedy_matching",
    "homo_musm",
    "isorank_align",
    "klau_align",
    "lcsh_rameau",
    "lcsh_wiki",
    "locally_dominant_matching",
    "locally_dominant_matching_vectorized",
    "lp_relaxation_align",
    "make_matcher",
    "max_weight_matching",
    "observe",
    "ontology_instance",
    "parallel_map",
    "powerlaw_alignment_instance",
    "powerlaw_graph",
    "realign",
    "register_solver",
    "round_heuristic",
    "serve",
    "serve_in_thread",
    "solve_many",
    "suitor_matching",
    "supervised_map",
    "xeon_e7_8870",
]
