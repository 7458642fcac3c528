"""Klau parity against a recorded fixture (``tests/golden/klau_parity.json``).

Every scenario runs Klau's MR method on a seeded instance and compares
the run with the recording.  The instances put Step 3's exact matcher
in both of its regimes: ``dmela_scere``, ``homo_musm``, ``lcsh_wiki``
and a power-law n=2000 L lie above the dense cutoff (the sparse search),
a power-law n=300 L below it (SciPy's LSAP).  The power-law n=2000 run
is the tie instance: its all-one weights give Step 3 optimal matchings
of equal weight, so a matcher that breaks ties differently from the
cold solver changes the history from iteration 2 on.  The other
scenarios cover the ``approx`` matcher, the default gap stop (which
fires at iteration 4 on its instance) and a resume from a mid-run
checkpoint.

Pinned exactly: the mates, the objective parts, the best upper bound,
the history ``(iteration, source, objective, weight part, overlap part,
upper bound, γ)``, ``method``, ``params`` and the event stream (without
the span ids and timings, which differ per run).

The fixture was recorded from the code in which Step 3 solved every
matching cold (its ``params`` then also held ``warm_start``, which the
recording left out), by running this module from the repository
root::

    PYTHONPATH=src python -m tests.test_klau_parity --record
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.klau import KlauConfig
from repro.generators.bio import dmela_scere, homo_musm
from repro.generators.ontology import lcsh_wiki
from repro.observe import capture
from repro.registry import align
from repro.resilience import CheckpointStore
from tests.helpers import SnapshotLog

FIXTURE = Path(__file__).parent / "golden" / "klau_parity.json"

#: Event fields that change from run to run (span ids and timings).
_VOLATILE = frozenset({"span", "parent", "seconds"})

_NO_GAP = {"gap_tolerance": float("-inf")}

_INSTANCES = {
    "dmela": lambda: dmela_scere(scale=0.2, seed=3).problem,
    "homo": lambda: homo_musm(scale=0.25, seed=3).problem,
    "wiki": lambda: lcsh_wiki(scale=0.006, seed=3).problem,
    "pl2000": lambda: repro.powerlaw_alignment_instance(
        n=2000, seed=7).problem,
    "pl300": lambda: repro.powerlaw_alignment_instance(
        n=300, seed=7).problem,
}

#: name -> (instance, config, resume iteration or 0).  A resume scenario
#: runs with a checkpoint every 2 iterations, then pins the run resumed
#: from the snapshot of the given iteration.
SCENARIOS: dict[str, tuple[str, dict, int]] = {
    "dmela_sparse": ("dmela", dict(_NO_GAP, n_iter=8), 0),
    "homo_sparse": ("homo", dict(_NO_GAP, n_iter=8), 0),
    "wiki_sparse": ("wiki", dict(_NO_GAP, n_iter=4), 0),
    "pl2000_ties": ("pl2000", dict(_NO_GAP, n_iter=3), 0),
    "pl300_dense": ("pl300", dict(_NO_GAP, n_iter=10), 0),
    "dmela_approx": ("dmela", dict(_NO_GAP, n_iter=8, matcher="approx"), 0),
    "homo_gap_stop": ("homo", dict(n_iter=40), 0),
    "dmela_resume_k4": ("dmela", dict(_NO_GAP, n_iter=8), 4),
}


def run_scenario(name: str):
    """Run one scenario; returns ``(result, events)`` of the pinned run."""
    instance, cfg_kw, resume_at = SCENARIOS[name]
    problem = _INSTANCES[instance]()
    cfg = KlauConfig(**cfg_kw)
    kwargs: dict = {}
    if resume_at:
        store = SnapshotLog()
        align(problem, "klau", cfg, checkpoint_every=2,
              checkpoint_store=store, checkpoint_key="p")
        resume_from = CheckpointStore()
        resume_from.save("p", store.saved[resume_at])
        kwargs.update(checkpoint_store=resume_from, checkpoint_key="p",
                      resume=True)
    with capture() as sink:
        result = align(problem, "klau", cfg, **kwargs)
    return result, sink.events


def _plain(obj):
    """JSON-ready copy; NaN becomes the string "NaN" so == compares it."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return "NaN" if math.isnan(obj) else float(obj)
    return obj


def summarize(result, events) -> dict:
    """The pinned view of one run."""
    return _plain({
        "mate_a": result.matching.mate_a,
        "objective": result.objective,
        "weight_part": result.weight_part,
        "overlap_part": result.overlap_part,
        "best_upper_bound": result.best_upper_bound,
        "history": [(r.iteration, r.source, r.objective, r.weight_part,
                     r.overlap_part, r.upper_bound, r.gamma)
                    for r in result.history],
        "method": result.method,
        "params": result.params,
        "events": [
            {"type": e.type,
             **{k: v for k, v in e.fields.items() if k not in _VOLATILE}}
            for e in events
        ],
    })


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_scenario(recorded):
    assert sorted(recorded) == sorted(SCENARIOS)


def test_fixture_reaches_its_edge_cases(recorded):
    assert len(recorded["homo_gap_stop"]["history"]) < 40
    for name, (_, cfg, _) in SCENARIOS.items():
        if "gap_tolerance" in cfg:
            assert len(recorded[name]["history"]) == cfg["n_iter"], name
    resumed = recorded["dmela_resume_k4"]
    assert resumed == recorded["dmela_sparse"] | {"events":
                                                   resumed["events"]}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_klau_matches_recording(name, recorded):
    assert summarize(*run_scenario(name)) == recorded[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python -m tests.test_klau_parity "
                 "--record")
    FIXTURE.write_text(json.dumps(
        {name: summarize(*run_scenario(name)) for name in SCENARIOS},
        sort_keys=True, separators=(",", ":"),
    ) + "\n")
    print(f"wrote {FIXTURE}")
