"""Matcher parity against ``tests/golden/matcher_parity.json``.

Every case builds a small seeded bipartite graph and runs
``make_matcher(kind)(g, g.weights)`` for every kind in
:data:`repro.core.rounding.MATCHER_KINDS`.  The cases are 40 seeded
:func:`tests.helpers.random_bipartite` graphs (negative weights
included; the odd seeds have their weights rounded to 0.5 steps so ties
are common), an empty L, a single positive and a single negative edge,
and one ``powerlaw_alignment_instance(n=300)`` L with its own (all
equal) weights and with seeded random weights.

Pinned exactly: ``mate_a``, ``weight``, every
:class:`~repro.matching.result.RoundStats` and the fields of every
event the call emits (the ``matching`` event, without span ids and
timings).

The fixture was recorded from the code before the matching-backend
registry and its round kernels were removed, by running this module
from the repository root::

    PYTHONPATH=src python -m tests.test_matcher_parity --record
"""

from __future__ import annotations

import json
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.rounding import MATCHER_KINDS, make_matcher
from repro.observe import capture
from repro.sparse.bipartite import BipartiteGraph
from tests.helpers import random_bipartite

FIXTURE = Path(__file__).parent / "golden" / "matcher_parity.json"

#: Event fields that change from run to run (span ids and timings).
_VOLATILE = frozenset({"span", "parent", "seconds"})

_RANDOM_SEEDS = range(40)


def _edges(n_a, n_b, a, b, w) -> BipartiteGraph:
    return BipartiteGraph.from_edges(n_a, n_b, np.asarray(a, dtype=np.int64),
                                     np.asarray(b, dtype=np.int64),
                                     np.asarray(w, dtype=np.float64))


def _random_case(seed: int) -> BipartiteGraph:
    g = random_bipartite(np.random.default_rng(seed))
    if seed % 2:
        g = g.with_weights(np.round(g.weights * 2.0) / 2.0)
    return g


def _powerlaw(reweight_seed: int | None) -> BipartiteGraph:
    ell = repro.powerlaw_alignment_instance(n=300, seed=3).problem.ell
    if reweight_seed is None:
        return ell
    rng = np.random.default_rng(reweight_seed)
    return ell.with_weights(rng.uniform(-0.5, 4.0, ell.n_edges))


#: Case name -> graph builder (deterministic).
CASES = {
    **{f"random_{s:02d}": (lambda s=s: _random_case(s))
       for s in _RANDOM_SEEDS},
    "empty": lambda: _edges(3, 4, [], [], []),
    "single_edge": lambda: _edges(2, 3, [1], [2], [2.5]),
    "single_negative_edge": lambda: _edges(2, 3, [0], [1], [-1.0]),
    "powerlaw_300": lambda: _powerlaw(None),
    "powerlaw_300_reweighted": lambda: _powerlaw(17),
}


def summarize(kind: str, g: BipartiteGraph) -> dict:
    """The pinned view of ``make_matcher(kind)(g, g.weights)``."""
    with capture() as sink:
        result = make_matcher(kind)(g, g.weights)
    return {
        "mate_a": result.mate_a.tolist(),
        "weight": float(result.weight),
        "rounds": [list(astuple(r)) for r in result.rounds],
        "events": [
            {"type": e.type,
             **{k: v for k, v in e.fields.items() if k not in _VOLATILE}}
            for e in sink.events
        ],
    }


def record() -> dict:
    return {name: {kind: summarize(kind, build()) for kind in MATCHER_KINDS}
            for name, build in CASES.items()}


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case_and_kind(recorded):
    assert sorted(recorded) == sorted(CASES)
    for name, by_kind in recorded.items():
        assert sorted(by_kind) == sorted(MATCHER_KINDS), name


def test_fixture_exercises_ties_and_rounds(recorded):
    approx = [recorded[name]["approx"] for name in recorded]
    assert any(len(r["rounds"]) > 2 for r in approx)
    assert recorded["empty"]["approx"]["mate_a"] == [-1, -1, -1]
    assert recorded["single_edge"]["exact"]["mate_a"] == [-1, 2]
    assert recorded["single_negative_edge"]["greedy"]["weight"] == 0.0


@pytest.mark.parametrize("name", sorted(CASES))
def test_matchers_match_recording(name, recorded):
    g = CASES[name]()
    for kind in MATCHER_KINDS:
        assert summarize(kind, g) == recorded[name][kind], kind


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python -m tests.test_matcher_parity "
                 "--record")
    FIXTURE.write_text(json.dumps(record(), sort_keys=True,
                                  separators=(",", ":")) + "\n")
    print(f"wrote {FIXTURE}")
