"""BP parity against a recorded fixture (``tests/golden/bp_parity.json``).

Every scenario runs BP on a small seeded power-law instance and compares
the run with the recording: cold BP at batch 1 and 4, a resume from a
mid-run checkpoint, ``init_messages``, the approx, exact and suitor
matchers, and warm (``warm_from``) realignment at edit rates 0, 1%, 5%
and 30% (30% reaches the full-sweep fallback, 1% stops early because
its active set empties).

Pinned exactly: the mates, the objective parts, the history
``(iteration, source, objective)``, ``method``, ``params`` and the
event stream (without the ``time``/``seq`` stamps and span ids/timings,
which differ per run).  The final ``solver_state`` is pinned to 1e-12
relative to each array's magnitude, so the fixture holds across numpy
builds whose reductions round differently.

The fixture was recorded from the code before BP's cold and warm
iteration loops were merged into one, by running this module from the
repository root::

    PYTHONPATH=src python -m tests.test_bp_parity --record
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.bp import BPConfig
from repro.generators.perturb import edit_script
from repro.incremental import ProblemDelta, WarmState, apply_delta
from repro.observe import capture
from repro.registry import align
from repro.resilience import CheckpointStore
from tests.helpers import SnapshotLog

FIXTURE = Path(__file__).parent / "golden" / "bp_parity.json"

#: Event fields that change from run to run (span ids and timings).
_VOLATILE = frozenset({"span", "parent", "seconds"})

_COLD = {"n_iter": 10, "gamma": 0.99}
_WARM = {"n_iter": 30, "batch": 2}

#: name -> (kind, instance seed, config, extra).  ``kind`` is "cold",
#: "resume" (resume from the checkpoint at iteration ``extra``), "init"
#: (``init_messages`` drawn from seed ``extra``) or "warm" (realign
#: after an edit script at rate ``extra``).
SCENARIOS: dict[str, tuple[str, int, dict, float]] = {
    "cold_b1_approx": ("cold", 5, dict(_COLD, batch=1, matcher="approx"), 0),
    "cold_b4_approx": ("cold", 5, dict(_COLD, batch=4, matcher="approx"), 0),
    "cold_b1_exact": ("cold", 5, dict(_COLD, batch=1, matcher="exact"), 0),
    "cold_b4_exact": ("cold", 7, dict(_COLD, batch=4, matcher="exact"), 0),
    "cold_b1_suitor": ("cold", 7, dict(_COLD, batch=1, matcher="suitor"), 0),
    "cold_b4_suitor": ("cold", 5, dict(_COLD, batch=4, matcher="suitor"), 0),
    "cold_fixed_damping": (
        "cold", 5, dict(_COLD, batch=2, damping="fixed", gamma=0.6), 0),
    "cold_no_damping": ("cold", 7, dict(_COLD, batch=1, damping="none"), 0),
    "resume_b1_k4": ("resume", 5, dict(_COLD, batch=1), 4),
    "resume_b4_k6": ("resume", 7, dict(_COLD, batch=4, matcher="suitor"), 6),
    "init_b1_approx": ("init", 5, dict(_COLD, batch=1), 11),
    "init_b4_exact": ("init", 7, dict(_COLD, batch=4, matcher="exact"), 12),
    "warm_rate0": ("warm", 5, dict(_WARM), 0.0),
    "warm_rate1": ("warm", 5, dict(_WARM), 0.01),
    "warm_rate5": ("warm", 5, dict(_WARM), 0.05),
    "warm_rate30": ("warm", 5, dict(_WARM), 0.30),
    "warm_rate5_exact": ("warm", 7, dict(_WARM, matcher="exact"), 0.05),
    "warm_rate5_suitor": ("warm", 7, dict(_WARM, matcher="suitor"), 0.05),
    "warm_rate5_round3": ("warm", 5, dict(_WARM, round_every=3), 0.05),
    # Warm runs round each iterate at once whatever the batch size.
    "warm_rate5_b8": ("warm", 7, dict(_WARM, batch=8), 0.05),
    "warm_rate30_fixed": (
        "warm", 7, dict(_WARM, damping="fixed", gamma=0.7), 0.30),
    # active_max_frac=1 never falls back, so every iteration takes the
    # active-subset update; a loose active_tol empties the set early.
    "warm_rate5_subset": ("warm", 5, dict(_WARM, active_max_frac=1.0), 0.05),
    "warm_rate30_subset": (
        "warm", 7, dict(_WARM, active_max_frac=1.0), 0.30),
    "warm_rate5_loose_tol": ("warm", 5, dict(_WARM, active_tol=1e-4), 0.05),
}


def _problem(seed: int):
    return repro.powerlaw_alignment_instance(
        n=30, expected_degree=3, seed=seed).problem


def run_scenario(name: str):
    """Run one scenario; returns ``(result, events)`` of the pinned run."""
    kind, seed, cfg_kw, extra = SCENARIOS[name]
    problem = _problem(seed)
    cfg = BPConfig(**cfg_kw)
    kwargs: dict = {"keep_state": True}
    init = None
    if kind == "resume":
        store = SnapshotLog()
        align(problem, "bp", cfg, checkpoint_every=2, checkpoint_store=store,
              checkpoint_key="p")
        resume_from = CheckpointStore()
        resume_from.save("p", store.saved[int(extra)])
        kwargs.update(checkpoint_store=resume_from, checkpoint_key="p",
                      resume=True)
    elif kind == "init":
        rng = np.random.default_rng(int(extra))
        m = problem.n_edges_l
        init = (rng.normal(size=m), rng.normal(size=m))
    elif kind == "warm":
        cold = align(problem, "bp", cfg, keep_state=True)
        warm_state = WarmState.from_result(problem, cold)
        delta = edit_script(problem, l_edge_rate=extra, weight_rate=extra,
                            seed=seed + 100).to_dict()
        # New weights on a 1/1024 grid (the instance's are all 1) keep
        # every wᵀx sum exact in any order: the BLAS dot behind the
        # objective sums in a CPU-dependent order, and the objective
        # parts are pinned exactly.
        delta["l_reweight"] = [[a, b, round(w * 1024) / 1024]
                               for a, b, w in delta["l_reweight"]]
        problem, _ = apply_delta(problem, ProblemDelta.from_dict(delta))
        kwargs["warm_from"] = warm_state
    with capture() as sink:
        if init is None:
            result = align(problem, "bp", cfg, **kwargs)
        else:
            result = repro.belief_propagation_align(
                problem, cfg, init_messages=init, keep_state=True)
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
        "history": [(r.iteration, r.source, r.objective)
                    for r in result.history],
        "method": result.method,
        "params": result.params,
        "events": [
            {"type": e.type,
             **{k: v for k, v in e.fields.items() if k not in _VOLATILE}}
            for e in events
        ],
        "solver_state": result.solver_state,
    })


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_scenario(recorded):
    assert sorted(recorded) == sorted(SCENARIOS)


def test_fixture_reaches_the_warm_edge_cases(recorded):
    params = {k: v["params"] for k, v in recorded.items()
              if k.startswith("warm")}
    assert params["warm_rate0"]["iterations_run"] == 0
    assert params["warm_rate1"]["iterations_run"] < _WARM["n_iter"]
    assert params["warm_rate30"]["full_sweeps"] > 0


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_bp_matches_recording(name, recorded):
    expected = dict(recorded[name])
    actual = summarize(*run_scenario(name))
    exp_state = expected.pop("solver_state")
    act_state = actual.pop("solver_state")
    assert actual == expected
    assert sorted(act_state) == sorted(exp_state)
    for key, values in exp_state.items():
        want = np.asarray(values, dtype=np.float64)
        scale = float(np.max(np.abs(want), initial=0.0))
        np.testing.assert_allclose(act_state[key], want, rtol=1e-12,
                                   atol=1e-12 * scale, err_msg=key)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python -m tests.test_bp_parity "
                 "--record")
    FIXTURE.write_text(json.dumps(
        {name: summarize(*run_scenario(name)) for name in SCENARIOS},
        sort_keys=True, separators=(",", ":"),
    ) + "\n")
    print(f"wrote {FIXTURE}")
