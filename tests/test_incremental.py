"""The incremental realignment engine (repro.incremental).

Four layers of coverage:

* the delta vocabulary — ``ProblemDelta`` validation, JSON round-trips,
  and strict rejection of inconsistent edit scripts;
* the central maintenance property, held under randomized edit scripts:
  ``apply_delta`` yields a problem digest-identical to building the
  perturbed problem from scratch, with a squares matrix that is
  array-identical to a fresh ``build_squares``;
* warm BP — rate-0 realignment reproduces the prior result (and a
  mid-run checkpoint, via ``WarmState.from_checkpoint``) bit-identically
  in zero iterations; perturbed realignment emits ``active_set_size``
  events and matches the two-step apply+align sequence exactly; a warm
  run resumes bit-identically from each of its own checkpoints (with or
  without ``warm_from``) and after a supervised crash, and matches the
  serial run on the process backend;
* the delivery surfaces — registry gating, the CLI ``realign``
  subcommand, and the serving layer's ``warm_from=<job_id>`` path with
  its cache-digest lineage.
"""

import http.client
import json

import numpy as np
import pytest

import repro
from repro.accel import ParallelConfig
from repro.core.bp import BPConfig
from repro.core.problem import NetworkAlignmentProblem
from repro.core.squares import build_squares
from repro.errors import ConfigurationError, ValidationError
from repro.generators.perturb import edit_script, perturb_weights
from repro.incremental import (
    DeltaReport,
    ProblemDelta,
    WarmState,
    apply_delta,
    realign,
)
from repro.incremental.state import seed_from_warm
from repro.observe import capture
from repro.registry import align, get_solver
from repro.resilience import (
    CheckpointStore,
    FaultPlan,
    FaultSpec,
    ResilienceConfig,
    fault_plan,
    supervised_map,
)
from repro.serve import problem_digest, problem_to_wire
from tests.helpers import SnapshotLog


@pytest.fixture(scope="module")
def instance():
    return repro.powerlaw_alignment_instance(n=60, expected_degree=4,
                                             seed=3)


@pytest.fixture(scope="module")
def problem(instance):
    _ = instance.problem.squares  # cache S so deltas maintain it
    return instance.problem


CFG = BPConfig(n_iter=12, matcher="approx", batch=2)


def _rebuilt(edited: NetworkAlignmentProblem) -> NetworkAlignmentProblem:
    """The same edited problem, built from scratch (no cached S)."""
    return NetworkAlignmentProblem(
        edited.a_graph, edited.b_graph, edited.ell,
        edited.alpha, edited.beta, edited.name,
    )


# --------------------------------------------------------------------
# the delta vocabulary
# --------------------------------------------------------------------

class TestProblemDelta:
    def test_json_round_trip(self, problem):
        delta = edit_script(problem, l_edge_rate=0.1, weight_rate=0.1,
                            graph_edge_rate=0.05, seed=7)
        doc = json.loads(json.dumps(delta.to_dict()))
        back = ProblemDelta.from_dict(doc)
        assert back.summary() == delta.summary()
        np.testing.assert_array_equal(back.l_add, delta.l_add)
        np.testing.assert_array_equal(back.l_add_w, delta.l_add_w)
        np.testing.assert_array_equal(back.l_drop, delta.l_drop)
        np.testing.assert_array_equal(back.a_add, delta.a_add)

    def test_empty_and_structural_flags(self):
        assert ProblemDelta.build().empty
        assert not ProblemDelta.build().structural
        rw = ProblemDelta.build(l_reweight=[(0, 0, 0.5)])
        assert not rw.structural and not rw.empty
        assert ProblemDelta.build(a_add=[(0, 1)]).structural

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValidationError, match="unknown delta fields"):
            ProblemDelta.from_dict({"l_new": []})

    def test_build_rejects_malformed_entries(self):
        with pytest.raises(ValidationError, match="triples"):
            ProblemDelta.build(l_add=[(0, 1)])
        with pytest.raises(ValidationError, match="pairs"):
            ProblemDelta.build(l_drop=[(0, 1, 2)])
        with pytest.raises(ValidationError, match="finite"):
            ProblemDelta.build(l_add=[(0, 1, float("nan"))])

    @pytest.mark.parametrize("delta_kw, match", [
        ({"a_add": [(3, 3)]}, "self-loops"),
        ({"b_add": [(0, 999)]}, "out of range"),
        ({"l_add": [(0, 999, 1.0)]}, "out of range"),
    ])
    def test_apply_rejects_malformed_edits(self, problem, delta_kw,
                                           match):
        delta = ProblemDelta.build(**delta_kw)
        with pytest.raises(ValidationError, match=match):
            apply_delta(problem, delta)

    def test_apply_rejects_absent_and_present_mismatches(self, problem):
        ell = problem.ell
        present = set(zip(ell.edge_a.tolist(), ell.edge_b.tolist()))
        absent = next((a, b) for a in range(ell.n_a)
                      for b in range(ell.n_b) if (a, b) not in present)
        with pytest.raises(ValidationError, match="not in L"):
            apply_delta(problem, ProblemDelta.build(l_drop=[absent]))
        with pytest.raises(ValidationError, match="not in L"):
            apply_delta(problem, ProblemDelta.build(
                l_reweight=[(*absent, 1.0)]))
        a = problem.a_graph
        a_present = set(zip(a.edge_u.tolist(), a.edge_v.tolist()))
        a_absent = next((u, v) for u in range(a.n)
                        for v in range(u + 1, a.n)
                        if (u, v) not in a_present)
        with pytest.raises(ValidationError, match="not in the graph"):
            apply_delta(problem, ProblemDelta.build(a_drop=[a_absent]))

    def test_apply_rejects_conflicting_edits(self, problem):
        a, b = int(problem.ell.edge_a[0]), int(problem.ell.edge_b[0])
        with pytest.raises(ValidationError, match="reweighted and drop"):
            apply_delta(problem, ProblemDelta.build(
                l_drop=[(a, b)], l_reweight=[(a, b, 0.5)]))
        with pytest.raises(ValidationError, match="already in L"):
            apply_delta(problem, ProblemDelta.build(l_add=[(a, b, 1.0)]))


# --------------------------------------------------------------------
# apply_delta: the maintenance property
# --------------------------------------------------------------------

class TestApplyDelta:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_randomized_edit_matches_from_scratch(self, problem, seed):
        """The property the whole engine rests on: apply_delta is
        digest-identical to rebuilding, and the incrementally maintained
        S is array-identical to a from-scratch build_squares."""
        delta = edit_script(problem, l_edge_rate=0.15, weight_rate=0.15,
                            graph_edge_rate=0.1, seed=seed)
        edited, report = apply_delta(problem, delta)
        fresh = _rebuilt(edited)
        assert problem_digest(edited) == problem_digest(fresh)
        s_ref = build_squares(edited.a_graph, edited.b_graph, edited.ell)
        s_inc = edited.squares
        np.testing.assert_array_equal(s_inc.indptr, s_ref.indptr)
        np.testing.assert_array_equal(s_inc.indices, s_ref.indices)
        np.testing.assert_array_equal(s_inc.data, s_ref.data)
        assert report.squares_maintained
        assert report.n_edges_new == edited.n_edges_l

    def test_report_names_the_blast_radius(self, problem):
        delta = edit_script(problem, l_edge_rate=0.2, seed=11)
        edited, report = apply_delta(problem, delta)
        assert isinstance(report, DeltaReport)
        assert len(report.old_to_new) == report.n_edges_old
        survivors = report.old_to_new[report.old_to_new >= 0]
        assert np.all(np.diff(survivors) > 0)  # monotone on survivors
        assert np.all(report.touched_edges < report.n_edges_new)
        np.testing.assert_array_equal(
            report.touched_a,
            np.unique(edited.ell.edge_a[report.touched_edges]))
        assert "delta touched" in report.summary()

    def test_weights_only_delta_shares_structure(self, problem):
        w = perturb_weights(problem.ell, 0.3, seed=5)
        changed = np.flatnonzero(w != problem.ell.weights)
        delta = ProblemDelta.build(l_reweight=[
            (int(problem.ell.edge_a[e]), int(problem.ell.edge_b[e]),
             float(w[e])) for e in changed
        ])
        edited, report = apply_delta(problem, delta)
        assert not report.structural
        assert report.rows_recomputed == 0
        assert edited._squares is problem._squares  # shared, not rebuilt
        np.testing.assert_array_equal(report.touched_edges, changed)
        np.testing.assert_array_equal(edited.ell.weights, w)

    def test_empty_delta_is_identity(self, problem):
        edited, report = apply_delta(problem, ProblemDelta.build())
        assert problem_digest(edited) == problem_digest(problem)
        assert len(report.touched_edges) == 0

    def test_uncached_squares_are_not_built(self, problem):
        cold = _rebuilt(problem)  # no cached S
        delta = edit_script(cold, l_edge_rate=0.1, seed=2)
        edited, report = apply_delta(cold, delta)
        assert not report.squares_maintained
        assert report.rows_recomputed == 0
        assert edited._squares is None

    def test_emits_delta_applied_event(self, problem):
        delta = edit_script(problem, l_edge_rate=0.1, weight_rate=0.1,
                            seed=6)
        with capture() as sink:
            _, report = apply_delta(problem, delta)
        (event,) = sink.of_type("delta_applied")
        assert event.fields["structural"] is True
        assert event.fields["touched_edges"] == len(report.touched_edges)
        assert event.fields["n_edges_new"] == report.n_edges_new
        assert event.fields["l_added"] == len(delta.l_add)


# --------------------------------------------------------------------
# warm state and warm BP
# --------------------------------------------------------------------

class TestWarmState:
    def test_from_result_requires_kept_state(self, problem):
        res = align(problem, "bp", CFG)  # keep_state not set
        with pytest.raises(ValidationError, match="keep_state"):
            WarmState.from_result(problem, res)

    def test_save_load_round_trip(self, problem, tmp_path):
        res = align(problem, "bp", CFG, keep_state=True)
        warm = WarmState.from_result(problem, res, digest="abc123")
        path = str(tmp_path / "state.npz")
        warm.save(path)
        back = WarmState.load(path)
        assert (back.n_a, back.n_b) == (warm.n_a, warm.n_b)
        assert back.digest == "abc123"
        assert back.objective == warm.objective
        for name in ("edge_a", "edge_b", "weights", "y", "z", "sk",
                     "s_indptr", "s_indices", "mate_a"):
            np.testing.assert_array_equal(getattr(back, name),
                                          getattr(warm, name))

    def test_seed_rejects_foreign_problem(self, problem):
        res = align(problem, "bp", CFG, keep_state=True)
        warm = WarmState.from_result(problem, res)
        other = repro.powerlaw_alignment_instance(
            n=40, expected_degree=4, seed=9).problem
        with pytest.raises(ValidationError, match="vertex sets"):
            seed_from_warm(other, warm, other.squares)


class TestWarmAlign:
    def test_rate_zero_is_bit_identical(self, problem):
        cold = align(problem, "bp", CFG, keep_state=True)
        warm_state = WarmState.from_result(problem, cold)
        unchanged, _ = apply_delta(problem, ProblemDelta.build())
        res = align(unchanged, "bp", CFG, warm_from=warm_state)
        assert res.objective == cold.objective  # exact float equality
        np.testing.assert_array_equal(res.matching.mate_a,
                                      cold.matching.mate_a)
        assert res.params["iterations_run"] == 0
        assert res.params["warm"] is True
        assert res.method.startswith("bp-warm")

    def test_rate_zero_from_checkpoint(self, problem):
        """A mid-run checkpoint warm-starts rate-0 realignment to the
        checkpointed best matching, bit-identically."""
        store = CheckpointStore()
        align(problem, "bp", BPConfig(n_iter=8, matcher="approx"),
              checkpoint_every=4, checkpoint_store=store,
              checkpoint_key="t")
        ckpt = store.load("t")
        assert ckpt is not None and ckpt.method == "bp"
        warm_state = WarmState.from_checkpoint(problem, ckpt)
        res = align(problem, "bp", CFG, warm_from=warm_state)
        tracker = ckpt.state["tracker"]
        assert res.params["iterations_run"] == 0
        assert res.objective == tracker["best_objective"]
        np.testing.assert_array_equal(
            res.matching.mate_a, tracker["best_matching"].mate_a)

    def test_realign_matches_two_step_sequence(self, problem):
        cold = align(problem, "bp", CFG, keep_state=True)
        warm_state = WarmState.from_result(problem, cold)
        delta = edit_script(problem, l_edge_rate=0.1, weight_rate=0.1,
                            seed=21)
        edited, two_step_report = apply_delta(problem, delta)
        two_step = align(edited, "bp", CFG, warm_from=warm_state)
        new_problem, res, report = realign(problem, delta, warm_state,
                                           config=CFG)
        assert res.objective == two_step.objective
        np.testing.assert_array_equal(res.matching.mate_a,
                                      two_step.matching.mate_a)
        np.testing.assert_array_equal(report.touched_edges,
                                      two_step_report.touched_edges)
        assert res.params["iterations_run"] >= 1
        # keep_state=True (the default) lets realignments chain.
        next_state = WarmState.from_result(new_problem, res)
        assert next_state.n_edges == new_problem.n_edges_l

    def test_warm_emits_active_set_events(self, problem):
        cold = align(problem, "bp", CFG, keep_state=True)
        warm_state = WarmState.from_result(problem, cold)
        delta = edit_script(problem, l_edge_rate=0.05, seed=23)
        with capture() as sink:
            realign(problem, delta, warm_state, config=CFG)
        events = sink.of_type("active_set_size")
        assert events
        for event in events:
            assert 0 <= event.fields["active"] <= event.fields["total"]
            assert isinstance(event.fields["full_sweep"], bool)
        assert sink.of_type("delta_applied")

    def test_warm_exact_warm_matcher_supported(self, problem):
        """Warm realignment rounds with the exact matcher, which itself
        warm-starts across the run's roundings."""
        cfg = BPConfig(n_iter=8, matcher="exact")
        cold = align(problem, "bp", cfg, keep_state=True)
        warm_state = WarmState.from_result(problem, cold)
        delta = edit_script(problem, weight_rate=0.1, seed=31)
        _, res, _ = realign(problem, delta, warm_state, config=cfg)
        assert res.method == "bp-warm[exact]"
        assert res.matching.cardinality >= 1


WARM_CFG = BPConfig(n_iter=20, matcher="approx", batch=2)


@pytest.fixture(scope="module")
def warm_case(problem):
    """An edited problem and the warm state of its unedited parent.

    The warm run on it mixes active-subset iterations with full sweeps
    and stops early, so its checkpoints land in both regimes.
    """
    cold = align(problem, "bp", WARM_CFG, keep_state=True)
    delta = edit_script(problem, l_edge_rate=0.02, weight_rate=0.02,
                        seed=41)
    edited, _ = apply_delta(problem, delta)
    return edited, WarmState.from_result(problem, cold)


def _assert_same_run(res, ref):
    assert res.objective == ref.objective  # exact float equality
    np.testing.assert_array_equal(res.matching.mate_a, ref.matching.mate_a)
    def rows(result):  # IterationRecord's NaN upper bound never ==
        return [(r.iteration, r.source, r.objective, r.weight_part,
                 r.overlap_part) for r in result.history]

    assert rows(res) == rows(ref)
    assert (res.method, res.params) == (ref.method, ref.params)
    for key in ("y", "z", "sk"):
        np.testing.assert_array_equal(res.solver_state[key],
                                      ref.solver_state[key])


class TestWarmCheckpointResume:
    def test_resume_from_every_checkpoint(self, warm_case):
        edited, warm_state = warm_case
        ref = align(edited, "bp", WARM_CFG, warm_from=warm_state,
                    keep_state=True)
        params = ref.params
        assert 0 < params["full_sweeps"] < params["iterations_run"] \
            < WARM_CFG.n_iter
        log = SnapshotLog()
        res = align(edited, "bp", WARM_CFG, warm_from=warm_state,
                    keep_state=True, checkpoint_every=2,
                    checkpoint_store=log, checkpoint_key="w")
        _assert_same_run(res, ref)
        assert sorted(log.saved) == list(
            range(2, params["iterations_run"] + 1, 2))
        for ckpt in log.saved.values():
            # Without warm_from, the incremental snapshot alone resumes
            # the warm solve (a restarted server has no warm state).
            for kwargs in ({"warm_from": warm_state}, {}):
                store = CheckpointStore()
                store.save("w", ckpt)
                resumed = align(edited, "bp", WARM_CFG, keep_state=True,
                                checkpoint_store=store, checkpoint_key="w",
                                resume=True, **kwargs)
                _assert_same_run(resumed, ref)

    def test_cold_checkpoint_does_not_resume_warm(self, warm_case):
        edited, warm_state = warm_case
        store = CheckpointStore()
        align(edited, "bp", WARM_CFG, checkpoint_every=2,
              checkpoint_store=store, checkpoint_key="c")
        with pytest.raises(ConfigurationError, match="cold run"):
            align(edited, "bp", WARM_CFG, warm_from=warm_state,
                  checkpoint_store=store, checkpoint_key="c", resume=True)

    @pytest.mark.chaos
    def test_supervised_crash_resumes_bit_identically(self, warm_case):
        edited, warm_state = warm_case
        ref = align(edited, "bp", WARM_CFG, warm_from=warm_state,
                    keep_state=True)
        store = CheckpointStore()

        def solve(_):
            return align(edited, "bp", WARM_CFG, warm_from=warm_state,
                         keep_state=True, checkpoint_every=2,
                         checkpoint_store=store, checkpoint_key="w",
                         resume=True)

        plan = FaultPlan(
            [FaultSpec("crash", site="solver.iteration", task_index=7)],
            seed=0,
        )
        resilience = ResilienceConfig(max_retries=1, backoff_base_s=0.0)
        with fault_plan(plan), capture() as sink:
            [outcome] = supervised_map(
                solve, [None],
                ParallelConfig(backend="serial", resilience=resilience),
            )
        assert outcome.attempts == 2 and len(plan.fired()) == 1
        _assert_same_run(outcome.unwrap(), ref)
        # The retry resumed from the iteration-6 snapshot instead of
        # re-running iterations 1-6.
        iterations = [e.fields["iteration"]
                      for e in sink.of_type("active_set_size")]
        assert iterations == list(
            range(1, ref.params["iterations_run"] + 1))


class TestRegistryGating:
    def test_only_bp_supports_warm(self):
        assert get_solver("bp").supports_warm
        assert not get_solver("isorank").supports_warm

    def test_warm_from_rejected_for_unsupported_method(self, problem):
        res = align(problem, "bp", CFG, keep_state=True)
        warm_state = WarmState.from_result(problem, res)
        with pytest.raises(ConfigurationError, match="warm"):
            align(problem, "isorank", warm_from=warm_state)


# --------------------------------------------------------------------
# CLI realign
# --------------------------------------------------------------------

class TestCliRealign:
    def test_cold_then_warm_chain(self, tmp_path, capsys):
        from repro.cli import main
        from repro.generators.io import save_alignment_problem

        inst = repro.powerlaw_alignment_instance(n=30, expected_degree=3,
                                                 seed=4)
        directory = str(tmp_path / "prob")
        save_alignment_problem(directory, inst.problem)
        delta = edit_script(inst.problem, l_edge_rate=0.1, seed=8)
        delta_file = tmp_path / "delta.json"
        delta_file.write_text(json.dumps(delta.to_dict()))
        state = str(tmp_path / "state.npz")
        out_file = str(tmp_path / "pairs.tsv")

        # No --state: a cold solve runs first, then the delta applies.
        main(["realign", directory, "--delta", str(delta_file),
              "--save-state", state, "--iters", "6",
              "--output", out_file])
        out = capsys.readouterr().out
        assert "objective=" in out
        pairs = np.loadtxt(out_file, dtype=int, ndmin=2)
        assert pairs.shape[1] == 2

        # Second revision chains from the saved state.
        main(["realign", directory, "--delta", str(delta_file),
              "--state", state, "--iters", "6"])
        assert "bp-warm" in capsys.readouterr().out


# --------------------------------------------------------------------
# serving: warm_from over HTTP with cache lineage
# --------------------------------------------------------------------

def _request(base_url, method, path, body=None):
    host, port = base_url.removeprefix("http://").rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=60)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=payload)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


@pytest.fixture(scope="module")
def warm_server():
    with repro.serve_in_thread(
            repro.ServeConfig(port=0, workers=1)) as srv:
        yield srv


@pytest.fixture(scope="module")
def perturbed_wire(problem):
    delta = edit_script(problem, l_edge_rate=0.05, weight_rate=0.05,
                        seed=41)
    edited, _ = apply_delta(problem, delta)
    return problem_to_wire(edited)


def _submission(wire, **overrides):
    doc = {"method": "bp",
           "config": {"n_iter": 8, "matcher": "approx", "batch": 2},
           "problem": wire}
    doc.update(overrides)
    return doc


class TestServeWarmPath:
    def test_warm_submission_with_lineage(self, warm_server, problem,
                                          perturbed_wire):
        base = warm_server.base_url
        wire = problem_to_wire(problem)
        _, cold = _request(base, "POST", "/jobs?wait=1",
                           body=_submission(wire))
        assert cold["state"] == "done"

        status, warm = _request(
            base, "POST", "/jobs?wait=1",
            body=_submission(perturbed_wire, warm_from=cold["id"]))
        assert status == 200 and warm["state"] == "done"
        assert warm["warm_from"] == cold["id"]
        assert warm["parent_digest"] == cold["problem_digest"]

        _, res = _request(base, "GET", f"/jobs/{warm['id']}/result")
        assert res["method"].startswith("bp-warm")
        assert res["warm_from"] == cold["id"]
        assert res["parent_digest"] == cold["problem_digest"]
        _, cold_res = _request(base, "GET",
                               f"/jobs/{cold['id']}/result")
        assert cold_res["warm_from"] is None
        assert cold_res["parent_digest"] is None

    def test_cache_lineage_separates_warm_from_cold(
            self, warm_server, problem, perturbed_wire):
        """Warm and cold solves of the same problem are distinct cache
        entries; identical warm resubmissions still hit."""
        base = warm_server.base_url
        # A config no other test submits, so the parent really runs
        # (cache-hit jobs deposit no warm state).
        cfg = {"n_iter": 9, "matcher": "approx", "batch": 2}
        _, parent = _request(
            base, "POST", "/jobs?wait=1",
            body=_submission(problem_to_wire(problem), config=cfg))
        assert parent["cached"] is False
        _, first = _request(
            base, "POST", "/jobs?wait=1",
            body=_submission(perturbed_wire, config=cfg,
                             warm_from=parent["id"]))
        assert first["cached"] is False
        _, again = _request(
            base, "POST", "/jobs",
            body=_submission(perturbed_wire, config=cfg,
                             warm_from=parent["id"]))
        assert again["cached"] is True
        assert again["warm_from"] == parent["id"]
        status, cold = _request(base, "POST", "/jobs?wait=1",
                                body=_submission(perturbed_wire,
                                                 config=cfg))
        assert status == 200
        assert cold["cached"] is False  # lineage key kept them apart
        assert cold["warm_from"] is None

    def test_unusable_warm_from_rejected(self, warm_server,
                                         perturbed_wire):
        base = warm_server.base_url
        status, err = _request(
            base, "POST", "/jobs",
            body=_submission(perturbed_wire, warm_from="j-missing"))
        assert status == 400
        assert err["error"]["code"] == "warm_unavailable"

        status, err = _request(
            base, "POST", "/jobs",
            body=_submission(perturbed_wire, method="isorank",
                             config={}, warm_from="j-any"))
        assert status == 400
        assert err["error"]["code"] == "warm_unavailable"

        status, err = _request(
            base, "POST", "/jobs",
            body=_submission(perturbed_wire, warm_from=7))
        assert status == 400
        assert err["error"]["code"] == "bad_request"

    def test_warm_disabled_server_rejects(self, perturbed_wire):
        cfg = repro.ServeConfig(port=0, workers=1, warm_entries=0)
        with repro.serve_in_thread(cfg) as srv:
            _, cold = _request(srv.base_url, "POST", "/jobs?wait=1",
                               body=_submission(perturbed_wire))
            assert cold["state"] == "done"
            status, err = _request(
                srv.base_url, "POST", "/jobs",
                body=_submission(perturbed_wire,
                                 warm_from=cold["id"]))
            assert status == 400
            assert err["error"]["code"] == "warm_unavailable"
