"""Durable serving: persistent store, recovery, drain, deadlines.

Coverage for the durability layer of ``repro.serve``:

* unit tests for :class:`~repro.resilience.FileCheckpointStore` (the
  crash-surviving snapshot store) and the ``ServeConfig`` store knobs;
* journal/recovery tests against :class:`~repro.serve.store.SqliteJobStore`
  — terminal results served from disk after a restart, queued jobs
  requeued in submission order with their quota slots restored,
  interrupted jobs re-run to the same result, an interrupted
  ``warm_from`` job resumed from its checkpoint to the uninterrupted
  warm result, other non-terminal ``warm_from`` jobs failed with
  ``warm_unavailable``, plus ``list_jobs``/``gc_jobs``;
* deadline enforcement (``deadline_s``) — queued expiry, mid-run
  cooperative cancellation, validation;
* the journal of cache hits — one commit and one ``done`` transition
  per hit, and a body-memo hit journaled exactly as a parse-path hit;
* graceful drain and backpressure over live HTTP — ``503 draining``
  with ``Retry-After`` (also for a memoized body), ``Retry-After`` on
  ``429``, the shutdown stream-flush guarantee, and gzip result
  encoding;
* a chaos test (``-m chaos``) that SIGKILLs a ``repro.cli serve``
  process mid-solve and restarts on the same store path, asserting the
  recovered result is bit-identical to an uninterrupted run.
"""

import gzip
import http.client
import json
import os
import re
import signal
import sqlite3
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.errors import ConfigurationError, ValidationError
from repro.generators.perturb import edit_script
from repro.incremental import WarmState, apply_delta
from repro.registry import align
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    FileCheckpointStore,
    SolverCheckpoint,
    fault_plan,
)
from repro.serve import (
    AdmissionError,
    JobStore,
    ServeConfig,
    SqliteJobStore,
    gc_jobs,
    list_jobs,
    make_store,
    problem_to_wire,
    result_to_wire,
    serve_in_thread,
)

# --------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------

CONFIG = {"n_iter": 8, "matcher": "approx", "batch": 2}


@pytest.fixture(scope="module")
def instance():
    return repro.powerlaw_alignment_instance(n=30, expected_degree=4,
                                             seed=1)


@pytest.fixture(scope="module")
def wire_problem(instance):
    return problem_to_wire(instance.problem)


def _submission(wire_problem, **overrides):
    doc = {"method": "bp", "config": dict(CONFIG),
           "problem": wire_problem}
    doc.update(overrides)
    return doc


def _request(base_url, method, path, body=None, headers=None):
    """One HTTP request; returns (status, parsed-or-raw body, headers)."""
    host, port = base_url.removeprefix("http://").rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=60)
    try:
        payload = body
        if body is not None and not isinstance(body, bytes):
            payload = json.dumps(body).encode("utf-8")
        conn.request(method, path, body=payload, headers=headers or {})
        resp = conn.getresponse()
        raw = resp.read()
        resp_headers = dict(resp.getheaders())
    finally:
        conn.close()
    try:
        return resp.status, json.loads(raw), resp_headers
    except (json.JSONDecodeError, UnicodeDecodeError):
        return resp.status, raw, resp_headers


def _sqlite_config(tmp_path, **overrides):
    kwargs = dict(port=0, workers=1, store_path=str(tmp_path / "store"))
    kwargs.update(overrides)
    return ServeConfig(**kwargs)


# --------------------------------------------------------------------
# the file-backed checkpoint store
# --------------------------------------------------------------------

class TestFileCheckpointStore:
    def test_snapshots_survive_a_new_instance(self, tmp_path):
        store = FileCheckpointStore(tmp_path / "ckpt")
        ckpt = SolverCheckpoint(method="bp", iteration=7,
                                state={"y": [1.0, 2.0]})
        store.save("serve:j-1", ckpt)
        # A fresh instance (a restarted process) reads from disk.
        reborn = FileCheckpointStore(tmp_path / "ckpt")
        loaded = reborn.load("serve:j-1")
        assert loaded is not None
        assert loaded.iteration == 7
        assert loaded.state == {"y": [1.0, 2.0]}

    def test_discard_and_clear_remove_files(self, tmp_path):
        store = FileCheckpointStore(tmp_path / "ckpt")
        store.save("a", SolverCheckpoint(method="bp", iteration=1))
        store.save("b", SolverCheckpoint(method="bp", iteration=2))
        files = list((tmp_path / "ckpt").glob("*.ckpt"))
        assert len(files) == 2
        store.discard("a")
        assert len(list((tmp_path / "ckpt").glob("*.ckpt"))) == 1
        store.clear()
        assert list((tmp_path / "ckpt").glob("*.ckpt")) == []
        assert FileCheckpointStore(tmp_path / "ckpt").load("b") is None

    def test_corrupt_snapshot_reads_as_missing(self, tmp_path):
        store = FileCheckpointStore(tmp_path / "ckpt")
        store.save("key", SolverCheckpoint(method="bp", iteration=3))
        path = next((tmp_path / "ckpt").glob("*.ckpt"))
        path.write_bytes(b"torn write")
        # A new instance (no memory fast-path) hits the bad file.
        assert FileCheckpointStore(tmp_path / "ckpt").load("key") is None


class TestDurableConfig:
    def test_sqlite_requires_store_path(self):
        # No switch names the journal; only a store_path selects it.
        with pytest.raises(TypeError):
            ServeConfig(store="sqlite")
        with pytest.raises(ConfigurationError):
            ServeConfig(drain_timeout_s=0.0)

    @pytest.mark.parametrize("field,value",
                             [("store", "sqlite"), ("timeout_s", 5.0)])
    def test_from_dict_refuses_removed_fields(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ServeConfig.from_dict({field: value})

    def test_round_trips_with_store_fields(self, tmp_path):
        cfg = _sqlite_config(tmp_path, drain_timeout_s=3.5)
        assert ServeConfig.from_dict(cfg.to_dict()) == cfg

    def test_empty_store_path_refused(self, tmp_path, monkeypatch):
        """``Path("")`` is the current directory: an empty store_path
        must not journal there."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ConfigurationError, match="store_path"):
            SqliteJobStore(ServeConfig(port=0, workers=0))
        assert list(tmp_path.iterdir()) == []

    def test_make_store_selects_backend(self, tmp_path):
        memory = make_store(ServeConfig(port=0, workers=0))
        try:
            assert memory.describe() == {"kind": "memory", "path": None}
        finally:
            memory.shutdown()
        durable = make_store(_sqlite_config(tmp_path, workers=0))
        try:
            assert isinstance(durable, SqliteJobStore)
            assert durable.describe()["kind"] == "sqlite"
        finally:
            durable.shutdown()


# --------------------------------------------------------------------
# journal + recovery
# --------------------------------------------------------------------

class TestRecovery:
    def test_terminal_results_survive_restart(self, tmp_path, instance,
                                              wire_problem):
        cfg = _sqlite_config(tmp_path)
        store = SqliteJobStore(cfg)
        try:
            job = store.submit(_submission(wire_problem), "default")
            assert job.wait_terminal(30.0)
            first = job.snapshot()
            result = job.result
        finally:
            store.shutdown()
        assert first["state"] == "done"

        reborn = SqliteJobStore(cfg)
        try:
            assert reborn.recovered == {
                "terminal": 1, "queued": 0, "requeued": 0, "failed": 0,
            }
            recovered = reborn.get(first["id"])
            assert recovered is not None
            assert recovered.terminal
            assert recovered.result == result
            assert recovered.recovered is True
            snap = recovered.snapshot()
            assert snap["state"] == "done"
            assert snap["attempts"] == first["attempts"]
            # Done results repopulate the cache: an identical
            # resubmission answers without a worker.
            hit = reborn.submit(_submission(wire_problem), "default")
            assert hit.cached is True and hit.state == "done"
            assert hit.result == result
        finally:
            reborn.shutdown()

    def test_queued_jobs_requeue_in_order_with_quota(self, tmp_path,
                                                     wire_problem):
        cfg = _sqlite_config(tmp_path, workers=0)
        store = SqliteJobStore(cfg)
        try:
            ids = [
                store.submit(
                    _submission(wire_problem,
                                config=dict(CONFIG, n_iter=n)),
                    "alice").id
                for n in (21, 22, 23)
            ]
        finally:
            store.shutdown()  # durable shutdown keeps queued jobs

        reborn = SqliteJobStore(cfg)
        try:
            assert reborn.recovered["queued"] == 3
            assert reborn.queue_depth() == 3
            assert [j.id for j in reborn.jobs()] == ids
            assert all(j.state == "queued" for j in reborn.jobs())
            # The previous process admitted them; their slots are held
            # again, so tenant bounds still mean something.
            assert reborn.quotas.snapshot() == {"active": 3, "tenants": 1}
        finally:
            reborn.shutdown()

    def test_interrupted_job_requeues_and_completes(self, tmp_path,
                                                    instance,
                                                    wire_problem):
        cfg = _sqlite_config(tmp_path, workers=0, checkpoint_every=2)
        store = SqliteJobStore(cfg)
        try:
            job = store.submit(_submission(wire_problem), "default")
        finally:
            store.shutdown()
        # Simulate a crash mid-run: the journal says "running" but the
        # process died before any terminal transition.
        db = sqlite3.connect(tmp_path / "store" / "jobs.db")
        db.execute("UPDATE jobs SET state='running', started=?",
                   (time.time(),))
        db.commit()
        db.close()

        reborn = SqliteJobStore(
            _sqlite_config(tmp_path, checkpoint_every=2))
        try:
            assert reborn.recovered["requeued"] == 1
            recovered = reborn.get(job.id)
            assert recovered.wait_terminal(30.0)
            assert recovered.state == "done"
            baseline = result_to_wire(align(instance.problem, "bp",
                                            CONFIG))
            served = dict(recovered.result)
            served.pop("warm_from"), served.pop("parent_digest")
            assert served == baseline
        finally:
            reborn.shutdown()

    def test_cancelling_job_recovers_as_cancelled(self, tmp_path,
                                                  wire_problem):
        cfg = _sqlite_config(tmp_path, workers=0)
        store = SqliteJobStore(cfg)
        try:
            job = store.submit(_submission(wire_problem), "default")
        finally:
            store.shutdown()
        db = sqlite3.connect(tmp_path / "store" / "jobs.db")
        db.execute("UPDATE jobs SET state='cancelling'")
        db.commit()
        db.close()
        reborn = SqliteJobStore(cfg)
        try:
            assert reborn.get(job.id).state == "cancelled"
            assert reborn.recovered["terminal"] == 1
        finally:
            reborn.shutdown()

    def test_job_of_unregistered_method_fails_on_recovery(
            self, tmp_path, wire_problem):
        """A journal can hold a queued job of a method this process no
        longer registers; it fails, and the worker keeps serving."""
        from repro.core import BPConfig, belief_propagation_align
        from repro.registry import SolverSpec, _REGISTRY, register_solver

        cfg = _sqlite_config(tmp_path, workers=0)
        register_solver(SolverSpec(name="retired", config_cls=BPConfig,
                                   solve=belief_propagation_align))
        try:
            store = SqliteJobStore(cfg)
            try:
                job = store.submit(
                    _submission(wire_problem, method="retired"), "default")
            finally:
                store.shutdown()  # durable shutdown keeps it queued
        finally:
            del _REGISTRY["retired"]

        reborn = SqliteJobStore(_sqlite_config(tmp_path))
        try:
            failed = reborn.get(job.id)
            assert failed.wait_terminal(10.0)
            assert failed.state == "failed"
            assert failed.snapshot()["error"]["code"] == "bad_request"
            assert reborn.recovered["failed"] == 1
            after = reborn.submit(_submission(wire_problem), "default")
            assert after.wait_terminal(30.0)
            assert after.state == "done"
        finally:
            reborn.shutdown()

    def test_pending_warm_job_fails_on_recovery(self, tmp_path,
                                                wire_problem):
        cfg = _sqlite_config(tmp_path, checkpoint_every=0)
        store = SqliteJobStore(cfg)
        try:
            parent = store.submit(_submission(wire_problem), "default")
            assert parent.wait_terminal(30.0)
            child = store.submit(
                _submission(wire_problem,
                            config=dict(CONFIG, n_iter=9),
                            warm_from=parent.id),
                "default")
            assert child.wait_terminal(30.0)
            assert child.state == "done"
        finally:
            store.shutdown()
        # Pretend the crash hit before the warm child ran: its seed
        # state lived only in the dead process's warm LRU.
        db = sqlite3.connect(tmp_path / "store" / "jobs.db")
        db.execute(
            "UPDATE jobs SET state='queued', finished=NULL, result=NULL"
            " WHERE id=?", (child.id,))
        db.commit()
        db.close()

        reborn = SqliteJobStore(cfg)
        try:
            assert reborn.recovered["failed"] == 1
            failed = reborn.get(child.id)
            assert failed.state == "failed"
            assert failed.snapshot()["error"]["code"] == \
                "warm_unavailable"
        finally:
            reborn.shutdown()

    def test_running_warm_job_resumes_from_checkpoint(
            self, tmp_path, instance, wire_problem):
        edited, _ = apply_delta(
            instance.problem,
            edit_script(instance.problem, l_edge_rate=0.05,
                        weight_rate=0.05, seed=3))
        edited_wire = problem_to_wire(edited)
        cfg = _sqlite_config(tmp_path, checkpoint_every=2, max_retries=0)
        plan = FaultPlan(
            [FaultSpec("crash", site="solver.iteration", task_index=5)],
            seed=0,
        )
        store = SqliteJobStore(cfg)
        try:
            parent = store.submit(_submission(wire_problem), "default")
            assert parent.wait_terminal(30.0)
            with fault_plan(plan):
                child = store.submit(
                    _submission(edited_wire, warm_from=parent.id),
                    "default")
                assert child.wait_terminal(30.0)
            assert child.state == "failed" and len(plan.fired()) == 1
        finally:
            store.shutdown()
        # Rewind the journal to the crash: the warm child was mid-run
        # (its iteration-4 checkpoint is on disk), and its parent's
        # warm state died with the process.
        db = sqlite3.connect(tmp_path / "store" / "jobs.db")
        db.execute(
            "UPDATE jobs SET state='running', finished=NULL, error=NULL,"
            " problem=? WHERE id=?", (json.dumps(edited_wire), child.id))
        db.commit()
        db.close()

        reborn = SqliteJobStore(cfg)
        try:
            assert reborn.recovered["requeued"] == 1
            resumed = reborn.get(child.id)
            assert resumed.wait_terminal(30.0)
            assert resumed.state == "done"
            payload = dict(resumed.result)
        finally:
            reborn.shutdown()
        assert payload.pop("warm_from") == parent.id
        assert payload.pop("parent_digest") == parent.digest
        cold = align(instance.problem, "bp", CONFIG, keep_state=True)
        warm = align(edited, "bp", CONFIG,
                     warm_from=WarmState.from_result(instance.problem,
                                                     cold))
        assert warm.method.startswith("bp-warm")
        assert payload == result_to_wire(warm)

    def test_running_warm_job_without_checkpoint_fails_on_recovery(
            self, tmp_path, instance, wire_problem):
        # Mid-run but never checkpointed (checkpoint_every=0): with the
        # parent's warm state gone, recovery must not re-solve cold.
        cfg = _sqlite_config(tmp_path, checkpoint_every=0)
        edited, _ = apply_delta(
            instance.problem,
            edit_script(instance.problem, l_edge_rate=0.05, seed=3))
        store = SqliteJobStore(cfg)
        try:
            parent = store.submit(_submission(wire_problem), "default")
            assert parent.wait_terminal(30.0)
            child = store.submit(
                _submission(problem_to_wire(edited), warm_from=parent.id),
                "default")
            assert child.wait_terminal(30.0)
        finally:
            store.shutdown()
        db = sqlite3.connect(tmp_path / "store" / "jobs.db")
        db.execute(
            "UPDATE jobs SET state='running', finished=NULL, result=NULL,"
            " problem=? WHERE id=?",
            (json.dumps(problem_to_wire(edited)), child.id))
        db.commit()
        db.close()

        reborn = SqliteJobStore(cfg)
        try:
            assert reborn.recovered["failed"] == 1
            failed = reborn.get(child.id)
            assert failed.state == "failed"
            assert failed.snapshot()["error"]["code"] == \
                "warm_unavailable"
        finally:
            reborn.shutdown()

    def test_list_and_gc(self, tmp_path, wire_problem):
        cfg = _sqlite_config(tmp_path)
        store = SqliteJobStore(cfg)
        try:
            done = store.submit(_submission(wire_problem), "default")
            assert done.wait_terminal(30.0)
        finally:
            store.shutdown()
        cfg0 = _sqlite_config(tmp_path, workers=0)
        store = SqliteJobStore(cfg0)
        try:
            queued = store.submit(
                _submission(wire_problem, config=dict(CONFIG, n_iter=31)),
                "default")
        finally:
            store.shutdown()

        rows = list_jobs(str(tmp_path / "store"))
        assert [r["id"] for r in rows] == [done.id, queued.id]
        assert [r["state"] for r in rows] == ["done", "queued"]
        # Nothing is old enough yet; then everything terminal goes.
        assert gc_jobs(str(tmp_path / "store"), older_than_s=3600) == 0
        assert gc_jobs(str(tmp_path / "store")) == 1
        remaining = list_jobs(str(tmp_path / "store"))
        assert [r["id"] for r in remaining] == [queued.id]


# --------------------------------------------------------------------
# the journal of cache hits
# --------------------------------------------------------------------

def _transitions(tmp_path, job_id):
    db = sqlite3.connect(tmp_path / "store" / "jobs.db")
    try:
        return [r[0] for r in db.execute(
            "SELECT state FROM transitions WHERE job_id=? ORDER BY seq",
            (job_id,))]
    finally:
        db.close()


def _journal_row(tmp_path, job_id):
    """The job's ``jobs`` row without its id and timestamps."""
    db = sqlite3.connect(tmp_path / "store" / "jobs.db")
    db.row_factory = sqlite3.Row
    try:
        row = dict(db.execute("SELECT * FROM jobs WHERE id=?",
                              (job_id,)).fetchone())
    finally:
        db.close()
    for column in ("id", "created", "finished"):
        row.pop(column)
    return row


class TestCacheHitJournal:
    def test_hit_is_one_commit_and_one_done_transition(
            self, tmp_path, wire_problem):
        cfg = _sqlite_config(tmp_path)
        store = SqliteJobStore(cfg)
        try:
            cold = store.submit(_submission(wire_problem), "default")
            assert cold.wait_terminal(30.0)
        finally:
            store.shutdown()  # joins the worker: its writes are done
        reborn = SqliteJobStore(cfg)
        try:
            statements = []
            reborn._db.set_trace_callback(statements.append)
            try:
                hit = reborn.submit(_submission(wire_problem), "default")
            finally:
                reborn._db.set_trace_callback(None)
            assert hit.cached is True and hit.state == "done"
        finally:
            reborn.shutdown()
        assert statements.count("COMMIT") == 1
        assert _transitions(tmp_path, hit.id) == ["done"]
        assert _transitions(tmp_path, cold.id) == [
            "queued", "running", "done"]

    def test_memo_hit_journals_the_parse_path_row(
            self, tmp_path, wire_problem):
        cfg = _sqlite_config(tmp_path)
        doc = _submission(wire_problem, deadline_s=60.0)
        body = json.dumps(doc).encode()
        store = SqliteJobStore(cfg)
        try:
            cold = store.submit_body(body, "alice")
            assert cold.wait_terminal(30.0)
            parsed = store.submit_body(json.dumps(doc, indent=1).encode(),
                                       "alice")
            memo = store.submit_body(body, "alice")
            assert parsed.cached is True and memo.cached is True
        finally:
            store.shutdown()
        row = _journal_row(tmp_path, memo.id)
        assert row == _journal_row(tmp_path, parsed.id)
        assert row["state"] == "done" and row["deadline_s"] == 60.0
        assert _transitions(tmp_path, memo.id) == ["done"]
        reborn = SqliteJobStore(cfg)
        try:
            served = reborn.get(memo.id)
            assert served is not None and served.terminal
            assert served.result == memo.result == parsed.result
            snap = served.snapshot()
            assert snap["cached"] is True and snap["state"] == "done"
        finally:
            reborn.shutdown()


class TestBodyMemoUnderThreads:
    def test_threads_share_one_memo(self, wire_problem):
        # More submitting threads than cores, a short switch interval,
        # and a two-entry memo and cache that three bodies keep
        # evicting: a lost update would leave a job unregistered, a
        # memo over its bound, or a body answered with another's result.
        store = JobStore(ServeConfig(port=0, workers=1, cache_entries=2,
                                     max_queue=0, max_active_per_tenant=0))
        bodies = [
            json.dumps(_submission(wire_problem,
                                   config=dict(CONFIG, n_iter=n))).encode()
            for n in (3, 4, 5)
        ]
        jobs = {i: [] for i in range(len(bodies))}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def submit(offset):
                for k in range(12):
                    i = (offset + k) % len(bodies)
                    jobs[i].append(store.submit_body(bodies[i], "default"))

            threads = [threading.Thread(target=submit, args=(t,))
                       for t in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        try:
            for i, submitted in jobs.items():
                assert len(submitted) == 32
                results = []
                for job in submitted:
                    assert store.get(job.id) is job
                    assert job.wait_terminal(60.0) and job.state == "done"
                    results.append(job.result)
                assert all(r == results[0] for r in results)
                assert results[0]["iterations"] == 3 + i
            assert store._bodies.stats()["entries"] <= 2
        finally:
            store.shutdown()


# --------------------------------------------------------------------
# deadlines
# --------------------------------------------------------------------

class TestDeadlines:
    def test_queued_expiry_fails_without_running(self, wire_problem):
        store = JobStore(ServeConfig(port=0, workers=1))
        try:
            job = store.submit(
                _submission(wire_problem,
                            config=dict(CONFIG, n_iter=41),
                            deadline_s=1e-6),
                "default")
            assert job.wait_terminal(30.0)
            assert job.state == "failed"
            assert job.snapshot()["error"]["code"] == "deadline_exceeded"
            assert job.attempts == 0  # never reached the solver
        finally:
            store.shutdown()

    def test_mid_run_deadline_aborts_the_solve(self):
        big = repro.powerlaw_alignment_instance(n=80, expected_degree=5,
                                                seed=9)
        store = JobStore(ServeConfig(port=0, workers=1))
        try:
            job = store.submit(
                {"method": "bp",
                 "config": {"n_iter": 100_000, "matcher": "approx"},
                 "problem": problem_to_wire(big.problem),
                 "deadline_s": 0.2},
                "default")
            assert job.wait_terminal(60.0)
            assert job.state == "failed"
            snap = job.snapshot()
            assert snap["error"]["code"] == "deadline_exceeded"
            assert snap["deadline_s"] == 0.2
            # It genuinely started and iterated before being cut off.
            assert snap["progress"]["iterations"] > 0
        finally:
            store.shutdown()

    def test_invalid_deadline_rejected_at_submit(self, wire_problem):
        store = JobStore(ServeConfig(port=0, workers=0))
        try:
            for bad in (-1, 0, "soon", True):
                with pytest.raises(ValidationError):
                    store.submit(
                        _submission(wire_problem, deadline_s=bad),
                        "default")
        finally:
            store.shutdown()


# --------------------------------------------------------------------
# drain, backpressure, gzip, stream flush (live HTTP)
# --------------------------------------------------------------------

class TestDrainAndBackpressure:
    def test_drain_rejects_with_503_and_retry_after(self, wire_problem):
        with serve_in_thread(ServeConfig(port=0, workers=1)) as srv:
            status, job, _ = _request(
                srv.base_url, "POST", "/v1/jobs?wait=1",
                body=_submission(wire_problem))
            assert status == 200 and job["state"] == "done"
            assert srv.store.drain(5.0) is True
            status, doc, headers = _request(
                srv.base_url, "POST", "/v1/jobs",
                body=_submission(wire_problem,
                                 config=dict(CONFIG, n_iter=51)))
            assert status == 503
            assert doc["error"]["code"] == "draining"
            assert int(headers["Retry-After"]) >= 1
            status, health, _ = _request(srv.base_url, "GET",
                                         "/v1/healthz")
            assert health["draining"] is True
            assert health["store"] == {"kind": "memory", "path": None}

    def test_drain_refuses_a_memoized_body(self, wire_problem):
        with serve_in_thread(ServeConfig(port=0, workers=1)) as srv:
            body = json.dumps(_submission(wire_problem)).encode()
            status, _, _ = _request(srv.base_url, "POST",
                                    "/v1/jobs?wait=1", body=body)
            assert status == 200
            status, hit, _ = _request(srv.base_url, "POST", "/v1/jobs",
                                      body=body)
            assert status == 200 and hit["cached"] is True
            assert srv.store.drain(5.0) is True
            status, doc, headers = _request(srv.base_url, "POST",
                                            "/v1/jobs", body=body)
            assert status == 503
            assert doc["error"]["code"] == "draining"
            assert int(headers["Retry-After"]) >= 1

    def test_drain_reports_unsettled_jobs(self, wire_problem):
        store = JobStore(ServeConfig(port=0, workers=0))
        try:
            store.submit(_submission(wire_problem), "default")
            # No workers will ever finish the queued job: the drain
            # budget elapses and reports failure honestly.
            assert store.drain(0.05) is False
            with pytest.raises(AdmissionError) as err:
                store.submit(
                    _submission(wire_problem,
                                config=dict(CONFIG, n_iter=52)),
                    "default")
            assert err.value.code == "draining"
        finally:
            store.shutdown()

    def test_429_carries_retry_after(self, wire_problem):
        cfg = ServeConfig(port=0, workers=0, max_queue=1)
        with serve_in_thread(cfg) as srv:
            status, _, _ = _request(srv.base_url, "POST", "/v1/jobs",
                                    body=_submission(wire_problem))
            assert status == 202
            status, doc, headers = _request(
                srv.base_url, "POST", "/v1/jobs",
                body=_submission(wire_problem,
                                 config=dict(CONFIG, n_iter=53)))
            assert status == 429
            assert doc["error"]["code"] == "queue_full"
            assert int(headers["Retry-After"]) >= 1

    def test_gzip_result_round_trips(self, wire_problem):
        with serve_in_thread(ServeConfig(port=0, workers=1)) as srv:
            status, job, _ = _request(
                srv.base_url, "POST", "/v1/jobs?wait=1",
                body=_submission(wire_problem))
            assert status == 200
            path = f"/v1/jobs/{job['id']}/result"
            status, plain, headers = _request(srv.base_url, "GET", path)
            assert "Content-Encoding" not in headers
            status, raw, headers = _request(
                srv.base_url, "GET", path,
                headers={"Accept-Encoding": "gzip, deflate"})
            assert status == 200
            assert headers["Content-Encoding"] == "gzip"
            assert len(raw) < len(json.dumps(plain))
            assert json.loads(gzip.decompress(raw)) == plain

    def test_shutdown_flushes_stream_frames(self, wire_problem):
        cfg = ServeConfig(port=0, workers=0)
        with serve_in_thread(cfg) as srv:
            _, job, _ = _request(srv.base_url, "POST", "/v1/jobs",
                                 body=_submission(wire_problem))
            frames: list[dict] = []

            def stream() -> None:
                status, raw, _ = _request(
                    srv.base_url, "GET",
                    f"/v1/jobs/{job['id']}/events")
                assert status == 200
                frames.extend(json.loads(line)
                              for line in raw.splitlines())

            reader = threading.Thread(target=stream)
            reader.start()
            time.sleep(0.2)  # the stream is mid-drain, job queued
            srv.store.shutdown()
            reader.join(timeout=30)
            assert not reader.is_alive()
            # The final state frame arrived before the stream closed —
            # never a truncated stream, even across shutdown.
            assert frames[0] == {"type": "state", "state": "queued"}
            assert frames[-1] == {"type": "state", "state": "cancelled"}


# --------------------------------------------------------------------
# chaos: SIGKILL the serving process, restart, recover bit-identically
# --------------------------------------------------------------------

@pytest.mark.chaos
class TestCrashRecovery:
    def test_sigkill_mid_solve_recovers_bit_identical(self, tmp_path):
        inst = repro.powerlaw_alignment_instance(n=500, expected_degree=8,
                                                 seed=3)
        config = {"n_iter": 400, "matcher": "approx", "batch": 4}
        doc = {"method": "bp", "config": config,
               "problem": problem_to_wire(inst.problem)}
        store_path = str(tmp_path / "store")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", "1", "--checkpoint-every", "10",
             "--store-path", store_path],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env)
        try:
            banner = proc.stdout.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
            assert match, banner
            base = f"http://127.0.0.1:{match.group(1)}"
            status, job, _ = _request(base, "POST", "/v1/jobs", body=doc)
            assert status == 202, job
            # Let it iterate past a few checkpoints, then pull the plug.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                _, snap, _ = _request(base, "GET", f"/v1/jobs/{job['id']}")
                if snap["progress"]["iterations"] >= 30:
                    break
                time.sleep(0.02)
            assert snap["progress"]["iterations"] >= 30, snap
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stdout.close()

        # Restart on the same journal: the interrupted job requeues and
        # resumes from its last on-disk checkpoint.
        cfg = ServeConfig(port=0, workers=1, checkpoint_every=10,
                          store_path=store_path)
        with serve_in_thread(cfg) as srv:
            assert srv.store.recovered["requeued"] == 1
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                status, snap, _ = _request(
                    srv.base_url, "GET", f"/v1/jobs/{job['id']}")
                assert status == 200
                if snap["state"] in ("done", "failed", "cancelled"):
                    break
                time.sleep(0.1)
            assert snap["state"] == "done", snap
            _, served, _ = _request(
                srv.base_url, "GET", f"/v1/jobs/{job['id']}/result")
            served.pop("cached")
            served.pop("warm_from"), served.pop("parent_digest")
        baseline = result_to_wire(align(inst.problem, "bp", config))
        assert served == baseline  # bit-identical to an uninterrupted run
