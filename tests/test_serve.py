"""The alignment job server: HTTP contract, cache, quotas, resume.

Three layers of coverage:

* unit tests for the serving vocabulary — wire round-trips, content
  digests, the LRU result cache, admission control, ``ServeConfig``
  validation;
* live-server HTTP tests through real sockets (``serve_in_thread``) —
  the submit→poll→result happy path (asserting the served payload is
  identical to a direct in-process ``repro.align()``), cache hits,
  cancellation, quota rejections, the error envelope, and the NDJSON
  progress stream;
* a chaos test (``-m chaos``) where a deterministic ``FaultPlan``
  crashes a job's first attempt mid-solve and the supervised retry
  warm-resumes from its checkpoint, bit-identical to an uninterrupted
  run; jobs rounding with a stateful matcher run without checkpoints.
"""

import http.client
import json

import pytest

import repro
from repro.errors import ConfigurationError, ValidationError
from repro.registry import align, canonical_config
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    fault_plan,
    get_checkpoint_store,
)
from repro.serve import (
    AdmissionError,
    ResultCache,
    ServeConfig,
    TenantQuotas,
    cache_key,
    problem_digest,
    problem_from_wire,
    problem_to_wire,
    result_to_wire,
    serve_in_thread,
)


# --------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------

def _request(base_url, method, path, body=None, headers=None):
    """One HTTP request against a live server; returns (status, doc)."""
    host, port = base_url.removeprefix("http://").rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=60)
    try:
        payload = None
        if body is not None:
            payload = (body if isinstance(body, (bytes, str))
                       else json.dumps(body)).encode("utf-8") \
                if not isinstance(body, bytes) else body
        conn.request(method, path, body=payload, headers=headers or {})
        resp = conn.getresponse()
        raw = resp.read()
    finally:
        conn.close()
    try:
        return resp.status, json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return resp.status, raw


def _stream_frames(base_url, job_id):
    """Read the close-delimited NDJSON stream of one job, fully."""
    host, port = base_url.removeprefix("http://").rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=60)
    try:
        conn.request("GET", f"/jobs/{job_id}/events")
        resp = conn.getresponse()
        assert resp.status == 200
        assert resp.getheader("Content-Type") == "application/x-ndjson"
        return [json.loads(line) for line in resp.read().splitlines()]
    finally:
        conn.close()


@pytest.fixture(scope="module")
def instance():
    return repro.powerlaw_alignment_instance(
        n=30, expected_degree=4, seed=1
    )


@pytest.fixture(scope="module")
def wire_problem(instance):
    return problem_to_wire(instance.problem)


CONFIG = {"n_iter": 8, "matcher": "approx", "batch": 2}


def _submission(wire_problem, **overrides):
    doc = {"method": "bp", "config": dict(CONFIG),
           "problem": wire_problem}
    doc.update(overrides)
    return doc


# --------------------------------------------------------------------
# wire vocabulary
# --------------------------------------------------------------------

class TestWire:
    def test_problem_round_trip(self, instance):
        rebuilt = problem_from_wire(problem_to_wire(instance.problem))
        assert problem_digest(rebuilt) == problem_digest(instance.problem)
        assert rebuilt.name == instance.problem.name
        assert rebuilt.alpha == instance.problem.alpha
        assert rebuilt.beta == instance.problem.beta

    def test_digest_ignores_name_but_not_weights(self, instance):
        doc = problem_to_wire(instance.problem)
        renamed = dict(doc, name="something-else")
        assert problem_digest(problem_from_wire(renamed)) == \
            problem_digest(instance.problem)
        reweighted = dict(doc)
        edges = [list(e) for e in doc["l"]["edges"]]
        edges[0][2] += 1.0
        reweighted["l"] = {"edges": edges}
        assert problem_digest(problem_from_wire(reweighted)) != \
            problem_digest(instance.problem)

    def test_digest_ignores_edge_order(self, instance):
        doc = problem_to_wire(instance.problem)
        shuffled = dict(doc)
        shuffled["a"] = {"n": doc["a"]["n"],
                         "edges": list(reversed(doc["a"]["edges"]))}
        assert problem_digest(problem_from_wire(shuffled)) == \
            problem_digest(instance.problem)

    def test_malformed_documents_rejected(self):
        with pytest.raises(ValidationError):
            problem_from_wire("not an object")
        with pytest.raises(ValidationError):
            problem_from_wire({"a": {"n": 2, "edges": []}})  # missing b, l
        with pytest.raises(ValidationError):
            problem_from_wire({
                "a": {"n": 2, "edges": [[0]]},  # ragged edge row
                "b": {"n": 2, "edges": []},
                "l": {"edges": []},
            })

    def test_cache_key_canonicalizes_defaults(self, instance):
        digest = problem_digest(instance.problem)
        sparse = canonical_config("bp", {"n_iter": 8})
        spelled = canonical_config("bp", canonical_config("bp",
                                                          {"n_iter": 8}))
        assert cache_key("bp", digest, sparse) == \
            cache_key("bp", digest, spelled)
        assert cache_key("bp", digest, sparse) != \
            cache_key("bp", digest, canonical_config("bp", {"n_iter": 9}))

    def test_result_to_wire_is_json_strict(self, instance):
        result = align(instance.problem, "bp", CONFIG)
        payload = result_to_wire(result)
        text = json.dumps(payload, allow_nan=False)  # raises on inf/nan
        assert json.loads(text) == payload
        matched = [a for a, _ in payload["matching"]]
        assert matched == sorted(matched)
        assert payload["cardinality"] == len(payload["matching"])


# --------------------------------------------------------------------
# cache + quotas + config units
# --------------------------------------------------------------------

class TestResultCache:
    def test_lru_eviction(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert cache.get("a") == {"v": 1}  # refreshes "a"
        cache.put("c", {"v": 3})
        assert cache.get("b") is None  # "b" was the LRU entry
        assert cache.get("a") == {"v": 1}
        assert len(cache) == 2

    def test_disabled_cache_never_stores(self):
        cache = ResultCache(max_entries=0)
        cache.put("a", {"v": 1})
        assert cache.get("a") is None
        assert cache.stats()["misses"] == 1


class TestTenantQuotas:
    def test_per_tenant_bound(self):
        q = TenantQuotas(max_queue=0, max_active_per_tenant=2)
        q.acquire("t")
        q.acquire("t")
        with pytest.raises(AdmissionError) as err:
            q.acquire("t")
        assert err.value.code == "quota_exceeded"
        q.acquire("other")  # unaffected tenant
        q.release("t")
        q.acquire("t")  # slot freed

    def test_global_bound(self):
        q = TenantQuotas(max_queue=2, max_active_per_tenant=0)
        q.acquire("a")
        q.acquire("b")
        with pytest.raises(AdmissionError) as err:
            q.acquire("c")
        assert err.value.code == "queue_full"


class TestServeConfig:
    def test_round_trip(self):
        cfg = ServeConfig(port=0, workers=3, cache_entries=7)
        assert ServeConfig.from_dict(cfg.to_dict()) == cfg

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            ServeConfig(port=70000)
        with pytest.raises(ConfigurationError):
            ServeConfig(workers=-1)
        with pytest.raises(ConfigurationError):
            ServeConfig(wait_timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            ServeConfig.from_dict({"no_such_knob": 1})


# --------------------------------------------------------------------
# live server: the HTTP contract
# --------------------------------------------------------------------

@pytest.fixture(scope="class")
def server():
    with serve_in_thread(ServeConfig(port=0, workers=1)) as srv:
        yield srv


class TestHttpApi:
    def test_healthz(self, server):
        status, doc = _request(server.base_url, "GET", "/healthz")
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["version"] == repro.__version__
        assert set(doc["jobs"]) == {
            "queued", "running", "cancelling", "done", "failed",
            "cancelled",
        }

    def test_submit_poll_result_matches_direct_align(
            self, server, instance, wire_problem):
        status, job = _request(server.base_url, "POST", "/jobs?wait=1",
                               body=_submission(wire_problem))
        assert status == 200
        assert job["state"] == "done"
        assert job["cached"] is False
        assert job["attempts"] == 1
        assert job["config"] == canonical_config("bp", CONFIG)

        status, snap = _request(server.base_url, "GET",
                                f"/jobs/{job['id']}")
        assert status == 200 and snap["state"] == "done"
        assert snap["problem_digest"] == problem_digest(instance.problem)

        status, served = _request(server.base_url, "GET",
                                  f"/jobs/{job['id']}/result")
        assert status == 200
        assert served.pop("cached") is False
        assert served.pop("warm_from") is None
        assert served.pop("parent_digest") is None
        local = result_to_wire(align(instance.problem, "bp", CONFIG))
        assert served == local

    def test_identical_resubmit_is_served_from_cache(
            self, server, wire_problem):
        # A config no other test submits, so the first run is cold.
        cfg = dict(CONFIG, n_iter=7)
        _, first = _request(server.base_url, "POST", "/jobs?wait=1",
                            body=_submission(wire_problem, config=cfg))
        assert first["cached"] is False
        # Same content, different display name, defaults spelled out:
        # still the same content address.
        body = _submission(dict(wire_problem, name="renamed"),
                           config=canonical_config("bp", cfg))
        status, hit = _request(server.base_url, "POST", "/jobs",
                               body=body)
        assert status == 200  # terminal at submit time, not 202
        assert hit["state"] == "done"
        assert hit["cached"] is True
        assert hit["attempts"] == 0
        assert hit["id"] != first["id"]
        _, cold = _request(server.base_url, "GET",
                           f"/jobs/{first['id']}/result")
        _, warm = _request(server.base_url, "GET",
                           f"/jobs/{hit['id']}/result")
        assert cold.pop("cached") is False
        assert warm.pop("cached") is True
        assert warm == cold

    def test_progress_stream_frames(self, server, wire_problem):
        # A distinct config so the submission misses the cache.
        body = _submission(wire_problem,
                           config=dict(CONFIG, n_iter=5))
        _, job = _request(server.base_url, "POST", "/jobs?wait=1",
                          body=body)
        frames = _stream_frames(server.base_url, job["id"])
        assert frames[0] == {"type": "state", "state": "queued"}
        assert {"type": "state", "state": "running"} in frames
        assert frames[-1] == {"type": "state", "state": "done"}
        iterations = [f for f in frames if f["type"] == "iteration"]
        assert [f["iteration"] for f in iterations] == [1, 2, 3, 4, 5]
        assert all(
            set(f) == {"type", "iteration", "objective", "weight_part",
                       "overlap_part", "upper_bound"}
            for f in iterations
        )

    def test_malformed_body_yields_error_envelope(self, server):
        status, doc = _request(server.base_url, "POST", "/jobs",
                               body=b"this is not JSON")
        assert status == 400
        assert doc["error"]["code"] == "bad_request"
        assert "message" in doc["error"]

    def test_unknown_method_and_bad_config_rejected(
            self, server, wire_problem):
        status, doc = _request(
            server.base_url, "POST", "/jobs",
            body=_submission(wire_problem, method="nope"))
        assert status == 400 and doc["error"]["code"] == "bad_request"
        status, doc = _request(
            server.base_url, "POST", "/jobs",
            body=_submission(wire_problem, config={"bogus_knob": 3}))
        assert status == 400 and doc["error"]["code"] == "bad_request"

    def test_unknown_job_and_route(self, server):
        status, doc = _request(server.base_url, "GET", "/jobs/j-missing")
        assert status == 404 and doc["error"]["code"] == "not_found"
        status, doc = _request(server.base_url, "GET", "/nope")
        assert status == 404 and doc["error"]["code"] == "not_found"

    def test_method_not_allowed(self, server):
        status, doc = _request(server.base_url, "DELETE", "/healthz")
        assert status == 405
        assert doc["error"]["code"] == "method_not_allowed"

    def test_oversized_problem_rejected(self, server, wire_problem):
        small = ServeConfig(port=0, workers=0, max_edges_l=2)
        with serve_in_thread(small) as srv:
            status, doc = _request(srv.base_url, "POST", "/jobs",
                                   body=_submission(wire_problem))
        assert status == 413
        assert doc["error"]["code"] == "too_large"


# --------------------------------------------------------------------
# live server, drained pool: queue-state determinism
# --------------------------------------------------------------------

@pytest.fixture(scope="class")
def drained():
    cfg = ServeConfig(port=0, workers=0, max_queue=3,
                      max_active_per_tenant=2)
    with serve_in_thread(cfg) as srv:
        yield srv


class TestDrainedServer:
    def test_cancel_queued_job(self, drained, wire_problem):
        _, job = _request(drained.base_url, "POST", "/jobs",
                          body=_submission(wire_problem))
        assert job["state"] == "queued"
        status, doc = _request(drained.base_url, "GET",
                               f"/jobs/{job['id']}/result")
        assert status == 409 and doc["error"]["code"] == "conflict"

        status, doc = _request(drained.base_url, "DELETE",
                               f"/jobs/{job['id']}")
        assert status == 200 and doc["state"] == "cancelled"
        status, doc = _request(drained.base_url, "GET",
                               f"/jobs/{job['id']}/result")
        assert status == 410 and doc["error"]["code"] == "gone"
        # Cancelling again conflicts: the job is terminal now.
        status, doc = _request(drained.base_url, "DELETE",
                               f"/jobs/{job['id']}")
        assert status == 409 and doc["error"]["code"] == "conflict"

    def test_quota_and_queue_rejections(self, drained, wire_problem):
        held = []
        for n_iter in (11, 12):
            _, job = _request(
                drained.base_url, "POST", "/jobs",
                body=_submission(wire_problem,
                                 config=dict(CONFIG, n_iter=n_iter)))
            held.append(job["id"])
        status, doc = _request(
            drained.base_url, "POST", "/jobs",
            body=_submission(wire_problem,
                             config=dict(CONFIG, n_iter=13)))
        assert status == 429
        assert doc["error"]["code"] == "quota_exceeded"

        # Another tenant fits under the global bound (2 + 1 = 3) ...
        status, other = _request(
            drained.base_url, "POST", "/jobs",
            body=_submission(wire_problem,
                             config=dict(CONFIG, n_iter=13)),
            headers={"X-Tenant": "alice"})
        assert status == 202 and other["tenant"] == "alice"
        # ... and the next one breaches it.
        status, doc = _request(
            drained.base_url, "POST", "/jobs",
            body=_submission(wire_problem,
                             config=dict(CONFIG, n_iter=13)),
            headers={"X-Tenant": "bob"})
        assert status == 429
        assert doc["error"]["code"] == "queue_full"

        # Cancelling a held job frees its slot for the same tenant.
        _request(drained.base_url, "DELETE", f"/jobs/{held[0]}")
        status, _ = _request(
            drained.base_url, "POST", "/jobs",
            body=_submission(wire_problem,
                             config=dict(CONFIG, n_iter=14)))
        assert status == 202


# --------------------------------------------------------------------
# chaos: crash mid-solve, warm-resume from checkpoint
# --------------------------------------------------------------------

@pytest.mark.chaos
class TestCheckpointedResume:
    def test_killed_attempt_resumes_from_checkpoint(
            self, instance, wire_problem):
        baseline = result_to_wire(align(instance.problem, "bp", CONFIG))
        cfg = ServeConfig(port=0, workers=1, checkpoint_every=2,
                          max_retries=1)
        plan = FaultPlan(
            [FaultSpec("crash", site="solver.iteration", task_index=6)],
            seed=0,
        )
        with serve_in_thread(cfg) as srv:
            with fault_plan(plan):
                status, job = _request(srv.base_url, "POST",
                                       "/jobs?wait=1",
                                       body=_submission(wire_problem))
            assert status == 200
            assert job["state"] == "done"
            assert job["attempts"] == 2  # crashed once, resumed once
            assert len(plan.fired()) == 1

            _, served = _request(srv.base_url, "GET",
                                 f"/jobs/{job['id']}/result")
            served.pop("cached")
            served.pop("warm_from"), served.pop("parent_digest")
            assert served == baseline  # bit-identical to uninterrupted

            frames = _stream_frames(srv.base_url, job["id"])
            kinds = [f["type"] for f in frames]
            assert "retry" in kinds
            assert "checkpoint" in kinds
            # The resumed attempt restarts above iteration 1: after the
            # retry frame, the first iteration frame continues from the
            # last checkpoint instead of recomputing from scratch.
            retry_at = kinds.index("retry")
            resumed_iters = [f["iteration"] for f in frames[retry_at:]
                             if f["type"] == "iteration"]
            assert resumed_iters and resumed_iters[0] > 1
            assert resumed_iters[-1] == CONFIG["n_iter"]

        # A clean finish discards the job's checkpoint key.
        assert get_checkpoint_store().load(f"serve:{job['id']}") is None

    def test_stateful_matcher_jobs_run_without_checkpoints(
            self, instance, wire_problem):
        # exact-warm carries dual state a checkpoint cannot capture, so a
        # checkpointing server must run these jobs unsnapshotted rather
        # than fail them.
        cfg = ServeConfig(port=0, workers=1, checkpoint_every=2,
                          max_retries=0)
        jobs = [("bp", dict(CONFIG, matcher="exact-warm")),
                ("klau", {"n_iter": 6, "matcher": "exact",
                          "warm_start": True})]
        with serve_in_thread(cfg) as srv:
            for method, config in jobs:
                status, job = _request(
                    srv.base_url, "POST", "/jobs?wait=1",
                    body=_submission(wire_problem, method=method,
                                     config=config))
                assert status == 200
                assert job["state"] == "done", job
                _, served = _request(srv.base_url, "GET",
                                     f"/jobs/{job['id']}/result")
                for field in ("cached", "warm_from", "parent_digest"):
                    served.pop(field)
                assert served == result_to_wire(
                    align(instance.problem, method, config))

    def test_failed_job_reports_error_envelope(self, wire_problem):
        # Retries exhausted: crash fires on both attempts.
        cfg = ServeConfig(port=0, workers=1, max_retries=1)
        plan = FaultPlan(
            [FaultSpec("crash", site="solver.iteration", task_index=3,
                       max_fires=2)],
            seed=0,
        )
        with serve_in_thread(cfg) as srv:
            with fault_plan(plan):
                status, job = _request(srv.base_url, "POST",
                                       "/jobs?wait=1",
                                       body=_submission(wire_problem))
            assert status == 200 and job["state"] == "failed"
            assert job["error"]["code"] == "internal"
            status, doc = _request(srv.base_url, "GET",
                                   f"/jobs/{job['id']}/result")
            assert status == 500
            assert doc["error"]["code"] == "internal"
            assert doc["error"]["detail"]["attempts"] == 2
