"""The ``serve_mix`` workload: the HTTP job server under a closed loop.

One client connection drives ``python -m repro.cli serve --workers 1
--store-path <tmp>``, sending each request once the previous reply is
in.  It repeats a cycle over n=2000 power-law problems, taking four in
turn: one cold BP solve (a fresh config ``seed`` makes its cache key
new), one warm realign of a 1% perturbation of that problem (``warm_from``
the cold job), and four resubmissions of bodies already answered (cache
hits).  An operation is
``POST /v1/jobs?wait=1`` plus ``GET /v1/jobs/{id}/result``.  One
connection, not two: with two, their jobs' overlap on the one worker
and the event loop spread service time and latency by 11-28% across
seeds.

A restart phase follows the load: one long job, K more queued behind it,
SIGKILL, and a new server over the same journal, timed until
``/v1/healthz`` reports the K+1 jobs recovered.

A traced run spends its first third on the plain server, as the
reference for the tracing overhead, then restarts on the launcher in
``serve_traced.py`` and reads the server's spans back at the end.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import select
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from perfbench import hostspeed, library, spans, spec

ROOT = Path(__file__).resolve().parents[1]
LAUNCHER = Path(__file__).resolve().parent / "serve_traced.py"

HITS_PER_CYCLE = 4
#: Problems per run, each with one 1% perturbation; cycle c uses problem
#: c % BASES.  Solve time differs by up to 20% between seeded n=2000
#: instances, so with one problem solve_s followed the seed's instance
#: (15% spread across seeds) more than the code.
BASES = 4
#: A hit resubmits one of the latest answered cold bodies.
HIT_WINDOW = 8
#: peak_rss_mb is read once this many cycles are done: the peak of a
#: fresh server through one cold solve, one realign and the hits.  Later
#: its peak jumps by 50-150 MB at a random cycle, as freed memory stays
#: with the allocator, so a read after eight cycles spread 16% across
#: seeds, and one at the end of the run would also count the cycles that
#: host speed let the run complete.
RSS_CYCLES = 1
#: Set-ups before the load and again after the restart (setup_s is the
#: median of all): set-ups at both ends of a run see more of the host's
#: speed levels than a burst of them at the start.
SETUP_REPEATS = 2
READY_TIMEOUT_S = 60.0
#: Payload fields the server sets per response rather than per result.
TRANSPORT_FIELDS = ("cached", "warm_from", "parent_digest")


@dataclass(frozen=True)
class Size:
    """Problem size and job lengths of one scale."""

    n: int
    n_iter: int
    restart_k: int
    #: Iterations of a restart-phase job: long enough that the first one
    #: is still running when the server is killed.
    restart_iters: int


SIZES = {
    "full": Size(n=2000, n_iter=20, restart_k=32, restart_iters=2000),
    "tiny": Size(n=200, n_iter=5, restart_k=4, restart_iters=20000),
}


class ServeError(RuntimeError):
    """The server did not start, answer or stop as the workload needs."""


@dataclass
class Inputs:
    """Wire-form problems: the bases and one perturbation of each."""

    problems: list[str]
    perturbed: list[str]


def _wire(problem: Any) -> str:
    from repro.serve.wire import problem_to_wire

    return json.dumps(problem_to_wire(problem), separators=(",", ":"))


def generate(seed: int, size: Size) -> Inputs:
    """The workload's inputs, a pure function of ``seed``."""
    import numpy as np

    from repro.generators.perturb import edit_script
    from repro.generators.synthetic import powerlaw_alignment_instance

    seeds = np.random.SeedSequence(seed).generate_state(2 * BASES).tolist()
    inputs = Inputs([], [])
    for base_seed, edit_seed in zip(seeds[::2], seeds[1::2]):
        base = powerlaw_alignment_instance(
            n=size.n, expected_degree=6.0, p_perturb=8.0 / size.n,
            seed=base_seed).problem
        inputs.problems.append(_wire(base))
        inputs.perturbed.append(_wire(base.apply_delta(edit_script(
            base, l_edge_rate=0.01, weight_rate=0.01, seed=edit_seed))[0]))
    return inputs


def job_body(problem_json: str, n_iter: int, config_seed: int,
             warm_from: str | None = None) -> bytes:
    """A BP job submission around an already serialized problem."""
    head: dict[str, Any] = {"method": "bp",
                            "config": {"n_iter": n_iter,
                                       "seed": config_seed}}
    if warm_from is not None:
        head["warm_from"] = warm_from
    return (json.dumps(head)[:-1] + ',"problem":' + problem_json
            + "}").encode()


def result_fields(payload: dict) -> dict:
    """A result payload without the per-response transport fields."""
    return {k: v for k, v in payload.items() if k not in TRANSPORT_FIELDS}


def request(port: int, method: str, path: str, body: bytes | None = None,
            headers: dict | None = None,
            timeout: float = 120.0) -> tuple[int, bytes]:
    """One HTTP exchange on a new connection (the server closes each)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def response_error(kind: str, post_status: int, doc: dict,
                   get_status: int, payload: dict | None, *,
                   parent: str | None = None,
                   first: dict | None = None) -> str | None:
    """Why one operation failed, or ``None``: the rule of ``error_frac``.

    Any non-200 response, a job that does not reach ``done``, or a failed
    check of the answer counts as a failure.  ``parent`` is the job a
    realign was warmed from; ``first`` is the first answer to the body a
    hit resubmits.
    """
    if post_status != 200:
        return f"{kind}: POST answered {post_status}"
    if doc.get("state") != "done":
        return f"{kind}: job {doc.get('id')} ended {doc.get('state')!r}"
    if get_status != 200 or payload is None:
        return f"{kind}: GET result answered {get_status}"
    method = str(payload.get("method", ""))
    if kind == "cold" and (doc.get("cached") or not method.startswith("bp[")):
        return f"cold: job {doc['id']} was not a cold BP solve ({method})"
    if kind == "realign" and (doc.get("warm_from") != parent
                              or not method.startswith("bp-warm")):
        return f"realign: job {doc['id']} was not warmed from {parent}"
    if kind == "hit":
        if not doc.get("cached"):
            return f"hit: job {doc['id']} was not answered from cache"
        if first is not None and result_fields(payload) != result_fields(
                first):
            return f"hit: job {doc['id']} differs from the first answer"
    return None


@dataclass
class Op:
    """One operation: its class, latency, job document and answer."""

    kind: str
    latency: float = 0.0
    #: Host-speed scale of the operation's own interval.
    scale: float = 1.0
    doc: dict = field(default_factory=dict)
    payload: dict | None = None
    error: str | None = None


def operation(port: int, kind: str, body: bytes, **expect: Any) -> Op:
    """Submit ``body``, wait for the job, fetch its result, check both."""
    op = Op(kind)
    t0 = time.perf_counter()
    try:
        status, raw = request(port, "POST", "/v1/jobs?wait=1", body,
                              {"Content-Type": "application/json"})
        op.doc = json.loads(raw)
        get_status = 0
        if status == 200 and op.doc.get("state") == "done":
            get_status, raw = request(port, "GET",
                                      f"/v1/jobs/{op.doc['id']}/result")
            op.payload = json.loads(raw)
        op.latency = time.perf_counter() - t0
        op.error = response_error(kind, status, op.doc, get_status,
                                  op.payload, **expect)
    except (OSError, http.client.HTTPException, ValueError) as exc:
        op.latency = time.perf_counter() - t0
        op.error = f"{kind}: {exc!r}"
    return op


@dataclass
class Load:
    """What one load phase saw."""

    clock: hostspeed.HostClock
    ops: list[Op] = field(default_factory=list)
    #: Time spent in operations, raw and scaled to the reference host.
    duration: float = 0.0
    scaled_duration: float = 0.0
    #: The server's peak RSS after RSS_CYCLES cycles (0 if fewer ran).
    peak_rss_mb: float = 0.0
    #: First (cycle, op) of each class, for the sample checks.  A job's
    #: config seed is the number of the cycle that first submitted it.
    samples: dict[str, tuple[int, Op]] = field(default_factory=dict)

    def run(self, port: int, kind: str, body: bytes, cycle: int,
            **expect: Any) -> Op:
        """One operation, recorded and scaled to the reference host.

        The host-speed kernel runs after every operation: on a shared
        host, speed changes within a second or two, so a scale taken once
        per cycle (two to three seconds) missed much of it.
        """
        op = operation(port, kind, body, **expect)
        op.scale = self.clock.factor()
        self.ops.append(op)
        self.duration += op.latency
        self.scaled_duration += op.latency * op.scale
        if op.error is None:
            self.samples.setdefault(kind, (cycle, op))
        return op


def load_phase(server: "Server", clock: hostspeed.HostClock,
               inputs: Inputs, size: Size, seed: int,
               seconds: float) -> Load:
    """Run cycles of cold, realign and hit operations for ``seconds``.

    ``seconds`` counts time in operations, not the host-speed kernel
    that runs between them.
    """
    port = server.port
    load = Load(clock)
    rng = random.Random(seed)
    answered: list[tuple[bytes, int]] = []   # body, cycle
    first: dict[bytes, dict] = {}
    clock.factor()
    cycle = 0
    while load.duration < seconds:
        body = job_body(inputs.problems[cycle % BASES], size.n_iter, cycle)
        cold = load.run(port, "cold", body, cycle)
        if cold.error is None and load.duration < seconds:
            first[body] = cold.payload
            answered.append((body, cycle))
            warm = job_body(inputs.perturbed[cycle % BASES],
                            size.n_iter, cycle, warm_from=cold.doc["id"])
            load.run(port, "realign", warm, cycle, parent=cold.doc["id"])
        for _ in range(HITS_PER_CYCLE):
            if not answered or load.duration >= seconds:
                break
            body, hit_cycle = rng.choice(answered[-HIT_WINDOW:])
            load.run(port, "hit", body, hit_cycle, first=first[body])
        cycle += 1
        if cycle == RSS_CYCLES:
            load.peak_rss_mb = server.peak_rss_mb()
    return load


class Server:
    """One ``repro.cli serve`` process over a journal directory.

    With ``spans_out`` the process is the tracing launcher instead, and
    :meth:`dump_spans` reads its spans back.
    """

    def __init__(self, store: Path, log: Path,
                 spans_out: Path | None = None) -> None:
        serve = ["serve", "--workers", "1", "--store-path", str(store),
                 "--port", "0"]
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro.cli", *serve]
        else:
            cmd = [sys.executable, str(LAUNCHER), "--spans-out",
                   str(spans_out), "--", *serve]
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        self.spans_out = spans_out
        self.port = 0
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                     stdout=subprocess.PIPE,
                                     stderr=self._log)

    def wait_ready(self, ready: Callable[[dict], bool] = lambda h: True,
                   timeout: float = READY_TIMEOUT_S) -> dict:
        """Block until ``/v1/healthz`` answers a document ``ready`` accepts."""
        deadline = time.monotonic() + timeout
        if not self.port:
            self.port = self._read_port(deadline)
        while True:
            try:
                status, raw = request(self.port, "GET", "/v1/healthz",
                                      timeout=10.0)
                if status == 200:
                    health = json.loads(raw)
                    if ready(health):
                        return health
            except (OSError, http.client.HTTPException, ValueError):
                pass
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise ServeError("server never reported ready on "
                                 f"/v1/healthz (exit {self.proc.poll()})")
            time.sleep(0.005)

    def _read_port(self, deadline: float) -> int:
        """Parse the port from the server's startup line."""
        line = b""
        while b"\n" not in line:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.proc.poll() is not None:
                raise ServeError(f"server did not start (exit "
                                 f"{self.proc.poll()}); see its log")
            readable, _, _ = select.select([self.proc.stdout], [], [],
                                           remaining)
            if readable:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise ServeError("server closed stdout before listening")
                line += chunk
        found = re.search(rb"http://[0-9.]+:([0-9]+)", line)
        if found is None:
            raise ServeError(f"no listen address in {line!r}")
        return int(found.group(1))

    def peak_rss_mb(self) -> float:
        """The process's peak resident set (VmHWM), in MiB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServeError("no VmHWM line in /proc status")

    def dump_spans(self, timeout: float = 30.0) -> tuple[list, Counter]:
        """Have the tracing launcher write its spans, and read them."""
        assert self.spans_out is not None, "only a traced server has spans"
        self.spans_out.unlink(missing_ok=True)
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + timeout
        while not self.spans_out.exists():
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise ServeError("traced server wrote no spans")
            time.sleep(0.01)
        return spans.load(self.spans_out)

    def kill(self) -> None:
        """SIGKILL the process (if alive) and wait until it has ended."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self._log.close()   # closing twice is harmless


def restart_phase(server: Server, start: Callable[..., Server],
                  inputs: Inputs, size: Size) -> tuple[float, Server,
                                                       list[str], int]:
    """Queue K+1 jobs, SIGKILL the server, time a restart over its store.

    Returns ``(restart_s, new_server, failures, attempted)``.
    """
    failures = []
    ids = []
    for i in range(size.restart_k + 1):
        body = job_body(inputs.problems[0], size.restart_iters,
                        10_000_000 + i)
        status, raw = request(
            server.port, "POST", "/v1/jobs", body,
            {"Content-Type": "application/json",
             "X-Tenant": f"restart-{i // 8}"})
        if status != 202:
            failures.append(f"restart: submission {i} answered {status}")
            continue
        ids.append(json.loads(raw)["id"])
        if i == 0:
            _wait_running(server.port, ids[0])
    server.kill()
    expected = len(ids)
    t0 = time.perf_counter()
    new = start()
    try:
        new.wait_ready(lambda h: h["jobs"]["queued"] + h["jobs"]["running"]
                       == expected)
    except ServeError as exc:
        failures.append(f"restart: {expected} jobs not recovered ({exc})")
    return time.perf_counter() - t0, new, failures, size.restart_k + 2


def _wait_running(port: int, job_id: str, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, raw = request(port, "GET", f"/v1/jobs/{job_id}")
        if status == 200 and json.loads(raw).get("state") == "running":
            return
        time.sleep(0.005)
    raise ServeError(f"restart job {job_id} never started running")


def verify_samples(inputs: Inputs, size: Size,
                   samples: dict[str, tuple[int, Op]]) -> list[str]:
    """Check one job per class against a solve made here.

    The served payload must equal ``result_to_wire(repro.align(...))`` of
    the same problem and config, ignoring the transport fields; the
    local results must pass the library correctness gate too.
    """
    import repro
    from repro.incremental import WarmState
    from repro.serve.wire import (problem_digest, problem_from_wire,
                                  result_to_wire)

    failures: list[str] = []
    if "cold" not in samples:
        return ["no cold operation completed"]
    cycle, cold = samples["cold"]
    config = {"n_iter": size.n_iter, "seed": cycle}
    problem = problem_from_wire(json.loads(inputs.problems[cycle % BASES]))
    result = repro.align(problem, "bp", config, keep_state=True)
    failures += library.check_result(problem, result)
    expected = result_fields(result_to_wire(result))
    checks = [("cold", cold)]
    if "hit" in samples and samples["hit"][0] == cycle:
        checks.append(("hit", samples["hit"][1]))
    for kind, op in checks:
        if result_fields(op.payload) != expected:
            failures.append(f"{kind}: job {op.doc['id']} payload differs "
                            "from a local solve")
    if "realign" in samples and samples["realign"][0] == cycle:
        warm_op = samples["realign"][1]
        state = WarmState.from_result(problem, result,
                                      digest=problem_digest(problem))
        edited = problem_from_wire(json.loads(
            inputs.perturbed[cycle % BASES]))
        warm = repro.align(edited, "bp", config, warm_from=state)
        failures += library.check_result(edited, warm)
        if result_fields(warm_op.payload) != result_fields(
                result_to_wire(warm)):
            failures.append(f"realign: job {warm_op.doc['id']} payload "
                            "differs from a local warm solve")
    return failures


def _class_p50(ops: list[Op], kind: str) -> float:
    return spec.median([o.latency for o in ops if o.kind == kind])


def _figures(ops: list[Op], attempted: int, failed: int) -> dict[str, float]:
    """The serve_mix-only figures of one load phase."""
    latencies = [o.latency for o in ops]
    pct = spec.tail_percentile(len(latencies)) or 50.0
    return {
        "cold_p50_s": _class_p50(ops, "cold"),
        "hit_p50_s": _class_p50(ops, "hit"),
        "realign_p50_s": _class_p50(ops, "realign"),
        "latency_tail_s": spec.percentile(latencies, pct),
        "latency_tail_pct": pct,
        "error_frac": failed / attempted if attempted else 0.0,
    }


def _job_times(ops: list[Op]) -> tuple[list[float], list[float]]:
    """Queue waits and service times of the jobs a worker ran."""
    waits, services = [], []
    for op in ops:
        doc = op.doc
        if doc.get("started") is not None and doc.get("finished") is not None:
            waits.append(doc["started"] - doc["created"])
            services.append(doc["finished"] - doc["started"])
    return waits, services


def _layers(ops: list[Op], load: tuple[list, Counter],
            replay: tuple[list, Counter]) -> dict[str, float]:
    """The per-layer metrics of a traced load phase and restart."""
    load_spans, counts = load
    n = len(ops)
    table = spans.layer_table(load_spans)

    def per_op(name: str, field: str = "busy") -> float:
        return spans.per_op(table, name, n, field)

    waits, services = _job_times(ops)
    submit = {s.job: s.end - s.start for s in load_spans
              if s.name == "submit"}
    http_self = []
    for op in ops:
        doc = op.doc
        started, finished = doc.get("started"), doc.get("finished")
        queued = started - doc["created"] if started is not None else 0.0
        served = finished - started if started is not None else 0.0
        http_self.append(op.latency - submit.get(doc["id"], 0.0)
                         - queued - served)
    replay_table = spans.layer_table(replay[0])
    lookups = counts["cache.lookups"]
    out = spans.core_layers(table, n, bp_span="align")
    out.update({
        "bp.iterations": counts["bp.iterations"] / max(counts["bp.jobs"], 1),
        "realign.iterations":
            counts["realign.iterations"] / max(counts["realign.jobs"], 1),
        "warm_capture.busy_s": per_op("warm_capture"),
        "supervise.self_s": per_op("supervise", "own"),
        "supervise.retries": counts["supervise.retries"] / n,
        "wire.decode_s": per_op("wire.decode"),
        "wire.digest_s": per_op("wire.digest"),
        "wire.encode_s": per_op("wire.encode"),
        "cache.lookups": lookups / n,
        "cache.hits": counts["cache.hits"] / n,
        "cache.hit_ratio": counts["cache.hits"] / lookups if lookups else 0.0,
        "journal.busy_s": per_op("journal"),
        "journal.writes": counts["journal.writes"] / n,
        "journal.replay_s": (replay_table["journal.replay"].busy
                             if "journal.replay" in replay_table else 0.0),
        "submit.busy_s": per_op("submit"),
        "queue_wait_s": spec.median(waits),
        "service_s": spec.median(services),
        "http.self_s": spec.median(http_self),
    })
    return out


def run(seed: int, seconds: float, trace: bool, size: Size,
        workdir: Path) -> spec.Outcome:
    """The whole workload: set-up, load, restart, checks, teardown."""
    out = spec.Outcome()
    servers: list[Server] = []
    counter = iter(range(1_000))

    def start(store: Path, traced: bool = False) -> Server:
        i = next(counter)
        server = Server(store, workdir / f"server{i}.log",
                        workdir / f"spans{i}.json" if traced else None)
        servers.append(server)
        return server

    clock = hostspeed.HostClock()
    setup: list[tuple[float, float]] = []   # raw seconds, scale

    def set_up(i: int) -> tuple[Inputs, Server]:
        clock.factor()
        t0 = time.perf_counter()
        inputs = generate(seed, size)
        server = start(workdir / f"setup{i}")
        server.wait_ready()
        setup.append((time.perf_counter() - t0, clock.factor()))
        return inputs, server

    try:
        for i in range(SETUP_REPEATS):
            if servers:
                servers[-1].kill()
            inputs, server = set_up(i)

        reference: list[Op] = []
        if trace:
            reference = load_phase(server, clock, inputs, size, seed,
                                   seconds / 3).ops
            server.kill()
            store = workdir / "traced"
            server = start(store, traced=True)
            server.wait_ready()
            seconds -= seconds / 3
        else:
            store = workdir / f"setup{SETUP_REPEATS - 1}"
        load = load_phase(server, clock, inputs, size, seed, seconds)
        ops = load.ops
        load_spans = server.dump_spans() if trace else None
        peak_rss = load.peak_rss_mb or server.peak_rss_mb()
        restart_s, server, restart_failures, restart_ops = restart_phase(
            server, lambda: start(store, traced=trace), inputs, size)
        replay_spans = server.dump_spans() if trace else None
        server.kill()
        for i in range(SETUP_REPEATS, 2 * SETUP_REPEATS):
            set_up(i)[1].kill()

        failed_ops = [o.error for o in ops + reference if o.error]
        out.failures += failed_ops + restart_failures
        out.failures += verify_samples(inputs, size, load.samples)
        out.attempted = len(ops) + len(reference) + restart_ops + 1
        ok = [o for o in ops if o.error is None]
        # Each cold and realign job runs one align() on the worker; an ok
        # op's job is done, so it has both times.  Both classes count, for
        # twice the samples of cold jobs alone.
        services = [(o.doc["finished"] - o.doc["started"]) * o.scale
                    for o in ok if o.kind != "hit"]
        out.e2e = {
            "setup_s": spec.median([t * f for t, f in setup]),
            "solve_s": spec.median(services),
            "objective": (load.samples["cold"][1].payload["objective"]
                          if "cold" in load.samples else 0.0),
            "peak_rss_mb": peak_rss,
            "latency_p50_s": spec.median([o.latency * o.scale for o in ok]),
            "jobs_per_s": len(ok) / load.scaled_duration,
        }
        figures = _figures(ok, out.attempted, len(out.failures))
        figures["restart_s"] = restart_s
        out.layers = dict(figures)
        kinds = Counter(o.kind for o in ok)
        out.notes.append(
            f"load: {len(ok)} operations in {load.duration:.2f} s "
            f"({dict(kinds)}); tail is p{figures['latency_tail_pct']:g}; "
            f"restart recovered {size.restart_k + 1} jobs; raw latency "
            f"p50 {spec.median([o.latency for o in ok]):.4f} s, raw set-up "
            f"{spec.median([t for t, _ in setup]):.4f} s, host-speed scales "
            f"{min(o.scale for o in ok):.3f}-{max(o.scale for o in ok):.3f}")
        if trace:
            out.layers.update(_layers(ok, load_spans, replay_spans))
            mean_ref = spec.mean([o.latency for o in reference
                                  if o.error is None])
            mean_op = spec.mean([o.latency for o in ok])
            out.layers["trace.op_s"] = mean_op
            out.layers["trace.overhead_s"] = mean_op - mean_ref
            out.layers["trace.overhead_frac"] = (
                (mean_op - mean_ref) / mean_ref if mean_ref else 0.0)
            out.trace = {
                "client_ops": [[o.kind, o.doc.get("id"), o.latency]
                               for o in ops],
                "server_load": [list(s) for s in load_spans[0]],
                "server_replay": [list(s) for s in replay_spans[0]],
            }
    except (ServeError, OSError, http.client.HTTPException) as exc:
        out.failures.append(f"serve_mix: {exc!r}")
        out.attempted = max(out.attempted, 1)
    finally:
        for server in servers:
            server.kill()
    return out
