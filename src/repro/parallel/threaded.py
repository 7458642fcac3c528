"""``threading``-based parallel-for and locally-dominant matcher.

Faithful to the paper's parallel structure — chunked dynamic scheduling,
per-vertex FindMate/MatchVertex with an atomically updated queue — but
executed by real CPython threads.  The GIL admits only one thread into
the interpreter at a time, so throughput is flat in the thread count;
that measurement (see ``bench_gil_reality``) is the reproduction gate
this library's machine model works around.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np

from repro._util import asarray_f64
from repro.errors import ConfigurationError
from repro.matching.locally_dominant import _general_graph_arrays
from repro.matching.result import MatchingResult
from repro.sparse.bipartite import BipartiteGraph

__all__ = ["parallel_for_threaded", "threaded_locally_dominant_matching"]


def parallel_for_threaded(
    n_items: int,
    body: Callable[[int, int], None],
    *,
    n_threads: int = 4,
    chunk: int = 1000,
) -> None:
    """Run ``body(start, stop)`` over chunks of ``range(n_items)``.

    Dynamic scheduling: each thread repeatedly claims the next chunk via
    an atomic counter (a lock-protected integer — CPython's equivalent of
    ``__sync_fetch_and_add``).
    """
    if n_threads < 1:
        raise ConfigurationError("n_threads must be >= 1")
    if chunk < 1:
        raise ConfigurationError("chunk must be >= 1")
    next_chunk = 0
    lock = threading.Lock()

    def worker() -> None:
        nonlocal next_chunk
        while True:
            with lock:
                start = next_chunk
                next_chunk += chunk
            if start >= n_items:
                return
            body(start, min(start + chunk, n_items))

    if n_threads == 1:
        worker()
        return
    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def threaded_locally_dominant_matching(
    graph: BipartiteGraph,
    weights: np.ndarray | None = None,
    *,
    n_threads: int = 4,
) -> MatchingResult:
    """Locally-dominant ½-approx matching with real threads (Algorithm 1).

    Vertices are processed by a thread pool in both phases; ``mate`` and
    ``candidate`` updates are guarded by a striped lock array (publishing
    a matched pair must be atomic), and the next-queue append uses the
    counter idiom of §V.  The output matches the serial implementation;
    only the wall-clock (GIL-bound) differs.
    """
    indptr_np, neighbors_np, hw_np = _general_graph_arrays(graph, weights)
    n = graph.n_a + graph.n_b
    indptr = indptr_np.tolist()
    adj = neighbors_np.tolist()
    hw = hw_np.tolist()

    mate = [-1] * n
    candidate = [-1] * n
    n_locks = 64
    locks = [threading.Lock() for _ in range(n_locks)]

    def find_mate(s: int) -> int:
        best_w = 0.0
        best_t = -1
        for k in range(indptr[s], indptr[s + 1]):
            t = adj[k]
            w = hw[k]
            if mate[t] != -1 or w <= 0.0:
                continue
            if w > best_w or (w == best_w and best_t != -1 and t < best_t):
                best_w = w
                best_t = t
        return best_t

    def try_match(s: int, queue: list[int], qlock: threading.Lock) -> None:
        c = candidate[s]
        if c < 0 or mate[s] != -1:
            return
        if candidate[c] != s:
            return
        first, second = sorted((s % n_locks, c % n_locks))
        locks[first].acquire()
        if second != first:
            locks[second].acquire()
        try:
            if mate[s] == -1 and mate[c] == -1 and candidate[c] == s:
                mate[s] = c
                mate[c] = s
                with qlock:
                    queue.append(s)
                    queue.append(c)
        finally:
            if second != first:
                locks[second].release()
            locks[first].release()

    # Phase 1
    q_current: list[int] = []
    qlock = threading.Lock()

    def phase1(start: int, stop: int) -> None:
        for v in range(start, stop):
            candidate[v] = find_mate(v)

    parallel_for_threaded(n, phase1, n_threads=n_threads)

    def phase1b(start: int, stop: int) -> None:
        for v in range(start, stop):
            try_match(v, q_current, qlock)

    parallel_for_threaded(n, phase1b, n_threads=n_threads)

    # Phase 2
    while q_current:
        q_next: list[int] = []

        def phase2(start: int, stop: int) -> None:
            for qi in range(start, stop):
                u = q_current[qi]
                for k in range(indptr[u], indptr[u + 1]):
                    v = adj[k]
                    if mate[v] == -1 and candidate[v] == u:
                        candidate[v] = find_mate(v)
                        try_match(v, q_next, qlock)

        parallel_for_threaded(
            len(q_current), phase2, n_threads=n_threads, chunk=64
        )
        q_current = q_next

    mate_a = np.array(
        [mate[a] - graph.n_a if mate[a] >= 0 else -1
         for a in range(graph.n_a)],
        dtype=np.int64,
    )
    w_vec = graph.weights if weights is None else asarray_f64(weights)
    return MatchingResult.from_mates(graph, mate_a, weights=w_vec)
