"""The serving wire schema: JSON in, JSON out, hashes in between.

Everything that crosses the HTTP boundary of :mod:`repro.serve` is
defined here, in one place, so the server, the job store, the docs page
(``docs/serving.md``) and the docs-consistency tests all share a single
vocabulary:

* :func:`problem_from_wire` / :func:`problem_to_wire` — a
  :class:`~repro.core.problem.NetworkAlignmentProblem` as a plain JSON
  document (graphs as edge lists, L as weighted pairs);
* :func:`result_to_wire` — an
  :class:`~repro.core.result.AlignmentResult` as the response payload
  of ``GET /v1/jobs/{id}/result`` (non-finite floats become ``null``,
  matching the JSONL sink convention);
* :func:`problem_digest` / :func:`cache_key` — the content addresses
  the result cache is keyed by: a SHA-256 over the problem's canonical
  arrays plus the canonicalized solver config
  (:func:`repro.registry.canonical_config`);
* :func:`error_envelope` — the one error shape every endpoint returns.

The digest is computed over the *constructed* problem, not the request
text: two submissions whose edge lists differ only in order or in
duplicate entries build identical graphs and therefore hit the same
cache entry.  The problem ``name`` is a display label and is excluded.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Mapping

import numpy as np

from repro._util import numeric_rows, vertex_ids
from repro.core.problem import NetworkAlignmentProblem
from repro.core.result import AlignmentResult
from repro.errors import ValidationError
from repro.graph.graph import Graph
from repro.sparse.bipartite import BipartiteGraph

__all__ = [
    "API_VERSION",
    "cache_key",
    "error_envelope",
    "problem_digest",
    "problem_from_wire",
    "problem_to_wire",
    "result_to_wire",
]

#: The current HTTP API version: the ``/v1`` route prefix and the
#: ``api_version`` field stamped on every error envelope.
API_VERSION = "v1"


def _require(mapping: Mapping[str, Any], key: str, where: str) -> Any:
    """Fetch a required key or raise a wire-level ValidationError.

    Args:
        mapping: The JSON object being decoded.
        key: The required member name.
        where: Human-readable location for the error message.

    Returns:
        The value stored under ``key``.

    Raises:
        ValidationError: If ``key`` is absent.
    """
    if key not in mapping:
        raise ValidationError(f"{where} is missing required key {key!r}")
    return mapping[key]


#: Largest accepted vertex count: the graph constructors pack an edge
#: ``(u, v)`` into one int64 key ``u·n + v``, so ``n·n`` must fit in int64.
_MAX_VERTICES = math.isqrt(np.iinfo(np.int64).max)
def _is_vertex_id(value: Any, n: int) -> bool:
    """Whether one wire value is an integer vertex id in ``[0, n)``."""
    if isinstance(value, float):
        return value.is_integer() and 0 <= value < n
    return isinstance(value, int) and 0 <= value < n


def _is_weight(value: Any) -> bool:
    """Whether one wire value is a number with a finite float64 value."""
    try:
        return isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _row_error(edges: list, where: str, shape: str,
               bounds: tuple[int, int], weighted: bool) -> ValidationError:
    """Locate the first bad row of an edge list that did not decode.

    Walks the rows in Python, which only a rejected body pays, so the
    error names the row as it did when every body was decoded this way.

    Args:
        edges: The JSON list of edge rows.
        where: Location label (``"problem.a"``, ``"problem.l"``).
        shape: The row's description (``"a [u, v] pair"``).
        bounds: The vertex counts the two ids index.
        weighted: Whether each row ends with a weight.

    Returns:
        The :class:`ValidationError` to raise.
    """
    width = len(bounds) + weighted
    for i, row in enumerate(edges):
        if not isinstance(row, (list, tuple)) or len(row) != width:
            return ValidationError(f"{where}.edges[{i}] must be {shape}")
        for value, n in zip(row, bounds):
            if not _is_vertex_id(value, n):
                return ValidationError(
                    f"{where}.edges[{i}] must hold integer vertex ids "
                    f"in [0, {n})"
                )
        if weighted and not _is_weight(row[2]):
            return ValidationError(
                f"{where}.edges[{i}] weight must be a finite number"
            )
    return ValidationError(f"{where}.edges must hold numbers only")


def _graph_from_wire(doc: Any, where: str) -> Graph:
    """Decode one ``{"n": ..., "edges": [[u, v], ...]}`` graph object.

    Args:
        doc: The JSON value to decode.
        where: Location label (``"problem.a"`` / ``"problem.b"``).

    Returns:
        The undirected :class:`~repro.graph.Graph`.

    Raises:
        ValidationError: On wrong types, ragged edge rows, ids that are
            not integers, or ids out of range (via ``Graph.from_edges``).
    """
    if not isinstance(doc, Mapping):
        raise ValidationError(f"{where} must be an object with 'n'/'edges'")
    n = _require(doc, "n", where)
    edges = _require(doc, "edges", where)
    if isinstance(n, bool) or not isinstance(n, int) or \
            not 0 <= n <= _MAX_VERTICES:
        raise ValidationError(
            f"{where}.n must be a non-negative integer (at most "
            f"{_MAX_VERTICES})"
        )
    if not isinstance(edges, list):
        raise ValidationError(f"{where}.edges must be a list of [u, v] pairs")
    rows = numeric_rows(edges, 2)
    ids = None if rows is None else vertex_ids(rows)
    if ids is None:
        raise _row_error(edges, where, "a [u, v] pair", (n, n), False)
    return Graph.from_edges(n, ids[:, 0], ids[:, 1])


def _bipartite_from_wire(doc: Any, n_a: int, n_b: int) -> BipartiteGraph:
    """Decode the candidate graph ``{"edges": [[a, b, w], ...]}``.

    Args:
        doc: The JSON value under ``problem.l``.
        n_a: Number of A-side vertices (from ``problem.a.n``).
        n_b: Number of B-side vertices (from ``problem.b.n``).

    Returns:
        The weighted :class:`~repro.sparse.BipartiteGraph` L.

    Raises:
        ValidationError: On wrong types, ragged rows, ids that are not
            integers, weights that are not numbers, or ids out of range
            (via ``BipartiteGraph.from_edges``).
    """
    if not isinstance(doc, Mapping):
        raise ValidationError("problem.l must be an object with 'edges'")
    edges = _require(doc, "edges", "problem.l")
    if not isinstance(edges, list):
        raise ValidationError(
            "problem.l.edges must be a list of [a, b, weight] triplets"
        )
    rows = numeric_rows(edges, 3)
    ids = None if rows is None else vertex_ids(rows[:, :2])
    if ids is None:
        raise _row_error(edges, "problem.l", "an [a, b, weight] triplet",
                         (n_a, n_b), True)
    return BipartiteGraph.from_edges(n_a, n_b, ids[:, 0], ids[:, 1],
                                     rows[:, 2].astype(np.float64))


def _objective_weight(doc: Mapping[str, Any], key: str,
                      default: float) -> float:
    """Decode ``alpha`` or ``beta``: a finite non-negative real number.

    Args:
        doc: The wire problem.
        key: ``"alpha"`` or ``"beta"``.
        default: The value when the member is absent.

    Returns:
        The value as a float.

    Raises:
        ValidationError: On a bool, a non-number, NaN, ±inf, a negative
            value or an int beyond the float range.
    """
    value = doc.get(key, default)
    if isinstance(value, bool) or not _is_weight(value) or value < 0:
        raise ValidationError(
            f"problem.{key} must be a finite non-negative number"
        )
    return float(value)


def problem_from_wire(doc: Any) -> NetworkAlignmentProblem:
    """Build a problem instance from its wire (JSON) form.

    The wire form is documented normatively in ``docs/serving.md``::

        {"a": {"n": 3, "edges": [[0, 1], [1, 2]]},
         "b": {"n": 3, "edges": [[0, 1], [1, 2]]},
         "l": {"edges": [[0, 0, 1.0], [1, 1, 1.0], [2, 2, 1.0]]},
         "alpha": 1.0, "beta": 2.0, "name": "demo"}

    ``n`` is a non-bool integer; vertex ids are integers (a float with
    an integral value such as ``1.0`` counts); weights, ``alpha`` and
    ``beta`` are numbers.  Each edge list decodes with one
    ``np.asarray``; only a rejected list is walked row by row, to name
    the offending row.

    Args:
        doc: The decoded ``problem`` member of a job submission.

    Returns:
        The validated :class:`~repro.core.problem.NetworkAlignmentProblem`.

    Raises:
        ValidationError: If the document does not follow the wire shape
            or the underlying graph constructors reject it.
    """
    if not isinstance(doc, Mapping):
        raise ValidationError("problem must be a JSON object")
    a = _graph_from_wire(_require(doc, "a", "problem"), "problem.a")
    b = _graph_from_wire(_require(doc, "b", "problem"), "problem.b")
    ell = _bipartite_from_wire(_require(doc, "l", "problem"), a.n, b.n)
    alpha = _objective_weight(doc, "alpha", 1.0)
    beta = _objective_weight(doc, "beta", 2.0)
    name = str(doc.get("name", "wire"))
    return NetworkAlignmentProblem(a, b, ell, alpha=alpha, beta=beta,
                                   name=name)


def problem_to_wire(problem: NetworkAlignmentProblem) -> dict[str, Any]:
    """Serialize a problem to its wire form (inverse of decode).

    Args:
        problem: The instance to serialize.

    Returns:
        A JSON-ready dict accepted by :func:`problem_from_wire`; the
        round trip rebuilds identical graphs.
    """
    a, b, ell = problem.a_graph, problem.b_graph, problem.ell
    return {
        "a": {"n": a.n, "edges": np.column_stack(
            [a.edge_u, a.edge_v]).tolist()},
        "b": {"n": b.n, "edges": np.column_stack(
            [b.edge_u, b.edge_v]).tolist()},
        "l": {"edges": [
            [int(u), int(v), float(w)]
            for u, v, w in zip(ell.edge_a.tolist(), ell.edge_b.tolist(),
                               ell.weights.tolist())
        ]},
        "alpha": problem.alpha,
        "beta": problem.beta,
        "name": problem.name,
    }


def problem_digest(problem: NetworkAlignmentProblem) -> str:
    """Content-address a problem: SHA-256 over its canonical arrays.

    The digest covers graph sizes and edge arrays, L's edges and
    weights, and the objective parameters (α, β) — everything that can
    influence an alignment result.  The display ``name`` is excluded, so
    renaming a problem does not defeat the result cache.

    Args:
        problem: The instance to hash.

    Returns:
        A 64-character lowercase hex digest.
    """
    h = hashlib.sha256()
    a, b, ell = problem.a_graph, problem.b_graph, problem.ell
    for part in (
        np.asarray([a.n, b.n, ell.n_edges], dtype=np.int64),
        np.ascontiguousarray(a.edge_u, dtype=np.int64),
        np.ascontiguousarray(a.edge_v, dtype=np.int64),
        np.ascontiguousarray(b.edge_u, dtype=np.int64),
        np.ascontiguousarray(b.edge_v, dtype=np.int64),
        np.ascontiguousarray(ell.edge_a, dtype=np.int64),
        np.ascontiguousarray(ell.edge_b, dtype=np.int64),
        np.ascontiguousarray(ell.weights, dtype=np.float64),
        np.asarray([problem.alpha, problem.beta], dtype=np.float64),
    ):
        h.update(part.tobytes())
    return h.hexdigest()


def cache_key(method: str, digest: str, config: Mapping[str, Any]) -> str:
    """The result-cache address for (method, problem, config).

    Args:
        method: The resolved primary solver name (aliases already
            normalized by the registry).
        digest: The :func:`problem_digest` of the submitted problem.
        config: The *canonicalized* config dict
            (:func:`repro.registry.canonical_config`), so that defaults
            spelled out and defaults omitted address the same entry.

    Returns:
        A string key, stable across processes and sessions.
    """
    canon = json.dumps(config, sort_keys=True, allow_nan=True)
    cfg_hash = hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]
    return f"{method}:{digest}:{cfg_hash}"


def _finite(value: float) -> float | None:
    """Map non-finite floats to ``None`` (the JSONL sink convention)."""
    return value if math.isfinite(value) else None


def result_to_wire(result: AlignmentResult) -> dict[str, Any]:
    """Serialize an alignment result to the response payload shape.

    The payload is what ``GET /v1/jobs/{id}/result`` returns (minus the
    transport-level ``cached`` flag the server adds).  Matched pairs are
    listed A-side ascending, so two bit-identical results serialize to
    byte-identical JSON.

    Args:
        result: The solver output to serialize.

    Returns:
        A JSON-ready dict: method, objective and its parts, the upper
        bound (``null`` when the method has none), iteration count,
        matching cardinality, and the matched ``[a, b]`` pairs.
    """
    mate_a = result.matching.mate_a
    matched = np.flatnonzero(mate_a >= 0)
    return {
        "method": result.method,
        "objective": result.objective,
        "weight_part": result.weight_part,
        "overlap_part": result.overlap_part,
        "best_upper_bound": _finite(result.best_upper_bound),
        "iterations": result.iterations,
        "cardinality": result.matching.cardinality,
        "matching": [
            [int(a), int(mate_a[a])] for a in matched.tolist()
        ],
    }


def error_envelope(code: str, message: str,
                   detail: Mapping[str, Any] | None = None) -> dict:
    """Build the uniform error body every endpoint returns on failure.

    Args:
        code: A stable machine-readable slug (``"bad_request"``,
            ``"not_found"``, ``"quota_exceeded"``, ``"conflict"``,
            ``"too_large"``, ``"timeout"``, ``"internal"``).
        message: One human-readable sentence.
        detail: Optional structured context (echoed verbatim).

    Returns:
        ``{"api_version": "v1", "error": {"code", "message"[, "detail"]}}``.
        The top-level ``api_version`` names the API generation that
        answered — clients can key parsers on it.
    """
    body: dict[str, Any] = {
        "api_version": API_VERSION,
        "error": {"code": code, "message": message},
    }
    if detail:
        body["error"]["detail"] = dict(detail)
    return body
