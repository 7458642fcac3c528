"""Delta updates on alignment problems (the edit-script half of realignment).

A production alignment service sees *drifting* inputs — ontologies gain
terms, binaries gain functions — not a stream of unrelated one-shot
problems.  :class:`ProblemDelta` is a validated edit script against a
:class:`~repro.core.problem.NetworkAlignmentProblem` (L-edge inserts /
deletes / reweights plus edge edits on the underlying graphs A and B),
and :func:`apply_delta` applies one, returning the perturbed problem
together with a :class:`DeltaReport` of the edge renumbering and the
squares work.  Which L edges the edit touched is BP's warm seed
(:func:`repro.incremental.state.seed_from_warm`).

The expensive derived structure — the squares matrix **S** — is
maintained *incrementally*: rows whose square set cannot have changed
keep their old columns (remapped through the monotone old→new edge-id
map), and only the dirty rows (edges inserted, partners of inserts,
edges incident on an edited graph endpoint) are re-expanded via
:func:`~repro.core.squares.squares_coo`.  The result is bit-identical
to a from-scratch :func:`~repro.core.squares.build_squares` on the
perturbed problem; ``tests/test_incremental.py`` holds that property
under randomized edit scripts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro._util import numeric_rows, sorted_lookup, sorted_union, vertex_ids
from repro.core.problem import NetworkAlignmentProblem
from repro.core.squares import squares_coo
from repro.errors import ValidationError
from repro.graph.graph import Graph
from repro.observe import get_bus
from repro.sparse.bipartite import BipartiteGraph
from repro.sparse.build import coo_to_csr
from repro.sparse.csr import CSRMatrix

__all__ = ["DeltaReport", "ProblemDelta", "apply_delta"]


#: The JSON fields of a delta and their row widths (``from_dict``).
_FIELD_WIDTHS = {"l_add": 3, "l_drop": 2, "l_reweight": 3, "a_add": 2,
                 "a_drop": 2, "b_add": 2, "b_drop": 2}


def _empty_pairs() -> np.ndarray:
    return np.empty((0, 2), dtype=np.int64)


def _empty_f64() -> np.ndarray:
    return np.empty(0, dtype=np.float64)


def _as_pairs(rows: Any, what: str) -> np.ndarray:
    """Coerce an iterable of ``(u, v)`` pairs to an ``(k, 2)`` array."""
    arr = np.asarray(list(rows) if not isinstance(rows, np.ndarray) else rows,
                     dtype=np.int64)
    if arr.size == 0:
        return _empty_pairs()
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValidationError(f"{what} must be a sequence of (u, v) pairs")
    return arr


@dataclass(frozen=True)
class ProblemDelta:
    """A validated edit script against one alignment problem.

    All members are arrays; use :meth:`build` to construct from plain
    Python lists and :meth:`from_dict` / :meth:`to_dict` for the JSON
    form the CLI ``realign`` subcommand reads.  Vertex counts are fixed
    — deltas edit edges and weights, never add or remove vertices.

    Attributes:
        l_add: ``(k, 2)`` L edges ``(a, b)`` to insert.
        l_add_w: Length-``k`` weights of the inserted L edges.
        l_drop: ``(k, 2)`` existing L edges to delete.
        l_reweight: ``(k, 2)`` existing L edges whose weight changes.
        l_reweight_w: The new weights for ``l_reweight``.
        a_add: ``(k, 2)`` edges to insert into graph A.
        a_drop: ``(k, 2)`` existing A edges to delete.
        b_add: ``(k, 2)`` edges to insert into graph B.
        b_drop: ``(k, 2)`` existing B edges to delete.
    """

    l_add: np.ndarray = field(default_factory=_empty_pairs)
    l_add_w: np.ndarray = field(default_factory=_empty_f64)
    l_drop: np.ndarray = field(default_factory=_empty_pairs)
    l_reweight: np.ndarray = field(default_factory=_empty_pairs)
    l_reweight_w: np.ndarray = field(default_factory=_empty_f64)
    a_add: np.ndarray = field(default_factory=_empty_pairs)
    a_drop: np.ndarray = field(default_factory=_empty_pairs)
    b_add: np.ndarray = field(default_factory=_empty_pairs)
    b_drop: np.ndarray = field(default_factory=_empty_pairs)

    def __post_init__(self) -> None:
        for name in ("l_add", "l_drop", "l_reweight", "a_add", "a_drop",
                     "b_add", "b_drop"):
            object.__setattr__(self, name, _as_pairs(getattr(self, name),
                                                     name))
        for name, pairs in (("l_add_w", self.l_add),
                            ("l_reweight_w", self.l_reweight)):
            w = np.asarray(getattr(self, name), dtype=np.float64).ravel()
            if len(w) != len(pairs):
                raise ValidationError(
                    f"{name} must carry one weight per edited edge "
                    f"({len(w)} weights for {len(pairs)} edges)"
                )
            if len(w) and not np.isfinite(w).all():
                raise ValidationError(f"{name} weights must be finite")
            object.__setattr__(self, name, w)

    @classmethod
    def build(
        cls,
        *,
        l_add: Sequence[Sequence[float]] = (),
        l_drop: Sequence[Sequence[int]] = (),
        l_reweight: Sequence[Sequence[float]] = (),
        a_add: Sequence[Sequence[int]] = (),
        a_drop: Sequence[Sequence[int]] = (),
        b_add: Sequence[Sequence[int]] = (),
        b_drop: Sequence[Sequence[int]] = (),
    ) -> "ProblemDelta":
        """Build a delta from plain triples/pairs.

        ``l_add`` and ``l_reweight`` take ``(a, b, weight)`` triples;
        everything else takes ``(u, v)`` pairs.  Each field is a list or
        tuple, decoded and checked exactly as :meth:`from_dict` does.
        """
        return cls.from_dict(dict(
            l_add=l_add, l_drop=l_drop, l_reweight=l_reweight,
            a_add=a_add, a_drop=a_drop, b_add=b_add, b_drop=b_drop,
        ))

    @property
    def structural(self) -> bool:
        """Whether the delta changes any structure (vs. weights only)."""
        return bool(
            len(self.l_add) or len(self.l_drop) or len(self.a_add)
            or len(self.a_drop) or len(self.b_add) or len(self.b_drop)
        )

    @property
    def empty(self) -> bool:
        """Whether the delta edits nothing at all."""
        return not self.structural and len(self.l_reweight) == 0

    def to_dict(self) -> dict[str, Any]:
        """The JSON form (inverse of :meth:`from_dict`)."""
        return {
            "l_add": [
                [int(a), int(b), float(w)] for (a, b), w in
                zip(self.l_add.tolist(), self.l_add_w.tolist())
            ],
            "l_drop": self.l_drop.tolist(),
            "l_reweight": [
                [int(a), int(b), float(w)] for (a, b), w in
                zip(self.l_reweight.tolist(), self.l_reweight_w.tolist())
            ],
            "a_add": self.a_add.tolist(),
            "a_drop": self.a_drop.tolist(),
            "b_add": self.b_add.tolist(),
            "b_drop": self.b_drop.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "ProblemDelta":
        """Decode the JSON form produced by :meth:`to_dict`.

        Every field is a list of rows, ``[a, b, weight]`` for ``l_add``
        and ``l_reweight`` and ``[u, v]`` for the rest, checked the way
        the wire decoder checks an edge list
        (:func:`repro._util.numeric_rows`): ids are integers (a float
        with an integral value such as ``1.0`` counts) and weights are
        numbers.

        Raises:
            ValidationError: On an unknown field, or a field that is not
                such a list; the message names the field.
        """
        if not isinstance(doc, Mapping):
            raise ValidationError("delta document must be a JSON object")
        unknown = set(doc) - set(_FIELD_WIDTHS)
        if unknown:
            raise ValidationError(
                f"unknown delta fields {sorted(unknown)}; "
                f"expected a subset of {sorted(_FIELD_WIDTHS)}"
            )
        fields: dict[str, np.ndarray] = {}
        for name, width in _FIELD_WIDTHS.items():
            value = doc.get(name, [])
            rows = (numeric_rows(value, width)
                    if isinstance(value, (list, tuple)) else None)
            ids = None if rows is None else vertex_ids(rows[:, :2])
            if ids is None:
                shape = "[a, b, weight] triples" if width == 3 \
                    else "[u, v] pairs"
                raise ValidationError(
                    f"delta field {name!r} must be a list of {shape} "
                    f"of numbers with integer vertex ids"
                )
            fields[name] = ids
            if width == 3:
                fields[f"{name}_w"] = rows[:, 2].astype(np.float64)
        return cls(**fields)

    def summary(self) -> str:
        """One-line human-readable description of the edit volume."""
        return (
            f"delta(L +{len(self.l_add)} -{len(self.l_drop)} "
            f"~{len(self.l_reweight)}, "
            f"A +{len(self.a_add)} -{len(self.a_drop)}, "
            f"B +{len(self.b_add)} -{len(self.b_drop)})"
        )


@dataclass(frozen=True)
class DeltaReport:
    """What one :func:`apply_delta` did.

    Which L edges the edit touched is not here: BP's warm seed
    (:func:`repro.incremental.state.seed_from_warm`) decides that, and
    the first ``active_set_size`` event of a warm run reports it.

    Attributes:
        structural: Whether L or A/B structure changed (vs. weights only).
        n_edges_old, n_edges_new: |E_L| before and after the edit.
        old_to_new: Length ``n_edges_old`` map from old edge ids to new
            (``-1`` where the edge was deleted; monotone on survivors).
        rows_recomputed: Squares rows re-expanded (0 when **S** was not
            cached or the delta was weights-only).
        squares_maintained: Whether the cached **S** was carried over
            (shared or incrementally updated) rather than discarded.
    """

    structural: bool
    n_edges_old: int
    n_edges_new: int
    old_to_new: np.ndarray
    rows_recomputed: int
    squares_maintained: bool

    def summary(self) -> str:
        """One-line human-readable description."""
        return (
            f"delta: {self.n_edges_old} -> {self.n_edges_new} L edges; "
            f"recomputed {self.rows_recomputed} squares rows"
        )


def _pair_keys(pairs: np.ndarray, shape: tuple[int, int], what: str,
               out_of_range: str) -> np.ndarray:
    """Pack ``(u, v)`` rows as keys ``u·shape[1] + v``, rejecting ids
    outside ``shape`` and repeated pairs."""
    if not len(pairs):
        return np.empty(0, dtype=np.int64)
    if (pairs < 0).any() or (pairs >= shape).any():
        raise ValidationError(f"{what}: {out_of_range}")
    keys = pairs[:, 0] * shape[1] + pairs[:, 1]
    if len(np.unique(keys)) != len(keys):
        raise ValidationError(f"{what} contains duplicate edges")
    return keys


#: The messages of :func:`_edit_key_set` for L.
_L_ERRORS = ("endpoint out of range", "l_drop names edges not in L",
             "l_add names edges already in L (use l_reweight)",
             "the same L edge is added and dropped")


def _edit_key_set(
    keys: np.ndarray,
    shape: tuple[int, int],
    add: np.ndarray,
    drop: np.ndarray,
    names: tuple[str, str],
    errors: tuple[str, str, str, str],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The strict edit of the sorted key set ``keys`` (L's, A's or B's).

    Packs the ``add`` and ``drop`` rows (called ``names``) with
    :func:`_pair_keys`, then requires drop ⊆ keys, add ∩ keys = ∅ and
    add ∩ drop = ∅.  ``errors`` holds the out-of-range message, then one
    per requirement.  Returns the mask of surviving ``keys``, the edited
    key set, and the order that sorts ``concat(keys[keep], add)`` into it.
    """
    add_k = _pair_keys(add, shape, names[0], errors[0])
    drop_k = _pair_keys(drop, shape, names[1], errors[0])
    drop_pos = sorted_lookup(keys, drop_k)
    if (drop_pos < 0).any():
        raise ValidationError(errors[1])
    if (sorted_lookup(keys, add_k) >= 0).any():
        raise ValidationError(errors[2])
    if np.isin(add_k, drop_k).any():
        raise ValidationError(errors[3])
    keep = np.ones(len(keys), dtype=bool)
    keep[drop_pos] = False
    merged = np.concatenate([keys[keep], add_k])
    order = np.argsort(merged, kind="stable")
    return keep, merged[order], order


def _edit_graph(graph: Graph, add: np.ndarray, drop: np.ndarray,
                label: str) -> Graph:
    """Apply edge inserts/deletes to one undirected graph (strict)."""
    if not len(add) and not len(drop):
        return graph
    n, names = graph.n, (f"{label}.add", f"{label}.drop")
    # Undirected: (u, v) and (v, u) name one edge, stored as u < v.
    add, drop = np.sort(add, axis=1), np.sort(drop, axis=1)
    for pairs, what in zip((add, drop), names):
        if (pairs[:, 0] == pairs[:, 1]).any():
            raise ValidationError(f"{what}: self-loops are not allowed")
    _, merged, _ = _edit_key_set(
        graph.edge_keys, (n, n), add, drop, names,
        ("vertex id out of range",
         f"{label}.drop names edges not in the graph",
         f"{label}.add names edges already present",
         f"{label}: the same edge is both added and dropped"))
    return Graph(n, merged // n, merged % n)


def _edit_l(
    ell: BipartiteGraph, delta: ProblemDelta
) -> tuple[BipartiteGraph, np.ndarray, np.ndarray]:
    """Apply the L edits; returns ``(ell_new, old_to_new, added_new_ids)``.

    An edit that inserts and deletes no L edge builds no graph:
    ``ell_new`` is ``ell`` carrying the new weights.
    """
    shape = (ell.n_a, ell.n_b)
    keys = ell.edge_keys
    rw = sorted_lookup(keys, _pair_keys(delta.l_reweight, shape,
                                        "l_reweight", _L_ERRORS[0]))
    if (rw < 0).any():
        raise ValidationError("l_reweight names edges not in L")
    w = ell.weights.copy()
    w[rw] = delta.l_reweight_w
    if not len(delta.l_add) and not len(delta.l_drop):
        return (ell.with_weights(w), np.arange(ell.n_edges, dtype=np.int64),
                np.empty(0, dtype=np.int64))
    keep, new_keys, order = _edit_key_set(
        keys, shape, delta.l_add, delta.l_drop, ("l_add", "l_drop"),
        _L_ERRORS)
    if not keep[rw].all():
        raise ValidationError("the same L edge is reweighted and dropped")
    ell_new = BipartiteGraph(
        ell.n_a, ell.n_b, new_keys // ell.n_b, new_keys % ell.n_b,
        np.concatenate([w[keep], delta.l_add_w])[order])
    # ``order`` takes the survivors, in their old order, from the first
    # ``keep.sum()`` merged slots and the inserts from the rest.
    survived = order < np.count_nonzero(keep)
    old_to_new = np.full(ell.n_edges, -1, dtype=np.int64)
    old_to_new[keep] = np.flatnonzero(survived)
    return ell_new, old_to_new, np.flatnonzero(~survived)


def _remap_squares(
    indptr: np.ndarray, indices: np.ndarray, old_to_new: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map an **S** structure's entries through an old→new L-edge map:
    their new rows and columns (``-1`` where the L edge was deleted) and
    whether both survive."""
    rows = old_to_new[np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))]
    cols = old_to_new[indices]
    return rows, cols, (rows >= 0) & (cols >= 0)


def _update_squares(
    s_old: CSRMatrix,
    old_to_new: np.ndarray,
    dirty: np.ndarray,
    a_new: Graph,
    b_new: Graph,
    ell_new: BipartiteGraph,
) -> CSRMatrix:
    """Incrementally maintain **S** under an edit.

    Clean rows keep their old column lists remapped through
    ``old_to_new`` (deleted columns drop out; the map is monotone on
    survivors, so within-row sortedness is preserved); the ``dirty``
    rows are re-expanded from scratch on the perturbed graphs.
    """
    m_new = ell_new.n_edges
    dirty_mask = np.zeros(m_new, dtype=bool)
    dirty_mask[dirty] = True
    new_r, new_c, kept = _remap_squares(s_old.indptr, s_old.indices,
                                        old_to_new)
    idx = np.flatnonzero(kept)
    idx = idx[~dirty_mask[new_r[idx]]]
    d_rows, d_cols = squares_coo(a_new, b_new, ell_new, dirty)
    rows = np.concatenate([new_r[idx], d_rows])
    cols = np.concatenate([new_c[idx], d_cols])
    # Clean and dirty rows are disjoint and each (e, f) pair is produced
    # once, so "error" dedup doubles as a structural sanity check.
    return coo_to_csr(rows, cols, 1.0, (m_new, m_new), dedup="error")


def apply_delta(
    problem: NetworkAlignmentProblem, delta: ProblemDelta
) -> tuple[NetworkAlignmentProblem, DeltaReport]:
    """Apply an edit script, maintaining cached structure incrementally.

    Args:
        problem: The instance to perturb (left untouched).
        delta: The edit script; all edits are validated strictly
            (dropping an absent edge or inserting a present one raises).

    Returns:
        ``(new_problem, report)``.  When the delta is weights-only, the
        new problem *shares* the old one's squares matrix and transpose
        permutation; when it is structural and the old problem had
        **S** cached, the new **S** is maintained incrementally (clean
        rows remapped, dirty rows re-expanded) — bit-identical to a
        from-scratch build.

    Raises:
        ValidationError: On any inconsistent edit (out-of-range ids,
            duplicate or conflicting edits, absent/present mismatches).
    """
    ell = problem.ell
    rows_recomputed = 0
    a_new = _edit_graph(problem.a_graph, delta.a_add, delta.a_drop, "a")
    b_new = _edit_graph(problem.b_graph, delta.b_add, delta.b_drop, "b")
    ell_new, old_to_new, added_new = _edit_l(ell, delta)
    new_problem = NetworkAlignmentProblem(
        a_new, b_new, ell_new, problem.alpha, problem.beta, problem.name
    )
    if not delta.structural:
        # Weights-only: all structure (graphs, L sort order, S) is
        # shared; only the weight vector is replaced.
        new_problem._squares = problem._squares
        new_problem._strans = problem._strans
    elif problem._squares is not None:
        # Dirty rows: inserted edges and their square partners can gain
        # entries, and edges on an edited A or B endpoint have a new
        # expansion basis.  (Rows that merely *lose* a deleted partner
        # are handled by the clean-row remap, which drops -1 columns.)
        _, partners = squares_coo(a_new, b_new, ell_new, added_new)
        rebased = ell_new.incident_edges(
            np.concatenate([delta.a_add.ravel(), delta.a_drop.ravel()]),
            np.concatenate([delta.b_add.ravel(), delta.b_drop.ravel()]),
        )
        dirty = sorted_union(ell_new.n_edges, added_new, partners, rebased)
        new_problem._squares = _update_squares(
            problem._squares, old_to_new, dirty, a_new, b_new, ell_new
        )
        rows_recomputed = len(dirty)
    report = DeltaReport(
        structural=delta.structural,
        n_edges_old=ell.n_edges,
        n_edges_new=ell_new.n_edges,
        old_to_new=old_to_new,
        rows_recomputed=rows_recomputed,
        squares_maintained=problem._squares is not None,
    )
    _emit_delta(delta, report)
    return new_problem, report


def _emit_delta(delta: ProblemDelta, report: DeltaReport) -> None:
    """Publish one ``delta_applied`` event (when the bus has sinks)."""
    bus = get_bus()
    if not bus.active:
        return
    bus.emit(
        "delta_applied",
        structural=report.structural,
        l_added=len(delta.l_add),
        l_dropped=len(delta.l_drop),
        l_reweighted=len(delta.l_reweight),
        graph_edited=(len(delta.a_add) + len(delta.a_drop)
                      + len(delta.b_add) + len(delta.b_drop)),
        rows_recomputed=report.rows_recomputed,
        n_edges_old=report.n_edges_old,
        n_edges_new=report.n_edges_new,
    )
    bus.metrics.counter("repro_deltas_applied_total").inc()
