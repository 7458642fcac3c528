"""Shared test helpers (importable as ``tests.helpers``)."""

from __future__ import annotations

import numpy as np

from repro.resilience import CheckpointStore
from repro.sparse.bipartite import BipartiteGraph

__all__ = ["SnapshotLog", "random_bipartite"]


class SnapshotLog(CheckpointStore):
    """A checkpoint store that also keeps every snapshot saved, by
    iteration (the base store keeps only the latest per key)."""

    def __init__(self) -> None:
        super().__init__()
        self.saved: dict = {}

    def save(self, key, checkpoint) -> None:
        super().save(key, checkpoint)
        self.saved[checkpoint.iteration] = checkpoint


def random_bipartite(
    rng: np.random.Generator,
    max_side: int = 12,
    *,
    allow_negative: bool = True,
) -> BipartiteGraph:
    """A small random weighted bipartite graph (continuous weights)."""
    n_a = int(rng.integers(1, max_side))
    n_b = int(rng.integers(1, max_side))
    m = int(rng.integers(0, n_a * n_b + 1))
    a = rng.integers(0, n_a, m)
    b = rng.integers(0, n_b, m)
    lo = -2.0 if allow_negative else 0.01
    w = rng.uniform(lo, 8.0, m)
    return BipartiteGraph.from_edges(n_a, n_b, a, b, w)
