"""Shared ergonomics for the public config dataclasses.

Every public config (:class:`~repro.core.bp.BPConfig`,
:class:`~repro.core.klau.KlauConfig`,
:class:`~repro.core.isorank.IsoRankConfig`,
:class:`~repro.accel.config.ParallelConfig`) mixes in
:class:`ConfigBase`, which gives them one uniform serialization surface:

* :meth:`ConfigBase.to_dict` — a flat, JSON-serializable dict of every
  dataclass field (configs hold only scalars by design);
* :meth:`ConfigBase.from_dict` — the strict inverse: unknown keys raise
  :class:`~repro.errors.ConfigurationError` instead of being silently
  dropped, so a typo in a config file fails loudly.

``from_dict(to_dict(cfg)) == cfg`` holds for every config (frozen
dataclass equality), which is what the CLI's ``--config`` flag and
``benchmarks/run_bench.py`` rely on to record exactly the configuration
that produced a benchmark row.

All configs also accept a ``seed`` field through this surface.  The
iterative solvers are deterministic, so for them ``seed`` is carried
(and round-tripped, and recorded in benchmark provenance) but not
consumed; stochastic components read it where randomness exists.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping, TypeVar

from repro.errors import ConfigurationError

__all__ = ["ConfigBase"]

C = TypeVar("C", bound="ConfigBase")


class ConfigBase:
    """Mixin giving config dataclasses ``to_dict``/``from_dict``."""

    def to_dict(self) -> dict[str, Any]:
        """Return a flat dict of every config field.

        Values are the scalars the dataclass holds; the dict is directly
        ``json.dumps``-able (non-finite floats use Python's ``Infinity``
        extension, which ``json.loads`` reads back).
        """
        if not dataclasses.is_dataclass(self):
            raise ConfigurationError(
                f"{type(self).__name__} is not a dataclass config"
            )
        return {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
        }

    @classmethod
    def from_dict(cls: type[C], mapping: Mapping[str, Any]) -> C:
        """Construct from a dict produced by :meth:`to_dict`.

        Unknown keys raise :class:`~repro.errors.ConfigurationError`
        (with the valid field names in the message); missing keys fall
        back to the dataclass defaults.
        """
        if not dataclasses.is_dataclass(cls):
            raise ConfigurationError(
                f"{cls.__name__} is not a dataclass config"
            )
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(mapping) - names)
        if unknown:
            raise ConfigurationError(
                f"unknown {cls.__name__} fields {unknown}; "
                f"valid fields: {sorted(names)}"
            )
        return cls(**dict(mapping))
