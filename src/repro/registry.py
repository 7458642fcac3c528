"""The unified solver entry point: ``repro.align(problem, method=...)``.

Every alignment method the library implements — BP, Klau's MR and the
IsoRank baseline — registers a :class:`SolverSpec` mapping its method
string to its config class and solve function.  :func:`align` is then
one call for all of them:

>>> import repro
>>> result = repro.align(problem, method="bp")                # doctest: +SKIP
>>> result = repro.align(problem, method="klau",              # doctest: +SKIP
...                      config={"n_iter": 40, "matcher": "approx"})

``config`` accepts the method's config dataclass, a plain mapping (fed
through the config's ``from_dict``, so JSON round-trips), or ``None``
for defaults.  ``trace`` (an :class:`repro.machine.trace.AlgorithmTracer`)
forwards to methods that support it and raises
:class:`ConfigurationError` on ones that do not — silently dropping a
requested trace would misreport benchmarks.

The registry is intentionally open: downstream code can
``register_solver`` its own spec and dispatch through the same facade
(and through :func:`repro.accel.serve.solve_many`, which resolves
methods here too).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.core.bp import BPConfig, belief_propagation_align
from repro.core.isorank import IsoRankConfig, isorank_align
from repro.core.klau import KlauConfig, klau_align
from repro.core.problem import NetworkAlignmentProblem
from repro.core.result import AlignmentResult
from repro.errors import ConfigurationError

__all__ = [
    "SolverSpec",
    "align",
    "available_methods",
    "canonical_config",
    "get_solver",
    "register_solver",
]


@dataclass(frozen=True)
class SolverSpec:
    """One registered alignment method.

    ``solve`` is called as ``solve(problem, config, tracer=..)``; the
    keyword arguments are only passed when the corresponding
    ``supports_*`` flag is set, so plain ``(problem, config)`` solvers
    register without adapters.
    """

    name: str
    config_cls: type
    solve: Callable[..., AlignmentResult]
    aliases: tuple[str, ...] = ()
    supports_trace: bool = False
    #: The solver accepts the checkpoint/resume keyword group
    #: (``checkpoint_every``, ``checkpoint_store``, ``checkpoint_key``,
    #: ``resume``) and can warm-resume from a
    #: :class:`repro.resilience.SolverCheckpoint`.
    supports_checkpoint: bool = False
    #: The solver accepts ``warm_from`` (a
    #: :class:`repro.incremental.WarmState`) for incremental
    #: realignment, and ``keep_state`` to capture one.
    supports_warm: bool = False


_REGISTRY: dict[str, SolverSpec] = {}


def register_solver(spec: SolverSpec) -> SolverSpec:
    """Add a solver to the registry.

    Args:
        spec: The solver to register.

    Returns:
        The registered spec (so registration can be an expression).

    Raises:
        ConfigurationError: If the spec's name or any alias is taken.
    """
    for key in (spec.name, *spec.aliases):
        if key in _REGISTRY:
            raise ConfigurationError(
                f"solver name {key!r} is already registered"
            )
    for key in (spec.name, *spec.aliases):
        _REGISTRY[key] = spec
    return spec


def get_solver(method: str) -> SolverSpec:
    """Resolve a method string (name or alias) to its spec.

    Args:
        method: A registered solver name or alias.

    Returns:
        The matching :class:`SolverSpec`.

    Raises:
        ConfigurationError: If no solver is registered under ``method``.
    """
    spec = _REGISTRY.get(method)
    if spec is None:
        raise ConfigurationError(
            f"unknown method {method!r}; expected one of "
            f"{available_methods()} (aliases: "
            f"{sorted(k for k, s in _REGISTRY.items() if k != s.name)})"
        )
    return spec


def available_methods() -> list[str]:
    """List the primary method names.

    Returns:
        The registered solver names, sorted, aliases not repeated.
    """
    return sorted({spec.name for spec in _REGISTRY.values()})


def canonical_config(method: str, config: Any = None) -> dict[str, Any]:
    """Resolve any accepted config form to its canonical dict.

    The canonical form is the coerced config dataclass's ``to_dict()``:
    every field present, defaults filled in, JSON-ready scalars.  Two
    submissions that spell the same configuration differently (defaults
    omitted vs. written out, key order, a dataclass vs. a mapping)
    canonicalize identically — which is what provenance records and the
    serving layer's content-addressed cache keys
    (:func:`repro.serve.wire.cache_key`) rely on.

    Args:
        method: A registered solver name or alias.
        config: The method's config dataclass, a mapping fed through
            its ``from_dict``, or ``None`` for defaults.

    Returns:
        The canonical, JSON-serializable config dict.

    Raises:
        ConfigurationError: Unknown method, unknown config fields, or a
            config object of the wrong type.
    """
    spec = get_solver(method)
    return _coerce_config(spec, config).to_dict()


def _coerce_config(spec: SolverSpec, config: Any) -> Any:
    if config is None:
        return spec.config_cls()
    if isinstance(config, spec.config_cls):
        return config
    if isinstance(config, Mapping):
        return spec.config_cls.from_dict(config)
    raise ConfigurationError(
        f"method {spec.name!r} expects a {spec.config_cls.__name__} "
        f"(or a mapping for from_dict), got {type(config).__name__}"
    )


def align(
    problem: NetworkAlignmentProblem,
    method: str = "bp",
    config: Any = None,
    *,
    trace: Any | None = None,
    checkpoint_every: int = 0,
    checkpoint_store: Any | None = None,
    checkpoint_key: str = "",
    resume: bool = False,
    warm_from: Any | None = None,
    keep_state: bool = False,
) -> AlignmentResult:
    """Align ``problem`` with the named method.

    Args:
        problem: The alignment instance.
        method: ``"bp"``, ``"klau"`` (alias ``"mr"``) or
            ``"isorank"`` — or any name added via
            :func:`register_solver`.
        config: The method's config dataclass, a mapping
            (``from_dict``), or ``None`` for defaults.
        trace: A work-trace collector
            (:class:`~repro.machine.trace.AlgorithmTracer`) for methods
            that record replayable machine traces.
        checkpoint_every: Snapshot the solver's iterate state into
            ``checkpoint_store`` every this many iterations (``0`` =
            off); see :mod:`repro.resilience`.
        checkpoint_store: The snapshot store; defaults to the
            process-default :class:`~repro.resilience.CheckpointStore`.
        checkpoint_key: The store key; defaults to the method name.
        resume: Warm-resume from any snapshot already stored under
            ``checkpoint_key`` before iterating.
        warm_from: A :class:`repro.incremental.WarmState` to realign
            from incrementally (methods with ``supports_warm`` only);
            see :mod:`repro.incremental`.
        keep_state: Ask the solver to attach its final message state to
            ``result.solver_state`` so a warm state can be captured
            from the result (methods with ``supports_warm`` only).

    Returns:
        The method's :class:`~repro.core.result.AlignmentResult`.

    Raises:
        ConfigurationError: Unknown method, bad config, or a
            ``trace``/checkpoint/warm request against a method
            whose spec does not declare support for it — the facade
            raises rather than silently dropping the request.
    """
    spec = get_solver(method)
    cfg = _coerce_config(spec, config)
    kwargs: dict[str, Any] = {}
    if trace is not None:
        if not spec.supports_trace:
            raise ConfigurationError(
                f"method {spec.name!r} does not support work tracing"
            )
        kwargs["tracer"] = trace
    if checkpoint_every > 0 or resume:
        if not spec.supports_checkpoint:
            raise ConfigurationError(
                f"method {spec.name!r} does not support checkpoint/resume"
            )
        if checkpoint_store is None:
            from repro.resilience import get_checkpoint_store

            checkpoint_store = get_checkpoint_store()
        kwargs["checkpoint_every"] = checkpoint_every
        kwargs["checkpoint_store"] = checkpoint_store
        kwargs["checkpoint_key"] = checkpoint_key or spec.name
        kwargs["resume"] = resume
    if warm_from is not None or keep_state:
        if not spec.supports_warm:
            raise ConfigurationError(
                f"method {spec.name!r} does not support warm "
                "realignment (warm_from/keep_state)"
            )
        if warm_from is not None:
            kwargs["warm_from"] = warm_from
        if keep_state:
            kwargs["keep_state"] = keep_state
    return spec.solve(problem, cfg, **kwargs)


register_solver(
    SolverSpec(
        name="bp",
        config_cls=BPConfig,
        solve=belief_propagation_align,
        supports_trace=True,
        supports_checkpoint=True,
        supports_warm=True,
    )
)
register_solver(
    SolverSpec(
        name="klau",
        config_cls=KlauConfig,
        solve=klau_align,
        aliases=("mr",),
        supports_trace=True,
        supports_checkpoint=True,
    )
)
register_solver(
    SolverSpec(name="isorank", config_cls=IsoRankConfig, solve=isorank_align)
)
