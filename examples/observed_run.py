#!/usr/bin/env python
"""Watch an alignment run live through the observability layer.

Attaches a :class:`ConsoleSink` to the process-default event bus — every
solver iteration prints as it happens — while a :class:`MemorySink`
captures the same stream so the run's history can be rebuilt afterwards
purely from events.  Finishes with a metrics snapshot and a simulated
machine replay showing per-socket counters from the same bus.

Run:  python examples/observed_run.py [--iters N]
"""

import argparse
import sys

from repro import BPConfig, belief_propagation_align, powerlaw_alignment_instance
from repro.machine.runtime import SimulatedRuntime
from repro.machine.topology import xeon_e7_8870
from repro.machine.trace import LoopTrace
from repro.observe import (
    ConsoleSink,
    MemorySink,
    get_bus,
    history_from_events,
    socket_counters_from_events,
)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iters", type=int, default=20)
    args = parser.parse_args(argv)

    instance = powerlaw_alignment_instance(
        n=150, expected_degree=6.0, seed=7
    )

    bus = get_bus()
    console = bus.add_sink(ConsoleSink(stream=sys.stdout))
    memory = bus.add_sink(MemorySink())
    try:
        # --- live algorithm progress -------------------------------------
        result = belief_propagation_align(
            instance.problem,
            BPConfig(n_iter=args.iters, matcher="approx", batch=5),
        )

        # --- the same stream, replayed after the fact --------------------
        rebuilt = history_from_events(memory.events, method="bp")
        assert len(rebuilt) == len(result.history)
        print()
        print(f"history rebuilt from {len(memory.events)} events: "
              f"{len(rebuilt)} iterations, "
              f"best objective {max(r.objective for r in rebuilt):.2f}")

        # --- simulator events share the bus ------------------------------
        runtime = SimulatedRuntime(xeon_e7_8870(), 40, "bound", "scatter")
        runtime.loop_time(LoopTrace(
            "othermax", n_items=200_000, uniform_cost=6.0,
            uniform_bytes=24.0, schedule="static",
        ))
        counters = socket_counters_from_events(memory.events)
        print(f"simulated replay: {counters}")

        # --- live metrics -------------------------------------------------
        print()
        print("metrics:")
        for row in bus.metrics.snapshot():
            labels = ",".join(f"{k}={v}" for k, v in row["labels"].items())
            print(f"  {row['metric']}{{{labels}}} = {row['value']:.6g}")
    finally:
        bus.remove_sink(console)
        bus.remove_sink(memory)
        bus.metrics.reset()


if __name__ == "__main__":
    main()
