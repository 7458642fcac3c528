"""The benchmark command: one workload, one seed, one result line.

    python3 perfbench/run.py --workload bp_cold --seed 1 --seconds 30 --trace 0

Run it from a checkout of the repository; it imports ``repro`` from
``src/`` next to this directory.  It prints the run's environment, every
metric by name with its unit, and, as the last line, a JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer split with
``--trace 1`` (whose spans are also written under ``.perfbench/traces``).
A failed check makes ``correct`` false and the exit code 1.  Work files
live in ``.perfbench/run-*`` and are removed on every exit path.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _parse(argv: list[str] | None,
           workloads: tuple[str, ...]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float,
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer split instead")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input (harness self-tests)")
    return parser.parse_args(argv)


def _terminate(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: {src / 'repro'} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench import spec

    args = _parse(argv, spec.WORKLOADS)
    nproc = len(os.sched_getaffinity(0))
    # The run, and the servers it starts, stay on one CPU: the host-speed
    # kernel (hostspeed.py) then times the CPU the measured work runs on,
    # where on a shared host the other CPU's speed can differ for a whole
    # run.  Pinned before numpy loads, which sizes its thread pools then.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import numpy
    import scipy

    import repro
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"{src}", file=sys.stderr)
        return 2
    from perfbench import hygiene, library, serving

    signal.signal(signal.SIGTERM, _terminate)
    print("env " + json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "nproc": nproc, "pinned_cpu": min(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }, sort_keys=True), flush=True)

    workdir = hygiene.RunDir(ROOT)
    try:
        if args.workload == "serve_mix":
            out = serving.run(args.seed, args.seconds, bool(args.trace),
                              serving.SIZES[args.size], workdir.path)
        else:
            out = library.run(args.workload, args.seed, args.seconds,
                              bool(args.trace), library.SIZES[args.size])
    finally:
        leaks = workdir.close()
    out.failures += leaks

    catalogue = spec.PER_LAYER if args.trace else spec.END_TO_END
    values = out.layers if args.trace else out.e2e
    metrics = {m.name: {"value": float(values.get(m.name, 0.0)),
                        "unit": m.unit} for m in catalogue}
    for name, metric in metrics.items():
        print(f"{name:<22} {metric['value']:>14.6g} {metric['unit']}")
    if not args.trace and args.workload == "serve_mix":
        units = {m.name: m.unit for m in spec.PER_LAYER}
        for name in spec.SERVE_FIGURES:
            print(f"{name:<22} {out.layers.get(name, 0.0):>14.6g} "
                  f"{units[name]}  (serve_mix only, not gated)")
    for note in out.notes:
        print(note)
    if out.trace is not None:
        traces = ROOT / ".perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        path = traces / f"{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(out.trace), encoding="utf-8")
        print(f"spans written to {path.relative_to(ROOT)}")
    for failure in out.failures:
        print(f"FAILED {failure}")
    attempted = max(out.attempted + 1, len(out.failures))  # +1: hygiene
    print(json.dumps({"correct": not out.failures, "attempted": attempted,
                      "failed": len(out.failures), "metrics": metrics}),
          flush=True)
    return 0 if not out.failures else 1


if __name__ == "__main__":
    sys.exit(main())
