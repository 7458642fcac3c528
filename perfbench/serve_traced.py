"""Run ``repro.cli serve`` with the benchmark's layer tracing installed.

    python3 perfbench/serve_traced.py --spans-out SPANS.json -- serve ARGS...

The wrappers of ``perfbench/spans.py`` go in before the server starts,
so its journal replay is traced too.  SIGUSR1 writes every span recorded
so far to ``--spans-out`` (atomically); the ``serve_mix`` workload sends
it at the end of each phase.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True,
                        help="where SIGUSR1 writes the recorded spans")
    parser.add_argument("cli", nargs=argparse.REMAINDER,
                        help="arguments for repro.cli, after --")
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import spans
    from repro import cli

    tracer = spans.Tracer()
    spans.install(tracer, spans.Patcher())
    signal.signal(signal.SIGUSR1,
                  lambda signum, frame: spans.dump(tracer, args.spans_out))
    return cli.main(cli_args)


if __name__ == "__main__":
    sys.exit(main())
