"""The repository benchmark: three workloads, layer tracing, one command.

Run from the root of a checkout::

    python3 perfbench/run.py --workload bp_cold --seed 1 --seconds 30 --trace 0

``BENCHMARK.json`` names the workloads and metrics; ``perfbench/spec.py``
declares the same metrics with the end-to-end figure each layer metric
should move.  Self-tests: ``python3 -m pytest perfbench/tests -q``.
"""
