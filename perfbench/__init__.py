"""End-to-end benchmark of the ``repro`` package (see ``README.md``).

Run ``python3 perfbench/run.py --workload construct --seed 1 --seconds 45
--trace 0`` from the repository root; ``BENCHMARK.json`` lists the
workloads and metrics.
"""
