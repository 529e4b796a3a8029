"""Repository benchmark: named workloads, end-to-end metrics, per-layer trace.

Run ``python3 perfbench/run.py --workload <name>`` from the repository
root; see :mod:`perfbench.run` for the command line and
``perfbench/SPEC.md`` for the workloads, metrics and predictions.
"""
