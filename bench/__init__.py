"""End-to-end and per-layer benchmark of the SAGe reproduction.

Run ``python3 -m bench.run --help`` from the repository root; see
``bench/README.md`` for the workloads, the metrics and how to compare
two commits.
"""
