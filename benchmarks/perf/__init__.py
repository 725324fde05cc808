"""Host cost per simulated request on five paper workloads.

``python -m benchmarks.perf --seed N`` from the repository root; see
``benchmarks/perf/README.md``. This package imports nothing from the
simulator at import time, so child processes start clean.
"""
