"""chainbench — the benchmark of record for this repository.

Five workloads, two clocks (host seconds the simulator takes vs
simulated time the modelled protocol takes) and a per-layer budget.
See README.md in this directory; ``run.py`` is the entry point.
"""
