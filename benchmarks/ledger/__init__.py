"""The ledger: Guardian's end-to-end and per-layer performance benchmark.

Five workloads, two clocks (host wall time and the modelled cycle
axis), and a per-layer attribution of host time for the whole stack.
See README.md in this directory; run with ``python -m benchmarks.ledger``.
"""
