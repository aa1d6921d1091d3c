"""End-to-end benchmark: SQL text in, rows out, wall-clock seconds.

See ``benchmarks/e2e/README.md`` for the workloads, the metrics and how
they are expected to move; ``BENCHMARK.json`` at the repository root is
the machine-readable contract.
"""
