"""Benchmark harness for evometry: seeded workloads, independent reference
checks, and outside-in per-layer tracing.

The harness never changes the program. It builds every input from the
workload seed, runs the program on it (in process or as a fresh CLI
interpreter), checks each output against references computed here with
plain numpy, and reports end-to-end metrics, or per-layer metrics from a
traced run that wraps the package's public functions from the outside.
"""
