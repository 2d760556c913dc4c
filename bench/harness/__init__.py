"""Benchmark harness for rallystats: workloads, output checks, spans and metrics."""
