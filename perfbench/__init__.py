"""Benchmark of structsum's train, summarize and C-grid runs; see run.py."""
