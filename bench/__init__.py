"""Benchmark for ovabench; run it with ``python3 bench/run.py --help``."""
