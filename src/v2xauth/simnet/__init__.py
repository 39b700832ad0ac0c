"""Deterministic network simulation, scenario scripting, and wall-clock
benchmarks."""
