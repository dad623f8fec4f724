"""The repository benchmark: workloads, span tracer and metric tables.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
