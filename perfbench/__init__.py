"""Repeatable DELRec benchmark: three workloads, end to end and per layer.

Run it from the repository root::

    python3 perfbench/run.py --workload serve-fresh --seed 1 --seconds 10 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and how the traced
run attributes time to layers.
"""
