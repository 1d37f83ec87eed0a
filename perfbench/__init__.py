"""The repository benchmark: seeded workloads, correctness gates and a
traced per-layer run.  ``python3 perfbench/run.py --help`` is the entry
point; ``perfbench/README.md`` explains the workloads and metrics."""
