"""Benchmark suite: one module per experiment of DESIGN.md §5.

Run with ``pytest benchmarks/``.  Each experiment runs its body once and
asserts the paper-derived *shape* of its result (who wins, what is
produced); nothing times it.  The one timed benchmark is
``benchmarks/e2e/``.
"""
