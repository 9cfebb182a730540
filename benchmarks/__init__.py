"""Benchmark suite: one module per experiment.  The ``test_e*`` modules
reproduce the paper's examples and claims, each naming its section in its
docstring: the examples of Section 2 (salary raise, Figure 2, hypothetical
and recursive updates, the control spectrum of 2.4), frame copying
(Section 3), stratification (Section 4), the linearity check (Section 5)
and the extensions of Section 6.  The ``test_p*`` modules document the
reproduction's own behaviour, on which the paper makes no claims.

Run with ``pytest benchmarks/``.  Each experiment runs its body once and
asserts the paper-derived *shape* of its result (who wins, what is
produced); nothing times it.  The one timed benchmark is
``benchmarks/e2e/``.
"""
