"""The repo's one client-to-disk benchmark (see README.md in this directory).

Four named workloads drive the system through its public entry points only
(``repro.connect``, ``python -m repro serve``, ``repro.parse_program``,
``repro.UpdateEngine``, ``repro.query_literals``, ``repro.storage``,
``repro.workloads``), check every answer against oracles that never call
the engine, and — in a separate traced run — replay the same seeded
operations up a *layer ladder* that says where a commit spends its time.

Entry points:

* ``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
  — one run, one JSON result line (the ``BENCHMARK.json`` command);
* ``python -m benchmarks.e2e run --seed N --out FILE`` — every workload,
  untraced and traced, each in a fresh process;
* ``python -m benchmarks.e2e compare A.json B.json`` — apply the bounds.
"""
