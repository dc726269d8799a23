"""repro.bench — the component benchmarks and the one driver they run under.

``python -m repro bench <name>`` (or ``benchmarks/bench_gates.py``) runs
one of :data:`~repro.bench.driver.BENCHES` — ``hotpath``, ``llmfast``,
``megabatch``, ``trainfast``, ``obs``, ``runtime`` — re-verifies its
equality contracts, and gates it against its hard floors and the committed
``BENCH_<name>.json`` at the repo root (see docs/PERFORMANCE.md,
"Benchmarks"). Each ``repro.bench.<name>`` module holds only its workload,
its floors and its slack; :mod:`repro.bench.driver` owns everything else.

Nothing in the deployed program imports this package.
"""
