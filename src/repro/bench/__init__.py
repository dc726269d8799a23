"""repro.bench — the component benchmarks and the one driver they run under.

``python -m repro bench <name>`` runs one of
:data:`~repro.bench.driver.BENCHES` — ``obs`` (the observability overhead
gate) — re-verifies its equality contracts, and gates it against its hard
floors and the committed ``BENCH_<name>.json`` at the repo root (see
docs/PERFORMANCE.md, "Benchmarks"). Each ``repro.bench.<name>`` module
holds only its workload, its floors and its creep allowance;
:mod:`repro.bench.driver` owns everything else.

Nothing in the deployed program imports this package.
"""
