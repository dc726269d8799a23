"""repro.bench — the component benchmarks and the one driver they run under.

``python -m repro bench <name>`` (or ``benchmarks/bench_gates.py``) runs
one of :data:`~repro.bench.driver.BENCHES` — ``megabatch`` (scoring tier
against scoring tier) and ``obs`` (the observability overhead gate) —
re-verifies its equality contracts, and gates it against its hard floors
and the committed ``BENCH_<name>.json`` at the repo root (see
docs/PERFORMANCE.md, "Benchmarks"). Each ``repro.bench.<name>`` module
holds only its workload, its floors and its slack;
:mod:`repro.bench.driver` owns everything else. The process runtime has
no bench: its ``kill -9`` contract is a test (``tests/test_runtime.py``)
and its soak a command (``python -m repro runtime soak``).

Nothing in the deployed program imports this package.
"""
