"""Bench gates — the component benches of ``repro.bench``.

Each of ``driver.BENCHES`` (``megabatch``, ``obs``) re-verifies its equality
contracts and is gated against its hard floors and the committed
``BENCH_<name>.json`` at the repo root (docs/PERFORMANCE.md,
"Benchmarks"). Runs two ways:

- under pytest-benchmark, one full run per bench, artifacts under
  ``benchmarks/out/``;
- as a script, the same as ``python -m repro bench``::

      python benchmarks/bench_gates.py megabatch --quick

  exit 1 on any violated gate; ``--update`` rewrites the baseline from a
  full run (never from ``--quick``).
"""

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench import driver  # noqa: E402  (numpy-free; pins BLAS on run)

import pytest  # noqa: E402


@pytest.mark.parametrize("name", driver.BENCHES)
def test_bench_gate(benchmark, artifact_dir, name):
    from importlib import import_module

    from conftest import save_artifact

    driver.pin_blas()
    bench = import_module(f"repro.bench.{name}")
    result = benchmark.pedantic(lambda: bench.run_bench(quick=False), rounds=1, iterations=1)
    text = result.report()
    save_artifact(artifact_dir, f"{name}.txt", text)
    print("\n" + text)
    save_artifact(
        artifact_dir, f"{name}.json", json.dumps(result.to_dict(), indent=2, sort_keys=True)
    )
    failures = driver.violations(bench, result, driver.load_baseline(driver.baseline_path(name)))
    assert not failures, failures


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    driver.add_arguments(parser)
    sys.exit(driver.run_args(parser.parse_args()))
