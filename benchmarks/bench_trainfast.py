"""Bench T1 — the training fast path (repro.trainfast).

Measures the three trainfast layers against their seed equivalents:

- trainer epoch throughput: seed ``Autoencoder.fit`` / ``LstmPredictor.fit``
  loops vs the compiled float32 kernels (floor: >= 2x, both models);
- sweep wall-clock: a serial seed window-ablation sweep vs the full fast
  stack — sweep workers + float32 kernels + content-addressed dataset
  cache (floor: >= 2.5x where the host can run the workers in parallel);
- dataset cache: building the same labeled dataset twice with one cache —
  the second build must be a pure lookup (floor: >= 5x).

Every run re-verifies the equality contracts (float64 compiled training is
bit-identical to the seed loops; a parallel float64 sweep returns exactly
the serial seed rows) and gates against the committed perf baseline
``BENCH_trainfast.json`` at the repo root.

Runs two ways:

- under pytest-benchmark (full run, artifacts under ``benchmarks/out/``);
- as a plain script for CI smoke: ``python benchmarks/bench_trainfast.py
  --quick`` (no pytest-benchmark needed), exit 1 on any violated gate.
  ``--update`` rewrites the committed baseline from a full run.
"""

import json
import os
import sys
from pathlib import Path

# One BLAS thread, as benchmarks/e2e/run.py pins it: a pool oversubscribing
# two shared vCPUs is the first suspect for float32 floors that read red on
# every commit (ROADMAP). Set before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

REPO_ROOT = Path(__file__).resolve().parents[1]
BASELINE = REPO_ROOT / "BENCH_trainfast.json"


def _run(quick):
    from repro.trainfast.bench import run_bench

    return run_bench(quick=quick)


def test_trainfast(benchmark, artifact_dir):
    from conftest import save_artifact

    from repro.trainfast.bench import load_baseline, violations

    result = benchmark.pedantic(lambda: _run(False), rounds=1, iterations=1)
    text = result.report()
    save_artifact(artifact_dir, "trainfast.txt", text)
    print("\n" + text)
    save_artifact(
        artifact_dir,
        "trainfast.json",
        json.dumps(result.to_dict(), indent=2, sort_keys=True),
    )
    failures = violations(result, load_baseline(BASELINE))
    assert not failures, failures


def main(argv):
    from repro.trainfast.bench import load_baseline, save_result, violations

    quick = "--quick" in argv
    update = "--update" in argv
    result = _run(quick)
    print(result.report())
    if "--json" in argv:
        out = argv[argv.index("--json") + 1]
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        print(f"snapshot -> {out}")
    if update:
        if quick:
            print("refusing to update the baseline from a --quick run", file=sys.stderr)
            return 1
        save_result(result, BASELINE)
        print(f"baseline updated -> {BASELINE}")
        return 0
    baseline = load_baseline(BASELINE)
    if baseline is None:
        print(f"(no committed baseline at {BASELINE}; gating on floors only)")
    failures = violations(result, baseline)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
