"""Bench M1 — megabatch per-tick scoring (repro.megabatch).

Measures one simulated RIC tick over >= 1k concurrent sessions:

- the exact float64 tick the deployment ships (one gathered matrix, one
  row-exact call) vs the same matrix through the compiled float32 kernels
  (floor: >= 2.5x windows/s on one BLAS thread);
- the int8/float16 quantized LSTM tier vs the float32 compiled tier
  (floor: >= 1.5x).

Every run re-verifies the equality contracts: the float64 megabatch mode
must be bit-identical to seed per-session scoring (it scores gathered
rows through seed-shaped ``[1, window*dim]`` calls — BLAS dispatches
different kernels per batch height, so a fused f64 GEMM cannot be
bit-exact), the f32 tier must stay within its documented tolerance, and
the quantized tier must produce finite scores. Gates against the
committed ``BENCH_megabatch.json`` at the repo root.

Runs two ways:

- under pytest-benchmark (full run, artifacts under ``benchmarks/out/``);
- as a plain script for CI smoke: ``python benchmarks/bench_megabatch.py
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
BASELINE = REPO_ROOT / "BENCH_megabatch.json"


def _run(quick):
    from repro.megabatch.bench import run_bench

    return run_bench(quick=quick)


def test_megabatch(benchmark, artifact_dir):
    from conftest import save_artifact

    from repro.megabatch.bench import load_baseline, violations

    result = benchmark.pedantic(lambda: _run(False), rounds=1, iterations=1)
    text = result.report()
    save_artifact(artifact_dir, "megabatch.txt", text)
    print("\n" + text)
    save_artifact(
        artifact_dir,
        "megabatch.json",
        json.dumps(result.to_dict(), indent=2, sort_keys=True),
    )
    failures = violations(result, load_baseline(BASELINE))
    assert not failures, failures


def main(argv):
    from repro.megabatch.bench import load_baseline, run_bench, save_result, violations

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
