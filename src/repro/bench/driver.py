"""The one driver every component bench runs under.

A bench module ``repro.bench.<name>`` supplies only what is its own:

- ``run_bench(quick: bool)`` — the workload; returns a result with
  ``report() -> str`` and ``to_dict() -> dict`` (the ``BENCH_<name>.json``
  schema);
- ``floor_violations(result) -> list[str]`` — broken equality contracts
  and hard floors;
- ``baseline_checks(result, baseline) -> [(path, current)]`` — the
  lower-is-better figures compared with the committed baseline, each at
  ``path`` in it;
- ``BASELINE_CREEP`` — how far a fresh figure may rise above the
  committed one.

The driver owns the rest: BLAS pinning, best-of-N timing, loading and
saving the baseline, the creep walk, the ``--quick`` / ``--json`` /
``--baseline`` / ``--update`` flags and the exit code (0 green, 1 red).
It imports no numpy, so the CLI can pin the BLAS pool before a bench
loads it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from importlib import import_module
from pathlib import Path
from typing import Callable, Optional

BENCHES = ("obs",)

# The committed baselines live at the repo root, next to src/.
REPO_ROOT = Path(__file__).resolve().parents[3]


@dataclasses.dataclass
class BenchResult:
    """A bench result whose dict fields are the sections of its JSON."""

    equality: dict = dataclasses.field(default_factory=dict)
    meta: dict = dataclasses.field(default_factory=dict)

    def to_dict(self) -> dict:
        sections = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        return {"schema": 1, **sections}

    def equality_line(self) -> str:
        return "  equality: " + ", ".join(f"{k}={v}" for k, v in self.equality.items())


def pin_blas() -> None:
    """One BLAS thread, as benchmarks/e2e/run.py pins it: two OpenBLAS
    threads on two shared vCPUs give intermittent 5-30x-slow float32
    readings. Takes effect only before numpy loads; an exported value wins.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")


def best_of(repeats: int, run: Callable[[], float]) -> float:
    """Best (minimum) measurement across repeats — noise-robust timing."""
    return min(run() for _ in range(repeats))


def baseline_path(name: str) -> Path:
    return REPO_ROOT / f"BENCH_{name}.json"


def load_baseline(path) -> Optional[dict]:
    """The committed baseline; ``None`` when there is no file.

    A file that exists but cannot be read or parsed raises ``ValueError``
    naming it: a truncated baseline must not switch the regression gate
    off without a word.
    """
    path = Path(path)
    if not path.exists():
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"baseline {path} is unreadable: {exc}") from exc
    if not isinstance(baseline, dict):
        raise ValueError(f"baseline {path} is not a JSON object")
    return baseline


def save_result(result, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def violations(bench, result, baseline: Optional[dict] = None) -> list:
    """The bench's floors, then every baseline check walked against the
    committed figure at its path (checks whose path is absent are skipped)."""
    out = list(bench.floor_violations(result))
    if not baseline:
        return out
    creep = bench.BASELINE_CREEP
    for path, current in bench.baseline_checks(result, baseline):
        committed = baseline
        for part in path:
            committed = committed.get(part) if isinstance(committed, dict) else None
        if not isinstance(committed, (int, float)):
            continue
        if current > committed + creep:
            out.append(
                f"{'.'.join(path)} {current:+.2f} crept more than {creep:.1f} points "
                f"above the committed baseline {committed:+.2f}"
            )
    return out


def run(
    name: str,
    quick: bool = False,
    json_path: Optional[str] = None,
    baseline: Optional[str] = None,
    update: bool = False,
) -> int:
    """Run bench ``name``, print its report, gate it; the exit code."""
    path = Path(baseline) if baseline else baseline_path(name)
    if update and quick:
        print("refusing to update the baseline from a --quick run", file=sys.stderr)
        return 1
    try:
        committed = None if update else load_baseline(path)
    except ValueError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    pin_blas()
    bench = import_module(f"repro.bench.{name}")
    result = bench.run_bench(quick=quick)
    print(result.report())
    if json_path:
        save_result(result, json_path)
        print(f"snapshot -> {json_path}")
    if update:
        save_result(result, path)
        print(f"baseline updated -> {path}")
        return 0
    if committed is None:
        print(f"(no committed baseline at {path}; gating on floors only)")
    failures = violations(bench, result, committed)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("name", choices=BENCHES, help="which component bench")
    parser.add_argument(
        "--quick", action="store_true", help="small CI run (never a baseline)"
    )
    parser.add_argument("--json", help="write the machine-readable result here")
    parser.add_argument(
        "--baseline", help="baseline file (default: BENCH_<name>.json at the repo root)"
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline from this full run instead of gating against it",
    )


def run_args(args: argparse.Namespace) -> int:
    return run(args.name, args.quick, args.json, args.baseline, args.update)
