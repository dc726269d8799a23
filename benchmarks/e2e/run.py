"""One command for the composed capture->verdict benchmark.

    python benchmarks/e2e/run.py [--workload W] [--seed S] [--quick] [--json OUT]
    python benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --workload W --seed S --seconds N --trace 0|1

The first form runs the chosen workloads (default: all four), each as an
untraced measurement followed by a traced one, prints every metric by
name with its unit, checks the outputs and optionally writes the result
set.  The last form is what BENCHMARK.json's driver calls: one
measurement of ``--seconds`` seconds, traced or not, and one JSON object
on the last line of stdout.  See README.md for the catalogue.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if __package__ in (None, ""):
    # Run as a script: import this directory as the package `e2e` (so its
    # trace.py cannot shadow the standard library's) and the program from
    # this checkout's src/, never from an installed copy.
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path[0] = str(HERE.parent)
    sys.path.insert(1, str(ROOT / "src"))

# One process, one thread: a BLAS pool would double-count spinning workers
# in process_time and make passes depend on what else the box is doing.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy  # noqa: E402

from e2e import harness, metrics  # noqa: E402
from e2e.speed import SpeedProbe  # noqa: E402
from e2e.trace import Tracer  # noqa: E402
from e2e.workloads import WORKLOADS  # noqa: E402

OUT_DIR = HERE / "out"

# Set-up runs this many times per run (once before the passes, the rest
# after them); setup_s is the median.
SETUP_REPEATS = 5
# Seconds of untraced measurement (BENCHMARK.json's run_seconds), and in
# the full mode of traced measurement after it.
RUN_SECONDS = 15.0
FULL_TRACED_SECONDS = 8.0
MIN_PASSES = 5
MIN_TRACED_PAIRS = 2
QUICK_SCALE = 0.25


# -- measuring one workload ---------------------------------------------------


def _measure(prepared, seconds: float, min_passes: int) -> list:
    """Measured untraced passes: at least ``min_passes`` and ``seconds``."""
    passes: list = []
    start = perf_counter()
    while len(passes) < min_passes or perf_counter() - start < seconds:
        passes.append(harness.run_pass(prepared))
    return passes


def _measure_traced(prepared, seconds: float, min_pairs: int, tracer: Tracer):
    """Alternate untraced and traced passes so drift hits both alike."""
    plain: list = []
    traced: list = []
    start = perf_counter()
    while len(traced) < min_pairs or perf_counter() - start < seconds:
        plain.append(harness.run_pass(prepared))
        traced.append(harness.run_pass(prepared, tracer, pass_index=len(traced)))
    return plain, traced


def run_workload(
    name: str,
    seed: int,
    speed: SpeedProbe,
    seconds: float = 0.0,
    traced_seconds: float = 0.0,
    *,
    untraced: bool = True,
    traced: bool = True,
    quick: bool = False,
    digests: dict | None = None,
) -> dict:
    """Set up and measure one workload; returns its result record.

    ``digests`` carries the AnomalyEvent digests of workloads already run
    with this seed (full mode), so a workload that must reproduce another's
    alarm stream need not re-run it.
    """
    workload = WORKLOADS[name]
    scale = QUICK_SCALE if quick else 1.0
    digests = {} if digests is None else digests

    prepared = harness.prepare(workload, seed, speed, scale)
    setup_samples = [prepared.setup_s]

    problems: list = []
    harness.run_pass(prepared)  # warm-up, discarded
    plain = (
        _measure(prepared, seconds, 1 if quick else MIN_PASSES) if untraced else []
    )
    traced_plain: list = []
    traced_passes: list = []
    if traced:
        tracer = Tracer()
        traced_plain, traced_passes = _measure_traced(
            prepared, traced_seconds, 1 if quick else MIN_TRACED_PAIRS, tracer
        )
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"trace_{name}.jsonl", "w") as handle:
            tracer.dump(handle)  # the last traced pass

    # The other set-ups run after the passes: what repeated set-ups leave in
    # the allocator made the passes' peak RSS vary 102-127 MiB from run to
    # run; after a single set-up it stays within 2 MiB.
    for _ in range(0 if quick else SETUP_REPEATS - 1):
        setup_samples.append(harness.prepare(workload, seed, speed, scale).setup_s)

    every = plain + traced_plain + traced_passes
    for index, result in enumerate(every):
        problems += [f"pass {index}: {p}" for p in result.problems]
    problems += harness.check_passes(every)
    digests[name] = every[0].exact["alarm_digest"]
    reference = workload.same_alarms_as
    if reference is not None:
        if reference not in digests:
            other = harness.prepare(WORKLOADS[reference], seed, speed, scale)
            digests[reference] = harness.run_pass(other).exact["alarm_digest"]
        if digests[reference] != digests[name]:
            problems.append(f"AnomalyEvent stream differs from {reference}'s")

    measured = plain or traced_plain
    e2e = metrics.end_to_end(measured, median(setup_samples))
    record = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "end_to_end": {
            m.name: {"value": e2e[m.name][0], "n": e2e[m.name][1], "unit": m.unit}
            for m in metrics.END_TO_END
        },
        "per_pass": {
            "records_per_cpu_s": [
                p.exact["records"] / p.reference_cpu_s for p in measured
            ],
            "rss_peak_mb": [p.rss_peak_mb for p in measured],
            "setup_s": setup_samples,
        },
        "exact": measured[0].exact,
    }
    if traced_passes:
        layers = metrics.per_layer(traced_plain, traced_passes, prepared.timings)
        units = {n: u for n, u, _ in metrics.PER_LAYER + metrics.PER_LAYER_EXTRA}
        # What the catalogue does not name is the `share` of a small layer.
        record["per_layer"] = {
            n: {"value": v, "unit": units.get(n, "ratio")} for n, v in layers.items()
        }
        if abs(layers["trace.share_sum"] - 1.0) > 0.05:
            problems.append(f"layer shares sum to {layers['trace.share_sum']:.3f}")
    exact = measured[0].exact
    lost = exact["records_offered"] - exact["records"] + exact["unanswered"]
    record["attempted"] = (exact["records_offered"] + exact["queries"]) * len(every)
    record["failed"] = lost * len(every) + len(problems)
    record["problems"] = problems
    return record


def _meta() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=HERE, capture_output=True, text=True, timeout=10,
        ).stdout.strip()  # fmt: skip
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "git_sha": sha or "unknown",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


# -- printing -----------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_record(record: dict) -> None:
    print(f"== {record['workload']}  seed={record['seed']}  scale={record['scale']}")
    print("-- end to end")
    for name, entry in record["end_to_end"].items():
        print(f"{name:32s} {_fmt(entry['value']):>12s} {entry['unit']:14s} n={entry['n']}")
    if "per_layer" in record:
        print("-- per layer (traced run)")
        for name, entry in record["per_layer"].items():
            print(f"{name:32s} {_fmt(entry['value']):>12s} {entry['unit']}")
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(
        f"-- checks: {'ok' if not record['problems'] else 'FAILED'}  "
        f"attempted={record['attempted']} failed={record['failed']}"
    )


def driver_line(record: dict, traced: bool) -> str:
    """The one JSON object BENCHMARK.json's driver reads."""
    if traced:
        source = {**record["end_to_end"], **record["per_layer"]}
        # The driver needs a number: a timing the sample cannot carry
        # (README, "Percentiles") reads 0 here, null in --json.
        out = {
            n: {"value": source[n]["value"] or 0.0, "unit": u}
            for n, u, _ in metrics.driver_per_layer()
        }
    else:
        out = {
            m.name: {"value": record["end_to_end"][m.name]["value"], "unit": m.unit}
            for m in metrics.driver_end_to_end()
        }
    return json.dumps(
        {
            "correct": not record["problems"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": out,
        }
    )


# -- comparing two result sets -----------------------------------------------


def load_results(path: str) -> dict:
    """``{workload: record}`` from a result file or a directory of them."""
    target = Path(path)
    files = sorted(target.glob("*.json")) if target.is_dir() else [target]
    out: dict = {}
    for file in files:
        out.update(json.loads(file.read_text())["workloads"])
    return out


def verdict(metric: metrics.Metric, a, b, passes_a=None, passes_b=None) -> str:
    """better | same | worse | unresolved for one metric's values a -> b."""
    if a is None or b is None:
        return "same" if a is b else "unresolved"
    limit = metric.bound if metric.absolute else metric.bound * abs(a)
    if passes_a and passes_b and len(passes_a) > 1 and len(passes_b) > 1:
        wide = max(map(metrics.quartile_spread, (passes_a, passes_b))) > metric.bound
        (low_a, _, high_a), (low_b, _, high_b) = (
            quantiles(passes, n=4) for passes in (passes_a, passes_b)
        )
        if wide and low_b <= high_a and low_a <= high_b:
            return "unresolved"
    worse_by = (b - a) if metric.better == "lower" else (a - b)
    if worse_by > limit:
        return "worse"
    if -worse_by > limit:
        return "better"
    return "same"


def compare(path_a: str, path_b: str) -> int:
    results_a, results_b = load_results(path_a), load_results(path_b)
    worse = 0
    for name in results_a:
        if name not in results_b:
            continue
        a, b = results_a[name], results_b[name]
        for metric in metrics.END_TO_END:
            value_a = a["end_to_end"][metric.name]["value"]
            value_b = b["end_to_end"][metric.name]["value"]
            outcome = verdict(
                metric,
                value_a,
                value_b,
                a["per_pass"].get(metric.name),
                b["per_pass"].get(metric.name),
            )
            worse += outcome == "worse"
            print(
                f"{name:18s} {metric.name:28s} {_fmt(value_a):>12s} -> "
                f"{_fmt(value_b):>12s} {metric.unit:14s} {outcome}"
            )
    return 1 if worse else 0


# -- entry point ---------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true", help="1+1 passes, quarter-size captures")
    parser.add_argument("--json", metavar="OUT", help="write the result set here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    driver = args.trace is not None
    if driver and not args.workload:
        parser.error("--trace needs --workload")

    names = [args.workload] if args.workload else list(WORKLOADS)
    speed = SpeedProbe()
    digests: dict = {}
    records = {}
    for name in names:
        if args.quick:
            seconds = traced_seconds = 0.0
        else:
            seconds = args.seconds
            traced_seconds = args.seconds if driver else FULL_TRACED_SECONDS
        records[name] = run_workload(
            name,
            args.seed,
            speed,
            seconds,
            traced_seconds,
            untraced=args.trace != 1,
            traced=args.trace != 0,
            quick=args.quick,
            digests=digests,
        )
        print_record(records[name])
    if args.json:
        target = Path(args.json)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps({"meta": _meta(), "workloads": records}, indent=1) + "\n"
        )
    if driver:
        print(driver_line(records[args.workload], traced=args.trace == 1))
        return 0
    return 1 if any(r["problems"] for r in records.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
