"""The metric catalogue and how each value is derived from the passes.

Two families (README has the full tables):

* **end-to-end** -- what an operator of the deployment sees.  CPU-based
  ones are the median over the measured passes of an *untraced* run, in
  reference CPU-seconds (speed.py); sim-time and count ones are identical
  in every pass.
* **per-layer** -- from a *traced* run: calls, work and self CPU time at
  each layer boundary, plus the harness's own run/set-up numbers.

Six end-to-end metrics carry a ``driver_bound`` and are what
BENCHMARK.json bounds: defined and non-zero on every workload.  The other
ten can be zero (a loss ratio) or undefined (a verdict latency on a
capture with two alarms), which the driver's contract does not allow for
a bounded metric; they are printed with the per-layer set and gated by
``run.py --compare`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median, quantiles
from typing import Optional

# Samples that must lie beyond a reported percentile (choosing-metrics §1).
BEYOND = 10
# The near-RT RIC's control-loop budget (paper §2.1), in sim-seconds.
NEAR_RT_BUDGET_S = 1.0


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    # --compare (two result sets of one seed): how far the value may worsen
    # before it is a regression -- a share of the baseline, or an absolute
    # amount when `absolute`.
    bound: float
    absolute: bool = False
    # BENCHMARK.json (medians over runs of *different* seeds): the share by
    # which the median may worsen.  At least three times the ten-seed
    # quartile spread measured for README "Noise"; None = not bounded there.
    driver_bound: Optional[float] = None


END_TO_END: tuple = (
    Metric("records_per_cpu_s", "records/CPU-s", "higher", 0.10, driver_bound=0.15),
    Metric("ingest_latency_p50_sim_s", "sim-s", "lower", 0.01, driver_bound=0.12),
    Metric("ingest_latency_p99_sim_s", "sim-s", "lower", 0.01, driver_bound=0.02),
    Metric("detect_latency_p50_sim_s", "sim-s", "lower", 0.01),
    Metric("detect_latency_p90_sim_s", "sim-s", "lower", 0.01),
    Metric("verdict_latency_p50_sim_s", "sim-s", "lower", 0.01),
    Metric("verdict_latency_p90_sim_s", "sim-s", "lower", 0.01),
    Metric("loop_latency_p90_sim_s", "sim-s", "lower", 0.01),
    Metric("near_rt_miss_ratio", "ratio", "lower", 0.001, absolute=True),
    Metric("unanswered_ratio", "ratio", "lower", 0.001, absolute=True),
    Metric("record_loss_ratio", "ratio", "lower", 0.0, absolute=True),
    Metric("attacks_detected_ratio", "ratio", "higher", 0.0, absolute=True),
    Metric("benign_alarm_ratio", "ratio", "lower", 0.001, absolute=True),
    Metric("rss_peak_mb", "MiB", "lower", 0.10, driver_bound=0.10),
    Metric("e2_bytes_per_record", "bytes", "lower", 0.01, driver_bound=0.07),
    Metric("setup_s", "s", "lower", 0.25, driver_bound=0.25),
)

# (name, unit, better).  `better` only says which way is good; per-layer
# metrics carry no bound.
PER_LAYER: tuple = (
    ("ran.self_s", "s", "lower"),
    ("ran.share", "ratio", "lower"),
    ("sim.events", "count", "lower"),
    ("collector.calls", "count", "lower"),
    ("collector.records_out", "count", "higher"),
    ("collector.self_s", "s", "lower"),
    ("collector.share", "ratio", "lower"),
    ("e2_encode.calls", "count", "lower"),
    ("e2_encode.bytes", "bytes", "lower"),
    ("e2_encode.self_s", "s", "lower"),
    ("e2_encode.share", "ratio", "lower"),
    ("e2term.calls", "count", "lower"),
    ("e2term.self_s", "s", "lower"),
    ("rmr.messages", "count", "lower"),
    ("e2_decode.calls", "count", "lower"),
    ("e2_decode.self_s", "s", "lower"),
    ("e2_decode.share", "ratio", "lower"),
    ("sdl_write.calls", "count", "lower"),
    ("sdl_write.keys", "count", "higher"),
    ("sdl_write.keys_per_call", "ratio", "higher"),
    ("sdl_write.self_s", "s", "lower"),
    ("sdl_write.share", "ratio", "lower"),
    ("sdl_read.calls", "count", "lower"),
    ("sdl_read.self_s", "s", "lower"),
    ("featurize.calls", "count", "lower"),
    ("featurize.self_s", "s", "lower"),
    ("featurize.share", "ratio", "lower"),
    ("score.calls", "count", "lower"),
    ("score.windows", "count", "higher"),
    ("score.windows_per_call", "ratio", "higher"),
    ("score.self_s", "s", "lower"),
    ("score.share", "ratio", "lower"),
    ("mobiwatch.indications", "count", "lower"),
    ("mobiwatch.records", "count", "higher"),
    ("mobiwatch.self_s", "s", "lower"),
    ("mobiwatch.share", "ratio", "lower"),
    ("mobiwatch.tick_ms_p50", "ms", "lower"),
    ("mobiwatch.tick_ms_p99", "ms", "lower"),
    ("analyzer.alarms_in", "count", "lower"),
    ("analyzer.suppressed", "count", "lower"),
    ("analyzer.queries", "count", "lower"),
    ("analyzer.verdicts", "count", "higher"),
    ("analyzer.self_s", "s", "lower"),
    ("analyzer.share", "ratio", "lower"),
    ("context.calls", "count", "lower"),
    ("context.records", "count", "lower"),
    ("context.self_s", "s", "lower"),
    ("retrieve.calls", "count", "lower"),
    ("retrieve.self_s", "s", "lower"),
    ("prompt.calls", "count", "lower"),
    ("prompt.bytes", "bytes", "lower"),
    ("prompt.self_s", "s", "lower"),
    ("dispatch.calls", "count", "lower"),
    ("dispatch.self_s", "s", "lower"),
    ("dispatch.calls_per_query", "ratio", "lower"),
    ("action.calls", "count", "higher"),
    ("action.self_s", "s", "lower"),
    ("setup.dataset_s", "s", "lower"),
    ("setup.featurize_s", "s", "lower"),
    ("setup.train_s", "s", "lower"),
    ("setup.capture_s", "s", "lower"),
    ("setup.deploy_s", "s", "lower"),
    ("run.cpu_s", "s", "lower"),
    ("run.wall_s", "s", "lower"),
    ("run.sim_s_per_cpu_s", "sim-s/CPU-s", "higher"),
    ("run.passes", "count", "higher"),
    ("run.pass_spread", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# Beyond the issue's 69: what the box and the trace arithmetic did.
PER_LAYER_EXTRA: tuple = (
    ("run.box_speed", "ratio", "higher"),
    ("trace.share_sum", "ratio", "higher"),
)

# Layers whose self time makes up a pass (everything else inside
# Simulator.run is the `ran` remainder).
LAYERS = (
    "ran", "collector", "e2_encode", "e2term", "e2_decode", "sdl_write",
    "sdl_read", "featurize", "score", "mobiwatch", "analyzer", "context",
    "retrieve", "prompt", "dispatch", "action",
)  # fmt: skip


def driver_end_to_end() -> list[Metric]:
    return [m for m in END_TO_END if m.driver_bound is not None]


def driver_per_layer() -> list[tuple]:
    """Per-layer metrics plus the end-to-end ones the driver cannot bound."""
    unbounded = [
        (m.name, m.unit, m.better) for m in END_TO_END if m.driver_bound is None
    ]
    return list(PER_LAYER) + list(PER_LAYER_EXTRA) + unbounded


# -- statistics ---------------------------------------------------------------


def percentile(values: list, q: int, beyond: int = BEYOND) -> Optional[float]:
    """Nearest-rank percentile, or None when the sample cannot carry it.

    A percentile is reported only when at least ``beyond`` samples lie
    beyond it (the median needs ``2 * beyond`` samples, p90 ten times
    ``beyond``, p99 a hundred times).
    """
    n = len(values)
    rank = max(1, -(-q * n // 100))  # ceil, in integers
    if n == 0 or n - rank < beyond:
        return None
    return sorted(values)[rank - 1]


def spread(values: list) -> float:
    """(max - min) / median: how far the passes of one run disagree."""
    mid = median(values)
    return (max(values) - min(values)) / mid if mid else 0.0


def quartile_spread(values: list) -> float:
    """(Q3 - Q1) / median, the spread BENCHMARK.json's driver computes."""
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- deriving the metrics -----------------------------------------------------


def end_to_end(passes: list, setup_s: float) -> dict:
    """All 16 end-to-end values of one run: ``{name: (value|None, n)}``.

    ``n`` is the sample count behind a timing (records, alarms, verdicts,
    passes...).
    """
    exact, samples = passes[0].exact, passes[0].samples
    records = exact["records"]
    cpu = [p.reference_cpu_s for p in passes]

    def timing(key: str, q: int, beyond: int = BEYOND):
        return percentile(samples[key], q, beyond), len(samples[key])

    # The issue reports alarm-plane timings only from >= 100 samples, the
    # median included (below that the mix of full-window alarms and
    # matured short sessions makes even the median jump between modes).
    alarm_p50 = BEYOND * 5
    return {
        "records_per_cpu_s": (median(records / c for c in cpu), len(cpu)),
        "ingest_latency_p50_sim_s": timing("ingest_latency", 50),
        "ingest_latency_p99_sim_s": timing("ingest_latency", 99),
        "detect_latency_p50_sim_s": timing("detect_latency", 50, alarm_p50),
        "detect_latency_p90_sim_s": timing("detect_latency", 90),
        "verdict_latency_p50_sim_s": timing("verdict_latency", 50, alarm_p50),
        "verdict_latency_p90_sim_s": timing("verdict_latency", 90),
        "loop_latency_p90_sim_s": timing("loop_latency", 90),
        "near_rt_miss_ratio": (
            ratio(exact["near_rt_misses"], exact["alarms"]), exact["alarms"]
        ),
        "unanswered_ratio": (
            ratio(exact["unanswered"], exact["queries"]), exact["queries"]
        ),
        "record_loss_ratio": (
            ratio(exact["records_offered"] - records, exact["records_offered"]),
            exact["records_offered"],
        ),
        "attacks_detected_ratio": (
            ratio(exact["attacks_detected"], exact["attacks_armed"])
            if exact["attacks_armed"]
            else None,
            exact["attacks_armed"],
        ),
        "benign_alarm_ratio": (
            ratio(exact["benign_alarms"], exact["windows"]), exact["windows"]
        ),
        "rss_peak_mb": (max(p.rss_peak_mb for p in passes), len(passes)),
        "e2_bytes_per_record": (ratio(exact["e2_bytes"], records), records),
        "setup_s": (setup_s, 1),
    }


def per_layer(untraced: list, traced: list, timings: dict) -> dict:
    """The per-layer values: ``{name: value}``.

    ``untraced`` and ``traced`` are the measured passes of one traced run
    (they alternate, so drift hits both alike).  Seconds are medians over
    the traced passes, as measured on this box (not reference seconds: a
    layer table is read as shares); counts are identical in each pass.
    """
    exact = traced[0].exact
    plain_cpu = median(p.cpu_s for p in untraced)
    plain_reference = [p.reference_cpu_s for p in untraced]
    first = traced[0].layers

    def self_s(layer: str) -> float:
        return median(p.layers[layer]["self_s"] for p in traced)

    def share(layer: str) -> float:
        return median(p.layers[layer]["self_s"] / p.cpu_s for p in traced)

    def calls(layer: str, boundary: Optional[str] = None) -> int:
        entry = first[layer]
        return entry["by_boundary"][boundary]["calls"] if boundary else entry["calls"]

    out: dict = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s(layer)
        out[f"{layer}.share"] = share(layer)
    out.update(
        {
            "sim.events": exact["sim_events"],
            "collector.calls": calls("collector"),
            "collector.records_out": exact["records"],
            "e2_encode.calls": calls("e2_encode"),
            "e2_encode.bytes": first["e2_encode"]["work"],
            "e2term.calls": calls("e2term", "E2Termination.on_e2"),
            "rmr.messages": calls("e2term", "RmrRouter.send"),
            "e2_decode.calls": calls("e2_decode"),
            "sdl_write.calls": calls("sdl_write"),
            "sdl_write.keys": first["sdl_write"]["work"],
            "sdl_write.keys_per_call": ratio(
                first["sdl_write"]["work"], calls("sdl_write")
            ),
            "sdl_read.calls": calls("sdl_read"),
            "featurize.calls": calls("featurize"),
            "score.calls": calls("score"),
            "score.windows": first["score"]["work"],
            "score.windows_per_call": ratio(first["score"]["work"], calls("score")),
            "mobiwatch.indications": calls("mobiwatch"),
            "mobiwatch.records": exact["records"],
            "analyzer.alarms_in": calls("analyzer", "LlmAnalyzerXApp.on_message"),
            "analyzer.suppressed": exact["suppressed"],
            "analyzer.queries": exact["queries"],
            "analyzer.verdicts": exact["verdicts"],
            "context.calls": calls("context"),
            "context.records": first["context"]["work"],
            "retrieve.calls": calls("retrieve"),
            "prompt.calls": calls("prompt"),
            "prompt.bytes": first["prompt"]["work"],
            "dispatch.calls": calls("dispatch"),
            "dispatch.calls_per_query": ratio(calls("dispatch"), exact["queries"]),
            "action.calls": calls("action"),
            "run.cpu_s": plain_cpu,
            "run.wall_s": median(p.wall_s for p in untraced),
            "run.sim_s_per_cpu_s": ratio(exact["sim_s"], plain_cpu),
            "run.passes": len(untraced),
            "run.pass_spread": spread(plain_reference),
            "run.box_speed": median(p.speed for p in untraced),
            "trace.spans": traced[0].spans,
            "trace.overhead_ratio": median(p.reference_cpu_s for p in traced)
            / median(plain_reference)
            - 1.0,
            "trace.share_sum": sum(share(layer) for layer in LAYERS),
        }
    )
    # One whole on_indication = the compute a tick adds to the near-RT
    # loop; pooled over the traced passes so p99 has its samples.  The pool
    # of a short run may not carry p99 by the percentile rule; the
    # nearest-rank value is then still printed (README, "Percentiles").
    ticks_ms = [1000.0 * t for p in traced for t in p.tick_cpu_s]
    for q in (50, 99):
        out[f"mobiwatch.tick_ms_p{q}"] = percentile(ticks_ms, q, beyond=0) or 0.0
    for key, value in timings.items():
        out[f"setup.{key}"] = value
    out["setup.deploy_s"] = median(p.deploy_s for p in traced + untraced)
    return out
