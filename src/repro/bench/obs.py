"""Observability-overhead benchmark: the price of watching the hot path.

The whole point of the SLO plane is that you can leave it on: the SLO
engine, the counters/heartbeats, the profiler hooks and the export plane
must cost the hot path almost nothing. This bench proves it by splitting
the fully-observed cost into its two very different components and gating
their sum at :data:`OVERHEAD_MAX_PCT` (the PR's <= 3% contract):

- **per-tick hook overhead** — what observing adds to the one scoring call
  MobiWatch makes per tick, ``detector.scores(gather, per_row=True)`` on a
  gather matrix of tick height (1-7 rows, as on ``replay_benign``): the
  :class:`~repro.ml.compiled.CompiledModel` counters (kernel calls and
  windows, score-memo hits / misses / size) and its sampled
  ``ml.compiled.scores`` profiler branch (one call in
  :data:`~repro.ml.compiled.PROFILE_SAMPLE` timed). A ~1us delta on a
  ~200us call is below shared-runner wall-clock noise, so it is measured
  over thousands of **adjacent call pairs** on **one detector object** —
  two gathers of one height, order alternating — with the
  instrumentation toggled between the two calls (the toggled-off state
  *is* the unobserved code path, an ``is None`` branch): a pair shares
  one machine state, and a trimmed mean of the pair differences drops
  the pairs a burst of neighbouring load split while keeping the sampled
  calls' share. One object means no allocation/alignment luck. Every
  gather holds rows the memo has not seen (the row pool is larger than
  the memo, which clears when full), so every call reaches the kernels
  and pays every hook. The plain calls' trimmed mean is the denominator.
- **amortized plane overhead** — the per-cadence work (latency histogram
  observe, :class:`~repro.obs.objectives.SloEngine` tick,
  :func:`~repro.obs.exporter.render_openmetrics`). Deterministic counts
  times micro-benchmarked per-call costs, divided across the ticks of one
  cadence interval — exact attribution instead of asking a noisy
  end-to-end delta to resolve tens of ns.

The run also re-verifies the zero-interference contract: the observed
detector's scores must be **bit-identical** to the plain detector's.

Gating: hard ceiling first, then drift against the committed baseline
with an additive slack (overhead is a noisy small number; a ratio gate
would flap).
"""

from __future__ import annotations

import copy
import itertools
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.bench.driver import BenchResult, best_of
from repro.ml.compiled import SCORE_MEMO_CAPACITY
from repro.obs import profiler as _profiler
from repro.obs.exporter import render_openmetrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.objectives import EVAL_INTERVAL_S, SloEngine, SloObjective
from repro.obs.profiler import Profiler

# Hard ceiling on the fully-observed hot path slowdown (the PR gate).
OVERHEAD_MAX_PCT = 3.0
# A fresh run may sit this many percentage points above the committed
# baseline's measured overhead before we call it creep (absolute slack:
# overhead is a small noisy number, a ratio gate would flap near zero).
BASELINE_CREEP = 2.0

_LATENCY_BUCKETS = (1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1.0)

# The CompiledModel instruments the hooks toggle (None = unobserved).
_HOOKS = ("_calls_counter", "_windows_counter", "_memo_hits", "_memo_misses", "_memo_size")


@dataclass
class ObsBenchConfig:
    window: int = 6
    feature_dim: int = 71
    lstm_hidden_dim: int = 64
    seed: int = 7
    # Gather heights, cycled tick after tick: replay_benign's ticks score
    # 1-7 sessions.
    max_tick_height: int = 7
    # Plain/observed call pairs, and the share of pair differences cut
    # from each tail before averaging.
    pairs: int = 4000
    trim: float = 0.1
    repeats: int = 5  # best-of repeats for every micro-timing loop
    hook_loop_rounds: int = 3  # alternations per side, min taken
    # Plane cadences, in ticks: one histogram observe + one engine tick per
    # `tick_every`, one OpenMetrics render per `export_every` (about 500
    # and 2,000 records at replay_benign's ~12.6 records per indication).
    # The amortized plane overhead divides the micro-benchmarked per-call
    # costs across these intervals.
    tick_every: int = 40
    export_every: int = 160
    # Micro-benchmark repetitions for the primitive cost table.
    micro_reps: int = 2000

    @classmethod
    def quick(cls) -> "ObsBenchConfig":
        return cls(pairs=2000, repeats=3, micro_reps=400)


@dataclass
class ObsBenchResult(BenchResult):
    per_tick: dict = field(default_factory=dict)
    primitives: dict = field(default_factory=dict)

    def report(self) -> str:
        lines = ["obs bench" + (" (quick)" if self.meta.get("quick") else "")]
        p = self.per_tick
        lines.append(
            f"  per-tick scoring call: plain {p['plain_us']:.2f}us; fully "
            f"observed overhead {p['overhead_pct']:+.2f}% "
            f"(hooks {p['hook_overhead_pct']:+.2f}% = {p['hook_ns']:.0f}ns, "
            f"plane {p['plane_overhead_pct']:+.2f}%, "
            f"ceiling {OVERHEAD_MAX_PCT:.1f}%)"
        )
        m = self.primitives
        lines.append(
            f"  primitives: hook inactive {m['hook_inactive_ns']:.0f}ns, "
            f"active {m['hook_active_ns']:.0f}ns; counter inc "
            f"{m['counter_inc_ns']:.0f}ns; histogram observe "
            f"{m['histogram_observe_ns']:.0f}ns"
        )
        lines.append(
            f"  planes: engine tick {m['engine_tick_us']:.1f}us "
            f"({m['objectives']} objectives), openmetrics render "
            f"{m['render_us']:.1f}us ({m['render_bytes']} bytes)"
        )
        lines.append(self.equality_line())
        return "\n".join(lines)


def _make_detector(cfg: ObsBenchConfig):
    from repro.ml.detector import LstmDetector

    return LstmDetector(
        window=cfg.window,
        feature_dim=cfg.feature_dim,
        hidden_dim=cfg.lstm_hidden_dim,
        seed=cfg.seed,
    )


def _gathers(cfg: ObsBenchConfig) -> list:
    """Pairs of tick gathers of one height, heights cycling, over a pool of
    distinct rows larger than the score memo: no row repeats before the
    memo, full, has cleared it, so every call reaches the kernels."""
    heights = itertools.cycle(range(1, cfg.max_tick_height + 1))
    sizes = []
    while 2 * sum(sizes) <= SCORE_MEMO_CAPACITY or len(sizes) % cfg.max_tick_height:
        sizes.append(next(heights))
    rng = np.random.default_rng(cfg.seed)
    width = cfg.window * cfg.feature_dim
    # Sparse one-hots in float32, like MobiWatch's arena rows.
    rows = iter((rng.random((2 * sum(sizes), width)) < 0.08).astype(np.float32))
    return [
        tuple(np.stack([next(rows) for _ in range(height)]) for _ in range(2))
        for height in sizes
    ]


def _trimmed_mean(values: list, trim: float) -> float:
    values = sorted(values)
    cut = int(len(values) * trim)
    return statistics.fmean(values[cut : len(values) - cut])


def _bench_objectives() -> list:
    """Objectives over the family the observed stream actually feeds."""
    return [
        SloObjective(
            name="score-latency",
            target=0.99,
            metric="mobiwatch.inference_wall_s",
            threshold=0.01,
        ),
        SloObjective(
            name="score-tail",
            target=0.999,
            metric="mobiwatch.inference_wall_s",
            threshold=0.05,
        ),
    ]


def _bench_per_tick(cfg: ObsBenchConfig, detector, result: ObsBenchResult) -> None:
    pairs = _gathers(cfg)
    detector.attach_metrics(MetricsRegistry())
    compiled = detector.compiled
    wired = [getattr(compiled, name) for name in _HOOKS]
    prof = Profiler()

    def timed(observed: bool, gather: np.ndarray) -> float:
        """One tick's scoring call, hooks toggled.

        Unwiring the instruments reproduces the unobserved code path bit
        for bit (``is not None`` is their permanent guard) on the very
        same object, so the plain/observed difference is exactly the hook
        work: five counter/gauge updates, the profiler's countdown and its
        sampled timing.
        """
        for name, instrument in zip(_HOOKS, wired):
            setattr(compiled, name, instrument if observed else None)
        if observed:
            _profiler.activate(prof)
        try:
            t0 = time.perf_counter()
            detector.scores(gather, per_row=True)
            return time.perf_counter() - t0
        finally:
            _profiler.deactivate()

    stream = itertools.cycle(pairs)
    for _ in range(len(pairs)):  # warm-up (allocator, row-view caches)
        timed(False, next(stream)[0])
    plain, deltas = [], []
    for pair in range(cfg.pairs):
        first = bool(pair % 2)
        one, other = next(stream)
        a = timed(first, one)
        b = timed(not first, other)
        plain_s, observed_s = (b, a) if first else (a, b)
        plain.append(plain_s)
        deltas.append(observed_s - plain_s)
    plain_s = _trimmed_mean(plain, cfg.trim)
    hook_per_tick_s = max(0.0, _trimmed_mean(deltas, cfg.trim))
    hook_pct = hook_per_tick_s / plain_s * 100.0

    # Amortized plane: deterministic per-cadence counts times the
    # micro-benchmarked per-call costs from _bench_primitives.
    m = result.primitives
    plane_per_tick_s = (
        m["histogram_observe_ns"] * 1e-9 + m["engine_tick_us"] * 1e-6
    ) / cfg.tick_every + (m["render_us"] * 1e-6) / cfg.export_every
    plane_pct = plane_per_tick_s / plain_s * 100.0

    result.per_tick = {
        "plain_us": plain_s * 1e6,
        "hook_ns": hook_per_tick_s * 1e9,
        "hook_overhead_pct": hook_pct,
        "plane_overhead_pct": plane_pct,
        "overhead_pct": hook_pct + plane_pct,
    }

    # Zero-interference contract: full observability must not change one
    # bit of the scores the detector produces.
    unwired = copy.deepcopy(detector)
    unwired.metrics = None
    unwired.recompile()
    watched = copy.deepcopy(detector)
    watched.recompile()
    watched.attach_metrics(MetricsRegistry())
    _profiler.activate(Profiler())
    try:
        observed_scores = [watched.scores(g, per_row=True) for g, _ in pairs[:96]]
    finally:
        _profiler.deactivate()
    plain_scores = [unwired.scores(g, per_row=True) for g, _ in pairs[:96]]
    result.equality["observed_scores_exact"] = all(
        a.tobytes() == b.tobytes() for a, b in zip(plain_scores, observed_scores)
    )


def _bench_primitives(cfg: ObsBenchConfig, result: ObsBenchResult) -> None:
    """Per-call cost of each observability primitive, for attribution."""
    reps = cfg.micro_reps

    def per_call(run_once: Callable[[], object]) -> float:
        def run() -> float:
            t0 = time.perf_counter()
            for _ in range(reps):
                run_once()
            return (time.perf_counter() - t0) / reps

        run()  # warm-up
        return best_of(cfg.repeats, run)

    # profile_block: inactive = one global load + is-None check + a shared
    # no-op context manager.
    def hook() -> None:
        with _profiler.profile_block("bench.block"):
            pass

    inactive_s = per_call(hook)
    prof = Profiler()
    _profiler.activate(prof)
    try:
        active_s = per_call(hook)
    finally:
        _profiler.deactivate()

    metrics = MetricsRegistry()
    counter = metrics.counter("obsbench.micro_total")

    def inc() -> None:
        counter.value += 1

    counter_s = per_call(inc)
    hist = metrics.histogram("mobiwatch.inference_wall_s", buckets=_LATENCY_BUCKETS)
    hist_s = per_call(lambda: hist.observe(0.002))

    # The engine as deployed: its clock steps by the engine's own cadence.
    wall = [0.0]
    engine = SloEngine(metrics, objectives=_bench_objectives(), clock=lambda: wall[0])

    def tick() -> None:
        wall[0] += EVAL_INTERVAL_S
        engine.tick()

    tick_s = per_call(tick)
    rendered = render_openmetrics(metrics)
    render_s = per_call(lambda: render_openmetrics(metrics))

    result.primitives = {
        "hook_inactive_ns": inactive_s * 1e9,
        "hook_active_ns": active_s * 1e9,
        "counter_inc_ns": counter_s * 1e9,
        "histogram_observe_ns": hist_s * 1e9,
        "engine_tick_us": tick_s * 1e6,
        "objectives": len(engine.objectives),
        "render_us": render_s * 1e6,
        "render_bytes": len(rendered),
    }
    result.equality["openmetrics_terminated"] = rendered.endswith("# EOF\n")


def run_bench(config: Optional[ObsBenchConfig] = None, quick: bool = False) -> ObsBenchResult:
    """Measure the observed-vs-plain hot path and the primitive costs."""
    cfg = config or (ObsBenchConfig.quick() if quick else ObsBenchConfig())
    result = ObsBenchResult()
    result.meta = {
        "quick": quick,
        "window": cfg.window,
        "feature_dim": cfg.feature_dim,
        "max_tick_height": cfg.max_tick_height,
        "pairs": cfg.pairs,
        "tick_every": cfg.tick_every,
        "export_every": cfg.export_every,
    }
    detector = _make_detector(cfg)
    _bench_primitives(cfg, result)  # first: per_tick needs the plane costs
    _bench_per_tick(cfg, detector, result)
    return result


def floor_violations(result: ObsBenchResult) -> list:
    out = [f"equality contract broken: {k}" for k, ok in result.equality.items() if not ok]
    overhead = result.per_tick.get("overhead_pct", float("inf"))
    if overhead > OVERHEAD_MAX_PCT:
        out.append(
            f"observability overhead {overhead:+.2f}% above the "
            f"{OVERHEAD_MAX_PCT:.1f}% ceiling"
        )
    return out


def baseline_checks(result: ObsBenchResult, baseline: dict) -> list:
    overhead = result.per_tick.get("overhead_pct", float("inf"))
    return [(("per_tick", "overhead_pct"), overhead)]
