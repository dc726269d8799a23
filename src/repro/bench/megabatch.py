"""Tick bench: per-tick scoring throughput of the tiers at fleet scale.

One simulated RIC tick touches every one of ``sessions`` concurrent UEs;
the measured quantity is the **scoring phase** of that tick (the part the
scoring tier changes), in sessions scored per second:

- **exact** — the baseline, and the path the deployment ships: gather
  every session's arena window view into one ``[n, window*dim]`` matrix
  and score it with one row-exact float64 kernel call,
  ``scores(matrix, per_row=True)`` — MobiWatch's inline tick (a stack of
  the single-window GEMVs, so this is ``scoring="exact"`` —
  re-verified against per-session ``[1, window*dim]`` calls every run);
- **megabatch float32** — the gathered matrix through one fused
  compiled float32 GEMM per tick (``scoring="float32"``);
- **quantized** (LSTM only) — carried int8/float16 state advanced by one
  fused batched step per tick plus the ring-max score read
  (``scoring="int8"``).

Every tier's tick includes its score handling: one ``observe_many`` plus a
vectorized threshold sweep, as the live tick pays it.

Floors: megabatch float32 ≥ 2.5x exact; quantized ≥ 1.5x megabatch
float32. Both ratios are also held to the committed baseline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.bench.driver import BenchResult, best_of
from repro.ml.arena import SessionWindowArena
from repro.ml.compiled import compile_detector
from repro.ml.quantized import QuantizedLstmEngine, calibrate_windows

# Hard floors from the acceptance gates, on the ONE BLAS thread the
# driver pins.
MEGABATCH_SPEEDUP_MIN = 2.5  # megabatch f32 vs the exact f64 tick, >= 1k sessions
QUANTIZED_SPEEDUP_MIN = 1.5  # quantized tier vs megabatch f32 (LSTM)
# A fresh run may regress this far below the committed baseline's measured
# ratio before we call it a regression (shared-runner noise allowance).
BASELINE_SLACK = 0.5


@dataclass
class MegabatchBenchConfig:
    sessions: int = 1024
    window: int = 6
    feature_dim: int = 71
    lstm_hidden_dim: int = 64
    ae_hidden_dim: int = 128
    ae_latent_dim: int = 24
    seed: int = 7
    ticks: int = 6  # timed ticks per measurement
    repeats: int = 3  # best-of repeats for every timing loop
    # Sessions double-checked for f64 batch-vs-single bit-identity.
    equality_sessions: int = 64

    @classmethod
    def quick(cls) -> "MegabatchBenchConfig":
        # The floors are defined at >= 1k concurrent sessions, so quick
        # mode keeps the fleet size and trims repetitions instead.
        return cls(ticks=2, repeats=2, equality_sessions=16)


@dataclass
class MegabatchBenchResult(BenchResult):
    tiers: dict = field(default_factory=dict)

    def report(self) -> str:
        lines = [
            f"megabatch bench ({self.meta['sessions']} sessions/tick"
            + (", quick" if self.meta.get("quick") else "")
            + ")"
        ]
        for name, t in self.tiers.items():
            lines.append(
                f"  {name}: exact f64 {t['exact_sps']:.0f} s/s -> megabatch f32 "
                f"{t['megabatch_f32_sps']:.0f} s/s ({t['megabatch_speedup']:.2f}x, "
                f"floor {MEGABATCH_SPEEDUP_MIN:.1f}x)"
            )
            if "quantized_sps" in t:
                lines.append(
                    f"    quantized int8/f16: {t['quantized_sps']:.0f} s/s "
                    f"({t['quantized_speedup']:.2f}x over f32, floor "
                    f"{QUANTIZED_SPEEDUP_MIN:.1f}x)"
                )
        lines.append(self.equality_line())
        return "\n".join(lines)


def _make_detectors(cfg: MegabatchBenchConfig):
    from repro.ml.detector import AutoencoderDetector, LstmDetector

    lstm = LstmDetector(
        window=cfg.window,
        feature_dim=cfg.feature_dim,
        hidden_dim=cfg.lstm_hidden_dim,
        seed=cfg.seed,
    )
    ae = AutoencoderDetector(
        window=cfg.window,
        feature_dim=cfg.feature_dim,
        hidden_dim=cfg.ae_hidden_dim,
        latent_dim=cfg.ae_latent_dim,
        seed=cfg.seed,
    )
    return lstm, ae


def _fill_arena(cfg: MegabatchBenchConfig, rng) -> tuple:
    """An arena with every session holding a full window of rows."""
    arena = SessionWindowArena(cfg.feature_dim, cfg.window)
    rows = (rng.random((cfg.sessions, cfg.window, cfg.feature_dim)) * 0.1).astype(
        np.float32
    )
    for sid in range(cfg.sessions):
        for t in range(cfg.window):
            arena.append(sid, rows[sid, t])
    return arena, rows


def _bench_detector(
    cfg: MegabatchBenchConfig, name: str, detector, result: MegabatchBenchResult
) -> None:
    rng = np.random.default_rng(cfg.seed + hash(name) % 1000)
    arena, rows = _fill_arena(cfg, rng)
    session_ids = list(range(cfg.sessions))
    width = cfg.window * cfg.feature_dim
    gather_buf = np.empty((cfg.sessions, width), dtype=arena.dtype)

    def gather() -> np.ndarray:
        for row, sid in enumerate(session_ids):
            gather_buf[row] = arena.window_rows(sid).reshape(-1)
        return gather_buf

    # f64 bit-identity: the row-exact call over gathered rows must score
    # exactly like one [1, window*dim] call per session, straight from the
    # arena. Kernels called directly: every tick scores the same matrix,
    # which detector.scores would answer from its score memo.
    matrix = gather()
    check = min(cfg.equality_sessions, cfg.sessions)
    tier_scores = detector.compiled.scores(matrix, per_row=True)[:check]
    seed_scores = np.array(
        [
            float(detector.scores(arena.window_rows(sid).reshape(1, -1))[0])
            for sid in session_ids[:check]
        ]
    )
    result.equality[f"megabatch_f64_exact_{name}"] = bool(
        np.array_equal(tier_scores, seed_scores)
    )

    def tick_time(tick: Callable[[], None]) -> float:
        def run() -> float:
            t0 = time.perf_counter()
            for _ in range(cfg.ticks):
                tick()
            return (time.perf_counter() - t0) / cfg.ticks

        run()  # warm-up (BLAS thread spin-up, allocator)
        return best_of(cfg.repeats, run)

    # Every tier runs the live tick's score handling.
    from repro.obs.metrics import Counter, Histogram

    hist = Histogram(buckets=(1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0))
    windows_counter = Counter()
    alert_threshold = 1e9  # handling cost without the (rare) alert path

    def handle_batch(scores: np.ndarray) -> None:
        windows_counter.inc(len(scores))
        hist.observe_many(scores)
        np.flatnonzero(scores > alert_threshold)

    # Baseline: gathered matrix, one row-exact f64 call (the shipped tick).
    def exact_tick() -> None:
        handle_batch(detector.compiled.scores(gather(), per_row=True))

    # Tier 1: gathered matrix, ONE fused compiled-f32 call per tick.
    compiled32 = compile_detector(detector, "float32")
    result.equality[f"megabatch_f32_close_{name}"] = bool(
        np.allclose(
            compiled32.scores(matrix[:check]), tier_scores, rtol=1e-4, atol=1e-6
        )
    )

    def megabatch_f32_tick() -> None:
        handle_batch(compiled32.scores(gather()))

    exact_s = tick_time(exact_tick)
    f32_s = tick_time(megabatch_f32_tick)
    tier = {
        "exact_sps": cfg.sessions / exact_s,
        "megabatch_f32_sps": cfg.sessions / f32_s,
        "megabatch_speedup": exact_s / f32_s,
    }

    # Tier 2 (LSTM only): carried-state quantized step + ring-max read.
    if name == "lstm":
        calibration = calibrate_windows(rows.reshape(cfg.sessions, -1))
        engine = QuantizedLstmEngine(detector, calibration, initial_sessions=cfg.sessions)
        step_rows = rows[:, 0, :]  # one fresh record per session per tick
        for t in range(cfg.window):  # pre-tick state, like the live path
            engine.megastep(session_ids, rows[:, t, :])

        def quantized_tick() -> None:
            engine.megastep(session_ids, step_rows)
            handle_batch(engine.window_scores_for(session_ids))

        quant_s = tick_time(quantized_tick)
        tier["quantized_sps"] = cfg.sessions / quant_s
        tier["quantized_speedup"] = f32_s / quant_s
        quant_scores = engine.window_scores_for(session_ids)
        result.equality["quantized_finite"] = bool(np.isfinite(quant_scores).all())
        # Decision agreement at matched percentile operating points
        # (informational; the hard contract lives in the Table-2 metric
        # tolerance tests).
        f64_scores = detector.compiled.scores(matrix, per_row=True)
        f64_cut = np.percentile(f64_scores, 97.5)
        quant_cut = np.percentile(quant_scores, 97.5)
        agreement = float(
            np.mean((f64_scores > f64_cut) == (quant_scores > quant_cut))
        )
        result.equality["quantized_decision_agreement"] = round(agreement, 4)

    result.tiers[name] = tier


def run_bench(
    config: Optional[MegabatchBenchConfig] = None, quick: bool = False
) -> MegabatchBenchResult:
    """Measure all tiers for both detectors, plus the equality contracts."""
    cfg = config or (MegabatchBenchConfig.quick() if quick else MegabatchBenchConfig())
    result = MegabatchBenchResult()
    result.meta = {
        "quick": quick,
        "sessions": cfg.sessions,
        "window": cfg.window,
        "feature_dim": cfg.feature_dim,
        "ticks": cfg.ticks,
    }
    lstm, ae = _make_detectors(cfg)
    _bench_detector(cfg, "lstm", lstm, result)
    _bench_detector(cfg, "autoencoder", ae, result)
    return result


def floor_violations(result: MegabatchBenchResult) -> list:
    # The decision agreement is a ratio, informational only.
    out = [
        f"equality contract broken: {key}"
        for key, ok in result.equality.items()
        if isinstance(ok, bool) and not ok
    ]
    for name, tier in result.tiers.items():
        speedup = tier.get("megabatch_speedup", 0.0)
        if speedup < MEGABATCH_SPEEDUP_MIN:
            out.append(
                f"{name} megabatch speedup {speedup:.2f}x below floor "
                f"{MEGABATCH_SPEEDUP_MIN:.1f}x"
            )
        if "quantized_speedup" in tier and tier["quantized_speedup"] < QUANTIZED_SPEEDUP_MIN:
            out.append(
                f"{name} quantized speedup {tier['quantized_speedup']:.2f}x below "
                f"floor {QUANTIZED_SPEEDUP_MIN:.1f}x"
            )
    return out


def baseline_checks(result: MegabatchBenchResult, baseline: dict) -> list:
    return [
        (("tiers", name, ratio), tier[ratio])
        for name, tier in result.tiers.items()
        for ratio in ("megabatch_speedup", "quantized_speedup")
        if ratio in tier
    ]
