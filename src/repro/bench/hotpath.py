"""Scoring-tier bench: per-record latency and kernel throughput.

Two measurements:

- **per-record LSTM scoring latency** — full-window re-runs through the
  layer-walking reference scorer (assemble the window, re-run it) vs
  incremental carried-state scoring (``scoring="incremental"``), per
  telemetry record (floor: >= 5x);
- **kernel throughput** — the layer-walking reference
  (``AnomalyDetector.reference_scores``) vs the fused float32 kernels
  (``scoring="float32"``), in windows/second, for both detectors (float64
  kernels alongside; floor: >= 2x).

Every run re-verifies the equality contracts (float64 bit-identity of the
fused kernels and of the incremental scorer against its replay).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.bench.driver import BenchResult, best_of
from repro.ml.arena import SessionWindowArena
from repro.ml.compiled import compile_detector
from repro.ml.detector import AutoencoderDetector, LstmDetector
from repro.ml.incremental import IncrementalLstmScorer

# Hard floors from the perf-trajectory acceptance gates.
PER_RECORD_SPEEDUP_MIN = 5.0
KERNEL_SPEEDUP_MIN = 2.0
# A fresh run may regress this far below the committed baseline's measured
# ratio before we call it a regression (shared-runner noise allowance).
BASELINE_SLACK = 0.5


@dataclass
class HotpathBenchConfig:
    window: int = 6
    feature_dim: int = 71
    lstm_hidden_dim: int = 64
    ae_hidden_dim: int = 128
    ae_latent_dim: int = 24
    seed: int = 7
    # Stream length for the per-record latency measurement.
    stream_records: int = 400
    # Batch size / repetitions for kernel throughput.
    kernel_batch: int = 256
    kernel_reps: int = 30
    repeats: int = 3  # best-of repeats for every timing loop

    @classmethod
    def quick(cls) -> "HotpathBenchConfig":
        return cls(
            stream_records=140,
            kernel_batch=64,
            kernel_reps=8,
            repeats=2,
        )


@dataclass
class HotpathBenchResult(BenchResult):
    per_record: dict = field(default_factory=dict)
    kernels: dict = field(default_factory=dict)

    def report(self) -> str:
        lines = ["hotpath bench" + (" (quick)" if self.meta.get("quick") else "")]
        p = self.per_record
        lines.append(
            f"  per-record LSTM scoring: seed {p['seed_us']:.1f}us -> "
            f"incremental {p['incremental_us']:.1f}us ({p['speedup']:.2f}x, floor "
            f"{PER_RECORD_SPEEDUP_MIN:.1f}x)"
        )
        for name, k in self.kernels.items():
            lines.append(
                f"  {name} kernels: seed {k['seed_wps']:.0f} w/s -> compiled f32 "
                f"{k['compiled_f32_wps']:.0f} w/s ({k['speedup']:.2f}x, floor "
                f"{KERNEL_SPEEDUP_MIN:.1f}x); f64 {k['compiled_f64_wps']:.0f} w/s"
            )
        lines.append(self.equality_line())
        return "\n".join(lines)


def _make_detectors(cfg: HotpathBenchConfig):
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


def _bench_per_record(cfg: HotpathBenchConfig, lstm_detector, result: HotpathBenchResult) -> None:
    rng = np.random.default_rng(cfg.seed)
    rows = rng.normal(size=(cfg.stream_records, cfg.feature_dim)).astype(np.float32)
    window, dim = cfg.window, cfg.feature_dim

    def seed_stream() -> float:
        stored: list[np.ndarray] = []
        t0 = time.perf_counter()
        for t in range(cfg.stream_records):
            stored.append(rows[t])
            chosen = stored[-window:]
            mat = np.stack(chosen)
            if len(chosen) < window:
                padded = np.zeros((window, dim), dtype=mat.dtype)
                padded[window - len(chosen) :] = mat
                mat = padded
            lstm_detector.reference_scores(mat.reshape(1, -1))
        return (time.perf_counter() - t0) / cfg.stream_records

    def incremental_stream() -> float:
        arena = SessionWindowArena(dim, window)
        scorer = IncrementalLstmScorer(lstm_detector)
        t0 = time.perf_counter()
        for t in range(cfg.stream_records):
            arena.append(1, rows[t])
            scorer.push(1, rows[t])
            scorer.window_score(1)
        return (time.perf_counter() - t0) / cfg.stream_records

    seed_stream()  # warm-up (BLAS thread spin-up, allocator)
    seed_s = best_of(cfg.repeats, seed_stream)
    incremental_stream()
    incremental_s = best_of(cfg.repeats, incremental_stream)
    result.per_record = {
        "seed_us": seed_s * 1e6,
        "incremental_us": incremental_s * 1e6,
        "speedup": seed_s / incremental_s,
    }

    # Equality: the cached stream's errors must equal the batch replay.
    scorer = IncrementalLstmScorer(lstm_detector)
    check = rows[: min(cfg.stream_records, 64)]
    for row in check:
        scorer.push(1, row)
    result.equality["incremental_f64_exact"] = bool(
        np.array_equal(scorer.record_errors(1), scorer.replay_errors(check))
    )


def _bench_kernels(cfg: HotpathBenchConfig, detectors: dict, result: HotpathBenchResult) -> None:
    rng = np.random.default_rng(cfg.seed + 1)
    # float32 windows: what the live path (arena rows, pool batches)
    # actually feeds the detector.
    windows = rng.normal(size=(cfg.kernel_batch, cfg.window * cfg.feature_dim)).astype(
        np.float32
    )

    for name, detector in detectors.items():
        seed_scores = detector.reference_scores(windows)
        compiled32 = compile_detector(detector, "float32")
        compiled64 = compile_detector(detector, "float64")
        result.equality[f"compiled_f64_exact_{name}"] = bool(
            np.array_equal(seed_scores, compiled64.scores(windows))
        )
        result.equality[f"compiled_f32_close_{name}"] = bool(
            np.allclose(seed_scores, compiled32.scores(windows), rtol=1e-4, atol=1e-6)
        )

        def throughput(score_fn) -> float:
            def run() -> float:
                t0 = time.perf_counter()
                for _ in range(cfg.kernel_reps):
                    score_fn(windows)
                return (time.perf_counter() - t0) / cfg.kernel_reps

            run()  # warm-up
            return cfg.kernel_batch / best_of(cfg.repeats, run)

        seed_wps = throughput(detector.reference_scores)
        f32_wps = throughput(compiled32.scores)
        f64_wps = throughput(compiled64.scores)
        result.kernels[name] = {
            "seed_wps": seed_wps,
            "compiled_f32_wps": f32_wps,
            "compiled_f64_wps": f64_wps,
            "speedup": f32_wps / seed_wps,
        }


def run_bench(config: Optional[HotpathBenchConfig] = None, quick: bool = False) -> HotpathBenchResult:
    """Run both measurements plus the equality re-verification."""
    cfg = config or (HotpathBenchConfig.quick() if quick else HotpathBenchConfig())
    result = HotpathBenchResult()
    result.meta = {
        "quick": quick,
        "window": cfg.window,
        "feature_dim": cfg.feature_dim,
        "stream_records": cfg.stream_records,
        "kernel_batch": cfg.kernel_batch,
    }
    lstm, ae = _make_detectors(cfg)
    _bench_per_record(cfg, lstm, result)
    _bench_kernels(cfg, {"lstm": lstm, "autoencoder": ae}, result)
    return result


def floor_violations(result: HotpathBenchResult) -> list:
    out = [f"equality contract broken: {k}" for k, ok in result.equality.items() if not ok]
    speedup = result.per_record.get("speedup", 0.0)
    if speedup < PER_RECORD_SPEEDUP_MIN:
        out.append(
            f"per-record speedup {speedup:.2f}x below floor {PER_RECORD_SPEEDUP_MIN:.1f}x"
        )
    for name, k in result.kernels.items():
        if k["speedup"] < KERNEL_SPEEDUP_MIN:
            out.append(
                f"{name} kernel speedup {k['speedup']:.2f}x below floor "
                f"{KERNEL_SPEEDUP_MIN:.1f}x"
            )
    return out


def baseline_checks(result: HotpathBenchResult, baseline: dict) -> list:
    return [(("per_record", "speedup"), result.per_record.get("speedup", 0.0))] + [
        (("kernels", name, "speedup"), k["speedup"]) for name, k in result.kernels.items()
    ]
