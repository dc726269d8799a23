"""Training-path benchmark: trainer throughput, sweep wall-clock, cache.

The training-side mirror of :mod:`repro.hotpath.bench`. Four measurements,
one per trainfast layer plus the end-to-end story:

- **trainer epoch throughput** — the seed ``Autoencoder.fit`` /
  ``LstmPredictor.fit`` loops vs the compiled float32 kernels, in
  epochs/second on §4-sized models (float64 kernel throughput reported
  alongside);
- **sweep wall-clock** — an 8-configuration window-ablation sweep over
  pre-generated captures: the default configuration (serial, exact
  float64 kernels, no cache) vs the full fast stack (4 sweep workers +
  float32 training + content-addressed dataset cache);
- **worker scaling** — the same fast sweep at 1 worker vs 4 workers. Only
  machines with >= 4 CPUs can show (or gate) near-linear scaling; on
  smaller boxes the measurement is recorded as unavailable;
- **cache** — building the same labeled dataset twice with one cache: the
  second build must be a pure lookup.

Every run re-verifies the equality contracts: float64 compiled training
is bit-identical to the seed loops (losses and weights), and a parallel
float64 sweep returns exactly the serial seed sweep's rows.
:func:`violations` gates a result against the hard speedup floors and the
committed ``BENCH_trainfast.json`` baseline, so CI fails when a change
regresses the training path.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.ml.autoencoder import Autoencoder
from repro.ml.lstm import LstmPredictor
from repro.ml.trainer import compile_trainer
from repro.telemetry.features import FeatureSpec
from repro.trainfast.cache import DatasetCache
from repro.trainfast.settings import TrainfastSettings

# Hard floors from the perf-trajectory acceptance gates.
TRAINER_SPEEDUP_MIN = 2.0
# Quick smoke runs gate the trainers against this slacked floor: a single
# best-of-5 pass on a shared/time-sliced host still carries one-sided
# scheduler noise of ~10-15%, and the true f32 LSTM ratio (~2.0-2.2x)
# sits right on the full floor. Full runs — and the committed baseline —
# always gate the real 2.0x.
TRAINER_SPEEDUP_SMOKE_MIN = 1.7
SWEEP_SPEEDUP_MIN = 2.5
# The 2.5x sweep floor assumes the host can actually run the sweep workers
# in parallel. With fewer CPUs than workers the fan-out degenerates to
# time-slicing and the remaining win is kernels + cache minus pool
# overhead, so constrained hosts gate against this serial floor instead.
SWEEP_SPEEDUP_SERIAL_MIN = 1.3
# Near-linear scaling to 4 workers; only gated where >= 4 CPUs exist.
SCALING_EFFICIENCY_MIN = 0.55
CACHE_HIT_SPEEDUP_MIN = 5.0
# A fresh run may regress this far below the committed baseline's measured
# ratio before we call it a regression (shared-runner noise allowance).
BASELINE_SLACK = 0.5


@dataclass
class TrainfastBenchConfig:
    window: int = 6
    feature_dim: int = 71
    ae_hidden_dim: int = 128
    ae_latent_dim: int = 24
    lstm_hidden_dim: int = 64
    seed: int = 7
    # Trainer throughput measurement.
    ae_rows: int = 800
    lstm_rows: int = 400
    trainer_epochs: int = 3
    repeats: int = 5  # interleaved best-of repeats for every timing loop
    # Sweep measurement: 8 window-ablation configs over small captures.
    sweep_windows: tuple = (3, 4, 5, 6, 7, 8, 10, 12)
    sweep_epochs: int = 40
    sweep_workers: int = 4
    sweep_repeats: int = 2
    benign_duration_s: float = 60.0
    attack_duration_s: float = 45.0
    # Equality sweep (small, exact): windows + epochs.
    equality_windows: tuple = (4, 6)
    equality_epochs: int = 8

    @classmethod
    def quick(cls) -> "TrainfastBenchConfig":
        # Same workload *shapes* as the full run (shrinking the per-batch
        # work shifts the ratios under the floors — fixed per-epoch costs
        # stop amortizing) and the same trainer repeats (the trainer
        # timings are cheap, and best-of-5 is what rides out one-sided
        # scheduler noise); only the expensive sweep shrinks.
        return cls(
            sweep_windows=(4, 6, 8, 10),
            sweep_repeats=1,
            equality_epochs=4,
        )


@dataclass
class TrainfastBenchResult:
    trainers: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)
    scaling: dict = field(default_factory=dict)
    cache: dict = field(default_factory=dict)
    equality: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "trainers": self.trainers,
            "sweep": self.sweep,
            "scaling": self.scaling,
            "cache": self.cache,
            "equality": self.equality,
            "meta": self.meta,
        }

    def report(self) -> str:
        lines = ["trainfast bench" + (" (quick)" if self.meta.get("quick") else "")]
        for name, t in self.trainers.items():
            lines.append(
                f"  {name} training: seed {t['seed_eps']:.2f} ep/s -> compiled f32 "
                f"{t['compiled_f32_eps']:.2f} ep/s ({t['speedup']:.2f}x, floor "
                f"{t.get('floor', TRAINER_SPEEDUP_MIN):.1f}x); "
                f"f64 {t['compiled_f64_eps']:.2f} ep/s"
            )
        s = self.sweep
        if s:
            floor = s.get("floor", SWEEP_SPEEDUP_MIN)
            note = "" if s.get("parallel_capable") else ", serial host"
            lines.append(
                f"  {s['configs']}-config sweep: serial seed {s['seed_s']:.2f}s -> fast "
                f"({s['workers']} workers + f32 kernels + cache) {s['fast_s']:.2f}s "
                f"({s['speedup']:.2f}x, floor {floor:.1f}x{note})"
            )
        sc = self.scaling
        if sc.get("measured"):
            lines.append(
                f"  worker scaling: 1 worker {sc['one_worker_s']:.2f}s -> "
                f"{sc['workers']} workers {sc['many_workers_s']:.2f}s "
                f"({sc['scaling']:.2f}x, efficiency {sc['efficiency']:.0%})"
            )
        else:
            lines.append(
                f"  worker scaling: not measured ({sc.get('note', 'unavailable')})"
            )
        c = self.cache
        if c:
            lines.append(
                f"  dataset cache: first build {c['first_ms']:.1f}ms -> repeat "
                f"{c['repeat_ms']:.3f}ms ({c['speedup']:.0f}x)"
            )
        eq = ", ".join(f"{k}={v}" for k, v in self.equality.items())
        lines.append(f"  equality: {eq}")
        return "\n".join(lines)


def _interleaved_best(repeats: int, runs: dict) -> dict:
    """Best-of timings for several labelled thunks, interleaved per repeat.

    Interleaving (seed, fast, seed, fast, ...) instead of back-to-back
    blocks keeps a noisy neighbour from biasing one side's whole series.
    """
    best = {name: float("inf") for name in runs}
    for _ in range(repeats):
        for name, thunk in runs.items():
            t0 = time.perf_counter()
            thunk()
            best[name] = min(best[name], time.perf_counter() - t0)
    return best


def _bench_trainers(cfg: TrainfastBenchConfig, result: TrainfastBenchResult) -> None:
    rng = np.random.default_rng(cfg.seed)
    input_dim = cfg.window * cfg.feature_dim

    def make_ae() -> Autoencoder:
        return Autoencoder(
            input_dim,
            hidden_dim=cfg.ae_hidden_dim,
            latent_dim=cfg.ae_latent_dim,
            seed=cfg.seed,
        )

    x = rng.normal(size=(cfg.ae_rows, input_dim))
    seed_ae = make_ae()
    f32_ae = compile_trainer(make_ae(), "float32")
    f64_ae = compile_trainer(make_ae(), "float64")
    epochs = cfg.trainer_epochs
    for model in (seed_ae, f32_ae, f64_ae):  # warm-up: allocator, BLAS
        model.fit(x, epochs=1)
    best = _interleaved_best(
        cfg.repeats,
        {
            "seed": lambda: seed_ae.fit(x, epochs=epochs),
            "f32": lambda: f32_ae.fit(x, epochs=epochs),
            "f64": lambda: f64_ae.fit(x, epochs=epochs),
        },
    )
    result.trainers["autoencoder"] = {
        "seed_eps": epochs / best["seed"],
        "compiled_f32_eps": epochs / best["f32"],
        "compiled_f64_eps": epochs / best["f64"],
        "speedup": best["seed"] / best["f32"],
    }

    steps = cfg.window - 1
    sequences = rng.normal(size=(cfg.lstm_rows, steps, cfg.feature_dim))
    targets = rng.normal(size=(cfg.lstm_rows, steps, cfg.feature_dim))

    def make_lstm() -> LstmPredictor:
        return LstmPredictor(
            cfg.feature_dim,
            hidden_dim=cfg.lstm_hidden_dim,
            output_dim=cfg.feature_dim,
            seed=cfg.seed,
        )

    seed_lstm = make_lstm()
    f32_lstm = compile_trainer(make_lstm(), "float32")
    f64_lstm = compile_trainer(make_lstm(), "float64")
    for model in (seed_lstm, f32_lstm, f64_lstm):
        model.fit(sequences, targets, epochs=1)
    best = _interleaved_best(
        cfg.repeats,
        {
            "seed": lambda: seed_lstm.fit(sequences, targets, epochs=epochs),
            "f32": lambda: f32_lstm.fit(sequences, targets, epochs=epochs),
            "f64": lambda: f64_lstm.fit(sequences, targets, epochs=epochs),
        },
    )
    result.trainers["lstm"] = {
        "seed_eps": epochs / best["seed"],
        "compiled_f32_eps": epochs / best["f32"],
        "compiled_f64_eps": epochs / best["f64"],
        "speedup": best["seed"] / best["f32"],
    }


def _check_trainer_equality(cfg: TrainfastBenchConfig, result: TrainfastBenchResult) -> None:
    """float64 compiled training == seed training, losses and weights."""
    rng = np.random.default_rng(cfg.seed + 2)
    input_dim = cfg.window * cfg.feature_dim
    x = rng.normal(size=(200, input_dim))
    seed_ae = Autoencoder(input_dim, hidden_dim=64, latent_dim=16, seed=cfg.seed)
    fast_ae = Autoencoder(input_dim, hidden_dim=64, latent_dim=16, seed=cfg.seed)
    seed_report = seed_ae.fit(x, epochs=3)
    fast_report = compile_trainer(fast_ae, "float64").fit(x, epochs=3)
    ae_ok = seed_report.epoch_losses == fast_report.epoch_losses and all(
        np.array_equal(a.value, b.value)
        for a, b in zip(seed_ae.model.params(), fast_ae.model.params())
    )

    steps = cfg.window - 1
    sequences = rng.normal(size=(120, steps, cfg.feature_dim))
    targets = rng.normal(size=(120, steps, cfg.feature_dim))
    seed_lstm = LstmPredictor(cfg.feature_dim, hidden_dim=32, seed=cfg.seed)
    fast_lstm = LstmPredictor(cfg.feature_dim, hidden_dim=32, seed=cfg.seed)
    seed_report = seed_lstm.fit(sequences, targets, epochs=3)
    fast_report = compile_trainer(fast_lstm, "float64").fit(sequences, targets, epochs=3)
    lstm_ok = seed_report.epoch_losses == fast_report.epoch_losses and all(
        np.array_equal(a.value, b.value)
        for a, b in zip(seed_lstm.params(), fast_lstm.params())
    )
    result.equality["trainer_f64_exact"] = bool(ae_ok and lstm_ok)


def _sweep_captures(cfg: TrainfastBenchConfig):
    from repro.experiments.ablations import AblationConfig, _captures
    from repro.experiments.datasets import AttackDatasetConfig, BenignDatasetConfig

    config = AblationConfig(
        epochs=cfg.sweep_epochs,
        seed=cfg.seed,
        benign=BenignDatasetConfig(duration_s=cfg.benign_duration_s),
        attack=AttackDatasetConfig(duration_s=cfg.attack_duration_s),
    )
    return config, _captures(config)


def _sweep_once(config, captures, windows, trainfast: Optional[TrainfastSettings]) -> list:
    """One window-ablation sweep over pre-generated captures."""
    from repro.experiments.ablations import _evaluate
    from repro.trainfast.sweep import sweep_tools

    runner, cache = sweep_tools(trainfast)
    spec = FeatureSpec()
    if cache is not None:
        for capture in captures:
            cache.record_matrix(capture.series, spec)
    return runner.map(
        lambda w: _evaluate(
            spec,
            w,
            config.percentile,
            config,
            label=f"N={w}",
            captures=captures,
            cache=cache,
            trainfast=trainfast,
        ),
        windows,
    )


def _fast_settings(cfg: TrainfastBenchConfig, workers: int) -> TrainfastSettings:
    return TrainfastSettings(
        trainer_dtype="float32",
        sweep_workers=workers,
        cache=True,
    )


def _bench_sweep(cfg: TrainfastBenchConfig, result: TrainfastBenchResult) -> None:
    config, captures = _sweep_captures(cfg)
    windows = cfg.sweep_windows
    fast = _fast_settings(cfg, cfg.sweep_workers)
    # Warm-up: one config each way (BLAS spin-up, import costs, digests).
    _sweep_once(config, captures, windows[:1], None)
    _sweep_once(config, captures, windows[:1], fast)
    best = _interleaved_best(
        cfg.sweep_repeats,
        {
            "seed": lambda: _sweep_once(config, captures, windows, None),
            "fast": lambda: _sweep_once(config, captures, windows, fast),
        },
    )
    cpus = os.cpu_count() or 1
    parallel_capable = cpus >= cfg.sweep_workers
    result.sweep = {
        "configs": len(windows),
        "workers": cfg.sweep_workers,
        "epochs": cfg.sweep_epochs,
        "seed_s": best["seed"],
        "fast_s": best["fast"],
        "speedup": best["seed"] / best["fast"],
        "parallel_capable": parallel_capable,
        "floor": SWEEP_SPEEDUP_MIN if parallel_capable else SWEEP_SPEEDUP_SERIAL_MIN,
    }

    # Worker scaling: only meaningful with enough cores to run them.
    if parallel_capable:
        one = _fast_settings(cfg, 1)
        best = _interleaved_best(
            max(1, cfg.sweep_repeats),
            {
                "one": lambda: _sweep_once(config, captures, windows, one),
                "many": lambda: _sweep_once(config, captures, windows, fast),
            },
        )
        scaling = best["one"] / best["many"]
        result.scaling = {
            "measured": True,
            "workers": cfg.sweep_workers,
            "one_worker_s": best["one"],
            "many_workers_s": best["many"],
            "scaling": scaling,
            "efficiency": scaling / cfg.sweep_workers,
        }
    else:
        result.scaling = {
            "measured": False,
            "workers": cfg.sweep_workers,
            "note": f"host has {cpus} CPU(s); scaling needs >= {cfg.sweep_workers}",
        }

    # Equality: a parallel float64 fast sweep returns the serial seed rows.
    exact = TrainfastSettings(
        trainer_dtype="float64",
        sweep_workers=2,
        cache=True,
    )
    eq_config, eq_captures = _sweep_captures(cfg)
    eq_config.epochs = cfg.equality_epochs
    serial_rows = _sweep_once(eq_config, eq_captures, cfg.equality_windows, None)
    parallel_rows = _sweep_once(eq_config, eq_captures, cfg.equality_windows, exact)
    result.equality["sweep_parallel_f64_matches_serial"] = serial_rows == parallel_rows


def _bench_cache(cfg: TrainfastBenchConfig, result: TrainfastBenchResult) -> None:
    _, captures = _sweep_captures(cfg)
    benign = captures[0]
    spec = FeatureSpec()
    cache = DatasetCache()
    t0 = time.perf_counter()
    first = benign.labeled(spec, cfg.window, "benign", cache=cache)
    first_s = time.perf_counter() - t0
    from repro.telemetry.features import WindowedDataset

    t0 = time.perf_counter()
    # Time just the memoized windowing (labeled() also re-labels records,
    # which the cache deliberately leaves alone).
    repeat_windowed = cache.windowed(
        benign.series, spec, cfg.window, "session", builder=WindowedDataset._assemble
    )
    repeat_s = time.perf_counter() - t0
    hit = repeat_windowed is first.windowed and cache.hits > 0
    result.equality["cache_hit_on_reencode"] = bool(hit)
    result.cache = {
        "first_ms": first_s * 1e3,
        "repeat_ms": repeat_s * 1e3,
        "speedup": first_s / repeat_s if repeat_s > 0 else float("inf"),
        "hits": cache.hits,
        "misses": cache.misses,
    }


def run_bench(
    config: Optional[TrainfastBenchConfig] = None, quick: bool = False
) -> TrainfastBenchResult:
    """Run all measurements plus the equality re-verification."""
    cfg = config or (TrainfastBenchConfig.quick() if quick else TrainfastBenchConfig())
    result = TrainfastBenchResult()
    result.meta = {
        "quick": quick,
        "window": cfg.window,
        "feature_dim": cfg.feature_dim,
        "ae_rows": cfg.ae_rows,
        "lstm_rows": cfg.lstm_rows,
        "sweep_configs": len(cfg.sweep_windows),
        "sweep_epochs": cfg.sweep_epochs,
        "cpu_count": os.cpu_count() or 1,
    }
    _bench_trainers(cfg, result)
    trainer_floor = TRAINER_SPEEDUP_SMOKE_MIN if quick else TRAINER_SPEEDUP_MIN
    for t in result.trainers.values():
        t["floor"] = trainer_floor
    _check_trainer_equality(cfg, result)
    _bench_sweep(cfg, result)
    _bench_cache(cfg, result)
    return result


def violations(result: TrainfastBenchResult, baseline: Optional[dict] = None) -> list:
    """Gate a result against the hard floors and the committed baseline."""
    out: list[str] = []
    for key, ok in result.equality.items():
        if not ok:
            out.append(f"equality contract broken: {key}")
    for name, t in result.trainers.items():
        floor = t.get("floor", TRAINER_SPEEDUP_MIN)
        if t["speedup"] < floor:
            out.append(
                f"{name} trainer speedup {t['speedup']:.2f}x below floor "
                f"{floor:.1f}x"
            )
    sweep_speedup = result.sweep.get("speedup", 0.0)
    sweep_floor = result.sweep.get("floor", SWEEP_SPEEDUP_MIN)
    if sweep_speedup < sweep_floor:
        out.append(
            f"sweep speedup {sweep_speedup:.2f}x below floor {sweep_floor:.1f}x"
        )
    if result.scaling.get("measured"):
        efficiency = result.scaling.get("efficiency", 0.0)
        if efficiency < SCALING_EFFICIENCY_MIN:
            out.append(
                f"worker scaling efficiency {efficiency:.0%} below floor "
                f"{SCALING_EFFICIENCY_MIN:.0%}"
            )
    if result.cache.get("speedup", 0.0) < CACHE_HIT_SPEEDUP_MIN:
        out.append(
            f"cache hit speedup {result.cache.get('speedup', 0.0):.1f}x below "
            f"floor {CACHE_HIT_SPEEDUP_MIN:.1f}x"
        )
    if baseline:
        for path, current in (
            *(
                (("trainers", name, "speedup"), t["speedup"])
                for name, t in result.trainers.items()
            ),
            (("sweep", "speedup"), sweep_speedup),
        ):
            node = baseline
            for part in path:
                node = node.get(part, {}) if isinstance(node, dict) else {}
            if isinstance(node, (int, float)) and current < node * BASELINE_SLACK:
                out.append(
                    f"{'.'.join(path)} {current:.2f}x regressed below "
                    f"{BASELINE_SLACK:.0%} of committed baseline {node:.2f}x"
                )
    return out


def load_baseline(path) -> Optional[dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def save_result(result: TrainfastBenchResult, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
