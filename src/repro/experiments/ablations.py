"""Ablations A1-A3 over the design choices DESIGN.md calls out.

- **A1 window size** — §3.2 leaves N free; sweep it.
- **A2 threshold percentile** — §4.1 picks the 99th percentile assuming 1%
  training noise; sweep the operating point.
- **A3 feature sets** — Table 1 groups telemetry into message / identifier
  / state categories; evaluate the detector with each group removed, plus
  the unweighted encoding and global (non-sessionized) windowing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.experiments.datasets import (
    AttackDatasetConfig,
    BenignDatasetConfig,
    generate_attack_dataset,
    generate_benign_dataset,
)
from repro.experiments.reporting import render_table
from repro.experiments.sweep import sweep_tools
from repro.ml.detector import AutoencoderDetector
from repro.ml.metrics import DetectionMetrics
from repro.telemetry.features import FeatureSpec


@dataclass
class AblationConfig:
    epochs: int = 40
    lr: float = 2e-3
    seed: int = 7
    window: int = 6
    percentile: float = 99.0
    benign: BenignDatasetConfig = field(default_factory=BenignDatasetConfig)
    attack: AttackDatasetConfig = field(default_factory=AttackDatasetConfig)


@dataclass
class AblationRow:
    label: str
    benign_fp_rate: float
    attack_recall: float
    attack_precision: Optional[float]
    attack_f1: Optional[float]

    def cells(self) -> list:
        def pct(value):
            return "N/A" if value is None else f"{100 * value:.1f}%"

        return [
            self.label,
            pct(self.benign_fp_rate),
            pct(self.attack_recall),
            pct(self.attack_precision),
            pct(self.attack_f1),
        ]


@dataclass
class AblationResult:
    title: str
    rows: list

    def render(self) -> str:
        return render_table(
            ["Variant", "BenignFP", "Recall", "Precision", "F1"],
            [row.cells() for row in self.rows],
            title=self.title,
        )


def _evaluate(
    spec: FeatureSpec,
    window: int,
    percentile: float,
    config: AblationConfig,
    label: str,
    mode: str = "session",
    captures=None,
    cache=None,
) -> AblationRow:
    benign_capture, attack_capture = captures
    benign = benign_capture.labeled(spec, window, "benign", mode=mode, cache=cache)
    attack = attack_capture.labeled(spec, window, "attack", mode=mode, cache=cache)
    windows = benign.windowed.windows
    split = int(len(windows) * 0.7)
    detector = AutoencoderDetector(
        window=window, feature_dim=spec.dim, percentile=percentile, seed=config.seed
    )
    detector.fit(windows[:split], epochs=config.epochs, lr=config.lr)
    held = windows[split:]
    benign_fp = float(detector.detect(held).mean()) if len(held) else 0.0
    predictions = detector.detect(attack.windowed.windows)
    metrics = DetectionMetrics.from_labels(attack.window_labels, predictions)
    return AblationRow(
        label=label,
        benign_fp_rate=benign_fp,
        attack_recall=metrics.recall or 0.0,
        attack_precision=metrics.precision,
        attack_f1=metrics.f1,
    )


def _captures(config: AblationConfig):
    return (
        generate_benign_dataset(config.benign),
        generate_attack_dataset(config.attack),
    )


def _prewarm(cache, captures, specs) -> None:
    """Encode per-record matrices in the parent before the sweep forks.

    Forked workers inherit the warm cache copy-on-write, so no worker
    re-runs the Python-level feature encoder on a capture the parent has
    already encoded.
    """
    if cache is None:
        return
    for spec in specs:
        for capture in captures:
            cache.record_matrix(capture.series, spec)


def run_window_ablation(
    config: Optional[AblationConfig] = None,
    windows: tuple = (4, 6, 8, 10),
    *,
    sweep_workers: int = 0,
    cache: bool = False,
    cache_dir: Optional[str] = None,
) -> AblationResult:
    """A1: sliding-window size sweep.

    Every sweep entry point takes the same keywords: ``sweep_workers``
    fans configurations across forked workers (rows merged in submission
    order, identical to the serial sweep), ``cache`` / ``cache_dir``
    memoize encoded telemetry (:mod:`repro.experiments.cache`).
    """
    config = config or AblationConfig()
    captures = _captures(config)
    spec = FeatureSpec()
    runner, cache = sweep_tools(sweep_workers, cache, cache_dir)
    _prewarm(cache, captures, [spec])
    rows = runner.map(
        lambda w: _evaluate(
            spec,
            w,
            config.percentile,
            config,
            label=f"N={w}",
            captures=captures,
            cache=cache,
        ),
        windows,
    )
    return AblationResult(title="Ablation A1 — window size", rows=rows)


def run_threshold_ablation(
    config: Optional[AblationConfig] = None,
    percentiles: tuple = (90.0, 95.0, 97.5, 99.0, 99.9),
    *,
    sweep_workers: int = 0,
    cache: bool = False,
    cache_dir: Optional[str] = None,
) -> AblationResult:
    """A2: threshold percentile sweep (one training, many thresholds;
    ``sweep_workers`` has nothing to fan out)."""
    config = config or AblationConfig()
    captures = _captures(config)
    spec = FeatureSpec()
    _, cache = sweep_tools(sweep_workers, cache, cache_dir)
    benign = captures[0].labeled(spec, config.window, "benign", cache=cache)
    attack = captures[1].labeled(spec, config.window, "attack", cache=cache)
    windows = benign.windowed.windows
    split = int(len(windows) * 0.7)
    detector = AutoencoderDetector(
        window=config.window, feature_dim=spec.dim, seed=config.seed
    )
    detector.fit(windows[:split], epochs=config.epochs, lr=config.lr)
    held_scores = detector.scores(windows[split:])
    attack_scores = detector.scores(attack.windowed.windows)
    rows = []
    for percentile in percentiles:
        detector.threshold.percentile = percentile
        detector.threshold.fit(detector.training_scores)
        threshold = detector.threshold.threshold or 0.0
        fp = float((held_scores > threshold).mean()) if len(held_scores) else 0.0
        predictions = attack_scores > threshold
        metrics = DetectionMetrics.from_labels(attack.window_labels, predictions)
        rows.append(
            AblationRow(
                label=f"p{percentile:g}",
                benign_fp_rate=fp,
                attack_recall=metrics.recall or 0.0,
                attack_precision=metrics.precision,
                attack_f1=metrics.f1,
            )
        )
    return AblationResult(title="Ablation A2 — threshold percentile", rows=rows)


def run_feature_ablation(
    config: Optional[AblationConfig] = None,
    *,
    sweep_workers: int = 0,
    cache: bool = False,
    cache_dir: Optional[str] = None,
) -> AblationResult:
    """A3: feature-group and encoding-choice sweep."""
    config = config or AblationConfig()
    captures = _captures(config)
    runner, cache = sweep_tools(sweep_workers, cache, cache_dir)
    variants: list[tuple[str, FeatureSpec, str]] = [
        ("full", FeatureSpec(), "session"),
        ("no-identifiers", FeatureSpec(include_identifiers=False), "session"),
        ("no-state", FeatureSpec(include_state=False), "session"),
        ("no-timing", FeatureSpec(include_timing=False), "session"),
        ("no-rates", FeatureSpec(include_rates=False), "session"),
        (
            "unweighted",
            FeatureSpec(identifier_weight=1.0, state_weight=1.0),
            "session",
        ),
        ("global-windows", FeatureSpec(), "global"),
    ]
    _prewarm(cache, captures, {spec for _, spec, _ in variants})
    rows = runner.map(
        lambda variant: _evaluate(
            variant[1],
            config.window,
            config.percentile,
            config,
            label=variant[0],
            mode=variant[2],
            captures=captures,
            cache=cache,
        ),
        variants,
    )
    return AblationResult(title="Ablation A3 — feature sets and encoding", rows=rows)
