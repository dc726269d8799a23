"""Experiment E1 — Table 2: detection performance of the two models.

Reproduces the paper's §4.1 evaluation:

- train each model on benign telemetry only,
- **benign row**: k-fold cross-validation accuracy on held-out benign
  windows (no positives exist, so recall/F1 are N/A and the paper reports
  the no-alarm rate in both the accuracy and precision columns),
- **attack row**: window-level accuracy/precision/recall/F1 on the attack
  capture, plus event-level recall (did every attack *instance* raise at
  least one alarm — the sense in which the paper reports 100% detection).

Expected shape (not absolute numbers): AE >= LSTM, event recall 100% for
both, benign false alarms under 10%.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.experiments.datasets import (
    AttackDatasetConfig,
    BenignDatasetConfig,
    CollectedDataset,
    generate_attack_dataset,
    generate_benign_dataset,
)
from repro.experiments.reporting import render_table
from repro.ml.detector import AutoencoderDetector, LstmDetector
from repro.ml.metrics import DetectionMetrics
from repro.telemetry.dataset import LabeledDataset
from repro.telemetry.features import FeatureSpec

# Paper Table 2 reference values (for the side-by-side report).
PAPER_TABLE2 = {
    ("benign", "autoencoder"): {"accuracy": "93.23%", "precision": "93.23%", "recall": "N/A", "f1": "N/A"},
    ("benign", "lstm"): {"accuracy": "91.15%", "precision": "91.15%", "recall": "N/A", "f1": "N/A"},
    ("attack", "autoencoder"): {"accuracy": "100%", "precision": "100%", "recall": "100%", "f1": "100%"},
    ("attack", "lstm"): {"accuracy": "95.00%", "precision": "88.68%", "recall": "100%", "f1": "94.00%"},
}


@dataclass
class Table2Config:
    """Experiment knobs (§4.1 defaults)."""

    window: int = 6
    spec: FeatureSpec = field(default_factory=FeatureSpec)
    epochs: int = 50
    lr: float = 2e-3
    seed: int = 7
    cv_folds: int = 3
    ae_percentile: float = 99.0
    # The LSTM's max-over-steps scores need a slightly lower operating
    # point than the AE's (see EXPERIMENTS.md); the paper does not pin
    # per-model thresholds.
    lstm_percentile: float = 97.5
    # Score LSTM windows with full session context (the deployed MobiWatch
    # semantics: every record's prediction uses its whole session prefix).
    lstm_session_context: bool = True
    benign: BenignDatasetConfig = field(default_factory=BenignDatasetConfig)
    attack: AttackDatasetConfig = field(default_factory=AttackDatasetConfig)


@dataclass
class ModelResult:
    """One (dataset, model) cell group of Table 2."""

    dataset: str
    model: str
    metrics: DetectionMetrics
    event_recall: Optional[float] = None

    def row(self) -> list:
        cells = self.metrics.as_row()
        if not self.metrics.has_positives:
            # Paper convention: the benign row repeats the no-alarm rate in
            # the precision column.
            cells["precision"] = cells["accuracy"]
        row = [self.dataset, self.model, cells["accuracy"], cells["precision"], cells["recall"], cells["f1"]]
        row.append("N/A" if self.event_recall is None else f"{100 * self.event_recall:.0f}%")
        paper = PAPER_TABLE2.get((self.dataset, self.model), {})
        row.append("/".join(paper.get(k, "?") for k in ("accuracy", "precision", "recall", "f1")))
        return row


@dataclass
class Table2Result:
    results: list
    config: Table2Config

    def render(self) -> str:
        headers = [
            "Dataset",
            "Model",
            "Accuracy",
            "Precision",
            "Recall",
            "F1",
            "EventRecall",
            "Paper(A/P/R/F1)",
        ]
        return render_table(
            headers,
            [result.row() for result in self.results],
            title="Table 2 — detection performance (reproduction vs. paper)",
        )

    def by_key(self, dataset: str, model: str) -> ModelResult:
        for result in self.results:
            if result.dataset == dataset and result.model == model:
                return result
        raise KeyError((dataset, model))


def _make_detector(model: str, config: Table2Config):
    if model == "autoencoder":
        return AutoencoderDetector(
            window=config.window,
            feature_dim=config.spec.dim,
            percentile=config.ae_percentile,
            seed=config.seed,
        )
    return LstmDetector(
        window=config.window,
        feature_dim=config.spec.dim,
        percentile=config.lstm_percentile,
        seed=config.seed,
    )


def _use_session_context(model: str, config: Table2Config) -> bool:
    return model == "lstm" and config.lstm_session_context


def _benign_cv(model: str, benign: LabeledDataset, config: Table2Config) -> DetectionMetrics:
    """k-fold cross-validation false-alarm measurement on benign windows."""
    windows = benign.windowed.windows
    n = len(windows)
    folds = max(2, config.cv_folds)
    indices = np.arange(n)
    tp = fp = tn = fn = 0
    for fold in range(folds):
        held_mask = indices % folds == fold
        detector = _make_detector(model, config)
        detector.fit(windows[~held_mask], epochs=config.epochs, lr=config.lr)
        if _use_session_context(model, config):
            scores = detector.session_window_scores(benign.windowed)
            detector.threshold.fit(scores[~held_mask])
            predictions = detector.threshold.classify(scores[held_mask])
        else:
            predictions = detector.detect(windows[held_mask])
        fp += int(predictions.sum())
        tn += int((~predictions).sum())
    return DetectionMetrics(tp=tp, fp=fp, tn=tn, fn=fn)


def _attack_eval(
    model: str,
    benign: LabeledDataset,
    attack: LabeledDataset,
    attack_capture: CollectedDataset,
    config: Table2Config,
) -> ModelResult:
    detector = _make_detector(model, config)
    if _use_session_context(model, config):
        detector.fit_with_session_context(
            benign.windowed, epochs=config.epochs, lr=config.lr
        )
        predictions = detector.threshold.classify(
            detector.session_window_scores(attack.windowed)
        )
    else:
        detector.fit(benign.windowed.windows, epochs=config.epochs, lr=config.lr)
        predictions = detector.detect(attack.windowed.windows)
    metrics = DetectionMetrics.from_labels(attack.window_labels, predictions)
    # Event-level recall: every armed attack instance must raise >=1 alarm.
    detected_instances = 0
    for instance in attack_capture.attacks:
        hit = any(
            predictions[i] and attack.window_attack(i) == instance.name
            for i in range(attack.num_windows)
            if attack.window_labels[i]
            and any(
                instance.is_malicious(attack.series[j])
                for j in attack.windowed.record_indices(i)
            )
        )
        detected_instances += int(hit)
    event_recall = detected_instances / len(attack_capture.attacks)
    return ModelResult(
        dataset="attack", model=model, metrics=metrics, event_recall=event_recall
    )


def run_table2(config: Optional[Table2Config] = None) -> Table2Result:
    """Run the full Table 2 experiment."""
    config = config or Table2Config()
    benign_capture = generate_benign_dataset(config.benign)
    attack_capture = generate_attack_dataset(config.attack)
    benign = benign_capture.labeled(config.spec, config.window, "benign")
    attack = attack_capture.labeled(config.spec, config.window, "attack")

    def run_cell(task) -> ModelResult:
        model, dataset = task
        if dataset == "benign":
            return ModelResult(
                dataset="benign",
                model=model,
                metrics=_benign_cv(model, benign, config),
            )
        return _attack_eval(model, benign, attack, attack_capture, config)

    tasks = [
        (model, dataset)
        for model in ("autoencoder", "lstm")
        for dataset in ("benign", "attack")
    ]
    results = [run_cell(task) for task in tasks]
    return Table2Result(results=results, config=config)
