"""Dataset containers and the paper's labeling rules (§4, Dataset Labeling).

Rules:

1. every entry of a benign capture is benign;
2. in an attack capture, the ground-truth malicious entries ``x_i`` are
   identified (here: by the attack objects' predicates instead of manually),
   and every window that *contains* a malicious entry is malicious —
   ``{S_{i-N+1} .. S_i}`` for window size ``N``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from repro.telemetry.features import FeatureSpec, WindowedDataset
from repro.telemetry.mobiflow import TelemetrySeries


def label_records(
    series: TelemetrySeries, attacks: Iterable
) -> np.ndarray:
    """Per-record ground truth: entry is malicious if any attack claims it."""
    attacks = list(attacks)
    labels = np.zeros(len(series), dtype=bool)
    for i, record in enumerate(series):
        labels[i] = any(attack.is_malicious(record) for attack in attacks)
    return labels


def label_sequences(record_labels: np.ndarray, window: int) -> np.ndarray:
    """Window labels: a window is malicious iff it contains a malicious entry."""
    m = len(record_labels)
    if m < window:
        return np.zeros(0, dtype=bool)
    out = np.zeros(m - window + 1, dtype=bool)
    for i in range(m - window + 1):
        out[i] = bool(record_labels[i : i + window].any())
    return out


@dataclass
class LabeledDataset:
    """A telemetry series with ground truth and its windowed encoding."""

    name: str
    series: TelemetrySeries
    record_labels: np.ndarray
    windowed: WindowedDataset
    window_labels: np.ndarray
    # Which attack (by name) produced each malicious record, for reporting.
    record_attack: list[Optional[str]] = field(default_factory=list)

    @classmethod
    def build(
        cls,
        name: str,
        series: TelemetrySeries,
        spec: FeatureSpec,
        window: int,
        attacks: Iterable = (),
        mode: str = "session",
    ) -> "LabeledDataset":
        attacks = list(attacks)
        record_labels = label_records(series, attacks)
        record_attack: list[Optional[str]] = []
        for record in series:
            owner = next(
                (attack.name for attack in attacks if attack.is_malicious(record)), None
            )
            record_attack.append(owner)
        windowed = WindowedDataset.from_series(series, spec, window, mode=mode)
        window_labels = np.zeros(windowed.num_windows, dtype=bool)
        for i, indices in enumerate(windowed.window_records):
            window_labels[i] = bool(record_labels[list(indices)].any())
        return cls(
            name=name,
            series=series,
            record_labels=record_labels,
            windowed=windowed,
            window_labels=window_labels,
            record_attack=record_attack,
        )

    @property
    def num_windows(self) -> int:
        return self.windowed.num_windows

    @property
    def malicious_window_count(self) -> int:
        return int(self.window_labels.sum())

    def window_attack(self, window_index: int) -> Optional[str]:
        """Name of the attack touching a window (first malicious entry wins)."""
        for i in self.windowed.record_indices(window_index):
            if self.record_attack[i] is not None:
                return self.record_attack[i]
        return None

    def benign_windows(self) -> np.ndarray:
        return self.windowed.windows[~self.window_labels]

    def malicious_windows(self) -> np.ndarray:
        return self.windowed.windows[self.window_labels]
