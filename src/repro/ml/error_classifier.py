"""Supervised attack-type classifier over reconstruction-error patterns.

Paper §4.1 observes that "different attack instances of the same type
exhibit highly similar group anomaly patterns with respect to the
reconstruction errors" and suggests "this feature is potentially useful for
training a supervised attack classifier". This module implements that
follow-on idea: each attack event is summarized by the *shape* of its
reconstruction-error burst (a fixed-length signature), and a
nearest-centroid classifier recognizes the attack type.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def error_signature(scores: np.ndarray, length: int = 16) -> np.ndarray:
    """Summarize an error burst into a fixed-length, scale-normalized shape.

    The burst is linearly resampled to ``length`` points and normalized by
    its peak, so instances of the same attack align regardless of duration
    or absolute error magnitude.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("empty error burst")
    positions = np.linspace(0.0, scores.size - 1.0, length)
    resampled = np.interp(positions, np.arange(scores.size), scores)
    peak = resampled.max()
    if peak > 0:
        resampled = resampled / peak
    return resampled


@dataclass
class _ClassCentroid:
    label: str
    centroid: np.ndarray
    count: int


class ErrorPatternClassifier:
    """Nearest-centroid classifier on error signatures."""

    def __init__(self, signature_length: int = 16) -> None:
        self.signature_length = signature_length
        self._centroids: dict[str, _ClassCentroid] = {}

    @property
    def labels(self) -> list[str]:
        return sorted(self._centroids)

    def fit(self, bursts: list[np.ndarray], labels: list[str]) -> "ErrorPatternClassifier":
        """Learn one centroid per attack label from labeled error bursts."""
        if len(bursts) != len(labels):
            raise ValueError("bursts and labels must align")
        if not bursts:
            raise ValueError("cannot fit on no data")
        grouped: dict[str, list[np.ndarray]] = {}
        for burst, label in zip(bursts, labels):
            grouped.setdefault(label, []).append(
                error_signature(burst, self.signature_length)
            )
        self._centroids = {
            label: _ClassCentroid(
                label=label,
                centroid=np.mean(np.stack(signatures), axis=0),
                count=len(signatures),
            )
            for label, signatures in grouped.items()
        }
        return self

    def predict(self, burst: np.ndarray) -> str:
        """Classify one error burst to the nearest attack centroid."""
        if not self._centroids:
            raise RuntimeError("classifier not fitted")
        signature = error_signature(burst, self.signature_length)
        best_label, best_distance = "", float("inf")
        for label, entry in sorted(self._centroids.items()):
            distance = float(np.linalg.norm(signature - entry.centroid))
            if distance < best_distance:
                best_label, best_distance = label, distance
        return best_label
