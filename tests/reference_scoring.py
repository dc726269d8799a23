"""The layer-walking scoring path, kept as a test oracle.

``AnomalyDetector.scores`` runs the fused float64 kernels of
``repro.ml.compiled``; these functions score by walking the model's layer
objects instead, in the same op sequence. ``tests/test_hotpath.py`` and
``tests/test_score_memo.py`` hold the kernels to them bit for bit, in the
full-height and the row-exact batch modes. Not imported by ``src``.
"""

import numpy as np

from repro.ml.detector import AnomalyDetector, AutoencoderDetector, LstmDetector


def per_sample_mse(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Row-wise mean squared error (the anomaly score)."""
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    return np.mean((pred - target) ** 2, axis=tuple(range(1, pred.ndim)))


def reconstruction_errors(model, x: np.ndarray) -> np.ndarray:
    """Per-window anomaly scores of an ``Autoencoder`` (row-wise MSE)."""
    x = np.asarray(x, dtype=np.float64)
    if len(x) == 0:
        return np.zeros(0)
    return per_sample_mse(model.model.forward(x), x)


def per_slot_errors(detector: AutoencoderDetector, windows: np.ndarray) -> np.ndarray:
    """Reconstruction MSE per entry slot: [n, window]."""
    windows = detector._check(windows)
    if len(windows) == 0:
        return np.zeros((0, detector.window))
    reconstruction = detector.model.model.forward(windows)
    diff = (reconstruction - windows).reshape(-1, detector.window, detector.feature_dim)
    return np.mean(diff**2, axis=2)


def _scores(detector: AnomalyDetector, windows: np.ndarray) -> np.ndarray:
    """Scores of checked ``[n, window*dim]`` windows."""
    if isinstance(detector, AutoencoderDetector):
        if detector.aggregate == "mean":
            return reconstruction_errors(detector.model, windows)
        return per_slot_errors(detector, windows).max(axis=1)
    if isinstance(detector, LstmDetector):
        # Worst next-step prediction error within the window.
        sequences, targets = detector._split(windows)
        return detector.model.per_step_errors(sequences, targets).max(axis=1)
    raise TypeError(f"no reference scoring for {type(detector).__name__}")


def reference_scores(
    detector: AnomalyDetector, windows: np.ndarray, per_row: bool = False
) -> np.ndarray:
    """``detector.scores`` by walking the model's layer objects in float64
    (``per_row``: one walk per ``[1, window*dim]`` row). Takes the detector
    first, so it patches over ``AnomalyDetector.scores`` as a method."""
    windows = detector._check(windows)
    if per_row:
        return np.array([_scores(detector, windows[i : i + 1])[0] for i in range(len(windows))])
    return _scores(detector, windows)
