"""Unified anomaly-detector interface over the two models (paper §3.2).

Both detectors consume the :class:`~repro.telemetry.features.WindowedDataset`
window matrix ``[num_windows, N * D]``:

- the **Autoencoder** reconstructs the whole window;
- the **LSTM** reads the first ``N-1`` entries of the window and predicts
  the last one, so its score for window ``S_i`` is the prediction error on
  ``x_{i+N-1}`` — the alignment keeps both models' decisions comparable
  window-for-window under the paper's labeling rule.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from repro.ml.autoencoder import Autoencoder, TrainReport
from repro.ml.compiled import CompiledModel
from repro.ml.lstm import LstmPredictor
from repro.ml.threshold import PercentileThreshold
from repro.ml.trainer import compile_trainer
from repro.obs.metrics import MetricsRegistry

# Reconstruction/prediction errors live well below 1.0 on benign traffic.
_ERROR_BUCKETS = (1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)


def merge_session_groups(window_records) -> list:
    """Rebuild per-session record groups from sessionized window records.

    Sessionized windowing emits each session's windows contiguously and
    adjacent windows of one session overlap, so a linear connectivity pass
    reconstructs the per-session record lists exactly. Shared by the
    float64 session-context scorer and the int8 tier's offline
    evaluation (:mod:`repro.ml.quantized`).
    """
    merged: list = []
    current: Optional[set] = None
    for window_indices in window_records:
        indices = set(window_indices)
        if current is not None and (indices & current):
            current |= indices
        else:
            if current is not None:
                merged.append(sorted(current))
            current = indices
    if current is not None:
        merged.append(sorted(current))
    return merged


class AnomalyDetector(abc.ABC):
    """fit on benign windows -> score/detect arbitrary windows."""

    name: str = "detector"

    def __init__(self, window: int, feature_dim: int, percentile: float = 99.0) -> None:
        self.window = window
        self.feature_dim = feature_dim
        self.threshold = PercentileThreshold(percentile=percentile)
        self.training_scores: Optional[np.ndarray] = None
        self.metrics: Optional[MetricsRegistry] = None
        # Kernel precisions. float64 is exact: scores are bit-identical to
        # reference_scores() and training to the seed fit loops; float32 is
        # the documented throughput tier (XsecConfig.scoring at deployment,
        # XsecConfig.trainer_dtype at training).
        self.scoring_dtype = "float64"
        self.trainer_dtype = "float64"
        # Fused inference kernels over a weight snapshot (repro.ml.compiled):
        # built by the first scores() after a fit/load, dropped by fit().
        self._compiled: Optional[CompiledModel] = None
        # The int8 tier (repro.ml.quantized): with calibrate_int8 set (by
        # build_detector under scoring="int8"), fit() also runs the int8
        # calibration pass over the training windows and fits a separate
        # operating threshold in quantized score space (quantized scores
        # are not float64 scores, so reusing the float64 threshold would
        # shift the operating point).
        self.calibrate_int8 = False
        self.calibration = None
        self.quantized_threshold: Optional[PercentileThreshold] = None
        self.quantized_training_scores: Optional[np.ndarray] = None

    def attach_metrics(self, metrics: MetricsRegistry) -> None:
        """Route training/inference error distributions into a registry."""
        self.metrics = metrics
        if self._compiled is not None:
            self._compiled.attach_metrics(metrics)

    def _fit_quantized_tier(self, windows: np.ndarray) -> None:
        """Calibration + quantized-threshold pass after a fit (if
        :attr:`calibrate_int8`): the int8 input scale over the training
        windows, then :attr:`quantized_threshold` at the same percentile on
        the int8 tier's own training scores."""
        self.calibration = None
        self.quantized_threshold = self.quantized_training_scores = None
        if not self.calibrate_int8:
            return
        from repro.ml.quantized import calibrate_windows

        self.calibration = calibrate_windows(windows)
        self._fit_quantized_threshold(windows)

    def _fit_quantized_threshold(self, windows: np.ndarray) -> None:
        """Detector-specific quantized threshold fit (no-op by default)."""

    def _set_quantized_operating_point(self, quantized_scores: np.ndarray) -> None:
        """Fit the quantized threshold; keep its scores for an A1 re-fit."""
        self.quantized_training_scores = quantized_scores
        self.quantized_threshold = PercentileThreshold(percentile=self.threshold.percentile)
        self.quantized_threshold.fit(quantized_scores)

    def recompile(self) -> None:
        """Drop the kernel snapshot and its score memo; :meth:`scores` rebuilds."""
        self._compiled = None

    @property
    def compiled(self) -> CompiledModel:
        """The fused kernels over the current weights in ``scoring_dtype``."""
        compiled = self._compiled
        if compiled is None or compiled.dtype != self.scoring_dtype:
            compiled = self._compiled = CompiledModel(self, self.scoring_dtype)
            if self.metrics is not None:
                compiled.attach_metrics(self.metrics)
        return compiled

    def _check(self, windows: np.ndarray, dtype=np.float64) -> np.ndarray:
        windows = np.asarray(windows, dtype=dtype)
        expected = self.window * self.feature_dim
        if windows.ndim != 2 or windows.shape[1] != expected:
            raise ValueError(
                f"expected [n, {expected}] windows "
                f"(window={self.window} x dim={self.feature_dim}), got {windows.shape}"
            )
        return windows

    def fit(self, benign_windows: np.ndarray, **train_kwargs) -> TrainReport:
        """Train on benign windows and fit the percentile threshold."""
        windows = self._check(benign_windows)
        report = self._fit_model(windows, **train_kwargs)
        self.recompile()  # weights changed: the kernel snapshot is stale
        self.training_scores = self.scores(windows)
        # That snapshot's buffers are sized for the whole training set;
        # live scoring rebuilds one sized for its own batches.
        self.recompile()
        self.threshold.fit(self.training_scores)
        self._fit_quantized_tier(windows)
        if self.metrics is not None:
            loss_hist = self.metrics.histogram(
                f"ml.{self.name}.epoch_loss", buckets=_ERROR_BUCKETS
            )
            for loss in report.epoch_losses:
                loss_hist.observe(loss)
            score_hist = self.metrics.histogram(
                f"ml.{self.name}.training_score", buckets=_ERROR_BUCKETS
            )
            score_hist.observe_many(self.training_scores)
            self.metrics.gauge(f"ml.{self.name}.threshold").set(
                self.threshold.threshold or 0.0
            )
        return report

    def detect(self, windows: np.ndarray) -> np.ndarray:
        """Boolean anomaly decision per window."""
        return self.threshold.classify(self.scores(windows))

    def scores(self, windows: np.ndarray, per_row: bool = False) -> np.ndarray:
        """Anomaly score per window (higher = more anomalous).

        ``per_row=True`` is the live path's row-exact batch mode: in
        float64, ``scores(m, per_row=True)[i]`` equals ``scores(m[i:i+1])[0]``
        bit for bit at any batch height (see :mod:`repro.ml.compiled`) — a
        function of row ``i``'s bytes alone, so the snapshot's bounded memo
        answers rows it has scored before and only the rest reach the
        kernels. The default scores the batch through full-height GEMMs (no
        memo, like float32) — what training thresholds and the offline
        tables are computed with.
        """
        # The kernels convert into their own dtype buffers, so only the
        # shape is checked here (no float64 up-conversion).
        compiled = self.compiled
        windows = self._check(windows, dtype=None)
        if per_row and compiled.dtype == "float64" and len(windows):
            return compiled.memo_scores(windows)
        return compiled.scores(windows, per_row)

    def reference_scores(self, windows: np.ndarray, per_row: bool = False) -> np.ndarray:
        """:meth:`scores` by walking the model's layer objects in float64 —
        the reference the float64 kernels must equal bit for bit
        (``per_row``: one walk per ``[1, window*dim]`` row)."""
        windows = self._check(windows)
        if per_row:
            return np.array([self._scores(windows[i : i + 1])[0] for i in range(len(windows))])
        return self._scores(windows)

    @abc.abstractmethod
    def _fit_model(self, windows: np.ndarray, **train_kwargs) -> TrainReport:
        """Train the model through its compiled trainer (repro.ml.trainer)."""

    @abc.abstractmethod
    def _scores(self, windows: np.ndarray) -> np.ndarray:
        """Reference scoring path on checked ``[n, window*dim]`` windows."""


class AutoencoderDetector(AnomalyDetector):
    """Reconstruction-error detector.

    ``aggregate='max'`` (default) scores a window by the worst-reconstructed
    entry slot rather than the window mean, so a single anomalous telemetry
    entry is not diluted across the other N-1 entries; ``'mean'`` gives the
    plain whole-window MSE.
    """

    name = "autoencoder"

    def __init__(
        self,
        window: int,
        feature_dim: int,
        hidden_dim: int = 64,
        latent_dim: int = 16,
        percentile: float = 99.0,
        seed: int = 0,
        aggregate: str = "max",
    ) -> None:
        super().__init__(window, feature_dim, percentile)
        if aggregate not in ("max", "mean"):
            raise ValueError(f"aggregate must be 'max' or 'mean', got {aggregate!r}")
        self.aggregate = aggregate
        self.model = Autoencoder(
            input_dim=window * feature_dim,
            hidden_dim=hidden_dim,
            latent_dim=latent_dim,
            seed=seed,
        )

    def _fit_model(self, windows: np.ndarray, **train_kwargs) -> TrainReport:
        return compile_trainer(self.model, self.trainer_dtype).fit(windows, **train_kwargs)

    def _scores(self, windows: np.ndarray) -> np.ndarray:
        if self.aggregate == "mean":
            return self.model.reconstruction_errors(windows)
        return self.per_slot_errors(windows).max(axis=1)

    def per_slot_errors(self, windows: np.ndarray) -> np.ndarray:
        """Reconstruction MSE per entry slot: [n, window]."""
        windows = self._check(windows)
        if len(windows) == 0:
            return np.zeros((0, self.window))
        reconstruction = self.model.reconstruct(windows)
        diff = (reconstruction - windows).reshape(-1, self.window, self.feature_dim)
        return np.mean(diff**2, axis=2)


class LstmDetector(AnomalyDetector):
    """Next-step prediction-error detector."""

    name = "lstm"

    def __init__(
        self,
        window: int,
        feature_dim: int,
        hidden_dim: int = 32,
        percentile: float = 99.0,
        seed: int = 0,
    ) -> None:
        if window < 2:
            raise ValueError("LSTM detector needs window >= 2 (context + target)")
        super().__init__(window, feature_dim, percentile)
        self.model = LstmPredictor(
            input_dim=feature_dim, hidden_dim=hidden_dim, output_dim=feature_dim, seed=seed
        )

    def _split(self, windows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Window matrix -> (inputs [n, N-1, D], next-step targets [n, N-1, D]).

        Inputs are the window's entries 0..N-2; targets are entries 1..N-1
        (the sequence shifted by one), so the model predicts every entry of
        the window except the first.
        """
        n = windows.shape[0]
        unflattened = windows.reshape(n, self.window, self.feature_dim)
        return unflattened[:, :-1, :], unflattened[:, 1:, :]

    def _fit_model(self, windows: np.ndarray, **train_kwargs) -> TrainReport:
        sequences, targets = self._split(windows)
        trainer = compile_trainer(self.model, self.trainer_dtype)
        return trainer.fit(sequences, targets, **train_kwargs)

    def _scores(self, windows: np.ndarray) -> np.ndarray:
        """Window score: worst next-step prediction error within the window."""
        sequences, targets = self._split(windows)
        return self.model.per_step_errors(sequences, targets).max(axis=1)

    # -- session-context scoring -------------------------------------------------

    def record_errors(
        self, per_record: np.ndarray, groups: list
    ) -> np.ndarray:
        """Next-step prediction error per record with *full session context*.

        ``groups`` lists each session's record indices (stream order). The
        LSTM runs once over each whole session, so a record's error uses
        every earlier record of its session as context — not just the
        window prefix. Only each session's first record is unpredictable
        (error 0).
        """
        per_record = np.asarray(per_record, dtype=np.float64)
        errors = np.zeros(per_record.shape[0])
        for indices in groups:
            indices = list(indices)
            if len(indices) < 2:
                continue
            sequence = per_record[indices]
            per_step = self.model.per_step_errors(
                sequence[None, :-1, :], sequence[None, 1:, :]
            )[0]
            errors[indices[1:]] = per_step
        return errors

    def session_window_scores(self, windowed) -> np.ndarray:
        """Score every window of a sessionized WindowedDataset by the worst
        session-context record error it contains."""
        merged = merge_session_groups(windowed.window_records)
        record_errors = self.record_errors(windowed.per_record, merged)
        return np.array(
            [
                record_errors[list(indices)].max() if indices else 0.0
                for indices in windowed.window_records
            ]
        )

    def fit_with_session_context(self, windowed, **train_kwargs):
        """Train on the dataset's windows, then fit the threshold on
        session-context scores (keeps train/serve scoring identical)."""
        windows = self._check(windowed.windows)
        report = self._fit_model(windows, **train_kwargs)
        self.recompile()  # weights changed: the kernel snapshot is stale
        self.training_scores = self.session_window_scores(windowed)
        self.threshold.fit(self.training_scores)
        # Quantized tier: calibrate, then fit its threshold on quantized
        # *session-context* scores — same scoring semantics the threshold
        # above uses in float64.
        self.calibration = None
        self.quantized_threshold = self.quantized_training_scores = None
        if self.calibrate_int8:
            from repro.ml.quantized import QuantizedLstmEngine, calibrate_windows

            self.calibration = calibrate_windows(windows)
            engine = QuantizedLstmEngine(self, self.calibration)
            self._set_quantized_operating_point(engine.session_window_scores(windowed))
        return report

    def _fit_quantized_threshold(self, windows: np.ndarray) -> None:
        """Fit the quantized tier's operating threshold on its own scores.

        A fresh engine snapshots the just-trained weights; its window-mode
        training scores define the percentile operating point in quantized
        score space (mirroring how the float64 threshold is fit on float64
        training scores).
        """
        from repro.ml.quantized import QuantizedLstmEngine

        engine = QuantizedLstmEngine(self, self.calibration)
        self._set_quantized_operating_point(engine.window_scores(windows, self.window))
