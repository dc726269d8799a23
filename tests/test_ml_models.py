"""Tests for the autoencoder, LSTM (incl. BPTT gradient check), thresholds,
metrics, detectors, and the error-pattern classifier."""

import numpy as np
import pytest

from repro.ml import (
    Autoencoder,
    AutoencoderDetector,
    DetectionMetrics,
    ErrorPatternClassifier,
    LstmDetector,
    LstmPredictor,
    PercentileThreshold,
    confusion_matrix,
)
from repro.ml.losses import mse_loss
from tests.reference_scoring import per_slot_errors, reconstruction_errors


def synthetic_patterns(n, dim, rng, anomaly=False):
    """One-hot-ish pattern data: benign repeats a sparse motif with noise."""
    base = np.zeros(dim)
    base[::4] = 1.0  # sparse motif: bits 0, 4, 8, ...
    data = np.tile(base, (n, 1))
    flips = rng.random(data.shape) < 0.01
    data = np.abs(data - flips.astype(float))
    if anomaly:
        # Invert a block of the motif: a pattern benign noise cannot produce.
        data[:, : min(8, dim)] = 1.0 - np.tile(base[: min(8, dim)], (n, 1))
    return data


class TestAutoencoder:
    def test_rejects_non_compressing_latent(self):
        with pytest.raises(ValueError):
            Autoencoder(input_dim=8, hidden_dim=8, latent_dim=8)

    def test_training_reduces_loss(self):
        rng = np.random.default_rng(0)
        data = synthetic_patterns(300, 40, rng)
        model = Autoencoder(input_dim=40, hidden_dim=32, latent_dim=8, seed=1)
        report = model.fit(data, epochs=20, lr=3e-3)
        assert report.epoch_losses[-1] < report.epoch_losses[0]

    def test_anomalies_score_higher(self):
        rng = np.random.default_rng(0)
        benign = synthetic_patterns(400, 40, rng)
        anomalous = synthetic_patterns(50, 40, rng, anomaly=True)
        model = Autoencoder(input_dim=40, hidden_dim=32, latent_dim=8, seed=1)
        model.fit(benign, epochs=30, lr=3e-3)
        benign_scores = reconstruction_errors(model, benign)
        anomaly_scores = reconstruction_errors(model, anomalous)
        assert anomaly_scores.mean() > 3 * benign_scores.mean()

    def test_empty_training_rejected(self):
        model = Autoencoder(input_dim=8, hidden_dim=4, latent_dim=2)
        with pytest.raises(ValueError):
            model.fit(np.zeros((0, 8)))

    def test_wrong_input_dim_rejected(self):
        model = Autoencoder(input_dim=8, hidden_dim=4, latent_dim=2)
        with pytest.raises(ValueError):
            model.fit(np.zeros((4, 9)))

    def test_training_is_deterministic_per_seed(self):
        rng = np.random.default_rng(0)
        data = synthetic_patterns(100, 20, rng)

        def run():
            model = Autoencoder(input_dim=20, hidden_dim=16, latent_dim=4, seed=5)
            model.fit(data, epochs=5)
            return reconstruction_errors(model, data)

        assert np.array_equal(run(), run())


class TestLstmBptt:
    def test_gradient_check_full_bptt(self):
        """Analytic BPTT gradients must match finite differences."""
        rng = np.random.default_rng(4)
        model = LstmPredictor(input_dim=3, hidden_dim=4, output_dim=3, seed=2)
        x = rng.normal(size=(2, 5, 3))
        target = rng.normal(size=(2, 5, 3))

        def loss_fn():
            return mse_loss(model.forward(x), target)[0]

        for param in model.params():
            param.zero_grad()
        loss, grad = mse_loss(model.forward(x), target)
        model.backward(grad)

        from tests.test_ml_layers import numeric_gradient

        for param in model.params():
            numeric = numeric_gradient(loss_fn, param.value)
            assert np.allclose(param.grad, numeric, atol=1e-5), param.shape

    def test_forward_shapes(self):
        model = LstmPredictor(input_dim=6, hidden_dim=4, seed=0)
        out = model.forward(np.zeros((3, 7, 6)))
        assert out.shape == (3, 7, 6)

    def test_rejects_wrong_input_shape(self):
        model = LstmPredictor(input_dim=6, hidden_dim=4)
        with pytest.raises(ValueError):
            model.forward(np.zeros((3, 6)))

    def test_learns_simple_sequence(self):
        """Predict a deterministic cyclic one-hot sequence."""
        dim = 4
        cycle = np.eye(dim)
        seq = np.stack([cycle[(np.arange(6) + s) % dim] for s in range(dim)])
        targets = np.stack([cycle[(np.arange(1, 7) + s) % dim] for s in range(dim)])
        model = LstmPredictor(input_dim=dim, hidden_dim=16, seed=3)
        report = model.fit(seq, targets, epochs=200, lr=1e-2)
        assert report.final_loss < 0.01

    def test_per_step_errors_localize_anomaly(self):
        dim = 4
        cycle = np.eye(dim)
        seq = np.stack([cycle[(np.arange(6) + s) % dim] for s in range(dim)])
        targets = np.stack([cycle[(np.arange(1, 7) + s) % dim] for s in range(dim)])
        model = LstmPredictor(input_dim=dim, hidden_dim=16, seed=3)
        model.fit(seq, targets, epochs=200, lr=1e-2)
        corrupted = targets[:1].copy()
        corrupted[0, 3] = np.roll(corrupted[0, 3], 1)  # wrong symbol at step 3
        errors = model.per_step_errors(seq[:1], corrupted)
        assert errors.shape == (1, 6)
        assert errors[0].argmax() == 3


class TestThreshold:
    def test_fit_and_classify(self):
        threshold = PercentileThreshold(percentile=90.0)
        threshold.fit(np.arange(100, dtype=float))
        decisions = threshold.classify(np.array([50.0, 95.0]))
        assert list(decisions) == [False, True]

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            PercentileThreshold().classify(np.array([1.0]))

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError):
            PercentileThreshold().fit(np.array([]))

    def test_bad_percentile_rejected(self):
        with pytest.raises(ValueError):
            PercentileThreshold(percentile=0.0).fit(np.array([1.0]))


class TestMetrics:
    def test_confusion_matrix(self):
        y_true = np.array([1, 1, 0, 0], dtype=bool)
        y_pred = np.array([1, 0, 1, 0], dtype=bool)
        assert confusion_matrix(y_true, y_pred) == (1, 1, 1, 1)

    def test_perfect_detection(self):
        metrics = DetectionMetrics(tp=10, fp=0, tn=90, fn=0)
        assert metrics.accuracy == 1.0
        assert metrics.precision == 1.0
        assert metrics.recall == 1.0
        assert metrics.f1 == 1.0

    def test_benign_dataset_na_fields(self):
        metrics = DetectionMetrics(tp=0, fp=5, tn=95, fn=0)
        assert metrics.recall is None
        assert metrics.f1 is None
        assert not metrics.has_positives
        row = metrics.as_row()
        assert row["recall"] == "N/A"
        assert row["accuracy"] == "95.00%"

    def test_false_positive_rate(self):
        metrics = DetectionMetrics(tp=0, fp=5, tn=95, fn=0)
        assert metrics.false_positive_rate == pytest.approx(0.05)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.zeros(3, dtype=bool), np.zeros(4, dtype=bool))


class TestDetectors:
    def _window_data(self, rng, n, window=4, dim=10, anomaly=False):
        rows = synthetic_patterns(n * window, dim, rng, anomaly=anomaly)
        return rows.reshape(n, window * dim)

    def test_autoencoder_detector_flow(self):
        rng = np.random.default_rng(5)
        benign = self._window_data(rng, 300)
        detector = AutoencoderDetector(window=4, feature_dim=10, hidden_dim=32, latent_dim=8, seed=1)
        detector.fit(benign, epochs=20)
        assert detector.threshold.threshold is not None
        anomalous = self._window_data(rng, 20, anomaly=True)
        assert detector.detect(anomalous).mean() > 0.9
        assert detector.detect(benign).mean() < 0.05

    def test_autoencoder_mean_aggregation(self):
        rng = np.random.default_rng(5)
        benign = self._window_data(rng, 50)
        det_max = AutoencoderDetector(window=4, feature_dim=10, seed=1, aggregate="max")
        det_mean = AutoencoderDetector(window=4, feature_dim=10, seed=1, aggregate="mean")
        det_max.fit(benign, epochs=3)
        det_mean.fit(benign, epochs=3)
        assert np.all(det_max.scores(benign) >= det_mean.scores(benign) - 1e-12)

    def test_bad_aggregate_rejected(self):
        with pytest.raises(ValueError):
            AutoencoderDetector(window=4, feature_dim=10, aggregate="median")

    def test_lstm_detector_flow(self):
        rng = np.random.default_rng(6)
        benign = self._window_data(rng, 300)
        detector = LstmDetector(window=4, feature_dim=10, hidden_dim=16, seed=1)
        detector.fit(benign, epochs=20)
        anomalous = self._window_data(rng, 20, anomaly=True)
        assert detector.detect(anomalous).mean() > 0.7

    def test_lstm_needs_window_two(self):
        with pytest.raises(ValueError):
            LstmDetector(window=1, feature_dim=10)

    def test_detector_rejects_wrong_width(self):
        detector = AutoencoderDetector(window=4, feature_dim=10)
        with pytest.raises(ValueError):
            detector.scores(np.zeros((2, 39)))

    def test_per_slot_errors_shape(self):
        rng = np.random.default_rng(5)
        benign = self._window_data(rng, 30)
        detector = AutoencoderDetector(window=4, feature_dim=10, seed=1)
        detector.fit(benign, epochs=2)
        slots = per_slot_errors(detector, benign)
        assert slots.shape == (30, 4)
        assert np.allclose(slots.max(axis=1), detector.scores(benign))


class TestLstmSessionContext:
    def _windowed(self, rng, sessions=20, length=10, window=4, dim=10, anomaly_session=None):
        """Build a sessionized WindowedDataset from synthetic per-session data."""
        from repro.telemetry.features import FeatureSpec, WindowedDataset
        from repro.telemetry.mobiflow import MobiFlowRecord, TelemetrySeries

        spec = FeatureSpec(
            message_vocab=("A",),
            cause_vocab=("c",),
            include_state=False,
            include_timing=False,
            include_rates=False,
            include_identifiers=False,
        )
        records = []
        t = 0.0
        for s in range(1, sessions + 1):
            for k in range(length):
                records.append(
                    MobiFlowRecord(
                        timestamp=t, msg="A", protocol="RRC", direction="UL", session_id=s
                    )
                )
                t += 0.1
        series = TelemetrySeries(records)
        return spec, WindowedDataset.from_series(series, spec, window)

    def test_record_errors_zero_for_first_record(self):
        rng = np.random.default_rng(8)
        detector = LstmDetector(window=4, feature_dim=3, hidden_dim=8, seed=1)
        per_record = rng.random((10, 3))
        groups = [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
        errors = detector.record_errors(per_record, groups)
        assert errors[0] == 0.0 and errors[5] == 0.0
        assert errors.shape == (10,)

    def test_session_window_scores_shape_and_threshold_fit(self):
        rng = np.random.default_rng(9)
        spec, windowed = self._windowed(rng)
        detector = LstmDetector(
            window=4, feature_dim=spec.dim, hidden_dim=8, seed=1, percentile=97.5
        )
        detector.fit_with_session_context(windowed, epochs=3)
        assert detector.threshold.threshold is not None
        scores = detector.session_window_scores(windowed)
        assert scores.shape == (windowed.num_windows,)
        assert np.all(scores >= 0.0)

    def test_singleton_group_scores_zero(self):
        detector = LstmDetector(window=4, feature_dim=3, hidden_dim=8, seed=1)
        errors = detector.record_errors(np.random.default_rng(0).random((3, 3)), [[0]])
        assert errors[0] == 0.0


class TestErrorPatternClassifier:
    def _burst(self, kind, rng):
        length = rng.integers(8, 20)
        x = np.linspace(0, 1, length)
        if kind == "spike":
            return np.exp(-((x - 0.5) ** 2) / 0.01)
        if kind == "ramp":
            return x
        return np.ones(length) * 0.5 + rng.normal(0, 0.01, length)

    def test_classifies_distinct_shapes(self):
        rng = np.random.default_rng(7)
        bursts, labels = [], []
        for kind in ("spike", "ramp", "flat"):
            for _ in range(4):
                bursts.append(self._burst(kind, rng))
                labels.append(kind)
        classifier = ErrorPatternClassifier()
        classifier.fit(bursts, labels)
        assert classifier.labels == ["flat", "ramp", "spike"]
        for kind in ("spike", "ramp", "flat"):
            assert classifier.predict(self._burst(kind, rng)) == kind

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            ErrorPatternClassifier().predict(np.ones(5))

    def test_misaligned_fit_rejected(self):
        with pytest.raises(ValueError):
            ErrorPatternClassifier().fit([np.ones(4)], ["a", "b"])

    def test_empty_burst_rejected(self):
        from repro.ml.error_classifier import error_signature

        with pytest.raises(ValueError):
            error_signature(np.array([]))

    def test_signature_is_scale_invariant(self):
        from repro.ml.error_classifier import error_signature

        burst = np.array([0.1, 0.5, 0.2])
        assert np.allclose(error_signature(burst), error_signature(burst * 10))
