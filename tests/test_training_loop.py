"""Tests for the one training loop (validation split, early stopping, and
refusing a run that would train nothing)."""

import numpy as np
import pytest

from repro.core import XsecConfig
from repro.core.framework import build_detector
from repro.ml import Autoencoder, LstmPredictor
from repro.ml.training import (
    TrainConfig,
    train_autoencoder,
    train_lstm,
    train_minibatch,
)
from tests.reference_scoring import reconstruction_errors


class LinearTrainable:
    """y = xW, trainable; a minimal protocol implementation."""

    def __init__(self, dim, seed=0):
        from repro.ml.layers import Dense

        self.layer = Dense(dim, dim, np.random.default_rng(seed))

    def forward(self, x):
        return self.layer.forward(x)

    def backward(self, grad):
        self.layer.backward(grad)

    def params(self):
        return self.layer.params()


class TestTrainMinibatch:
    def test_loss_decreases(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(200, 6))
        w_true = rng.normal(size=(6, 6))
        y = x @ w_true
        model = LinearTrainable(6)
        history = train_minibatch(model, x, y, TrainConfig(epochs=40, lr=3e-2))
        assert history.epoch_losses[-1] < 0.05 * history.epoch_losses[0]
        assert not history.stopped_early

    def test_validation_split_and_early_stop(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(300, 4))
        y = x.copy()
        model = LinearTrainable(4, seed=1)
        history = train_minibatch(
            model,
            x,
            y,
            TrainConfig(
                epochs=500, lr=5e-2, validation_fraction=0.2, patience=3
            ),
        )
        assert history.validation_losses
        assert history.stopped_early
        assert len(history.epoch_losses) < 500
        assert 0 <= history.best_epoch < len(history.epoch_losses)

    def test_misaligned_inputs_rejected(self):
        model = LinearTrainable(3)
        with pytest.raises(ValueError):
            train_minibatch(model, np.zeros((4, 3)), np.zeros((5, 3)))

    def test_empty_dataset_rejected(self):
        model = LinearTrainable(3)
        with pytest.raises(ValueError):
            train_minibatch(model, np.zeros((0, 3)), np.zeros((0, 3)))

    def test_bad_validation_fraction_rejected(self):
        model = LinearTrainable(3)
        with pytest.raises(ValueError):
            train_minibatch(
                model,
                np.zeros((4, 3)),
                np.zeros((4, 3)),
                TrainConfig(validation_fraction=1.5),
            )


class TestModelAdapters:
    def test_train_autoencoder_shared_loop(self):
        rng = np.random.default_rng(2)
        data = (rng.random((150, 20)) > 0.7).astype(float)
        model = Autoencoder(input_dim=20, hidden_dim=16, latent_dim=4, seed=2)
        history = train_autoencoder(model, data, TrainConfig(epochs=15, lr=3e-3))
        assert history.epoch_losses[-1] < history.epoch_losses[0]
        # The trained model reconstructs better than an untrained clone.
        fresh = Autoencoder(input_dim=20, hidden_dim=16, latent_dim=4, seed=99)
        assert (
            reconstruction_errors(model, data).mean()
            < reconstruction_errors(fresh, data).mean()
        )

    def test_train_autoencoder_shape_check(self):
        model = Autoencoder(input_dim=20, hidden_dim=16, latent_dim=4)
        with pytest.raises(ValueError):
            train_autoencoder(model, np.zeros((5, 19)), TrainConfig())

    def test_train_lstm_shared_loop_with_early_stop(self):
        dim = 4
        cycle = np.eye(dim)
        seq = np.stack([cycle[(np.arange(6) + s) % dim] for s in range(dim)] * 10)
        targets = np.stack(
            [cycle[(np.arange(1, 7) + s) % dim] for s in range(dim)] * 10
        )
        model = LstmPredictor(input_dim=dim, hidden_dim=16, seed=3)
        history = train_lstm(
            model,
            seq,
            targets,
            TrainConfig(epochs=400, lr=1e-2, validation_fraction=0.2, patience=5),
        )
        assert history.final_loss < 0.05
        assert history.validation_losses


class TestRefusesTrainingNothing:
    """A run that updates no weight must fail, not return a detector whose
    threshold was fit on its random initial weights."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"epochs": -3},
            {"batch_size": 0},
            {"lr": 0.0},
            {"lr": -1e-3},
            {"lr": float("nan")},
            {"lr": float("inf")},
        ],
        ids=["epochs0", "epochs-3", "batch0", "lr0", "lr-neg", "lr-nan", "lr-inf"],
    )
    def test_loop_rejects(self, kwargs):
        model = LinearTrainable(3)
        with pytest.raises(ValueError):
            train_minibatch(model, np.ones((4, 3)), np.ones((4, 3)), TrainConfig(**kwargs))

    @pytest.mark.parametrize("detector", ["autoencoder", "lstm"])
    def test_detector_fit_with_zero_epochs_rejected(self, detector):
        config = XsecConfig(detector=detector, window=3)
        windows = np.zeros((8, 3 * config.spec.dim))
        with pytest.raises(ValueError, match="epochs"):
            build_detector(config).fit(windows, epochs=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"train_epochs": 0},
            {"train_epochs": -3},
            {"train_lr": 0.0},
            {"train_lr": -2e-3},
            {"train_lr": float("nan")},
            {"train_lr": float("inf")},
        ],
        ids=["epochs0", "epochs-3", "lr0", "lr-neg", "lr-nan", "lr-inf"],
    )
    def test_config_rejects(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            XsecConfig(**kwargs)

    def test_trainer_dtype_is_gone(self):
        with pytest.raises(TypeError):
            XsecConfig(trainer_dtype="float64")
