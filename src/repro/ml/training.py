"""The one mini-batch training loop both MobiWatch models train through.

The SMO trains the autoencoder and the LSTM predictor offline on benign
telemetry (paper §3.2, §4.1) with one recipe — shuffled mini-batches,
Adam, MSE — so :func:`train_minibatch` is the only place a weight is
updated. It also offers a tail validation split with early stopping
(patience on the validation loss); ``Autoencoder.fit`` and
``LstmPredictor.fit`` train without one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import math

import numpy as np

from repro.ml.losses import mse_loss
from repro.ml.optim import Adam
from repro.obs.metrics import MetricsRegistry


@dataclass
class TrainConfig:
    """Knobs of one training run."""

    epochs: int = 30
    batch_size: int = 64
    lr: float = 1e-3
    # Fraction of samples held out for validation (0 disables early stop).
    validation_fraction: float = 0.0
    # Stop after this many epochs without validation improvement.
    patience: int = 5
    # Minimum relative improvement to reset patience.
    min_improvement: float = 1e-4
    seed: int = 0


@dataclass
class TrainHistory:
    """Loss trajectory of one training run."""

    epoch_losses: list = field(default_factory=list)
    validation_losses: list = field(default_factory=list)
    stopped_early: bool = False
    best_epoch: int = -1

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")


# The trainable: forward(batch_x) -> prediction; backward(grad) accumulates
# parameter gradients (the input gradient is never used); params();
# optional reset() drops forward state kept only for the backward pass (the
# loop calls it, when present, after inference-only forwards such as the
# validation pass).
def train_minibatch(
    trainable,
    inputs: np.ndarray,
    targets: np.ndarray,
    config: Optional[TrainConfig] = None,
    metrics: Optional[MetricsRegistry] = None,
    rng: Optional[np.random.Generator] = None,
) -> TrainHistory:
    """Train ``trainable`` to map ``inputs`` to ``targets`` with MSE/Adam.

    With ``validation_fraction > 0`` a tail split is held out; training
    stops once the validation loss fails to improve for ``patience``
    epochs, and the history records where the best epoch was. With a
    ``metrics`` registry, per-epoch losses are observed into
    ``ml.train.epoch_loss`` (and validation into ``ml.train.val_loss``).
    ``rng`` draws the per-epoch shuffles; the default is a fresh stream
    seeded from ``config.seed`` (the models pass their own).

    A run that would train nothing is refused: ``epochs < 1``,
    ``batch_size < 1`` or a non-finite or non-positive ``lr`` raise
    ``ValueError`` instead of returning untouched weights.
    """
    config = config or TrainConfig()
    if config.epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {config.epochs}")
    if config.batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {config.batch_size}")
    if not (math.isfinite(config.lr) and config.lr > 0):
        raise ValueError(f"lr must be finite and > 0, got {config.lr}")
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if len(inputs) != len(targets):
        raise ValueError("inputs and targets must align")
    if len(inputs) == 0:
        raise ValueError("cannot train on an empty dataset")

    n_val = 0
    if config.validation_fraction > 0:
        if not 0 < config.validation_fraction < 1:
            raise ValueError("validation_fraction must be in (0, 1)")
        n_val = max(1, int(len(inputs) * config.validation_fraction))
        if n_val >= len(inputs):
            raise ValueError("validation split leaves no training data")
    train_x, train_y = inputs[: len(inputs) - n_val], targets[: len(targets) - n_val]
    val_x, val_y = inputs[len(inputs) - n_val :], targets[len(targets) - n_val :]

    optimizer = Adam(trainable.params(), lr=config.lr)
    shuffle = rng if rng is not None else np.random.default_rng(config.seed)
    history = TrainHistory()
    loss_buckets = (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)
    epoch_loss_hist = (
        metrics.histogram("ml.train.epoch_loss", buckets=loss_buckets)
        if metrics is not None
        else None
    )
    val_loss_hist = (
        metrics.histogram("ml.train.val_loss", buckets=loss_buckets)
        if metrics is not None
        else None
    )
    best_val = float("inf")
    stale_epochs = 0
    n = len(train_x)
    for epoch in range(config.epochs):
        order = shuffle.permutation(n)
        epoch_loss = 0.0
        batches = 0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            optimizer.zero_grad()
            prediction = trainable.forward(train_x[idx])
            loss, grad = mse_loss(prediction, train_y[idx])
            trainable.backward(grad)
            optimizer.step()
            epoch_loss += loss
            batches += 1
        history.epoch_losses.append(epoch_loss / batches)
        if epoch_loss_hist is not None:
            epoch_loss_hist.observe(history.epoch_losses[-1])

        if n_val:
            val_loss, _ = mse_loss(trainable.forward(val_x), val_y)
            if val_loss_hist is not None:
                val_loss_hist.observe(val_loss)
            # Inference pass must not leave stale backward state behind.
            reset = getattr(trainable, "reset", None)
            if reset is not None:
                reset()
            history.validation_losses.append(val_loss)
            if val_loss < best_val * (1.0 - config.min_improvement):
                best_val = val_loss
                history.best_epoch = epoch
                stale_epochs = 0
            else:
                stale_epochs += 1
                if stale_epochs >= config.patience:
                    history.stopped_early = True
                    break
    if history.best_epoch < 0:
        history.best_epoch = int(np.argmin(history.epoch_losses))
    return history


def train_autoencoder(autoencoder, windows: np.ndarray, config: TrainConfig) -> TrainHistory:
    """Train an :class:`~repro.ml.autoencoder.Autoencoder` via the shared loop."""
    if windows.ndim != 2 or windows.shape[1] != autoencoder.input_dim:
        raise ValueError(
            f"expected [n, {autoencoder.input_dim}] windows, got {windows.shape}"
        )
    return train_minibatch(autoencoder, windows, windows, config)


def train_lstm(predictor, sequences: np.ndarray, targets: np.ndarray, config: TrainConfig) -> TrainHistory:
    """Train an :class:`~repro.ml.lstm.LstmPredictor` via the shared loop."""
    return train_minibatch(predictor, sequences, targets, config)
